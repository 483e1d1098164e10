"""Compiled tactics: executable matchers generated from TDS records.

This is the runtime form of the code the MLT TableGen backend emits
(Listing 7): a structural matcher over the loop nest plus access
matchers over the innermost block, producing a :class:`MatchResult`
that the builders consume.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis.accesses import access_function
from ..dialects.affine import (
    AffineForOp,
    AffineLoadOp,
    AffineStoreOp,
    perfect_nest,
)
from ..dialects.std import AddFOp, MulFOp
from ..ir import Operation, Value
from .matchers.access import (
    AccessPatternContext,
    ArrayAccessPattern,
    Placeholder,
    PlaceholderExpr,
    PlaceholderSum,
    match_block_accesses,
)
from .matchers.op_matchers import m_Op
from .matchers.structural import For, NestedPatternContext
from .tds import TacticRecord
from .tdl.ast import TdlAccess, TdlIndexExpr, TdlStatement


class MatchResult:
    """Everything a builder needs from one matched callsite."""

    def __init__(
        self,
        tactic_name: str,
        band: List[AffineForOp],
        iv_of: Dict[str, Value],
        extent_of: Dict[str, int],
        memref_of: Dict[str, Value],
    ):
        self.tactic_name = tactic_name
        self.band = band
        self.iv_of = iv_of
        self.extent_of = extent_of
        self.memref_of = memref_of

    @property
    def root(self) -> AffineForOp:
        return self.band[0]

    def __repr__(self) -> str:
        return (
            f"<MatchResult {self.tactic_name} depth={len(self.band)} "
            f"tensors={sorted(self.memref_of)}>"
        )


class CompiledTactic:
    """A tactic compiled to matcher + builder form."""

    def __init__(self, record: TacticRecord):
        self.record = record
        self.pattern: TdlStatement = record.pattern
        self.loop_vars: List[str] = self.pattern.index_vars()

    @property
    def name(self) -> str:
        return self.record.name

    @property
    def num_loops(self) -> int:
        return len(self.loop_vars)

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------

    def match(self, op: Operation) -> Optional[MatchResult]:
        """Match the pattern with ``op`` as the band's outermost loop."""
        return self.match_explain(op)[0]

    def match_explain(
        self, op: Operation
    ) -> Tuple[Optional[MatchResult], str]:
        """Like :meth:`match`, but also reports *why* the matcher
        bailed: the second element is ``"matched"`` or a key from
        ``repro.tactics.stats.TDL_BAIL_REASONS``."""
        if not isinstance(op, AffineForOp):
            return None, "pattern-mismatch"
        # The relative root must not itself be an inner loop of a larger
        # perfect band (the enclosing loop would then be part of the
        # computation we are about to replace).
        parent = op.parent_op
        if isinstance(parent, AffineForOp) and len(parent.ops_in_body()) == 1:
            return None, "inner-loop-root"
        band = perfect_nest(op)
        if len(band) != self.num_loops:
            return None, "depth-mismatch"
        # Cheap pre-filter before building matcher machinery: the
        # innermost block must have the right operation mix.
        if not self._block_is_exact(band[-1]):
            return None, "body-shape"

        with NestedPatternContext(), AccessPatternContext() as pctx:
            placeholders: Dict[str, Placeholder] = {
                var: pctx.placeholder() for var in self.loop_vars
            }
            arrays: Dict[str, object] = {}
            store_pattern = self._access_pattern(
                self.pattern.lhs, placeholders, arrays, pctx
            )
            body_matcher = self._body_matcher(placeholders, arrays, pctx)

            structural = For(
                lambda body: match_block_accesses(
                    body, store_pattern, body_matcher
                )
            )
            node = structural
            for _ in range(self.num_loops - 1):
                node = For(node)
            if not node.match(op):
                return None, "structure-mismatch"
            if not self._block_is_exact(band[-1]):
                return None, "body-shape"

            # Bound candidates must be exactly the band's IVs.
            band_ivs = {id(loop.induction_var) for loop in band}
            iv_of: Dict[str, Value] = {}
            extent_of: Dict[str, int] = {}
            for var, placeholder in placeholders.items():
                candidate = pctx.candidate(placeholder)
                if candidate is None or id(candidate) not in band_ivs:
                    return None, "iv-binding"
                iv_of[var] = candidate
                loop = candidate.owner.parent_op
                trip = loop.constant_trip_count()
                if trip is None:
                    return None, "non-constant-trip"
                extent_of[var] = trip
            memref_of = {
                tensor: pctx[array] for tensor, array in arrays.items()
            }
            return (
                MatchResult(self.name, band, iv_of, extent_of, memref_of),
                "matched",
            )

    def _block_is_exact(self, innermost: AffineForOp) -> bool:
        """The matched block must contain only the pattern's operations
        ("make sure we have only the defined operations in the block")."""
        ops = innermost.ops_in_body()
        if self.pattern.op == "+=":
            expected = {
                "affine.load": 1 + len(self.pattern.rhs),
                "affine.store": 1,
                "std.mulf": len(self.pattern.rhs) - 1,
                "std.addf": 1,
            }
        else:
            expected = {"affine.load": 1, "affine.store": 1}
        counts: Dict[str, int] = {}
        for op in ops:
            counts[op.name] = counts.get(op.name, 0) + 1
        return counts == expected

    def _subscript_pattern(
        self, idx: TdlIndexExpr, placeholders: Dict[str, Placeholder]
    ):
        terms = [(placeholders[var], coeff) for var, coeff in idx.terms]
        if len(terms) == 1:
            placeholder, coeff = terms[0]
            return PlaceholderExpr(placeholder, coeff, idx.constant)
        return PlaceholderSum(terms, idx.constant)

    def _access_pattern(
        self,
        access: TdlAccess,
        placeholders: Dict[str, Placeholder],
        arrays: Dict[str, object],
        pctx: AccessPatternContext,
    ) -> ArrayAccessPattern:
        if access.tensor not in arrays:
            arrays[access.tensor] = pctx.array_placeholder()
        subscripts = [
            self._subscript_pattern(idx, placeholders)
            for idx in access.indices
        ]
        return arrays[access.tensor](subscripts)

    def _body_matcher(self, placeholders, arrays, pctx):
        pattern = self.pattern
        if pattern.op == "+=" and len(pattern.rhs) == 2:
            lhs_load = m_Op(
                AffineLoadOp,
                self._access_pattern(pattern.lhs, placeholders, arrays, pctx),
            )
            factor0 = m_Op(
                AffineLoadOp,
                self._access_pattern(pattern.rhs[0], placeholders, arrays, pctx),
            )
            factor1 = m_Op(
                AffineLoadOp,
                self._access_pattern(pattern.rhs[1], placeholders, arrays, pctx),
            )
            return m_Op(AddFOp, lhs_load, m_Op(MulFOp, factor0, factor1))
        if pattern.op == "=" and len(pattern.rhs) == 1:
            return m_Op(
                AffineLoadOp,
                self._access_pattern(pattern.rhs[0], placeholders, arrays, pctx),
            )
        raise NotImplementedError(
            f"unsupported pattern shape in tactic {self.name}: {pattern}"
        )

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------

    def build(self, match: MatchResult, target: str = "linalg") -> List[Operation]:
        """Replace the matched band by the tactic's builder ops."""
        from .builders import apply_builders

        return apply_builders(self.record, match, target)


def compile_tactic(record: TacticRecord) -> CompiledTactic:
    return CompiledTactic(record)
