"""Compiled tactics: executable matchers generated from TDS records.

The TableGen backend renders each record's matcher as one straight-line
Python function (:meth:`~repro.tactics.tablegen.TableGenBackend.emit_python`,
the runtime form of Listing 7); :func:`compile_tactic` compiles that
source once per process.  A match yields the :class:`MatchResult` the
builders consume.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..analysis.accesses import subscript_function
from ..dialects.affine import (
    AffineForOp,
    AffineLoadOp,
    AffineStoreOp,
    perfect_nest,
)
from ..dialects.std import AddFOp, MulFOp
from ..ir import AffineDimExpr, AffineExpr, Operation, Value
from .tablegen import TableGenBackend
from .tds import TacticRecord
from .tdl.ast import TdlStatement


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


def covers_iteration_space(match: MatchResult, accesses: Tuple) -> bool:
    """Whether the raised op computes what the band does: every band
    loop starts at 0 with step 1, and every tensor dimension is the
    range the op assumes for it.  A single-variable subscript needs the
    dimension equal to the variable's extent; a sum such as ``y + kh``
    needs it to hold every value the sum takes.  ``accesses`` is
    :func:`~repro.tactics.tablegen.subscript_ranges` of the pattern."""
    for loop in match.band:
        if loop.step != 1 or loop.constant_lower_bound() != 0:
            return False
    extent = match.extent_of
    for tensor, subscripts in accesses:
        shape = match.memref_of[tensor].type.shape
        for (terms, constant), dim in zip(subscripts, shape):
            if len(terms) == 1:
                if dim != extent[terms[0][0]]:
                    return False
            elif dim < constant + 1 + sum(
                coeff * (extent[var] - 1) for var, coeff in terms
            ):
                return False
    return True


def single_candidate(
    expr: AffineExpr, indices: List[Value], coeff: int, constant: int
) -> Optional[Value]:
    """The index value ``v`` when ``expr`` is ``coeff*v + constant``."""
    function = subscript_function(expr, indices)
    if function is None or function.constant != constant:
        return None
    if len(function.coeffs) != 1:
        return None
    ((value, value_coeff),) = function.coeffs.items()
    return value if value_coeff == coeff else None


#: What generated matchers may name.
_MATCHER_GLOBALS = {
    "AffineDimExpr": AffineDimExpr,
    "AffineForOp": AffineForOp,
    "AffineLoadOp": AffineLoadOp,
    "AffineStoreOp": AffineStoreOp,
    "AddFOp": AddFOp,
    "MatchResult": MatchResult,
    "MulFOp": MulFOp,
    "covers_iteration_space": covers_iteration_space,
    "perfect_nest": perfect_nest,
    "single_candidate": single_candidate,
    "subscript_function": subscript_function,
}

_Matcher = Callable[[Operation], Tuple[Optional[MatchResult], str]]

#: Generated source -> its compiled ``match`` function.
_COMPILED: Dict[str, _Matcher] = {}


def _compile_matcher(source: str, name: str) -> _Matcher:
    matcher = _COMPILED.get(source)
    if matcher is None:
        namespace = dict(_MATCHER_GLOBALS)
        exec(compile(source, f"<tds matcher {name}>", "exec"), namespace)
        matcher = _COMPILED[source] = namespace["match"]
    return matcher


class CompiledTactic:
    """A tactic compiled to matcher + builder form."""

    def __init__(self, record: TacticRecord):
        self.record = record
        self.pattern: TdlStatement = record.pattern
        self.loop_vars: List[str] = self.pattern.index_vars()
        #: The generated matcher's source: what :meth:`match_explain` runs.
        self.source = TableGenBackend().emit_python(record)
        self._match = _compile_matcher(self.source, record.name)

    def __reduce__(self):
        # The generated function is not importable by name: rebuild it
        # from the record.
        return compile_tactic, (self.record,)

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
        return self._match(op)[0]

    def match_explain(
        self, op: Operation
    ) -> Tuple[Optional[MatchResult], str]:
        """Like :meth:`match`, but also reports *why* the matcher
        bailed: the second element is ``"matched"`` or a key from
        ``repro.tactics.stats.TDL_BAIL_REASONS``."""
        return self._match(op)


def compile_tactic(record: TacticRecord) -> CompiledTactic:
    return CompiledTactic(record)
