"""The combinator matcher: a tactic's pattern assembled, on every
attempt, from the matcher API of Figure 6 (placeholders, array
placeholders, ``m_Op`` trees and a ``For(For(...))`` chain) that
:mod:`.matchers` keeps beside this oracle.

Compiled tactics run the straight-line matcher the TableGen backend
generates; this is the reading of the same pattern that the generated
code must agree with, reason for reason (the differential oracle of
``test_generated_matchers.py``).
"""

from typing import Dict, Optional, Tuple

from repro.dialects.affine import AffineForOp, AffineLoadOp, perfect_nest
from repro.dialects.std import AddFOp, MulFOp
from repro.ir import Operation, Value
from repro.tactics.compiled import (
    CompiledTactic,
    MatchResult,
    covers_iteration_space,
)
from repro.tactics.tablegen import subscript_ranges
from repro.tactics.tdl.ast import TdlAccess, TdlIndexExpr

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


def oracle_match_explain(
    tactic: CompiledTactic, op: Operation
) -> Tuple[Optional[MatchResult], str]:
    """What ``tactic.match_explain(op)`` must return."""
    pattern = tactic.pattern
    if not isinstance(op, AffineForOp):
        return None, "pattern-mismatch"
    parent = op.parent_op
    if isinstance(parent, AffineForOp) and len(parent.ops_in_body()) == 1:
        return None, "inner-loop-root"
    band = perfect_nest(op)
    if len(band) != tactic.num_loops:
        return None, "depth-mismatch"
    if not _block_is_exact(pattern, band[-1]):
        return None, "body-shape"

    with NestedPatternContext(), AccessPatternContext() as pctx:
        placeholders: Dict[str, Placeholder] = {
            var: pctx.placeholder() for var in tactic.loop_vars
        }
        arrays: Dict[str, object] = {}
        store_pattern = _access_pattern(pattern.lhs, placeholders, arrays, pctx)
        body_matcher = _body_matcher(tactic, placeholders, arrays, pctx)
        node = For(
            lambda body: match_block_accesses(body, store_pattern, body_matcher)
        )
        for _ in range(tactic.num_loops - 1):
            node = For(node)
        if not node.match(op):
            return None, "structure-mismatch"

        band_ivs = {id(loop.induction_var) for loop in band}
        iv_of: Dict[str, Value] = {}
        extent_of: Dict[str, int] = {}
        for var, placeholder in placeholders.items():
            candidate = pctx.candidate(placeholder)
            if candidate is None or id(candidate) not in band_ivs:
                return None, "iv-binding"
            iv_of[var] = candidate
            trip = candidate.owner.parent_op.constant_trip_count()
            if trip is None:
                return None, "non-constant-trip"
            extent_of[var] = trip
        memref_of = {tensor: pctx[array] for tensor, array in arrays.items()}
        match = MatchResult(tactic.name, band, iv_of, extent_of, memref_of)
        if not covers_iteration_space(match, subscript_ranges(pattern)):
            return None, "partial-range"
        return match, "matched"


def _block_is_exact(pattern, innermost: AffineForOp) -> bool:
    if pattern.op == "+=":
        expected = {
            "affine.load": 1 + len(pattern.rhs),
            "affine.store": 1,
            "std.mulf": len(pattern.rhs) - 1,
            "std.addf": 1,
        }
    else:
        expected = {"affine.load": 1, "affine.store": 1}
    counts: Dict[str, int] = {}
    for op in innermost.ops_in_body():
        counts[op.name] = counts.get(op.name, 0) + 1
    return counts == expected


def _subscript_pattern(idx: TdlIndexExpr, placeholders):
    terms = [(placeholders[var], coeff) for var, coeff in idx.terms]
    if len(terms) == 1:
        placeholder, coeff = terms[0]
        return PlaceholderExpr(placeholder, coeff, idx.constant)
    return PlaceholderSum(terms, idx.constant)


def _access_pattern(
    access: TdlAccess, placeholders, arrays, pctx
) -> ArrayAccessPattern:
    if access.tensor not in arrays:
        arrays[access.tensor] = pctx.array_placeholder()
    subscripts = [_subscript_pattern(idx, placeholders) for idx in access.indices]
    return arrays[access.tensor](subscripts)


def _body_matcher(tactic, placeholders, arrays, pctx):
    pattern = tactic.pattern

    def load(access):
        return m_Op(
            AffineLoadOp, _access_pattern(access, placeholders, arrays, pctx)
        )

    if pattern.is_contraction:
        factor0, factor1 = pattern.rhs
        return m_Op(
            AddFOp, load(pattern.lhs), m_Op(MulFOp, load(factor0), load(factor1))
        )
    if pattern.is_copy:
        return load(pattern.rhs[0])
    raise NotImplementedError(
        f"unsupported pattern shape in tactic {tactic.name}: {pattern}"
    )
