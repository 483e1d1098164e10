"""Canonicalization: constant folding, dead-code elimination, and
removal of empty or zero-trip loops.

Implemented as root-indexed rewrite patterns on the greedy driver: one
DCE pattern per op declared to write no memory (``PURE``, or a load),
one fold pattern per foldable op name, and an empty-loop pattern
rooted at ``affine.for`` — so the worklist driver's
``FrozenPatternSet`` prunes the match space to exactly the ops each
simplification can apply to.
"""

from __future__ import annotations

from typing import List, Optional, Union

from ..dialects import std
from ..dialects.affine import AffineApplyOp, AffineForOp
from ..ir import (
    OP_REGISTRY,
    READ,
    FrozenPatternSet,
    FunctionPass,
    Operation,
    PatternRewriter,
    RewritePattern,
    apply_patterns_greedily,
)


def _dead_op_names():
    """Every registered op declared to write no memory: the pure ops
    and the loads.  Unused, such an op can go; an op with no
    declaration (a call, a loop) may do anything and stays."""
    return tuple(
        sorted(
            name for name, cls in OP_REGISTRY.items() if _writes_nothing(cls)
        )
    )


def _foldable_op_names():
    """Every registered op ``_fold`` can evaluate: binary std
    arithmetic plus affine.apply."""
    names = sorted(
        name
        for name, cls in OP_REGISTRY.items()
        if issubclass(cls, std.BinaryArithOp)
    )
    names.append("affine.apply")
    return tuple(names)


#: Long dead-def chains retire one link per round; allow deep chains.
_MAX_ITERATIONS = 10_000


def _writes_nothing(op) -> bool:
    return op.PURE or op.MEMORY_EFFECT == READ


def _is_dead(op: Operation) -> bool:
    if not _writes_nothing(op):
        return False
    return all(not r.is_used() for r in op.results)


def _fold(op: Operation) -> Optional[Union[int, float]]:
    """Return the constant value of ``op`` if all operands are constants."""
    if isinstance(op, std.BinaryArithOp):
        values = []
        for operand in op.operands:
            def_op = operand.defining_op
            if not isinstance(def_op, std.ConstantOp):
                return None
            values.append(def_op.value)
        return type(op).PYTHON_FUNC(*values)
    if isinstance(op, AffineApplyOp):
        dims = []
        for operand in op.operands:
            def_op = operand.defining_op
            if not isinstance(def_op, std.ConstantOp):
                return None
            dims.append(int(def_op.value))
        return op.map.evaluate(dims)[0]
    return None


def _is_empty_loop(op: Operation) -> bool:
    if not isinstance(op, AffineForOp):
        return False
    trip = op.constant_trip_count()
    if trip == 0:
        return True
    return not op.ops_in_body()


class DeadOpElimination(RewritePattern):
    """Erase a pure op whose results are all unused."""

    benefit = 2  # erasure wins over folding the same op

    def __init__(self, root_op_name: str):
        self.root_op_name = root_op_name

    @property
    def pattern_name(self) -> str:
        return f"dce<{self.root_op_name}>"

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        if not _is_dead(op):
            return False
        rewriter.erase_op(op)
        return True


class EmptyLoopElimination(RewritePattern):
    """Erase ``affine.for`` loops with no body or zero trip count."""

    root_op_name = "affine.for"
    benefit = 2

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        if not _is_empty_loop(op):
            return False
        rewriter.erase_op(op)
        return True


class ConstantFolding(RewritePattern):
    """Replace an op over constant operands with a constant."""

    benefit = 1

    def __init__(self, root_op_name: str):
        self.root_op_name = root_op_name

    @property
    def pattern_name(self) -> str:
        return f"fold<{self.root_op_name}>"

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        folded = _fold(op)
        if folded is None:
            return False
        rewriter.set_insertion_point_before(op)
        const = rewriter.insert(
            std.ConstantOp.create(folded, op.results[0].type)
        )
        rewriter.replace_op(op, [const.result])
        return True


def canonicalization_patterns() -> List[RewritePattern]:
    patterns: List[RewritePattern] = [
        DeadOpElimination(name) for name in _dead_op_names()
    ]
    patterns.append(EmptyLoopElimination())
    patterns.extend(ConstantFolding(name) for name in _foldable_op_names())
    return patterns


_FROZEN_CACHE: Optional[FrozenPatternSet] = None


def _frozen_canonicalization_set() -> FrozenPatternSet:
    global _FROZEN_CACHE
    if _FROZEN_CACHE is None:
        _FROZEN_CACHE = FrozenPatternSet(canonicalization_patterns())
    return _FROZEN_CACHE


def canonicalize(root: Operation) -> int:
    """Fold constants and strip dead code until fixpoint.

    Returns the number of simplifications applied.
    """
    result = apply_patterns_greedily(
        root, _frozen_canonicalization_set(), max_iterations=_MAX_ITERATIONS
    )
    return result.num_rewrites


class CanonicalizePass(FunctionPass):
    name = "canonicalize"

    def run_on_function(self, func, context):
        result = apply_patterns_greedily(
            func, _frozen_canonicalization_set(), max_iterations=_MAX_ITERATIONS
        )
        self.rewrite_results.append(result)
        self.count(simplifications=result.num_rewrites)
        return result.changed
