"""Unroll-and-jam of affine loops.

Unrolling a unit-cost loop by ``factor`` replicates its body ``factor``
times (each copy's induction variable shifted by ``k * step`` through
an ``affine.apply``) and multiplies the step — a pure reordering-free
flattening of iterations, so it is always legal.  The *jam* half then
fuses the replicated inner nests back together through the fusion
legality machinery (:mod:`.fusion`), which only merges bodies when
every conflicting access pair is distance-0.  When jamming is illegal
the loop is left merely unrolled, which is still correct.

The payoff in this engine is twofold: fewer interpreted loop headers
per point for scalar nests, and — for small reduction trips — a body
the whole-nest vectorizer can sometimes collapse where the rolled loop
could not (the PR-8 follow-on the autotuner searches over).
"""

from __future__ import annotations

from ..dialects.affine import AffineApplyOp, AffineForOp, outermost_loops
from ..ir import AffineMap, FunctionPass, Operation
from ..ir import affine_expr as ae
from .fusion import fuse_sibling_loops


def unroll_jam_loop(loop: AffineForOp, factor: int) -> bool:
    """Unroll-and-jam one loop by ``factor`` in place.

    Returns ``False`` (leaving the loop untouched) unless the loop has
    constant bounds, and a constant trip count divisible by ``factor``
    — the remainder-free case keeps the transform a pure body
    replication with no epilogue loop.
    """
    if factor < 2 or loop.parent_block is None:
        return False
    trip = loop.constant_trip_count()
    if trip is None or trip < factor or trip % factor != 0:
        return False
    step = loop.step

    body = loop.body
    original_ops = loop.ops_in_body()
    insert_at = len(body.operations) - 1  # before the terminator
    iv = loop.induction_var
    for copy in range(1, factor):
        shift_map = AffineMap(
            1, 0, [ae.dim(0) + ae.constant(copy * step)]
        )
        shifted = AffineApplyOp.create(shift_map, [iv])
        body.insert(insert_at, shifted)
        insert_at += 1
        value_map = {iv: shifted.result}
        for op in original_ops:
            clone = op.clone(value_map)
            body.insert(insert_at, clone)
            insert_at += 1

    loop.attributes["step"] = type(loop.attributes["step"])(step * factor)

    _jam(loop)
    return True


def _jam(loop: AffineForOp) -> None:
    """Fuse the replicated sibling nests inside ``loop``'s body.

    ``fuse_sibling_loops`` re-checks legality per pair, so an unjammable
    copy simply stays a separate nest.
    """
    changed = True
    while changed:
        changed = False
        for op in list(loop.walk_inner()):
            if not isinstance(op, AffineForOp) or op.parent_block is None:
                continue
            block = op.parent_block
            idx = block.operations.index(op)
            for candidate in block.operations[idx + 1 :]:
                if not isinstance(candidate, AffineForOp):
                    continue
                if fuse_sibling_loops(op, candidate):
                    changed = True
                    break
            if changed:
                break


def unroll_jam_loops(root: Operation, factor: int) -> int:
    """Unroll-and-jam every eligible outermost loop under ``root``.

    Returns the number of loops transformed.
    """
    count = 0
    for loop in list(outermost_loops(root)):
        if loop.parent_block is None:
            continue
        if unroll_jam_loop(loop, factor):
            count += 1
    return count


class UnrollJamPass(FunctionPass):
    """:func:`unroll_jam_loops` by ``factor`` over each function (a
    schedule's ``transform.unroll_jam``; no ``mlt-opt`` flag).  Counts
    ``loops_unroll_jammed``."""

    name = "affine-loop-unroll-jam"

    def __init__(self, factor: int):
        self.factor = factor

    def cache_config(self) -> str:
        return f"factor={self.factor}"

    def run_on_function(self, func, context):
        jammed = unroll_jam_loops(func, self.factor)
        self.count(loops_unroll_jammed=jammed)
        return jammed
