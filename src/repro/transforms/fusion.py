"""Loop fusion of sibling loop nests.

The inverse of distribution; used by the Pluto baseline's fusion
heuristics (smartfuse / maxfuse / nofuse) and by the engine's mid-level
optimizer pipeline.  Fusing ``for i {S1}`` with a following
``for i {S2}`` is legal when every pair of conflicting accesses between
the two bodies touches the same element in the same iteration
(dependence distance 0) — the conservative mirror image of the
distribution test.

Fusion is not restricted to adjacent siblings: ``second`` may be
separated from ``first`` by intervening operations, as long as moving
``second``'s iterations up past them is safe (no intervening loop,
no shared memory with a write, no SSA def feeding ``second``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..analysis.accesses import (
    access_function,
    collect_accesses,
    effects_known,
)
from ..dialects.affine import AffineForOp, AffineLoadOp, AffineStoreOp
from ..ir import FunctionPass, Operation


def _bail(bails: Optional[Dict[str, int]], reason: str) -> bool:
    """Record one fusion bail (when a sink is given); returns False so
    legality checks can ``return _bail(...)``."""
    if bails is not None:
        bails[reason] = bails.get(reason, 0) + 1
    return False


def _iteration_space_mismatch(
    a: AffineForOp, b: AffineForOp
) -> Optional[str]:
    """Why two loops' iteration spaces are not identical (None = they
    are).

    Constant bounds compare through their (constant) maps, and bounds
    that are equal non-constant expressions of the same SSA operands
    (symbolic sizes, tile IVs) compare equal too — fusion does not
    require the bounds to fold to literals.  The distinct reasons feed
    the ``fusion_bails`` counter of a schedule's report
    (``ScheduleResult.snapshot``) so the autotuner's fuse decisions are
    explainable:

    * ``step-mismatch`` — different strides; never alignable.
    * ``bounds-map-mismatch`` — structurally different bound
      expressions (e.g. ``0..N`` vs ``0..M``); not alignable without
      peeling.
    * ``bounds-alignable-operands`` — *identical* bound expressions
      over different SSA operands (same shape, different symbols).
      These are the alignable-but-non-identical spaces a future
      bounds-normalizing fusion could recover.
    """
    if a.step != b.step:
        return "step-mismatch"
    if (
        a.lower_bound_map != b.lower_bound_map
        or a.upper_bound_map != b.upper_bound_map
    ):
        return "bounds-map-mismatch"
    if len(a.lb_operands) != len(b.lb_operands) or len(a.ub_operands) != len(
        b.ub_operands
    ):
        return "bounds-alignable-operands"
    if all(x is y for x, y in zip(a.lb_operands, b.lb_operands)) and all(
        x is y for x, y in zip(a.ub_operands, b.ub_operands)
    ):
        return None
    return "bounds-alignable-operands"


def can_fuse(
    first: AffineForOp,
    second: AffineForOp,
    bails: Optional[Dict[str, int]] = None,
) -> bool:
    """Conservative legality: identical iteration spaces, matching band
    depths, and only distance-0 conflicts (after the IVs are identified
    with each other) on elements the fused loop's IV selects.  ``bails``
    (reason -> count) records why a pair was rejected."""
    mismatch = _iteration_space_mismatch(first, second)
    if mismatch is not None:
        return _bail(bails, mismatch)
    from ..dialects.affine import perfect_nest

    first_band = perfect_nest(first)
    second_band = perfect_nest(second)
    if len(first_band) != len(second_band):
        return _bail(bails, "depth-mismatch")
    for f_loop, s_loop in zip(first_band[1:], second_band[1:]):
        mismatch = _iteration_space_mismatch(f_loop, s_loop)
        if mismatch is not None:
            return _bail(bails, f"inner-{mismatch}")
    first_accesses = collect_accesses(first)
    second_accesses = collect_accesses(second)
    for a in first_accesses:
        for b in second_accesses:
            if a.memref is not b.memref or not (a.is_write or b.is_write):
                continue
            if not _conflict_is_aligned(a, b, first, second):
                return _bail(bails, "conflict-misaligned")
            if _conflict_is_carried(a, b, first):
                return _bail(bails, "conflict-carried")
    return True


def has_flow(first: AffineForOp, second: AffineForOp) -> bool:
    """True when the two nests conflict on some buffer (at least one
    side writes it) — i.e. fusing them brings a producer/consumer pair
    into one body.  Nests with no flow gain nothing from fusion (they
    already vectorize independently), and fusing them can *hurt* by
    producing a multi-store body the vectorizer bails on."""
    second_accesses = collect_accesses(second)
    for a in collect_accesses(first):
        for b in second_accesses:
            if a.memref is b.memref and (a.is_write or b.is_write):
                return True
    return False


def _conflict_is_aligned(a, b, first: AffineForOp, second: AffineForOp) -> bool:
    """Check the two access functions agree once ``second``'s IV is
    renamed to ``first``'s (recursively for inner loops this is an
    approximation: inner IVs must match positionally)."""
    if a.rank != b.rank:
        return False
    rename: Dict = {second.induction_var: first.induction_var}
    # positionally align inner perfect-nest IVs as well
    from ..dialects.affine import perfect_nest

    first_band = perfect_nest(first)
    second_band = perfect_nest(second)
    for f_loop, s_loop in zip(first_band, second_band):
        rename[s_loop.induction_var] = f_loop.induction_var
    for sa, sb in zip(a.subscripts, b.subscripts):
        renamed = {rename.get(v, v): c for v, c in sb.coeffs.items()}
        if sa.coeffs != renamed or sa.constant != sb.constant:
            return False
    return True


def _conflict_is_carried(a, b, first: AffineForOp) -> bool:
    """An aligned conflict whose subscripts omit ``first``'s IV touches
    one element in *every* iteration of the fused loop, so fusion would
    interleave accesses the original program ran back to back (the
    consumer reads a half-built value).  The exception is two in-place
    accumulations of that element, which commute up to float
    reassociation."""
    iv = first.induction_var
    if any(sub.coeff(iv) for sub in a.subscripts):
        return False
    return not (_accumulates_in_place(a) and _accumulates_in_place(b))


def _accumulates_in_place(access) -> bool:
    """``access`` is the load or the store of a single-use, one-block
    ``M[f] = M[f] + v`` chain.  (``v`` reading ``M[f]`` again would be
    a further access of the element that is not such a chain, so the
    pairwise conflict scan rejects it.)"""
    op = access.op
    if access.is_write:
        add = op.value.defining_op
    else:
        add = op.result.users[0] if op.result.has_one_use() else None
    if add is None or add.name != "std.addf" or not add.result.has_one_use():
        return False
    store = add.result.users[0]
    if not isinstance(store, AffineStoreOp) or store.value is not add.result:
        return False
    stored = access_function(store)
    loads = []
    for value in add.operands:
        load = value.defining_op
        if (
            isinstance(load, AffineLoadOp)
            and load.result.has_one_use()
            and load.parent_block is add.parent_block is store.parent_block
        ):
            loaded = access_function(load)
            if stored and loaded and stored.same_element(loaded):
                loads.append(load)
    return len(loads) == 1 and op in (store, loads[0])


def _uses_value_of(consumer: Operation, producer: Operation) -> bool:
    produced = set(id(r) for r in producer.results)
    if not produced:
        return False
    for nested in consumer.walk():
        for operand in nested.operands:
            if id(operand) in produced:
                return True
    return False


def _can_cross(second: AffineForOp, between: List[Operation]) -> bool:
    """Is it safe to hoist ``second``'s iterations above every op in
    ``between``?  Requires: no intervening op is a loop, every
    intervening op's memory effects are known (``effects_known``), no
    SSA value defined by an intervening op is used inside ``second``,
    and no intervening op shares a buffer with ``second`` where at
    least one side writes."""
    if not between:
        return True
    second_accesses = collect_accesses(second)
    for op in between:
        # Hoisting a nest across another nest is legal by the checks
        # below, but fusion has never done it: the fused orders it
        # would produce are unmeasured, so an intervening loop blocks.
        if isinstance(op, AffineForOp):
            return False
        for nested in op.walk():
            if not effects_known(nested):
                return False
        if _uses_value_of(second, op):
            return False
        for a in collect_accesses(op):
            for b in second_accesses:
                if a.memref is b.memref and (a.is_write or b.is_write):
                    return False
    return True


def fuse_sibling_loops(
    first: AffineForOp,
    second: AffineForOp,
    bails: Optional[Dict[str, int]] = None,
) -> bool:
    """Fuse ``second`` into ``first`` if legal.  Returns success.

    ``second`` need not be adjacent to ``first``: intervening siblings
    are allowed when hoisting ``second`` past them is provably safe
    (``_can_cross``).
    """
    if first.parent_block is None or first.parent_block is not second.parent_block:
        return False
    ops = first.parent_block.operations
    first_idx = ops.index(first)
    second_idx = ops.index(second)
    if second_idx <= first_idx:
        return False
    if not _can_cross(second, ops[first_idx + 1 : second_idx]):
        return _bail(bails, "cannot-hoist")
    if not can_fuse(first, second, bails=bails):
        return False
    insert_at = len(first.body.operations) - 1
    second.induction_var.replace_all_uses_with(first.induction_var)
    for op in second.ops_in_body():
        second.body.remove(op)
        first.body.insert(insert_at, op)
        insert_at += 1
    second.erase()
    return True


def greedy_fuse(
    root: Operation,
    require_flow: bool = False,
    bails: Optional[Dict[str, int]] = None,
    veto: Optional[
        Callable[[AffineForOp, AffineForOp], Optional[str]]
    ] = None,
) -> int:
    """Fuse fusable sibling loops under ``root`` across whole sibling
    lists (maxfuse).  With ``require_flow=True`` only producer/consumer
    pairs fuse — the engine optimizer's policy, which avoids gluing
    independent nests into multi-store bodies the vectorizer rejects.

    ``bails`` accumulates a reason -> count taxonomy over every
    rejected candidate pair (pairs re-examined across fixpoint rounds
    count once per attempt).  ``veto(first, second)`` lets the caller
    refuse a pair on profitability grounds: a returned reason is
    recorded as that pair's bail and the pair is left unfused.
    """
    fused = 0
    changed = True
    while changed:
        changed = False
        for op in list(root.walk()):
            if not isinstance(op, AffineForOp) or op.parent_block is None:
                continue
            block = op.parent_block
            idx = block.operations.index(op)
            for candidate in block.operations[idx + 1 :]:
                if not isinstance(candidate, AffineForOp):
                    continue
                if require_flow and not has_flow(op, candidate):
                    _bail(bails, "no-flow")
                    continue
                reason = veto(op, candidate) if veto is not None else None
                if reason is not None:
                    _bail(bails, reason)
                    continue
                if fuse_sibling_loops(op, candidate, bails=bails):
                    fused += 1
                    changed = True
                    break
            if changed:
                break
    return fused


class LoopFusionPass(FunctionPass):
    """:func:`greedy_fuse` over each function.  ``require_flow`` and
    ``veto`` are its options; the veto's name is part of the cache
    config.  Counts ``loops_fused`` and ``fusion_bails``."""

    name = "affine-loop-fusion"

    def __init__(
        self,
        require_flow: bool = False,
        veto: Optional[
            Callable[[AffineForOp, AffineForOp], Optional[str]]
        ] = None,
    ):
        self.require_flow = require_flow
        self.veto = veto

    def cache_config(self) -> str:
        config = f"flow={self.require_flow}"
        if self.veto is not None:
            config += f";veto={self.veto.__name__}"
        return config

    def run_on_function(self, func, context):
        bails: Dict[str, int] = {}
        fused = greedy_fuse(
            func, self.require_flow, bails=bails, veto=self.veto
        )
        self.count(loops_fused=fused, fusion_bails=bails)
        return fused
