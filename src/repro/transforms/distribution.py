"""Loop distribution (fission).

MET canonicalizes translated code by distributing loops so that each
computational motif sits in its own loop nest — e.g. the
initialization store and the multiply-accumulate reduction of a GEMM
end up in separate nests, which is what the tactic matchers expect.
The engine's mid-level optimizer reuses the same transform to carve
maximal *perfect* sub-bands out of imperfect nests before the
whole-nest vectorizer runs.

Distribution of ``for i { S1; S2 }`` into ``for i { S1 }; for i { S2 }``
is legal when no dependence flows backward (from a later statement
group at iteration k to an earlier group at iteration k' > k).  We use
a conservative test: a pair of accesses to the same buffer from two
groups is harmless if both use the *identical* affine access function
(dependence distance 0); any other may-conflict glues the two groups
together.  Groups that stay glued are merged into a single *contiguous*
segment (preserving statement order) and the remaining segments are
distributed — partial distribution instead of the historical
all-or-nothing test.

Pure scalar ops (constants, index arithmetic, ``affine.apply``) and
loads from buffers the loop body never writes are *rematerializable*:
they do not glue statement groups together and are cloned into each
segment that needs them, so store-forwarded bodies sharing a scalar
subexpression still distribute.
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..analysis.accesses import MemoryAccess, collect_accesses
from ..dialects.affine import AffineForOp, AffineLoadOp, AffineStoreOp
from ..ir import FunctionPass, Operation

_CLONABLE = ("std.constant",)

#: Pure scalar ops that may be duplicated into every segment.
_REMAT_OPS = frozenset(
    {
        "std.constant",
        "std.addf",
        "std.subf",
        "std.mulf",
        "std.divf",
        "std.maxf",
        "std.negf",
        "std.cmpf",
        "std.select",
        "std.addi",
        "std.subi",
        "std.muli",
        "std.index_cast",
        "affine.apply",
    }
)

#: Ops whose memory effects we can fully enumerate; a body containing
#: anything else falls back to constants-only rematerialization.
_KNOWN_OPS = _REMAT_OPS | frozenset(
    {
        "affine.for",
        "affine.load",
        "affine.store",
        "affine.yield",
        "std.alloc",
        "std.dealloc",
    }
)


def _written_memref_ids(ops: List[Operation]) -> Set[int]:
    written: Set[int] = set()
    for op in ops:
        for nested in op.walk():
            if isinstance(nested, AffineStoreOp):
                written.add(id(nested.memref))
    return written


def _remat_op_ids(ops: List[Operation]) -> Set[int]:
    """Sibling ops safe to clone per segment instead of gluing groups.

    The set is closed under operand dependencies: an op counts as
    rematerializable only when every sibling-defined operand is itself
    rematerializable — otherwise cloning it would orphan a reference to
    an op that stays anchored in one segment.
    """
    for op in ops:
        for nested in op.walk():
            if nested.name not in _KNOWN_OPS:
                # Unknown effects: only constants are safely clonable.
                return {id(op) for op in ops if op.name in _CLONABLE}
    written = _written_memref_ids(ops)
    sibling_ids = {id(op) for op in ops}
    remat: Set[int] = set()
    for op in ops:  # forward order: defs precede uses within a block
        if op.name in _REMAT_OPS:
            pass
        elif isinstance(op, AffineLoadOp) and id(op.memref) not in written:
            pass
        else:
            continue
        deps_ok = True
        for operand in op.operands:
            def_op = operand.defining_op
            if (
                def_op is not None
                and id(def_op) in sibling_ids
                and id(def_op) not in remat
            ):
                deps_ok = False
                break
        if deps_ok:
            remat.add(id(op))
    return remat


def _statement_groups(ops: List[Operation]) -> List[List[Operation]]:
    """Partition body ops into SSA-connected statement groups.

    Rematerializable ops (constants, pure index/scalar arithmetic,
    loads from read-only buffers) do not glue groups together; they are
    cloned into each segment that uses them.
    """
    remat = _remat_op_ids(ops)
    parent: Dict[int, int] = {}

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        parent[find(i)] = find(j)

    indices = {id(op): i for i, op in enumerate(ops)}
    for i in range(len(ops)):
        parent[i] = i
    for i, op in enumerate(ops):
        if id(op) in remat:
            continue
        for nested in op.walk():
            for result in nested.results:
                for user in result.users:
                    # climb to the sibling at this block level
                    sibling = user
                    while sibling is not None and id(sibling) not in indices:
                        sibling = sibling.parent_op
                    if sibling is not None and id(sibling) not in remat:
                        union(i, indices[id(sibling)])

    groups: Dict[int, List[Operation]] = {}
    order: List[int] = []
    for i, op in enumerate(ops):
        if id(op) in remat:
            continue  # cloned into segments during rewriting
        root = find(i)
        if root not in groups:
            groups[root] = []
            order.append(root)
        groups[root].append(op)
    return [groups[r] for r in order]


def _group_accesses(group: List[Operation]) -> List[MemoryAccess]:
    accesses: List[MemoryAccess] = []
    for op in group:
        accesses.extend(collect_accesses(op))
    return accesses


def _pair_is_safe(a: MemoryAccess, b: MemoryAccess, iv) -> bool:
    """A conflicting pair is safe to distribute across when some
    subscript dimension *pins* the distributed IV: both accesses index
    that dimension by the identical function of ``iv`` alone, so equal
    elements imply equal ``iv`` (dependence distance 0 on this loop).

    A pair that does not use ``iv`` at all on either side conflicts at
    every iteration pair, so it glues the two groups together.
    """
    if a.rank != b.rank:
        return False
    for sa, sb in zip(a.subscripts, b.subscripts):
        coeff = sa.coeff(iv)
        if (
            coeff != 0
            and coeff == sb.coeff(iv)
            and len(sa.coeffs) == 1
            and len(sb.coeffs) == 1
            and sa.constant == sb.constant
        ):
            return True
    return False


def _segments(groups: List[List[Operation]], iv) -> List[List[Operation]]:
    """Merge groups connected by an unsafe conflict into contiguous
    segments (order-preserving partial distribution)."""
    summaries = [_group_accesses(g) for g in groups]
    n = len(groups)
    can_split = [True] * (n - 1)
    for i in range(n):
        for j in range(i + 1, n):
            safe = True
            for a in summaries[i]:
                for b in summaries[j]:
                    if a.memref is not b.memref:
                        continue
                    if not (a.is_write or b.is_write):
                        continue
                    if not _pair_is_safe(a, b, iv):
                        safe = False
                        break
                if not safe:
                    break
            if not safe:
                for k in range(i, j):
                    can_split[k] = False
    segments: List[List[Operation]] = [list(groups[0])]
    for idx in range(1, n):
        if can_split[idx - 1]:
            segments.append([])
        segments[-1].extend(groups[idx])
    return segments


def _remat_closure(
    anchors: List[Operation], body_ops: List[Operation], remat: Set[int]
) -> Set[int]:
    """Rematerializable sibling ops an anchor set depends on
    (transitively)."""
    by_id = {id(op): op for op in body_ops}
    needed: Set[int] = set()
    work = list(anchors)
    while work:
        op = work.pop()
        for nested in op.walk():
            for operand in nested.operands:
                def_op = operand.defining_op
                if (
                    def_op is not None
                    and id(def_op) in remat
                    and id(def_op) in by_id
                    and id(def_op) not in needed
                ):
                    needed.add(id(def_op))
                    work.append(def_op)
    return needed


def _distribute_one(loop: AffineForOp) -> bool:
    """Split ``loop`` into one copy per distributable segment.  Returns
    True if the loop was rewritten."""
    body_ops = loop.ops_in_body()
    groups = _statement_groups(body_ops)
    if len(groups) <= 1:
        return False
    segments = _segments(groups, loop.induction_var)
    if len(segments) <= 1:
        return False
    remat = _remat_op_ids(body_ops)

    parent_block = loop.parent_block
    position = parent_block.operations.index(loop)
    new_loops: List[AffineForOp] = []
    for segment in segments:
        members = {id(op) for op in segment}
        members |= _remat_closure(segment, body_ops, remat)
        clone_map: Dict = {}
        new_loop = AffineForOp.create(
            loop.lower_bound_map,
            loop.upper_bound_map,
            loop.step,
            loop.lb_operands,
            loop.ub_operands,
        )
        clone_map[loop.induction_var] = new_loop.induction_var
        insert_at = len(new_loop.body.operations) - 1  # before the yield
        # Emit in original body order so remat defs precede their users.
        for op in body_ops:
            if id(op) not in members:
                continue
            new_loop.body.insert(insert_at, op.clone(clone_map))
            insert_at += 1
        new_loops.append(new_loop)

    for offset, new_loop in enumerate(new_loops):
        parent_block.insert(position + 1 + offset, new_loop)
    loop.drop_all_references()
    # Detach nested ops' uses then erase the original loop wholesale.
    for op in list(loop.body.operations):
        op.drop_all_references()
    parent_block.remove(loop)
    return True


def distribute_loops(root: Operation) -> int:
    """Recursively distribute every distributable loop under ``root``.

    Returns the number of loops that were split.
    """
    num_split = 0
    changed = True
    while changed:
        changed = False
        for op in list(root.walk()):
            if not isinstance(op, AffineForOp):
                continue
            if op.parent_block is None:
                continue
            attached = op
            while attached is not None and attached is not root:
                attached = attached.parent_op
            if attached is None and op is not root:
                continue
            if _distribute_one(op):
                num_split += 1
                changed = True
                break
    return num_split


class LoopDistributionPass(FunctionPass):
    name = "affine-loop-distribution"

    def run_on_function(self, func, context):
        split = distribute_loops(func)
        self.count(loops_distributed=split)
        return split
