"""Copy elimination and dead-code cleanup on lowered affine IR.

The Parakeet pipeline runs ``CopyElimination`` + ``DCE`` between
lowering stages; this is the same idea specialized to the affine level:

1. **Store-to-load forwarding** — within a straight-line block, a load
   whose access function matches the most recent store to the same
   buffer is replaced by the stored SSA value.
2. **Dead-store elimination** — a store overwritten by a later store
   with the identical access function, with no intervening read of the
   buffer, is deleted.
3. **Dead-temporary removal** — a ``std.alloc`` whose only users are
   stores (and its dealloc) is a write-only temporary; all its stores,
   the dealloc, and the alloc itself are deleted.

Everything here is conservative: a block containing an op we cannot
enumerate effects for invalidates all forwarding state, and accesses
with non-linear maps are never forwarded or killed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..analysis.accesses import access_function
from ..dialects.affine import AffineForOp, AffineLoadOp, AffineStoreOp
from ..ir import FunctionPass, Operation

#: Side-effect-free scalar ops we can step over without invalidating
#: forwarding state.
_PURE_OPS = frozenset(
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


@dataclass
class CopyElimResult:
    stores_forwarded: int = 0
    dead_stores_removed: int = 0
    dead_allocs_removed: int = 0

    @property
    def changed(self) -> bool:
        return bool(
            self.stores_forwarded
            or self.dead_stores_removed
            or self.dead_allocs_removed
        )


def _signature(op: Operation) -> Optional[Tuple]:
    """Hashable (buffer, access-function) key, or None when the access
    map is not linear."""
    access = access_function(op)
    if access is None:
        return None
    return (id(access.memref), tuple(access.subscripts))


def _loop_reads(loop: AffineForOp, memref_id: int) -> bool:
    for nested in loop.walk():
        if isinstance(nested, AffineLoadOp) and id(nested.memref) == memref_id:
            return True
    return False


def _loop_writes(loop: AffineForOp, memref_id: int) -> bool:
    for nested in loop.walk():
        if isinstance(nested, AffineStoreOp) and id(nested.memref) == memref_id:
            return True
    return False


def _forward_block(block, result: CopyElimResult) -> None:
    """Store-to-load forwarding over one block's op list."""
    last_store: Dict[Tuple, AffineStoreOp] = {}
    for op in list(block.operations):
        if isinstance(op, AffineLoadOp):
            sig = _signature(op)
            if sig is not None and sig in last_store:
                op.results[0].replace_all_uses_with(last_store[sig].value)
                op.erase()
                result.stores_forwarded += 1
            continue
        if isinstance(op, AffineStoreOp):
            sig = _signature(op)
            # Any store to a buffer may alias entries for that buffer
            # recorded under a different access function.
            memref_id = id(op.memref)
            for key in [k for k in last_store if k[0] == memref_id]:
                del last_store[key]
            if sig is not None:
                last_store[sig] = op
            continue
        if isinstance(op, AffineForOp):
            for key in [
                k for k in last_store if _loop_writes(op, k[0])
            ]:
                del last_store[key]
            continue
        if op.name in _PURE_OPS or op.name in (
            "std.alloc",
            "affine.yield",
            "func.return",
        ):
            continue
        if op.name == "std.dealloc":
            dead_id = id(op.operands[0])
            for key in [k for k in last_store if k[0] == dead_id]:
                del last_store[key]
            continue
        # Unknown effects: drop everything.
        last_store.clear()


def _dse_block(block, result: CopyElimResult) -> None:
    """Backward dead-store elimination over one block's op list."""
    later_store: Dict[Tuple, AffineStoreOp] = {}
    for op in reversed(list(block.operations)):
        if isinstance(op, AffineStoreOp):
            sig = _signature(op)
            if sig is not None and sig in later_store:
                # A later identical store with no intervening read.
                op.erase()
                result.dead_stores_removed += 1
                continue
            if sig is not None:
                later_store[sig] = op
            continue
        if isinstance(op, AffineLoadOp):
            memref_id = id(op.memref)
            for key in [k for k in later_store if k[0] == memref_id]:
                del later_store[key]
            continue
        if isinstance(op, AffineForOp):
            for key in [
                k for k in later_store if _loop_reads(op, k[0])
            ]:
                del later_store[key]
            continue
        if op.name in _PURE_OPS or op.name in (
            "std.alloc",
            "std.dealloc",
            "affine.yield",
            "func.return",
        ):
            continue
        later_store.clear()


def _remove_dead_temporaries(func: Operation, result: CopyElimResult) -> None:
    """Delete write-only local buffers (alloc + stores + dealloc)."""
    for op in list(func.walk()):
        if op.name != "std.alloc" or op.parent_block is None:
            continue
        buffer = op.results[0]
        users, seen = [], set()
        for use in buffer.uses:
            if id(use.owner) not in seen:
                seen.add(id(use.owner))
                users.append(use.owner)
        removable = True
        for user in users:
            if isinstance(user, AffineStoreOp) and user.memref is buffer:
                continue
            if user.name == "std.dealloc":
                continue
            removable = False
            break
        if not removable:
            continue
        for user in users:
            if isinstance(user, AffineStoreOp):
                result.dead_stores_removed += 1
            user.erase()
        op.erase()
        result.dead_allocs_removed += 1


def _all_blocks(func: Operation):
    """The function entry block plus every affine.for body block."""
    for region in func.regions:
        for block in region.blocks:
            yield block
    for op in func.walk():
        if isinstance(op, AffineForOp):
            yield op.body


def copy_eliminate(func: Operation) -> CopyElimResult:
    """Run forwarding, DSE, and dead-temporary removal to fixpoint."""
    result = CopyElimResult()
    changed = True
    while changed:
        before = (
            result.stores_forwarded,
            result.dead_stores_removed,
            result.dead_allocs_removed,
        )
        for block in list(_all_blocks(func)):
            _forward_block(block, result)
            _dse_block(block, result)
        _remove_dead_temporaries(func, result)
        changed = before != (
            result.stores_forwarded,
            result.dead_stores_removed,
            result.dead_allocs_removed,
        )
    return result


class CopyEliminationPass(FunctionPass):
    name = "affine-copy-elimination"

    def run_on_function(self, func, context):
        result = copy_eliminate(func)
        self.count(
            stores_forwarded=result.stores_forwarded,
            dead_stores_removed=result.dead_stores_removed,
            dead_allocs_removed=result.dead_allocs_removed,
        )
        return result.changed
