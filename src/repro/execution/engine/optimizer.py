"""Mid-level loop-optimizer pipeline for the compiled engine.

Runs on lowered (affine-level) modules *before* codegen's whole-nest
vectorizer, mirroring Parakeet's ``Fusion`` / ``CopyElimination`` /
``DCE`` / ``TileAdverbs`` stack:

1. **fuse** — producer/consumer sibling nests with identical iteration
   spaces fuse into one body (``greedy_fuse(require_flow=True)``), so
   array temporaries become forwardable same-block stores.  A pair of
   nests that both already collapse, one of them as a reduction, is
   left alone (``would-lose-collapse``): fused, neither would.
2. **copy-elim** — store-to-load forwarding, dead-store elimination,
   and write-only temporary removal (``transforms.copy_elimination``).
3. **dead-loops** — a loop whose induction variable is unused and
   whose body reads no buffer it writes is idempotent; with a known
   positive trip count it runs exactly once, so the body is spliced
   into the parent and the loop dropped.
4. **canonicalize** — constant folding + DCE + empty-loop removal to
   sweep the scalar debris the previous stages expose.
5. **distribute** — partial loop distribution carves maximal perfect
   sub-bands out of imperfect nests, feeding the vectorizer's
   whole-band collapse (``transforms.distribution``).
6. **tile** — cache-blocking tiling for nests the vectorizer would
   still reject, with a trip-count heuristic choosing tile sizes.
   Tiled loops carry the printed ``no_vectorize`` unit attribute so
   codegen skips the (provably futile) collapse attempt instead of
   inflating ``bail_reasons``.

An ``opt_mode`` names a pipeline: ``"none"`` (no schedule), ``"fuse"``
(stage 1 only), ``"full"`` (all stages).  Each is a canned
transform-dialect schedule (``scheduling.interpreter.canned_schedule``)
and :func:`run_optimizer` applies it; every stage is a function pass,
run by the one ``PassManager``.  This module holds what is the
optimizer's own: the soundness gate, the dead-loop pass, the fuse
step's veto and the tile step's size rules.

Soundness gate: a function is only optimized when every op it contains
comes from a whitelist whose memory effects the legality analyses can
enumerate — the band payload set
(:data:`~repro.analysis.band.PAYLOAD_OPS`) plus affine loops, index
arithmetic and local alloc/dealloc — and every access map is linear.
Anything else — linalg, blas, scf, llvm, calls — is left untouched and
counted in ``functions_skipped``.
"""

from __future__ import annotations

from typing import List, Optional

from ...analysis.accesses import access_function
from ...analysis.band import PAYLOAD_OPS
from ...dialects.affine import AffineForOp, AffineLoadOp, AffineStoreOp
from ...ir import FunctionPass, Operation
from ...transforms.tiling import TileLoopNestPass
from .vectorize import band_collapses

OPT_MODES = ("none", "fuse", "full")

#: Default cache-blocking tile edge; dims with fewer than twice this
#: many iterations stay untiled.
DEFAULT_TILE_SIZE = 32

#: Ops a function may contain for the optimizer to touch it at all: a
#: band payload's ops plus the loop structure, index arithmetic and
#: local buffers around it.
_OPT_SAFE_OPS = PAYLOAD_OPS | {
    "affine.for",
    "affine.yield",
    "affine.apply",
    "std.addi",
    "std.subi",
    "std.muli",
    "std.index_cast",
    "std.alloc",
    "std.dealloc",
    "func.return",
}


def _function_is_optimizable(func: Operation) -> bool:
    for op in func.walk():
        if op is func:
            continue
        if op.name not in _OPT_SAFE_OPS:
            return False
        if isinstance(op, (AffineLoadOp, AffineStoreOp)):
            if access_function(op) is None:
                return False
    return True


# ----------------------------------------------------------------------
# The optimizer's own passes (a schedule step names each one)
# ----------------------------------------------------------------------


class DeadLoopsPass(FunctionPass):
    """Run idempotent loops exactly once (``transform.dead_loops``; no
    ``mlt-opt`` flag).

    A loop whose induction variable is never used and whose body reads
    no buffer it also writes performs byte-identical side effects on
    every iteration.  With a known positive trip count the loop is
    equivalent to a single execution of its body, so the body is
    spliced into the parent block and the loop erased.  Zero-trip
    loops are left for canonicalize's empty-loop pattern.  Counts
    ``loops_eliminated``.
    """

    name = "affine-dead-loop-elimination"

    def run_on_function(self, func, context):
        eliminated = 0
        changed = True
        while changed:
            changed = False
            for op in list(func.walk()):
                if not isinstance(op, AffineForOp) or op.parent_block is None:
                    continue
                trip = op.constant_trip_count()
                if trip is None or trip < 1:
                    continue
                iv = op.induction_var
                if any(
                    operand is iv
                    for nested in op.walk()
                    for operand in nested.operands
                ):
                    continue
                reads, writes = set(), set()
                for nested in op.walk():
                    if isinstance(nested, AffineLoadOp):
                        reads.add(id(nested.memref))
                    elif isinstance(nested, AffineStoreOp):
                        writes.add(id(nested.memref))
                if reads & writes:
                    continue
                block = op.parent_block
                position = block.operations.index(op)
                for body_op in op.ops_in_body():
                    op.body.remove(body_op)
                    block.insert(position, body_op)
                    position += 1
                op.erase()
                eliminated += 1
                changed = True
                break
        self.count(loops_eliminated=eliminated)
        return eliminated


def would_lose_collapse(first, second) -> Optional[str]:
    """The fuse step's veto, the vectorizer's first refusal on a fusion
    candidate: when both bands already collapse whole and one of them
    folds a reduction, it is one contraction/``.sum`` call today, and
    the fused body — two stores, or an accumulator chain once
    ``copy_elim`` forwards the shared element — is a form neither the
    vectorizer nor ``distribute`` gets back.  Elementwise pairs keep
    fusing: their fused body still collapses after ``copy_elim``."""
    first_kind = band_collapses(first)
    if first_kind is None:
        return None
    second_kind = band_collapses(second)
    if second_kind is None or first_kind == second_kind == "elementwise":
        return None
    return "would-lose-collapse"


def heuristic_tile_sizes(
    band: List[AffineForOp], tile_size: int
) -> Optional[List[int]]:
    """Trip-count heuristic: ``tile_size`` for every loop with at least
    twice that many iterations, 1 (untiled) otherwise; ``None`` when
    nothing would be tiled."""
    if len(band) < 2:
        return None
    # The vectorizer gets first refusal: if any suffix of the band
    # collapses (including the partial-collapse retry), leave it.
    if any(band_collapses(loop) for loop in band):
        return None
    sizes = []
    for loop in band:
        trip = loop.constant_trip_count()
        if trip is None:
            return None
        sizes.append(tile_size if trip >= 2 * tile_size else 1)
    if all(size == 1 for size in sizes):
        return None
    return sizes


class ScheduleTilePass(TileLoopNestPass):
    """``transform.tile``'s size rules.  An int ``tile_size`` (``{size}``)
    picks sizes with :func:`heuristic_tile_sizes`; a list (``{sizes}``)
    tiles exactly the bands of its depth, overriding the heuristic and
    the vectorizer's first refusal.  The dependence-legality gate holds
    either way.  Tiled loops carry ``no_vectorize``."""

    mark_no_vectorize = True

    def cache_config(self) -> str:
        if isinstance(self.tile_size, int):
            return f"size={self.tile_size}"
        return "sizes=" + ",".join(map(str, self.tile_size))

    def sizes_for(self, band: List[AffineForOp]) -> Optional[List[int]]:
        if isinstance(self.tile_size, int):
            return heuristic_tile_sizes(band, self.tile_size)
        return self.tile_size if len(band) == len(self.tile_size) else None


def run_optimizer(
    module: Operation,
    mode: str = "full",
    tile_size: int = DEFAULT_TILE_SIZE,
    pass_cache=None,
):
    """Apply ``canned_schedule(mode, tile_size)`` in-place to ``module``
    and return its :class:`~repro.scheduling.interpreter.ScheduleResult`.

    ``pass_cache`` (a :class:`~repro.ir.pass_cache.PassResultCache`)
    memoizes every stage per function: a warm run splices cached
    post-stage IR and adds the recorded counters back instead of
    re-running the passes.
    """
    from ...scheduling.interpreter import apply_schedule, canned_schedule

    return apply_schedule(
        canned_schedule(mode, tile_size), module, pass_cache
    )
