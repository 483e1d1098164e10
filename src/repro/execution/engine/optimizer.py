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

``opt_mode`` selects the pipeline: ``"none"`` (no-op), ``"fuse"``
(stage 1 only), ``"full"`` (all stages).  A pipeline is a canned
transform-dialect schedule (``scheduling.interpreter.canned_schedule``)
and :func:`run_optimizer` applies it through the one schedule
interpreter; this module holds what the stages share — the soundness
gate, the counters, and the dead-loop and tiling stage bodies.

Soundness gate: a function is only optimized when every op it contains
comes from a whitelist whose memory effects the legality analyses can
enumerate (affine loops/accesses + pure std arithmetic + local
alloc/dealloc) and every access map is linear.  Anything else — linalg,
blas, scf, llvm, calls — is left untouched and counted in
``OptStats.functions_skipped``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ...analysis.accesses import access_function, collect_accesses
from ...dialects.affine import (
    AffineForOp,
    AffineLoadOp,
    AffineStoreOp,
    outermost_loops,
    perfect_nest,
)
from ...ir import Operation
from ...telemetry import add, delta
from ...transforms.tiling import TilingError, tile_perfect_nest
from .vectorize import band_collapses

OPT_MODES = ("none", "fuse", "full")

#: Default cache-blocking tile edge; dims with fewer than twice this
#: many iterations stay untiled.
DEFAULT_TILE_SIZE = 32

#: Ops a function may contain for the optimizer to touch it at all.
_OPT_SAFE_OPS = frozenset(
    {
        "affine.for",
        "affine.load",
        "affine.store",
        "affine.yield",
        "affine.apply",
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
        "std.alloc",
        "std.dealloc",
        "func.return",
    }
)


@dataclass
class OptStats:
    """Per-pipeline counters, mirroring ``VectorizeStats``.

    ``stages`` records, in execution order, the per-stage delta of
    every counter that stage changed — the observability contract the
    ISSUE calls a "per-stage snapshot".
    """

    mode: str = "none"
    functions_seen: int = 0
    functions_skipped: int = 0
    loops_fused: int = 0
    stores_forwarded: int = 0
    dead_stores_removed: int = 0
    dead_allocs_removed: int = 0
    loops_eliminated: int = 0
    simplifications: int = 0
    loops_distributed: int = 0
    nests_tiled: int = 0
    loops_unroll_jammed: int = 0
    #: Why fusion rejected candidate pairs (reason -> count): the
    #: taxonomy that makes a schedule's fuse decision explainable.
    fusion_bails: Dict[str, int] = field(default_factory=dict)
    stages: List[Dict[str, int]] = field(default_factory=list)

    _COUNTERS = (
        "loops_fused",
        "stores_forwarded",
        "dead_stores_removed",
        "dead_allocs_removed",
        "loops_eliminated",
        "simplifications",
        "loops_distributed",
        "nests_tiled",
        "loops_unroll_jammed",
    )

    def _counter_values(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self._COUNTERS}

    def snapshot(self) -> dict:
        """Plain-dict form, safe to serialize into cache artifacts."""
        snap = {
            "mode": self.mode,
            "functions_seen": self.functions_seen,
            "functions_skipped": self.functions_skipped,
        }
        snap.update(self._counter_values())
        snap["fusion_bails"] = dict(self.fusion_bails)
        snap["stages"] = [dict(stage) for stage in self.stages]
        return snap


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
# Redundant (idempotent) loop elimination
# ----------------------------------------------------------------------


def _eliminate_redundant_loops(func: Operation, stats: OptStats) -> None:
    """Run idempotent loops exactly once.

    A loop whose induction variable is never used and whose body reads
    no buffer it also writes performs byte-identical side effects on
    every iteration.  With a known positive trip count the loop is
    equivalent to a single execution of its body, so the body is
    spliced into the parent block and the loop erased.  Zero-trip
    loops are left for canonicalize's empty-loop pattern.
    """
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
            stats.loops_eliminated += 1
            changed = True
            break


# ----------------------------------------------------------------------
# Tiling heuristic
# ----------------------------------------------------------------------


def _tiling_is_legal(root: AffineForOp, band: List[AffineForOp]) -> bool:
    """Blocked execution is safe (and bit-exact) when every conflicting
    access pair touches identical elements per iteration (all
    dependences are distance 0, so the band is fully permutable) and
    any read/write pair leaves at most one band IV free — the blocked
    schedule preserves the relative order of iterations that differ in
    a single unused IV, keeping f32 reduction order intact."""
    band_ivs = {id(loop.induction_var) for loop in band}
    accesses = collect_accesses(root)
    for i, a in enumerate(accesses):
        for b in accesses[i + 1 :]:
            if a.memref is not b.memref or not (a.is_write or b.is_write):
                continue
            if not a.same_element(b):
                return False
            if not (a.is_write and b.is_write):
                for acc in (a, b):
                    used = {
                        id(iv)
                        for sub in acc.subscripts
                        for iv in sub.coeffs
                        if id(iv) in band_ivs
                    }
                    if len(band_ivs) - len(used) > 1:
                        return False
    return True


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
    if any(band_collapses(band[i:]) for i in range(len(band))):
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


def tile_nests(
    func: Operation,
    sizes_for: Callable[[List[AffineForOp]], Optional[List[int]]],
    stats: OptStats,
) -> None:
    """Tile every outermost constant-bound unit-step band for which
    ``sizes_for(band)`` returns sizes and blocking is legal.  Tiled
    loops carry ``no_vectorize`` (see the module docstring)."""
    for root in list(outermost_loops(func)):
        if root.parent_block is None:
            continue
        band = perfect_nest(root)
        if any(
            not loop.has_constant_bounds() or loop.step != 1 for loop in band
        ):
            continue
        sizes = sizes_for(band)
        if sizes is None or not _tiling_is_legal(root, band):
            continue
        try:
            new_loops = tile_perfect_nest(root, list(sizes))
        except TilingError:
            continue
        for loop in new_loops:
            loop.mark_no_vectorize()
        stats.nests_tiled += 1


# ----------------------------------------------------------------------
# One stage on one function (what the schedule interpreter loops over)
# ----------------------------------------------------------------------


def _stage_runner(fn):
    """Adapt a ``fn(func, scratch_stats)`` stage body into a pass-cache
    runner returning the JSON-safe counter-delta dict."""

    def runner(func):
        scratch = OptStats()
        fn(func, scratch)
        meta = delta(scratch._counter_values(), {})
        if scratch.fusion_bails:
            meta["fusion_bails"] = dict(scratch.fusion_bails)
        return meta

    return runner


def apply_stage_meta(stats: OptStats, meta: Dict) -> None:
    """Fold one function's stage-counter deltas into ``stats`` — the
    replay path that keeps cached runs observably identical."""
    for key, value in meta.items():
        if key == "fusion_bails":
            add(stats.fusion_bails, value)
        else:
            setattr(stats, key, getattr(stats, key) + value)


def run_optimizer(
    module: Operation,
    mode: str = "full",
    tile_size: int = DEFAULT_TILE_SIZE,
    pass_cache=None,
) -> OptStats:
    """Apply ``canned_schedule(mode, tile_size)`` in-place to ``module``.

    Returns the populated :class:`OptStats`.  ``mode="none"`` returns
    immediately without touching the IR.

    ``pass_cache`` (a :class:`~repro.ir.pass_cache.PassResultCache`)
    memoizes every stage per function: a warm run splices cached
    post-stage IR and replays the recorded counter deltas instead of
    re-running the transforms.
    """
    from ...scheduling.interpreter import apply_schedule, canned_schedule

    schedule = canned_schedule(mode, tile_size)  # rejects an unknown mode
    if mode == "none":
        return OptStats(mode=mode)
    stats = apply_schedule(schedule, module, pass_cache).stats
    stats.mode = mode
    return stats
