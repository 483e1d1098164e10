"""Interpreter applying a transform-dialect schedule to payload IR.

:func:`apply_schedule` walks a ``transform.sequence`` and executes each
step through the existing transform/pass infrastructure.  It is the
only optimizer driver: each engine ``opt_mode`` pipeline is a
:func:`canned_schedule`, and ``run_optimizer(module, mode)`` is
``apply_schedule(canned_schedule(mode), module)``.

Every step re-checks its own legality on the payload it actually sees
(fusion legality, tiling legality, unroll-jam divisibility), so any
schedule drawn from the transform dialect — including the fuzzer's
:func:`random_schedule` — is semantics-preserving by construction; an
inapplicable step is a no-op, never an error.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Tuple

from ..dialects.affine import perfect_nest
from ..dialects.transform import (
    CanonicalizeOp,
    CopyElimOp,
    DeadLoopsOp,
    DistributeOp,
    FuseOp,
    MatchOp,
    SequenceOp,
    TileOp,
    UnrollJamOp,
    VectorizeOp,
    find_sequences,
)
from ..execution.engine.optimizer import (
    DEFAULT_TILE_SIZE,
    OPT_MODES,
    OptStats,
    _eliminate_redundant_loops,
    _function_is_optimizable,
    _stage_runner,
    apply_stage_meta,
    heuristic_tile_sizes,
    tile_nests,
)
from ..execution.engine.vectorize import band_collapses
from ..ir import ModuleOp, Operation
from ..ir.pass_cache import FunctionCursor
from ..telemetry import delta
from ..transforms.canonicalize import canonicalize
from ..transforms.copy_elimination import copy_eliminate
from ..transforms.distribution import distribute_loops
from ..transforms.fusion import greedy_fuse
from ..transforms.unroll import unroll_jam_loops


class ScheduleError(ValueError):
    """A schedule module is malformed (not a legality failure)."""


#: ``transform.raise`` tier name -> the ``mlt-opt`` pass that is the tier.
RAISE_TIERS = {
    "tdl": "raise-affine-to-linalg",
    "synth": "raise-affine-synth",
}


@dataclass
class ScheduleResult:
    """What applying a schedule did (and requested).

    ``stats.stages`` holds one per-step counter delta, keyed by the
    step's transform mnemonic.  ``vectorize`` is the codegen mode a
    ``transform.vectorize`` step requested (``None`` when the schedule
    leaves the engine default in charge); ``raise_stats`` is the
    raising snapshot when a ``transform.raise`` step ran.

    ``outcome`` names what the steps left behind, read off the pass
    cache: the requested codegen mode and the fingerprint each matched
    function ended at.  On one payload, equal outcomes are equal
    modules, hence one kernel.  It is ``None`` without a pass cache and
    after a ``raise`` step or a second ``match``, which read or rewrite
    more than the matched functions.  ``payload`` is the module the
    steps rewrote, ``None`` when a keyed application built nothing.
    """

    stats: OptStats = field(default_factory=OptStats)
    vectorize: Optional[str] = None
    raise_stats: Optional[dict] = None
    outcome: Optional[tuple] = None
    payload: Optional[ModuleOp] = None

    def snapshot(self) -> dict:
        snap = self.stats.snapshot()
        snap["vectorize"] = self.vectorize
        if self.raise_stats is not None:
            snap["raise"] = dict(self.raise_stats)
        return snap


def _schedule_sequence(schedule) -> SequenceOp:
    if isinstance(schedule, SequenceOp):
        return schedule
    sequences = find_sequences(schedule)
    if len(sequences) != 1:
        raise ScheduleError(
            f"schedule module must hold exactly one transform.sequence, "
            f"found {len(sequences)}"
        )
    return sequences[0]


def schedule_vectorize(schedule) -> Optional[str]:
    """The codegen vectorize mode ``schedule`` requests, if any.

    Lets engine construction honor a ``transform.vectorize`` step
    *before* compiling (the mode is part of the kernel cache key).
    Last step wins, matching the interpreter's apply order.
    """
    mode = None
    for step in _schedule_sequence(schedule).steps():
        if isinstance(step, VectorizeOp):
            mode = step.mode
    return mode


# ----------------------------------------------------------------------
# The step table: every payload-rewriting stage body exists once, here
# ----------------------------------------------------------------------


def _would_lose_collapse(first, second) -> Optional[str]:
    """The vectorizer's first refusal on a fusion candidate: when both
    bands already collapse whole and one of them folds a reduction, it
    is one ``contract``/``.sum`` call today, and the fused body — two
    stores, or an accumulator chain once ``copy_elim`` forwards the
    shared element — is a form neither the vectorizer nor ``distribute``
    gets back.  Elementwise pairs keep fusing: their fused body still
    collapses after ``copy_elim``."""
    first_kind = band_collapses(perfect_nest(first))
    if first_kind is None:
        return None
    second_kind = band_collapses(perfect_nest(second))
    if second_kind is None or first_kind == second_kind == "elementwise":
        return None
    return "would-lose-collapse"


def _fuse(step, func: Operation, scratch: OptStats) -> None:
    scratch.loops_fused += greedy_fuse(
        func,
        require_flow=step.flow,
        bails=scratch.fusion_bails,
        veto=_would_lose_collapse,
    )


def _copy_elim(step, func: Operation, scratch: OptStats) -> None:
    result = copy_eliminate(func)
    scratch.stores_forwarded += result.stores_forwarded
    scratch.dead_stores_removed += result.dead_stores_removed
    scratch.dead_allocs_removed += result.dead_allocs_removed


def _dead_loops(step, func: Operation, scratch: OptStats) -> None:
    _eliminate_redundant_loops(func, scratch)


def _canonicalize(step, func: Operation, scratch: OptStats) -> None:
    scratch.simplifications += canonicalize(func)


def _distribute(step, func: Operation, scratch: OptStats) -> None:
    scratch.loops_distributed += distribute_loops(func)


def _tile(step, func: Operation, scratch: OptStats) -> None:
    size, sizes = step.size, step.sizes
    if size is not None:
        tile_nests(
            func, partial(heuristic_tile_sizes, tile_size=size), scratch
        )
    else:
        # Explicit sizes override the trip-count heuristic and the
        # vectorizer first-refusal for every depth-matching band; the
        # dependence-legality gate stays.
        tile_nests(
            func,
            lambda band: sizes if len(band) == len(sizes) else None,
            scratch,
        )


def _tile_config(step) -> str:
    if step.size is not None:
        return f"size={step.size}"
    return "sizes=" + ",".join(map(str, step.sizes))


def _unroll_jam(step, func: Operation, scratch: OptStats) -> None:
    scratch.loops_unroll_jammed += unroll_jam_loops(func, step.factor)


def _no_config(step) -> str:
    return ""


#: Transform mnemonic (the keys of ``dialects.transform.STEP_OPS``) ->
#: (stage body ``fn(step, func, scratch)``, pass-cache config
#: ``fn(step) -> str``).  The mnemonic is also the stage name in
#: ``OptStats.stages`` and in pass-cache keys.  ``match``, ``vectorize``
#: and ``raise`` rewrite no function and have no row.
STEP_TABLE = {
    "transform.fuse": (_fuse, lambda step: f"flow={step.flow}"),
    "transform.copy_elim": (_copy_elim, _no_config),
    "transform.dead_loops": (_dead_loops, _no_config),
    "transform.canonicalize": (_canonicalize, _no_config),
    "transform.distribute": (_distribute, _no_config),
    "transform.tile": (_tile, _tile_config),
    "transform.unroll_jam": (
        _unroll_jam,
        lambda step: f"factor={step.factor}",
    ),
}


class KeyedSearch:
    """Many schedules applied to one payload, each keyed before it is
    built.

    Passed to :func:`apply_schedule` as ``keyed``, it leaves the payload
    untouched, and every step is first a pass-cache lookup that only
    advances the matched functions' fingerprints.  So the schedule's
    ``outcome`` is known before any IR is.  An application whose
    outcome is in ``known`` (the outcomes the caller needs no IR for;
    the tuner maps each to its kernel key) clones, parses, splices and
    prints nothing.  Any other one clones the payload when a step first
    has to touch IR, and finishes on the clone.

    Keep one per payload: ``functions`` remembers, per symbol of the
    untouched payload, whether ``transform.match`` takes the function
    and its fingerprint.
    """

    def __init__(self) -> None:
        self.known: Dict[tuple, object] = {}
        self.functions: Dict[str, Tuple[bool, Optional[str]]] = {}


class _Application:
    """One :func:`apply_schedule` call: the matched functions (as
    cursors when there is a pass cache) and the module steps write to."""

    def __init__(self, payload: ModuleOp, pass_cache, keyed) -> None:
        self.payload = payload
        self.cache = pass_cache
        self.keyed = keyed
        # A keyed payload is read-only.  Steps write to its clone, made
        # when one first has to touch IR: at once without a pass cache,
        # where every step does.
        self.module: Optional[ModuleOp] = payload
        if keyed is not None:
            self.module = None if pass_cache is not None else payload.clone()
        self.funcs: List[Operation] = []
        self.cursors: List[FunctionCursor] = []
        #: Whether the cursors' fingerprints say all the steps did.
        self.exact = pass_cache is not None

    def writable(self) -> ModuleOp:
        if self.module is None:
            self.module = self.payload.clone()
            twins = dict(
                zip(map(id, self.payload.functions), self.module.functions)
            )
            for cursor in self.cursors:
                cursor.func = twins[id(cursor.func)]
        return self.module

    def settle(self) -> ModuleOp:
        module = self.writable()
        for cursor in self.cursors:
            cursor.settle()
        return module

    def match(self, step, stats: OptStats, again: bool) -> None:
        if again:
            # It reads what the steps so far left behind.
            self.exact = False
            self.settle()
        source = self.payload if self.module is None else self.module
        memo = None
        if self.keyed is not None and source is self.payload:
            memo = self.keyed.functions
        self.funcs, self.cursors = [], []
        for func in source.functions:
            stats.functions_seen += 1
            if step.target is not None and func.sym_name != step.target:
                continue
            facts = memo.get(func.sym_name) if memo is not None else None
            if facts is None:
                facts = (_function_is_optimizable(func), None)
            if not facts[0]:
                stats.functions_skipped += 1
            elif self.cache is None:
                self.funcs.append(func)
            else:
                cursor = FunctionCursor(self.cache, func, facts[1])
                self.cursors.append(cursor)
                facts = (True, cursor.fp)
            if memo is not None:
                memo[func.sym_name] = facts

    def stage(self, step, stats: OptStats) -> None:
        body, config_of = STEP_TABLE[step.name]
        runner = _stage_runner(partial(body, step))
        for func in self.funcs:
            apply_stage_meta(stats, runner(func))
        config = config_of(step)

        def run(func):
            return None, runner(func)

        for cursor in self.cursors:
            entry = cursor.replay(step.name, config, run)
            if entry is not None:
                meta = entry.get("meta") or {}
            else:
                self.writable()
                cursor.settle()
                meta = cursor.execute(step.name, config, run)[1]
            apply_stage_meta(stats, meta)

    def raise_tiers(self, mode: str) -> Dict[str, int]:
        module = self.settle()
        self.exact = False
        callsites = _raise_payload(module, mode)
        # Module-level rewrite: every fingerprint is stale.
        self.cursors = [
            FunctionCursor(self.cache, cursor.func) for cursor in self.cursors
        ]
        return callsites

    def run(self, sequence: SequenceOp) -> ScheduleResult:
        result = ScheduleResult(stats=OptStats(mode="schedule"))
        stats = result.stats
        matched = False
        for step in sequence.steps():
            if step.name == "transform.match":
                self.match(step, stats, again=matched)
                matched = True
                continue
            if not matched:
                raise ScheduleError(
                    f"{step.name} before any transform.match — nothing to "
                    f"transform"
                )
            before = stats._counter_values()
            if step.name in STEP_TABLE:
                self.stage(step, stats)
            elif step.name == "transform.vectorize":
                result.vectorize = step.mode
            elif step.name == "transform.raise":
                result.raise_stats = self.raise_tiers(step.mode)
            else:
                raise ScheduleError(f"unknown schedule step {step.name}")
            stats.stages.append(
                {"stage": step.name, **delta(stats._counter_values(), before)}
            )
        if self.exact:
            result.outcome = (
                result.vectorize,
                tuple(cursor.fp for cursor in self.cursors),
            )
            if self.keyed is not None and result.outcome in self.keyed.known:
                return result
        result.payload = self.settle()
        if isinstance(result.payload, ModuleOp):
            result.payload.bump_version()
        return result


def apply_schedule(
    schedule,
    payload: ModuleOp,
    pass_cache=None,
    keyed: Optional[KeyedSearch] = None,
) -> ScheduleResult:
    """Apply ``schedule`` (a schedule module or sequence) to ``payload``
    and return the populated :class:`ScheduleResult`.

    ``pass_cache`` memoizes each step's result per function, so
    schedule search re-applying dozens of candidates to one payload
    pays for the shared prefix (match / fuse / copy_elim / ...) exactly
    once — only the schedule-dependent suffix executes per candidate.
    Each matched function keeps one
    :class:`~repro.ir.pass_cache.FunctionCursor` across the steps, as
    ``PassManager`` does across passes: its run of hits is spliced
    once, when a step misses on it, a module-level ``raise`` step (it
    bypasses the cache) or a second ``match`` reads the module, or the
    schedule ends.

    Without ``keyed`` the payload is rewritten in place.  With a
    :class:`KeyedSearch` it is left alone; see there.
    """
    application = _Application(payload, pass_cache, keyed)
    return application.run(_schedule_sequence(schedule))


def _raise_payload(payload: ModuleOp, mode: str) -> Dict[str, int]:
    """Run the passes ``mode``'s tiers name; returns the raised
    callsites per tactic."""
    from ..tactics.stats import merge_pass_stats
    from ..tool import build_pipeline

    pass_names = []
    for tier in mode.split("+"):
        if tier not in RAISE_TIERS:
            raise ScheduleError(
                f"transform.raise: unknown tier {tier!r}; known: "
                f"{', '.join(RAISE_TIERS)}"
            )
        pass_names.append(RAISE_TIERS[tier])
    pm = build_pipeline(pass_names)
    pm.run(payload)
    return merge_pass_stats(pm.passes).callsites


# ----------------------------------------------------------------------
# Schedule builders
# ----------------------------------------------------------------------


def _new_schedule_module() -> ModuleOp:
    module = ModuleOp.create()
    module.body.append(SequenceOp.create())
    return module


def canned_schedule(
    mode: str, tile_size: int = DEFAULT_TILE_SIZE
) -> ModuleOp:
    """The engine's ``opt_mode`` pipelines (``OPT_MODES``) as schedule
    modules — what ``run_optimizer(payload, mode)`` applies."""
    if mode not in OPT_MODES:
        raise ScheduleError(
            f"unknown opt mode {mode!r}; expected one of {OPT_MODES}"
        )
    module = _new_schedule_module()
    sequence = find_sequences(module)[0]
    handle = sequence.append_step(MatchOp.create()).results[0]
    if mode == "none":
        return module
    handle = sequence.append_step(
        FuseOp.create(handle, flow=True)
    ).results[0]
    if mode == "fuse":
        return module
    handle = sequence.append_step(CopyElimOp.create(handle)).results[0]
    handle = sequence.append_step(DeadLoopsOp.create(handle)).results[0]
    handle = sequence.append_step(CanonicalizeOp.create(handle)).results[0]
    handle = sequence.append_step(DistributeOp.create(handle)).results[0]
    handle = sequence.append_step(
        TileOp.create(handle, size=tile_size)
    ).results[0]
    return module


def schedule_from_params(params: Dict) -> ModuleOp:
    """Build a schedule module from an autotuner parameter point.

    Recognized keys (all optional): ``fuse`` (bool), ``order``
    (``"fuse-first"`` | ``"distribute-first"``), ``tile`` (int, 0 =
    untiled), ``unroll_jam`` (int, 0 = off), ``vectorize`` (codegen
    mode), ``target`` (function name).
    """
    module = _new_schedule_module()
    sequence = find_sequences(module)[0]
    handle = sequence.append_step(
        MatchOp.create(params.get("target"))
    ).results[0]

    def add(op) -> None:
        nonlocal handle
        handle = sequence.append_step(op).results[0]

    fuse = bool(params.get("fuse", True))
    order = params.get("order", "fuse-first")
    if order not in ("fuse-first", "distribute-first"):
        raise ScheduleError(f"unknown schedule order {order!r}")
    if fuse and order == "fuse-first":
        add(FuseOp.create(handle, flow=True))
    add(CopyElimOp.create(handle))
    add(DeadLoopsOp.create(handle))
    add(CanonicalizeOp.create(handle))
    add(DistributeOp.create(handle))
    if fuse and order == "distribute-first":
        add(FuseOp.create(handle, flow=True))
    tile = int(params.get("tile", 0))
    if tile:
        add(TileOp.create(handle, size=tile))
    factor = int(params.get("unroll_jam", 0))
    if factor:
        add(UnrollJamOp.create(handle, factor))
    vectorize = params.get("vectorize")
    if vectorize is not None:
        add(VectorizeOp.create(handle, vectorize))
    return module


#: Step menu for :func:`random_schedule`.  ``vectorize`` and ``raise``
#: are deliberately absent: the fuzz oracle compares *interpreted*
#: payload outputs, where a vectorize annotation is inert and raising
#: is exercised by its own oracle stage.
_RANDOM_TILE_SIZES = (2, 4, 8, 16, 32, 64)
_RANDOM_FACTORS = (2, 3, 4)


def random_schedule(rng: random.Random) -> ModuleOp:
    """A random *legal* schedule: any step sequence drawn here is
    semantics-preserving because every step re-checks its own legality
    when applied."""
    module = _new_schedule_module()
    sequence = find_sequences(module)[0]
    handle = sequence.append_step(MatchOp.create()).results[0]

    def add(op) -> None:
        nonlocal handle
        handle = sequence.append_step(op).results[0]

    menu = (
        lambda: FuseOp.create(handle, flow=rng.random() < 0.5),
        lambda: CopyElimOp.create(handle),
        lambda: DeadLoopsOp.create(handle),
        lambda: CanonicalizeOp.create(handle),
        lambda: DistributeOp.create(handle),
        lambda: TileOp.create(
            handle, size=rng.choice(_RANDOM_TILE_SIZES)
        ),
        lambda: TileOp.create(
            handle,
            sizes=[
                rng.choice(_RANDOM_TILE_SIZES)
                for _ in range(rng.randint(1, 3))
            ],
        ),
        lambda: UnrollJamOp.create(
            handle, rng.choice(_RANDOM_FACTORS)
        ),
    )
    for _ in range(rng.randint(0, 6)):
        add(rng.choice(menu)())
    return module
