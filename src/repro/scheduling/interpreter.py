"""Interpreter applying a transform-dialect schedule to payload IR.

:func:`apply_schedule` turns a ``transform.sequence`` into one
``PassManager`` pipeline and runs it: each step names a pass
(:data:`STEP_PASSES`).  It is the only optimizer driver: each engine
``opt_mode`` pipeline is a :func:`canned_schedule`, and
``run_optimizer(module, mode)`` is
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
from typing import Dict, Optional

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
    DeadLoopsPass,
    OptStats,
    ScheduleTilePass,
    _function_is_optimizable,
    would_lose_collapse,
)
from ..ir import Context, ModuleOp
from ..ir.pass_manager import (
    FunctionFilter,
    KeyedSearch,
    LambdaPass,
    PassManager,
)
from ..tactics.stats import merge_pass_stats
from ..transforms.canonicalize import CanonicalizePass
from ..transforms.copy_elimination import CopyEliminationPass
from ..transforms.distribution import LoopDistributionPass
from ..transforms.fusion import LoopFusionPass
from ..transforms.unroll import UnrollJamPass


class ScheduleError(ValueError):
    """A schedule module is malformed (not a legality failure)."""


#: What every application's passes share (they read no per-run state).
_CONTEXT = Context()

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
    leaves the engine default in charge); ``raise_stats`` is the raised
    callsites per tactic (``RaiseStats.callsites``) when a
    ``transform.raise`` step ran.

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
# Steps are passes
# ----------------------------------------------------------------------


#: Transform mnemonic (the keys of ``dialects.transform.STEP_OPS``) ->
#: the function pass the step runs, built from the step op's
#: attributes.  The mnemonic is the stage name in ``OptStats.stages``;
#: the pass's name and ``cache_config`` key its pass-cache entries.
#: ``match``, ``vectorize`` and ``raise`` name no function pass.
STEP_PASSES = {
    "transform.fuse": lambda step: LoopFusionPass(
        step.flow, veto=would_lose_collapse
    ),
    "transform.copy_elim": lambda step: CopyEliminationPass(),
    "transform.dead_loops": lambda step: DeadLoopsPass(),
    "transform.canonicalize": lambda step: CanonicalizePass(),
    "transform.distribute": lambda step: LoopDistributionPass(),
    "transform.tile": lambda step: ScheduleTilePass(
        step.size if step.size is not None else step.sizes
    ),
    "transform.unroll_jam": lambda step: UnrollJamPass(step.factor),
}


def apply_schedule(
    schedule,
    payload: ModuleOp,
    pass_cache=None,
    keyed: Optional[KeyedSearch] = None,
) -> ScheduleResult:
    """Apply ``schedule`` (a schedule module or sequence) to ``payload``
    and return the populated :class:`ScheduleResult`.

    The steps become one ``PassManager`` pipeline: ``transform.match``
    a :class:`~repro.ir.pass_manager.FunctionFilter` with the
    optimizer's soundness gate, each rewriting step its
    :data:`STEP_PASSES` pass, ``transform.raise`` a module pass running
    its tiers.  ``pass_cache`` memoizes each pass per function, so
    schedule search re-applying dozens of candidates to one payload
    pays for the shared prefix exactly once.

    Without ``keyed`` the payload is rewritten in place.  With a
    :class:`~repro.ir.pass_manager.KeyedSearch` it is left alone; see
    there.
    """
    result = ScheduleResult(stats=OptStats(mode="schedule"))
    pm = PassManager(_CONTEXT, verify_each=False, pass_cache=pass_cache)
    #: (stage name, None for a match; the pass whose counts it adds).
    stages = []
    tiers = None
    for step in _schedule_sequence(schedule).steps():
        name = step.name
        if name == "transform.match":
            pass_ = FunctionFilter(_function_is_optimizable, step.target)
            pm.add(pass_)
            stages.append((None, pass_))
            continue
        if not pm.passes:
            raise ScheduleError(
                f"{name} before any transform.match — nothing to transform"
            )
        if name == "transform.vectorize":
            result.vectorize = step.mode
            stages.append((name, None))
            continue
        if name == "transform.raise":
            tiers = _raise_tiers(step.mode)
            pass_ = LambdaPass(
                name, lambda module, _, tiers=tiers: tiers.run(module)
            )
        elif name in STEP_PASSES:
            pass_ = STEP_PASSES[name](step)
        else:
            raise ScheduleError(f"unknown schedule step {name}")
        pm.add(pass_)
        stages.append((name, pass_))
    pm.run(payload, keyed=keyed, tag=result.vectorize)

    for name, pass_ in stages:
        result.stats.add(getattr(pass_, "counters", {}), stage=name)
    if tiers is not None:
        result.raise_stats = merge_pass_stats(tiers.passes).callsites
    result.outcome, result.payload = pm.outcome, pm.payload
    return result


def _raise_tiers(mode: str) -> PassManager:
    """The pipeline of the passes ``mode``'s tiers name."""
    from ..tool import build_pipeline

    pass_names = []
    for tier in mode.split("+"):
        if tier not in RAISE_TIERS:
            raise ScheduleError(
                f"transform.raise: unknown tier {tier!r}; known: "
                f"{', '.join(RAISE_TIERS)}"
            )
        pass_names.append(RAISE_TIERS[tier])
    return build_pipeline(pass_names)


# ----------------------------------------------------------------------
# Schedule builders
# ----------------------------------------------------------------------


def _schedule(steps, target: Optional[str] = None) -> ModuleOp:
    """A schedule module: ``transform.match`` (of ``target``), then one
    step per ``steps`` entry, each ``make(handle) -> op``."""
    module = ModuleOp.create()
    sequence = module.body.append(SequenceOp.create())
    handle = sequence.append_step(MatchOp.create(target)).results[0]
    for make in steps:
        handle = sequence.append_step(make(handle)).results[0]
    return module


#: The ``opt_mode="full"`` steps before ``tile``, fuse first.
_OPT_STEPS = (
    lambda handle: FuseOp.create(handle, flow=True),
    CopyElimOp.create,
    DeadLoopsOp.create,
    CanonicalizeOp.create,
    DistributeOp.create,
)


def canned_schedule(
    mode: str, tile_size: int = DEFAULT_TILE_SIZE
) -> ModuleOp:
    """The engine's ``opt_mode`` pipelines (``OPT_MODES``) as schedule
    modules — what ``run_optimizer(payload, mode)`` applies."""
    if mode not in OPT_MODES:
        raise ScheduleError(
            f"unknown opt mode {mode!r}; expected one of {OPT_MODES}"
        )
    tile = partial(TileOp.create, size=tile_size)
    steps = {"none": (), "fuse": _OPT_STEPS[:1]}.get(
        mode, (*_OPT_STEPS, tile)
    )
    return _schedule(steps)


def schedule_from_params(params: Dict) -> ModuleOp:
    """Build a schedule module from an autotuner parameter point.

    Recognized keys (all optional): ``fuse`` (bool), ``order``
    (``"fuse-first"`` | ``"distribute-first"``), ``tile`` (int, 0 =
    untiled), ``unroll_jam`` (int, 0 = off), ``vectorize`` (codegen
    mode), ``target`` (function name).
    """
    order = params.get("order", "fuse-first")
    if order not in ("fuse-first", "distribute-first"):
        raise ScheduleError(f"unknown schedule order {order!r}")
    steps = list(_OPT_STEPS[1:])
    if params.get("fuse", True):
        fuse_at = 0 if order == "fuse-first" else len(steps)
        steps.insert(fuse_at, _OPT_STEPS[0])
    tile = int(params.get("tile", 0))
    if tile:
        steps.append(partial(TileOp.create, size=tile))
    factor = int(params.get("unroll_jam", 0))
    if factor:
        steps.append(partial(UnrollJamOp.create, factor=factor))
    vectorize = params.get("vectorize")
    if vectorize is not None:
        steps.append(partial(VectorizeOp.create, mode=vectorize))
    return _schedule(steps, params.get("target"))


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
    # Each entry draws its own attributes as it is chosen.
    menu = (
        lambda: partial(FuseOp.create, flow=rng.random() < 0.5),
        lambda: CopyElimOp.create,
        lambda: DeadLoopsOp.create,
        lambda: CanonicalizeOp.create,
        lambda: DistributeOp.create,
        lambda: partial(TileOp.create, size=rng.choice(_RANDOM_TILE_SIZES)),
        lambda: partial(
            TileOp.create,
            sizes=[
                rng.choice(_RANDOM_TILE_SIZES)
                for _ in range(rng.randint(1, 3))
            ],
        ),
        lambda: partial(
            UnrollJamOp.create, factor=rng.choice(_RANDOM_FACTORS)
        ),
    )
    return _schedule(
        [rng.choice(menu)() for _ in range(rng.randint(0, 6))]
    )
