"""Interpreter applying a transform-dialect schedule to payload IR.

:func:`apply_schedule` turns a ``transform.sequence`` into one
``PassManager`` pipeline and runs it: each step names a pass
(:data:`STEP_PASSES`).  It is the only optimizer driver: an engine
``opt_mode`` is the name of a :func:`canned_schedule`, resolved where a
request enters (the engine, serving, ``mlt-opt --execute``), and
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
from typing import Dict, List, Optional

from ..dialects.transform import (
    MIN_TILE_SIZE,
    CanonicalizeOp,
    CopyElimOp,
    DeadLoopsOp,
    DistributeOp,
    FuseOp,
    MatchOp,
    SequenceOp,
    TileOp,
    UnrollJamOp,
    find_sequences,
)
from ..execution.engine.optimizer import (
    DEFAULT_TILE_SIZE,
    OPT_MODES,
    DeadLoopsPass,
    ScheduleTilePass,
    _function_is_optimizable,
    would_lose_collapse,
)
from ..execution.engine.cache import fingerprint_module
from ..ir import Context, ModuleOp
from ..ir.pass_manager import FunctionFilter, KeyedSearch, PassManager
from ..store import LruMemo
from ..telemetry import add
from ..transforms.canonicalize import CanonicalizePass
from ..transforms.copy_elimination import CopyEliminationPass
from ..transforms.distribution import LoopDistributionPass
from ..transforms.fusion import LoopFusionPass
from ..transforms.unroll import UnrollJamPass


class ScheduleError(ValueError):
    """A schedule module is malformed (not a legality failure)."""


#: What every application's passes share (they read no per-run state).
_CONTEXT = Context()


#: What the step passes count, summed over a schedule's steps; a
#: stage records its share of each.  ``transform.match`` counts
#: ``functions_seen``/``functions_skipped``, ``transform.fuse`` also
#: ``fusion_bails`` (reason -> count: why fusion rejected a pair).
STEP_COUNTERS = (
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


def _zero_counters() -> Dict:
    return {
        "functions_seen": 0,
        "functions_skipped": 0,
        **dict.fromkeys(STEP_COUNTERS, 0),
        "fusion_bails": {},
    }


@dataclass
class ScheduleResult:
    """What applying a schedule did.

    ``counters`` sums what the step passes counted; every counter is
    present, zeros included.  ``stages`` holds one entry per step after
    the match, in order: the step's transform mnemonic and the
    :data:`STEP_COUNTERS` it moved.

    ``outcome`` names what the steps left behind, read off the pass
    cache: the fingerprint each matched function ended at.  On one
    payload, equal outcomes are equal modules, hence one kernel.  It is
    ``None`` only without a pass cache: every step is a function pass.
    ``payload`` is the module the steps rewrote, ``None`` when a keyed
    application built nothing.
    """

    counters: Dict = field(default_factory=_zero_counters)
    stages: List[Dict] = field(default_factory=list)
    outcome: Optional[tuple] = None
    payload: Optional[ModuleOp] = None

    def snapshot(self) -> dict:
        """The one report of a schedule application (``engine.opt_stats``,
        ``mlt-opt --stats``'s ``opt``, the ``kernels/`` envelope): a
        fixed key set, so cold, warm and keyed applications print alike."""
        snap = add(_zero_counters(), self.counters)
        snap["stages"] = [dict(stage) for stage in self.stages]
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


# ----------------------------------------------------------------------
# Steps are passes
# ----------------------------------------------------------------------


#: Transform mnemonic (the keys of ``dialects.transform.STEP_OPS``) ->
#: the function pass the step runs, built from the step op's
#: attributes.  The mnemonic is the stage name in ``ScheduleResult.stages``;
#: the pass's name and ``cache_config`` key its pass-cache entries.
#: ``match`` names no function pass.
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

    The steps become one ``PassManager`` pipeline: the leading
    ``transform.match`` (the only one) a
    :class:`~repro.ir.pass_manager.FunctionFilter` with the optimizer's
    soundness gate, each later step its :data:`STEP_PASSES` pass.
    ``pass_cache`` memoizes each pass per function, so schedule search
    re-applying dozens of candidates to one payload pays for the shared
    prefix exactly once.

    Without ``keyed`` the payload is rewritten in place.  With a
    :class:`~repro.ir.pass_manager.KeyedSearch` it is left alone; see
    there.
    """
    result = ScheduleResult()
    pm = PassManager(_CONTEXT, verify_each=False, pass_cache=pass_cache)
    steps = _schedule_sequence(schedule).steps()
    for index, step in enumerate(steps):
        name = step.name
        if name == "transform.match":
            if index:
                raise ScheduleError(
                    "transform.match must be a schedule's first step only"
                )
            pm.add(FunctionFilter(_function_is_optimizable))
        elif not index:
            raise ScheduleError(
                f"{name} before any transform.match — nothing to transform"
            )
        elif name in STEP_PASSES:
            pm.add(STEP_PASSES[name](step))
        else:
            raise ScheduleError(f"unknown schedule step {name}")
    pm.run(payload, keyed=keyed)

    for index, (step, pass_) in enumerate(zip(steps, pm.passes)):
        counted = pass_.counters
        add(result.counters, counted)
        if index:
            moved = {c: counted[c] for c in STEP_COUNTERS if c in counted}
            result.stages.append({"stage": step.name, **moved})
    result.outcome, result.payload = pm.outcome, pm.payload
    return result


# ----------------------------------------------------------------------
# Schedule builders
# ----------------------------------------------------------------------


def _schedule(steps) -> ModuleOp:
    """A schedule module: ``transform.match``, then one step per
    ``steps`` entry, each ``make(handle) -> op``."""
    module = ModuleOp.create()
    sequence = module.body.append(SequenceOp.create())
    handle = sequence.append_step(MatchOp.create()).results[0]
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
    """The schedule an ``opt_mode`` (``OPT_MODES``) names — what an
    engine, a serve unit or ``run_optimizer(payload, mode)`` applies."""
    if mode not in OPT_MODES:
        raise ScheduleError(
            f"unknown opt mode {mode!r}; expected one of {OPT_MODES}"
        )
    tile = partial(TileOp.create, size=tile_size)
    steps = {"none": (), "fuse": _OPT_STEPS[:1]}.get(
        mode, (*_OPT_STEPS, tile)
    )
    return _schedule(steps)


#: (mode, tile edge) -> :func:`canned_fingerprint`.
_CANNED_FINGERPRINTS = LruMemo(64)


def canned_fingerprint(mode: str, tile_size: int = DEFAULT_TILE_SIZE) -> str:
    """``fingerprint_module(canned_schedule(mode, tile_size))``, printed
    once per process: serving keys every request on it."""
    fingerprint = _CANNED_FINGERPRINTS.get((mode, tile_size))
    if fingerprint is None:
        fingerprint = fingerprint_module(canned_schedule(mode, tile_size))
        _CANNED_FINGERPRINTS.put((mode, tile_size), fingerprint)
    return fingerprint


#: The keys of an autotuner parameter point and each value's type.
_PARAM_TYPES = {"fuse": bool, "order": str, "tile": int, "unroll_jam": int}

#: The smallest value an int parameter takes when it is not 0 (off):
#: the bound its step's verifier enforces.
_PARAM_MINIMA = {"tile": MIN_TILE_SIZE, "unroll_jam": 2}


def schedule_from_params(params: Dict) -> ModuleOp:
    """Build a schedule module from an autotuner parameter point.

    Keys (all optional): ``fuse`` (bool), ``order`` (``"fuse-first"`` |
    ``"distribute-first"``), ``tile`` (int, 0 = untiled), ``unroll_jam``
    (int, 0 = off).  Any other key, a value of another type (a bool is
    no int here), or a ``tile``/``unroll_jam`` that is neither 0 nor at
    least its step's minimum (2) is a :class:`ScheduleError`.
    """
    for key, value in params.items():
        if key not in _PARAM_TYPES:
            raise ScheduleError(f"unknown schedule parameter {key!r}")
        if type(value) is not _PARAM_TYPES[key]:
            raise ScheduleError(
                f"schedule parameter {key}={value!r} is not "
                f"{_PARAM_TYPES[key].__name__}"
            )
        least = _PARAM_MINIMA.get(key)
        if least is not None and value != 0 and value < least:
            raise ScheduleError(
                f"schedule parameter {key}={value!r} is neither 0 (off) "
                f"nor >= {least}"
            )
    order = params.get("order", "fuse-first")
    if order not in ("fuse-first", "distribute-first"):
        raise ScheduleError(f"unknown schedule order {order!r}")
    steps = list(_OPT_STEPS[1:])
    if params.get("fuse", True):
        fuse_at = 0 if order == "fuse-first" else len(steps)
        steps.insert(fuse_at, _OPT_STEPS[0])
    tile = params.get("tile", 0)
    if tile:
        steps.append(partial(TileOp.create, size=tile))
    factor = params.get("unroll_jam", 0)
    if factor:
        steps.append(partial(UnrollJamOp.create, factor=factor))
    return _schedule(steps)


#: Attribute menus for :func:`random_schedule`.
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
