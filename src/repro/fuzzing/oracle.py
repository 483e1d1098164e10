"""The differential pipeline-stage oracle.

For a given kernel the oracle runs each named pipeline (the pass lists
of ``evaluation.pipelines.NAMED_PIPELINES``, the same lists that are
served, tuned and priced) *pass by pass*: one stage per pass, after the
``met`` stage.  After every stage :func:`check_snapshot` checks the module
snapshot: the IR must verify, print -> parse -> print must reach a
fixpoint, and the interpreter's output buffers must match the stage-0
(MET output) reference up to a small float tolerance for reassociated
contractions (:func:`check_module`).  Every *selected* check then
compares another configuration against the interpreter's outputs for
that same snapshot:

* the rows of :data:`ENGINE_ROWS` — one compiled
  :class:`ExecutionEngine` configuration each, diffed against the
  interpreter and against every other row (``engine``, ``vectorize``
  and ``opt``; results are named ``<kind>-diff:<stage>``);
* ``schedule`` — random transform-dialect schedules executed on the
  interpreter (:func:`check_schedule_module`).

Two more checks diff printed IR over a whole pipeline instead of
buffers over a snapshot (:data:`PIPELINE_CHECKS`): ``driver``
(worklist vs snapshot pattern driver) and ``incremental`` (pass-result
cache cold and warm vs from scratch, after every pass — the oracle
that makes the pass cache's verify-skipping sound).  :data:`CHECKS`
names everything selectable (``FuzzCampaign(checks=...)``,
``mlt-fuzz --checks``); docs/testing.md has the table.

A stage that raises, fails verification, breaks the round-trip, or
diverges numerically produces a :class:`StageResult` failure; the
campaign then hands the kernel to the bisector and reducer.
"""

from __future__ import annotations

import difflib
import itertools
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..ir import Context, ModuleOp, Pass, VerificationError, print_module, verify
from ..ir.parser import parse_module
from ..met import compile_c
from ..telemetry import add

#: (pass-name, zero-arg factory) — fresh pass instances per replay.
PassSpec = Tuple[str, Callable[[], Pass]]

#: Relative tolerance of every differential comparison: collapsing a
#: reduction to ``sum``/``einsum`` reassociates f32 adds.
RTOL = 2e-3
#: Interpreter step budget per snapshot execution.
MAX_STEPS = 20_000_000
#: The ``tile`` parameter of the staged pipelines, deliberately tiny so
#: the tiling pass actually fires on the small extents the generators
#: emit (the production default of 32 would be a silent no-op).
FUZZ_TILE_SIZE = 3


@dataclass
class PipelineStage:
    name: str
    passes: List[PassSpec] = field(default_factory=list)


@dataclass
class Pipeline:
    name: str
    stages: List[PipelineStage] = field(default_factory=list)

    def flat_passes(self) -> List[Tuple[str, str, Callable[[], Pass]]]:
        """(stage name, pass name, factory) for every pass in order."""
        return [
            (stage.name, pass_name, factory)
            for stage in self.stages
            for pass_name, factory in stage.passes
        ]


def build_pipelines() -> Dict[str, Pipeline]:
    """Every named pipeline (``evaluation.pipelines.NAMED_PIPELINES``),
    staged for differential checking: a ``met`` stage (the frontend's
    undistributed output), then one stage per pass, named after it,
    tiling at :data:`FUZZ_TILE_SIZE`.
    """
    from ..evaluation.pipelines import NAMED_PIPELINES
    from ..tool import _pass_registry

    registry = _pass_registry([FUZZ_TILE_SIZE])
    return {
        name: Pipeline(
            name,
            [PipelineStage("met")]
            + [PipelineStage(p, [(p, registry[p])]) for p in passes],
        )
        for name, passes in NAMED_PIPELINES.items()
    }


DEFAULT_PIPELINES: Tuple[str, ...] = (
    "mlt-linalg",
    "mlt-blas",
    "mlt-synth",
    "mlt-affine",
)


# ----------------------------------------------------------------------
# Per-snapshot checks
# ----------------------------------------------------------------------


@dataclass
class StageResult:
    stage: str
    ok: bool
    #: ``"ok"`` or one of :data:`FAILURE_KINDS`.
    kind: str = "ok"
    detail: str = ""
    ir_text: str = ""


@dataclass
class OracleReport:
    pipeline: str
    func_name: str
    stages: List[StageResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.stages)

    @property
    def first_failure(self) -> Optional[StageResult]:
        for stage in self.stages:
            if not stage.ok:
                return stage
        return None

    def summary(self) -> str:
        if self.ok:
            return f"{self.pipeline}: ok ({len(self.stages)} stages)"
        failure = self.first_failure
        return (
            f"{self.pipeline}: FAIL at stage '{failure.stage}' "
            f"[{failure.kind}] {failure.detail}"
        )


def make_args(
    shapes: Sequence[Tuple[int, ...]], seed: int
) -> List[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [
        rng.random(shape, dtype=np.float32) * 0.5 for shape in shapes
    ]


def module_arg_shapes(module: ModuleOp, func_name: str) -> List[Tuple[int, ...]]:
    func = module.lookup(func_name)
    if func is None:
        raise ValueError(f"no function @{func_name} in module")
    return [tuple(arg.type.shape) for arg in func.arguments]


def execute_snapshot(
    module: ModuleOp,
    func_name: str,
    base_args: Sequence[np.ndarray],
    max_steps: int = MAX_STEPS,
) -> List[np.ndarray]:
    from ..execution import Interpreter

    args = [a.copy() for a in base_args]
    Interpreter(module, max_steps=max_steps).run(func_name, *args)
    return args


def _diff_detail(
    reference: Sequence[np.ndarray],
    actual: Sequence[np.ndarray],
    rtol: float = RTOL,
) -> str:
    parts = []
    for pos, (ref, act) in enumerate(zip(reference, actual)):
        # Most row pairs agree bit for bit; ``allclose`` is ~10x dearer.
        if np.array_equal(ref, act):
            continue
        if not np.allclose(ref, act, rtol=rtol, atol=1e-5):
            err = float(np.max(np.abs(ref - act)))
            bad = int(np.sum(~np.isclose(ref, act, rtol=rtol, atol=1e-5)))
            parts.append(
                f"arg {pos}: {bad}/{ref.size} elements differ, "
                f"max abs error {err:.3e}"
            )
    return "; ".join(parts)


def check_module(
    module: ModuleOp,
    func_name: str,
    base_args: Sequence[np.ndarray],
    reference: Optional[Sequence[np.ndarray]],
    stage_name: str,
) -> Tuple[StageResult, Optional[List[np.ndarray]]]:
    """Verify + round-trip + execute one snapshot.

    Returns the stage result and, on success, the snapshot's output
    buffers (the reference when ``reference`` is None).
    """
    try:
        verify(module, Context())
    except VerificationError as exc:
        return StageResult(stage_name, False, "verify", str(exc)), None
    except Exception as exc:
        return StageResult(stage_name, False, "crash", f"verifier: {exc}"), None
    try:
        text = print_module(module)
    except Exception as exc:
        return StageResult(stage_name, False, "crash", f"printer: {exc}"), None
    try:
        reparsed = parse_module(text)
        verify(reparsed, Context())
        text2 = print_module(reparsed)
        if text2 != text:
            return (
                StageResult(
                    stage_name,
                    False,
                    "roundtrip",
                    "print->parse->print is not a fixpoint",
                    text,
                ),
                None,
            )
    except Exception as exc:
        return (
            StageResult(stage_name, False, "roundtrip", str(exc), text),
            None,
        )
    try:
        outputs = execute_snapshot(module, func_name, base_args)
    except Exception as exc:
        return (
            StageResult(stage_name, False, "execute", str(exc), text),
            None,
        )
    if reference is not None:
        detail = _diff_detail(reference, outputs)
        if detail:
            return (
                StageResult(stage_name, False, "diff", detail, text),
                None,
            )
    return StageResult(stage_name, True, "ok", "", text), outputs


class EngineRow(NamedTuple):
    """One compiled-engine configuration the oracle cross-checks."""

    #: Label used in failure details and as the ``bail_sink`` key.
    name: str
    #: The check that selects the row, and its failure-kind prefix: a
    #: crash is reported as ``<kind>``, a divergence as ``<kind>-diff``.
    kind: str
    #: Keyword arguments for :class:`ExecutionEngine`.
    kwargs: Dict[str, object]


#: The oracle matrix.  A new engine knob gets differential coverage by
#: adding a row.  ``vectorize=nest`` and ``opt=none`` repeat the default
#: configuration so that selecting ``vectorize`` or ``opt`` alone still
#: has its baseline; a configuration an earlier selected row already
#: ran is not run again.
ENGINE_ROWS: Tuple[EngineRow, ...] = tuple(
    EngineRow(name, kind, {"vectorize": vectorize, "opt_mode": opt_mode})
    for name, kind, vectorize, opt_mode in (
        ("default", "engine", "nest", "none"),
        ("vectorize=none", "vectorize", "none", "none"),
        ("vectorize=nest", "vectorize", "nest", "none"),
        ("vectorize=innermost", "vectorize", "innermost", "none"),
        ("opt=none", "opt", "nest", "none"),
        ("opt=full", "opt", "nest", "full"),
        ("opt=fuse", "opt", "nest", "fuse"),
    )
)

#: Every selectable check: the engine-row kinds and ``schedule`` run on
#: each snapshot (:func:`check_snapshot`), :data:`PIPELINE_CHECKS` once
#: per pipeline, and ``synth`` (the campaign's synthesis-raising
#: expectation) once per kernel.
CHECKS: Tuple[str, ...] = (
    "engine",
    "vectorize",
    "opt",
    "schedule",
    "driver",
    "incremental",
    "synth",
)

#: Every value a failing :attr:`StageResult.kind` (and hence
#: ``BisectionResult.kind`` and ``report.json``'s ``failing_stage.kind``)
#: can take: :func:`check_module`'s five, ``<kind>`` / ``<kind>-diff``
#: per engine-row kind, the schedule check's pair, one ``-diff`` per
#: pipeline check, and the campaign's raise/synth ``expectation``.
FAILURE_KINDS: Tuple[str, ...] = (
    "crash",
    "verify",
    "roundtrip",
    "execute",
    "diff",
    "engine",
    "engine-diff",
    "vectorize",
    "vectorize-diff",
    "opt",
    "opt-diff",
    "schedule",
    "schedule-diff",
    "driver-diff",
    "incremental-diff",
    "expectation",
)


def check_engine_rows(
    module: ModuleOp,
    func_name: str,
    base_args: Sequence[np.ndarray],
    interpreter_outputs: Sequence[np.ndarray],
    stage_name: str,
    rows: Sequence[EngineRow],
    pipeline_name: str = "",
    rtol: float = RTOL,
    ir_text: str = "",
    bail_sink: Optional[Dict[str, Dict[str, int]]] = None,
) -> List[StageResult]:
    """Cross-check compiled-engine configurations against the
    interpreter and against each other.

    Each distinct configuration among ``rows`` is compiled and run once
    on a fresh copy of ``base_args``; its output buffers must match the
    *interpreter's* outputs for the same snapshot and those of every
    configuration run before it, within ``rtol``.  Bit-for-bit equality
    is deliberately not required: collapsing a reduction loop to
    ``sum``/``einsum`` reassociates f32 adds, which is the same
    tolerance the execution oracle already grants raised pipelines.

    Returns one ``<kind>-diff:<stage>`` result per configuration run,
    ending at the first failure.  When ``bail_sink`` is given, each
    row's ``vectorize_stats["bail_reasons"]`` taxonomy is accumulated
    under the row's name, so a campaign can report how many vectorizer
    bails the optimizer eliminated across the whole corpus.
    """
    from ..execution import ExecutionEngine

    results: List[StageResult] = []
    #: configuration -> (name of the row that ran it, engine, outputs)
    ran: Dict[tuple, tuple] = {}
    for row in rows:
        config = tuple(sorted(row.kwargs.items()))
        if config not in ran:
            result_name = f"{row.kind}-diff:{stage_name}"
            try:
                args = [a.copy() for a in base_args]
                engine = ExecutionEngine(
                    module,
                    pipeline=f"{pipeline_name}:{stage_name}",
                    **row.kwargs,
                )
                engine.run(func_name, *args)
            except Exception as exc:
                results.append(
                    StageResult(
                        result_name,
                        False,
                        row.kind,
                        f"{row.name}: {exc}",
                        ir_text,
                    )
                )
                return results
            against = [("interpreter", interpreter_outputs)] + [
                (name, outputs) for name, _, outputs in ran.values()
            ]
            for other, expected in against:
                detail = _diff_detail(expected, args, rtol)
                if detail:
                    results.append(
                        StageResult(
                            result_name,
                            False,
                            f"{row.kind}-diff",
                            f"{row.name} vs {other}: {detail}",
                            ir_text,
                        )
                    )
                    return results
            results.append(StageResult(result_name, True, "ok", "", ir_text))
            ran[config] = (row.name, engine, args)
        if bail_sink is not None:
            stats = ran[config][1].vectorize_stats or {}
            add(bail_sink.setdefault(row.name, {}), stats.get("bail_reasons"))
    return results


def check_schedule_module(
    module: ModuleOp,
    func_name: str,
    base_args: Sequence[np.ndarray],
    interpreter_outputs: Sequence[np.ndarray],
    stage_name: str,
    pipeline_name: str = "",
    ir_text: str = "",
    seed: int = 0,
    trials: int = 2,
) -> StageResult:
    """Cross-check random transform-dialect schedules against the
    unscheduled payload.

    Draws ``trials`` random legal schedules (deterministic in
    ``seed``/``stage_name``), applies each to a clone of the snapshot
    through the scheduling interpreter, executes the scheduled clone on
    the IR interpreter, and requires the outputs to match the
    unscheduled interpreter run within :data:`RTOL`.  Every schedule step
    re-checks its own legality, so *any* divergence is a transform bug
    — this is the oracle that keeps the autotuner's whole search space
    honest, not just the canned pipelines.

    Each schedule is also applied through a fresh pass cache, cold and
    then warm, and keyed on the untouched snapshot (the tuner's path):
    printed IR and stats must equal the uncached application's.
    """
    import random

    from ..scheduling.interpreter import apply_schedule, random_schedule

    result_name = f"schedule-diff:{stage_name}"
    for trial in range(trials):
        rng = random.Random(f"{seed}:{pipeline_name}:{stage_name}:{trial}")
        schedule = random_schedule(rng)
        schedule_text = print_module(schedule)
        try:
            clone = module.clone()
            expected = _applied_text(apply_schedule(schedule, clone))
            detail = _cached_schedule_diff(schedule, module, expected)
            args = execute_snapshot(clone, func_name, base_args)
        except Exception as exc:
            return StageResult(
                result_name,
                False,
                "schedule",
                f"trial={trial}: {exc} | schedule: {schedule_text}",
                ir_text,
            )
        if not detail:
            numeric = _diff_detail(interpreter_outputs, args)
            detail = numeric and f"vs unscheduled: {numeric}"
        if detail:
            return StageResult(
                result_name,
                False,
                "schedule-diff",
                f"trial={trial} {detail} | schedule: {schedule_text}",
                ir_text,
            )
    return StageResult(result_name, True, "ok", "", ir_text)


def _cached_schedule_diff(schedule, module, expected: str) -> str:
    """How applying ``schedule`` to ``module`` through a fresh pass
    cache (cold, then warm, then keyed) differs from ``expected``, the
    uncached application's printed IR and stats; "" if it does not."""
    from ..ir import PassResultCache
    from ..scheduling.interpreter import KeyedSearch, apply_schedule

    cache = PassResultCache()
    for how in ("cold", "warm", "keyed"):
        keyed = KeyedSearch() if how == "keyed" else None
        target = module if keyed else module.clone()
        applied = apply_schedule(schedule, target, cache, keyed=keyed)
        actual = _applied_text(applied)
        if actual != expected:
            return f"{how} cached application vs uncached: " + _text_diff(
                expected, actual, "uncached", how
            )
    return ""


def _applied_text(applied) -> str:
    """A schedule application's printed IR and stats, for diffing."""
    return f"{print_module(applied.payload)}{applied.snapshot()}"


def _crash_text(what: str, exc: Exception) -> str:
    """Stand-in for the printed IR of a run that raised, so two runs
    agree only if they crash at the same point with the same error."""
    return f"<{what} raised {type(exc).__name__}: {exc}>"


def _text_diff(reference: str, actual: str, fromfile: str, tofile: str) -> str:
    """The head of a unified diff between two printed modules."""
    diff = difflib.unified_diff(
        reference.splitlines(),
        actual.splitlines(),
        fromfile=fromfile,
        tofile=tofile,
        lineterm="",
        n=2,
    )
    return " | ".join(itertools.islice(diff, 12))


def check_driver_equivalence(
    module: ModuleOp, pipeline: Pipeline
) -> StageResult:
    """Cross-check the two greedy pattern drivers on one pipeline.

    Runs every pass of ``pipeline`` over independent clones of
    ``module``, once under the worklist driver and once under the
    reference snapshot driver, and requires the final printed IR to be
    byte-identical.  A pipeline crash is folded into the comparison
    (both drivers must crash with the same error text), so the check
    also catches a driver that diverges by raising.
    """
    from ..ir import DRIVERS, pattern_driver

    result_name = f"driver-diff:{pipeline.name}"
    texts: Dict[str, str] = {}
    for driver in DRIVERS:
        clone = module.clone()
        try:
            with pattern_driver(driver):
                for _, _, factory in pipeline.flat_passes():
                    factory().run(clone, Context())
            texts[driver] = print_module(clone)
        except Exception as exc:
            texts[driver] = _crash_text(driver, exc)
    reference_driver, *other_drivers = DRIVERS
    reference_text = texts[reference_driver]
    for driver in other_drivers:
        if texts[driver] != reference_text:
            detail = "drivers disagree: " + _text_diff(
                reference_text, texts[driver], reference_driver, driver
            )
            return StageResult(
                result_name, False, "driver-diff", detail, reference_text
            )
    return StageResult(result_name, True, "ok", "", reference_text)


def check_incremental_equivalence(
    module: ModuleOp, pipeline: Pipeline
) -> StageResult:
    """Cross-check incremental (pass-cached) compilation vs scratch.

    Runs every pass of ``pipeline`` three times over independent clones
    of ``module`` — from scratch (no pass cache), cold through a fresh
    :class:`~repro.ir.pass_cache.PassResultCache`, and warm through the
    now-populated cache (every cacheable pass result replays without
    executing) — and requires the printed IR to be byte-identical after
    *every single pass*.  A crash is folded into the comparison like
    ``driver-diff`` does: all three runs must crash at the same pass
    with the same error, so a cache path that diverges by raising (or
    by *not* raising) is caught too.

    Diffing at pass granularity means a failure directly names the
    first pass whose cached replay diverged — the bisection is built
    into the check.
    """
    from ..ir import PassManager, PassResultCache

    result_name = f"incremental-diff:{pipeline.name}"
    passes = pipeline.flat_passes()

    def snapshots(cache) -> List[str]:
        target = module.clone()
        snaps: List[str] = []
        for _, pass_name, factory in passes:
            pm = PassManager(
                Context(), verify_each=False, pass_cache=cache
            )
            pm.add(factory())
            try:
                pm.run(target)
                snaps.append(print_module(target))
            except Exception as exc:
                snaps.append(_crash_text(pass_name, exc))
                break
        return snaps

    reference = snapshots(None)
    final_text = reference[-1] if reference else ""
    cache = PassResultCache()
    for label in ("cold", "warm"):
        pairs = itertools.zip_longest(
            reference, snapshots(cache), fillvalue="<missing>"
        )
        for index, (ref, act) in enumerate(pairs):
            if ref == act:
                continue
            _, pass_name, _ = passes[min(index, len(passes) - 1)]
            detail = (
                f"{label} cache run diverges at pass {index + 1}/"
                f"{len(passes)} '{pass_name}': "
                + _text_diff(ref, act, "scratch", f"incremental-{label}")
            )
            return StageResult(
                result_name, False, "incremental-diff", detail, final_text
            )
    return StageResult(result_name, True, "ok", "", final_text)


#: The whole-pipeline byte-diff checks, by check name; a failure's kind
#: (and its result-name prefix) is ``<name>-diff``.
PIPELINE_CHECKS: Dict[str, Callable[[ModuleOp, Pipeline], StageResult]] = {
    "driver": check_driver_equivalence,
    "incremental": check_incremental_equivalence,
}


def check_snapshot(
    module: ModuleOp,
    func_name: str,
    base_args: Sequence[np.ndarray],
    reference: Optional[Sequence[np.ndarray]],
    stage_name: str,
    pipeline_name: str,
    checks: Sequence[str],
    seed: int,
    bail_sink: Optional[Dict[str, Dict[str, int]]] = None,
) -> Tuple[List[StageResult], Optional[List[np.ndarray]]]:
    """Every selected check on one snapshot.

    :func:`check_module` first (it yields the interpreter outputs the
    rest compare against), then the :data:`ENGINE_ROWS` whose kind is in
    ``checks``, then ``schedule``.  Returns the results up to and
    including the first failure, and the snapshot's interpreter outputs
    when :func:`check_module` passed.
    """
    result, outputs = check_module(
        module, func_name, base_args, reference, stage_name
    )
    results = [result]
    if not result.ok:
        return results, None
    results += check_engine_rows(
        module,
        func_name,
        base_args,
        outputs,
        stage_name,
        [row for row in ENGINE_ROWS if row.kind in checks],
        pipeline_name=pipeline_name,
        ir_text=result.ir_text,
        bail_sink=bail_sink,
    )
    if results[-1].ok and "schedule" in checks:
        results.append(
            check_schedule_module(
                module,
                func_name,
                base_args,
                outputs,
                stage_name,
                pipeline_name=pipeline_name,
                ir_text=result.ir_text,
                seed=seed,
            )
        )
    return results, outputs


# ----------------------------------------------------------------------
# Oracle drivers
# ----------------------------------------------------------------------


def run_oracle(
    source: str,
    pipeline: Pipeline,
    func_name: str,
    seed: int = 0,
    checks: Sequence[str] = CHECKS,
    bail_sink: Optional[Dict[str, Dict[str, int]]] = None,
) -> OracleReport:
    """Differentially test one C kernel against one pipeline."""
    try:
        # Distribution is a checked stage of its own, not a frontend
        # side effect, so enter undistributed.
        module = compile_c(source, distribute=False)
    except Exception as exc:
        report = OracleReport(pipeline.name, func_name)
        report.stages.append(
            StageResult("met", False, "crash", f"frontend: {exc}")
        )
        return report
    return _drive_stages(module, pipeline, func_name, seed, checks, bail_sink)


def run_oracle_on_module(
    module: ModuleOp,
    pipeline: Pipeline,
    func_name: str,
    seed: int = 0,
    checks: Sequence[str] = CHECKS,
    bail_sink: Optional[Dict[str, Dict[str, int]]] = None,
) -> OracleReport:
    """Differentially test a builder-constructed module (skips MET)."""
    return _drive_stages(
        module.clone(), pipeline, func_name, seed, checks, bail_sink
    )


def _drive_stages(
    module: ModuleOp,
    pipeline: Pipeline,
    func_name: str,
    seed: int,
    checks: Sequence[str],
    bail_sink: Optional[Dict[str, Dict[str, int]]],
) -> OracleReport:
    report = OracleReport(pipeline.name, func_name)
    base_args = make_args(module_arg_shapes(module, func_name), seed)
    reference: Optional[List[np.ndarray]] = None
    for stage in pipeline.stages:
        try:
            for _, factory in stage.passes:
                factory().run(module, Context())
        except Exception as exc:
            report.stages.append(
                StageResult(stage.name, False, "crash", str(exc))
            )
            return report
        results, outputs = check_snapshot(
            module,
            func_name,
            base_args,
            reference,
            stage.name,
            pipeline.name,
            checks,
            seed,
            bail_sink,
        )
        report.stages.extend(results)
        if not results[-1].ok:
            return report
        if reference is None:
            reference = outputs
    return report
