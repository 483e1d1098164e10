"""Budgeted fuzzing campaigns and failure artifacts.

A campaign walks a seed range; each seed deterministically produces one
random C kernel (through the real MET frontend) and one random
builder-constructed Affine module, and differentially checks both
against every configured Figure-9 pipeline.  On failure the campaign

1. bisects the pipeline to the first breaking pass,
2. delta-debugs C kernels to a minimal reproducer, and
3. dumps an artifact directory under ``fuzz-failures/``::

       fuzz-failures/seed-000042-mlt-blas/
           kernel.c        original generated kernel
           reduced.c       minimal reproducer (C kernels only)
           report.json     seed, family, stage, culprit pass, diff
           stage-01-met.mlir, stage-02-....mlir   IR snapshots

Replaying is always ``mlt-fuzz --seed 42`` — the artifact just saves
you the trip.

Seeds are independent work units: :meth:`FuzzCampaign.run` maps them
over :func:`~repro.runtime.pool.parallel_map` for every ``jobs`` value
(inline at ``jobs=1``) and merges the results in seed order, so a
campaign's verdicts, failure order and ``fuzz-failures/`` artifacts do
not depend on the worker count.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence

from ..runtime.pool import parallel_map, resolve_jobs, seed_for_unit
from ..telemetry import add
from .bisect import BisectionResult, bisect_pipeline
from .generators import (
    NEAR_MISS_FAMILIES,
    GeneratedKernel,
    generate_affine_module,
    generate_kernel,
)
from .oracle import (
    CHECKS,
    DEFAULT_PIPELINES,
    PIPELINE_CHECKS,
    OracleReport,
    Pipeline,
    StageResult,
    build_pipelines,
    run_oracle,
    run_oracle_on_module,
)
from .reduce import reduce_source


@dataclass
class FuzzFailure:
    seed: int
    pipeline: str
    kind: str  # c-kernel | affine-module
    family: str
    report: OracleReport
    bisection: Optional[BisectionResult] = None
    source: str = ""
    reduced_source: Optional[str] = None
    artifact_dir: Optional[str] = None

    @property
    def reduced(self) -> bool:
        """A failure counts as reduced when it carries a minimal
        reproducer (C kernels) or needs none (module inputs and
        pipeline byte-diff failures replay from the seed alone)."""
        return (
            self.kind == "affine-module"
            or self.pipeline.startswith(
                tuple(f"{check}-diff" for check in PIPELINE_CHECKS)
            )
            or self.reduced_source is not None
        )

    def summary(self) -> str:
        lines = [
            f"seed {self.seed} [{self.kind}/{self.family}] "
            + self.report.summary()
        ]
        if self.bisection is not None:
            lines.append("  " + self.bisection.summary())
        if self.artifact_dir:
            lines.append(f"  artifact: {self.artifact_dir}")
        return "\n".join(lines)


@dataclass
class CampaignStats:
    seeds_run: int = 0
    checks: int = 0
    stages_checked: int = 0
    elapsed: float = 0.0
    failures: List[FuzzFailure] = field(default_factory=list)
    hit_time_limit: bool = False
    #: Vectorizer bail-reason taxonomies aggregated over every compile
    #: of the ``opt=none`` and ``opt=full`` oracle rows, keyed by reason
    #: — one for the optimizer disabled, one for the full pipeline
    #: (``opt=fuse`` is checked but not tallied).  The whole point
    #: of the mid-level optimizer is that ``bail_full`` sums strictly
    #: lower than ``bail_none`` on a mixed corpus.
    bail_none: Dict[str, int] = field(default_factory=dict)
    bail_full: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def unreduced_failures(self) -> List[FuzzFailure]:
        return [f for f in self.failures if not f.reduced]

    def merge_bails(self, sink: Dict[str, Dict[str, int]]) -> None:
        """Fold one seed's per-row bail taxonomy into the totals."""
        add(self.bail_none, sink.get("opt=none"))
        add(self.bail_full, sink.get("opt=full"))

    def merge_seed(self, seed_stats: "CampaignStats") -> None:
        """Fold one seed's stats, failures included, into the totals."""
        self.seeds_run += 1
        self.checks += seed_stats.checks
        self.stages_checked += seed_stats.stages_checked
        self.failures.extend(seed_stats.failures)
        add(self.bail_none, seed_stats.bail_none)
        add(self.bail_full, seed_stats.bail_full)

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.failures)} FAILURES"
        lines = [
            f"mlt-fuzz: {self.seeds_run} seeds, {self.checks} "
            f"kernel/pipeline checks, {self.stages_checked} stage snapshots "
            f"in {self.elapsed:.1f}s: {status}"
            + (" (time limit reached)" if self.hit_time_limit else "")
        ]
        if self.bail_none or self.bail_full:
            total_none = sum(self.bail_none.values())
            total_full = sum(self.bail_full.values())
            lines.append(
                f"mlt-fuzz: vectorizer bails across corpus: "
                f"{total_none} with opt=none -> {total_full} with opt=full"
            )
            reasons = sorted(set(self.bail_none) | set(self.bail_full))
            for reason in reasons:
                lines.append(
                    f"  {reason}: {self.bail_none.get(reason, 0)} -> "
                    f"{self.bail_full.get(reason, 0)}"
                )
        for failure in self.failures:
            lines.append(failure.summary())
        return "\n".join(lines)


#: Seeds dispatched per pool wave at ``jobs > 1``, as a multiple of the
#: worker count.  The time limit is checked between waves; at
#: ``jobs=1`` a wave is one seed, so it is checked before every seed.
WAVE_FACTOR = 4


class Expectation(NamedTuple):
    """One raising tier whose outcome the generator predicts per kernel."""

    #: Report and artifact name (``seed-NNNNNN-<name>/``).
    name: str
    #: Stage named in the failing :class:`StageResult`.
    stage: str
    #: The :class:`FuzzCampaign` static method mapping C source to
    #: "the tier raised it", looked up by name on every call.
    predicate: str
    #: The :class:`GeneratedKernel` flag holding the expected outcome.
    flag: str
    #: The :data:`~.oracle.CHECKS` entry that selects the tier, or None
    #: when it always runs.
    check: Optional[str]
    #: Failure details: the tier crashed / raised a kernel it must
    #: leave alone / left a kernel it must raise.
    crashed: str
    over_raised: str
    missed: str


#: The raise-expectation oracle, one row per tier.  A mismatch in
#: either direction is a tier bug: a lost pattern or candidate class,
#: or an unsound match or validation.
EXPECTATIONS = (
    Expectation(
        "raise-expectation",
        "raise-linalg",
        "_raises_to_named_op",
        "expect_raise",
        None,
        "raising crashed",
        "tactic matched a near-miss kernel",
        "tactic failed to match a positive kernel",
    ),
    Expectation(
        "synth-expectation",
        "raise-synth",
        "_synth_raises_all",
        "expect_synth_raise",
        "synth",
        "synthesis crashed",
        "synthesis raised a kernel outside its candidate space",
        "synthesis failed to raise an in-space kernel",
    ),
)


class FuzzCampaign:
    def __init__(
        self,
        out_dir: str = "fuzz-failures",
        pipelines: Optional[Sequence[str]] = None,
        check_modules: bool = True,
        write_artifacts: bool = True,
        checks: Optional[Sequence[str]] = None,
    ):
        self.out_dir = out_dir
        self.check_modules = check_modules
        selected = CHECKS if checks is None else tuple(checks)
        unknown = [c for c in selected if c not in CHECKS]
        if unknown:
            raise ValueError(
                f"unknown check(s) {unknown}; known: {list(CHECKS)}"
            )
        #: The selected oracle checks, in :data:`~.oracle.CHECKS` order.
        self.checks = tuple(c for c in CHECKS if c in selected)
        self.write_artifacts = write_artifacts
        registry = build_pipelines()
        names = list(pipelines) if pipelines else list(DEFAULT_PIPELINES)
        unknown = [n for n in names if n not in registry]
        if unknown:
            raise ValueError(
                f"unknown pipeline(s) {unknown}; known: {sorted(registry)}"
            )
        self.pipelines: Dict[str, Pipeline] = {
            name: registry[name] for name in names
        }

    def __reduce__(self):
        # Pool workers rebuild the campaign from its arguments: the
        # staged pipelines hold pass factories, which do not pickle.
        return (
            FuzzCampaign,
            (
                self.out_dir,
                list(self.pipelines),
                self.check_modules,
                self.write_artifacts,
                self.checks,
            ),
        )

    # ------------------------------------------------------------------

    def run(
        self,
        num_seeds: int,
        start_seed: int = 0,
        time_limit: Optional[float] = None,
        jobs: int = 1,
    ) -> CampaignStats:
        """Run seeds ``start_seed ..`` on ``jobs`` workers (0 or
        negative: one per CPU), stopping before the next wave once
        ``time_limit`` seconds have passed."""
        jobs = resolve_jobs(jobs)
        stats = CampaignStats()
        started = time.perf_counter()
        seeds = [seed_for_unit(start_seed, i) for i in range(num_seeds)]
        wave = 1 if jobs == 1 else jobs * WAVE_FACTOR
        for offset in range(0, len(seeds), wave):
            if (
                time_limit is not None
                and time.perf_counter() - started > time_limit
            ):
                stats.hit_time_limit = True
                break
            batch = seeds[offset : offset + wave]
            for seed_stats in parallel_map(self._run_unit, batch, jobs=jobs):
                stats.merge_seed(seed_stats)
        stats.elapsed = time.perf_counter() - started
        return stats

    def _run_unit(self, seed: int) -> CampaignStats:
        """One seed as a pool work unit: its own stats, failures
        included."""
        stats = CampaignStats()
        stats.failures = self.run_seed(seed, stats)
        return stats

    def run_seed(
        self, seed: int, stats: Optional[CampaignStats] = None
    ) -> List[FuzzFailure]:
        stats = stats if stats is not None else CampaignStats()
        failures: List[FuzzFailure] = []
        bail_sink: Dict[str, Dict[str, int]] = {}
        kernel = generate_kernel(seed)
        for expectation in EXPECTATIONS:
            if expectation.check is None or expectation.check in self.checks:
                stats.checks += 1
                failure = self._check_expectation(seed, kernel, expectation)
                if failure is not None:
                    failures.append(failure)
        if self.write_artifacts and kernel.family in NEAR_MISS_FAMILIES:
            self._export_near_miss(kernel)
        failures.extend(
            self._check_input(
                seed,
                "c-kernel",
                kernel.family,
                kernel.source,
                kernel.func_name,
                kernel.source,
                stats,
                bail_sink,
            )
        )
        if self.check_modules:
            from ..ir import print_module

            generated = generate_affine_module(seed)
            failures.extend(
                self._check_input(
                    seed,
                    "affine-module",
                    "affine-module",
                    print_module(generated.module),
                    generated.func_name,
                    generated.module,
                    stats,
                    bail_sink,
                )
            )
        stats.merge_bails(bail_sink)
        return failures

    def _check_input(
        self,
        seed: int,
        kind: str,
        family: str,
        source: str,
        func_name: str,
        subject,
        stats: CampaignStats,
        bail_sink: Dict[str, Dict[str, int]],
    ) -> List[FuzzFailure]:
        """Every per-pipeline check on one generated input.

        ``subject`` is what the oracle and the bisector consume: the C
        source for a ``c-kernel``, the builder's module for an
        ``affine-module`` (``source`` is then its printed form, kept
        for the artifact).  The staged oracle runs first; a failure is
        bisected and, for C kernels, reduced.  Then the selected
        :data:`~.oracle.PIPELINE_CHECKS` diff printed IR over each whole
        pipeline: a mismatch there is a rewrite-driver or pass-cache
        bug, not a pipeline bug, so it gets neither bisection nor
        reduction — the seed plus the diff in the report is the
        reproducer.
        """
        from ..met import compile_c

        failures: List[FuzzFailure] = []
        is_c = kind == "c-kernel"
        oracle = run_oracle if is_c else run_oracle_on_module
        common = dict(seed=seed, checks=self.checks)
        for pipeline in self.pipelines.values():
            report = oracle(
                subject, pipeline, func_name, bail_sink=bail_sink, **common
            )
            stats.checks += 1
            stats.stages_checked += len(report.stages)
            if report.ok:
                continue
            bisection = bisect_pipeline(
                subject, pipeline, func_name, **common
            )
            reduced = None
            if is_c:

                def still_fails(candidate: str) -> bool:
                    failure = run_oracle(
                        candidate, pipeline, func_name, **common
                    ).first_failure
                    return (
                        failure is not None
                        and failure.kind == report.first_failure.kind
                    )

                reduced = reduce_source(source, still_fails)
            failures.append(
                self._record(
                    FuzzFailure(
                        seed=seed,
                        pipeline=pipeline.name,
                        kind=kind,
                        family=family,
                        report=report,
                        bisection=bisection,
                        source=source,
                        reduced_source=reduced,
                    )
                )
            )
        selected = [c for c in PIPELINE_CHECKS if c in self.checks]
        module = subject
        if selected and is_c:
            try:
                module = compile_c(source, distribute=False)
            except Exception:
                return failures  # frontend crash is reported by run_oracle
        for check in selected:
            for name, pipeline in self.pipelines.items():
                result = PIPELINE_CHECKS[check](module, pipeline)
                stats.checks += 1
                stats.stages_checked += 1
                if result.ok:
                    continue
                report = OracleReport(f"{check}-diff:{name}", func_name)
                report.stages.append(result)
                failures.append(
                    self._record(
                        FuzzFailure(
                            seed=seed,
                            pipeline=f"{check}-diff-{name}",
                            kind=kind,
                            family=family,
                            report=report,
                            bisection=None,
                            source=source,
                        )
                    )
                )
        return failures

    def _record(self, failure: FuzzFailure) -> FuzzFailure:
        if self.write_artifacts:
            failure.artifact_dir = self._dump(failure)
        return failure

    # ------------------------------------------------------------------

    @staticmethod
    def _raises_to_named_op(source: str) -> bool:
        from ..met import compile_c
        from ..tactics.raising import raise_affine_to_linalg

        module = compile_c(source)
        raise_affine_to_linalg(module)
        return any(
            op.name in ("linalg.matmul", "linalg.matvec")
            for func in module.functions
            for op in func.walk()
        )

    @staticmethod
    def _synth_raises_all(source: str) -> bool:
        """True when the enumerative tier alone clears every affine
        band the frontend emits for ``source``."""
        from ..dialects.affine import AffineForOp
        from ..met import compile_c
        from ..raising import raise_with_synthesis

        module = compile_c(source)
        raise_with_synthesis(module)
        return not any(
            isinstance(op, AffineForOp) for op in module.walk()
        )

    def _check_expectation(
        self, seed: int, kernel: GeneratedKernel, expectation: Expectation
    ) -> Optional[FuzzFailure]:
        """Check one tier's outcome on ``kernel`` against the
        generator's flag.  A crash of the tier is a failure too, and so
        is reduced to a source on which it still crashes."""
        predicate = getattr(self, expectation.predicate)

        def outcome(source: str):
            """(whether the tier raised ``source``, "") or (None, the
            crash detail)."""
            try:
                return predicate(source), ""
            except Exception as exc:
                return None, f"{expectation.crashed}: {exc}"

        raised, detail = outcome(kernel.source)
        if raised == getattr(kernel, expectation.flag):
            return None
        if raised is not None:
            detail = expectation.over_raised if raised else expectation.missed
        report = OracleReport(expectation.name, kernel.func_name)
        report.stages.append(
            StageResult(expectation.stage, False, "expectation", detail)
        )

        def still_failing(candidate: str) -> bool:
            return outcome(candidate)[0] == raised

        failure = FuzzFailure(
            seed=seed,
            pipeline=expectation.name,
            kind="c-kernel",
            family=kernel.family,
            report=report,
            bisection=None,
            source=kernel.source,
            reduced_source=reduce_source(kernel.source, still_failing),
        )
        return self._record(failure)

    def _export_near_miss(self, kernel: GeneratedKernel) -> str:
        """Persist a near-miss variant as a replayable corpus entry.

        These kernels are the synthesis tier's raison d'être — TDL must
        skip them, and (for in-space families) synth must recover them —
        so every generated one is kept under ``<out_dir>/near-miss/``
        with its raise expectations recorded, whether or not any oracle
        failed.  ``mlt-bench-raise --corpus`` sweeps this directory.
        """
        directory = os.path.join(
            self.out_dir,
            "near-miss",
            f"seed-{kernel.seed:06d}-{kernel.family}",
        )
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, "kernel.c"), "w") as handle:
            handle.write(kernel.source)
        payload = {
            "seed": kernel.seed,
            "family": kernel.family,
            "func_name": kernel.func_name,
            "replay": f"mlt-fuzz --seed {kernel.seed}",
            "expect_tdl_raise": kernel.expect_raise,
            "expect_synth_raise": kernel.expect_synth_raise,
        }
        with open(
            os.path.join(directory, "expectation.json"), "w"
        ) as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        return directory

    # ------------------------------------------------------------------

    def _dump(self, failure: FuzzFailure) -> str:
        directory = os.path.join(
            self.out_dir, f"seed-{failure.seed:06d}-{failure.pipeline}"
        )
        os.makedirs(directory, exist_ok=True)
        suffix = ".c" if failure.kind == "c-kernel" else ".mlir"
        with open(os.path.join(directory, "kernel" + suffix), "w") as handle:
            handle.write(failure.source)
        if failure.reduced_source is not None:
            with open(os.path.join(directory, "reduced.c"), "w") as handle:
                handle.write(failure.reduced_source)
        for position, stage in enumerate(failure.report.stages, start=1):
            if not stage.ir_text:
                continue
            name = f"stage-{position:02d}-{stage.stage}.mlir"
            with open(os.path.join(directory, name), "w") as handle:
                handle.write(stage.ir_text)
        first = failure.report.first_failure
        payload = {
            "seed": failure.seed,
            "kind": failure.kind,
            "family": failure.family,
            "pipeline": failure.pipeline,
            "replay": f"mlt-fuzz --seed {failure.seed}",
            "failing_stage": {
                "name": first.stage,
                "kind": first.kind,
                "detail": first.detail,
            },
            "bisection": {
                "culprit_pass": failure.bisection.culprit_pass,
                "stage": failure.bisection.stage,
                "index": failure.bisection.index,
                "kind": failure.bisection.kind,
                "detail": failure.bisection.detail,
            }
            if failure.bisection is not None
            else None,
            "reduced_lines": (
                len(failure.reduced_source.splitlines())
                if failure.reduced_source is not None
                else None
            ),
        }
        with open(os.path.join(directory, "report.json"), "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        return directory
