"""What every workload shares: the run context, the timed-sample loop
(GC policy, calibration interleave, run length) and the entry points a
traced run instruments."""

from __future__ import annotations

import gc
import os
import resource
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from .. import stats
from ..corpus import Verdicts
from ..trace import NullTracer, Tracer

#: Why ``batch_fill`` and ``serve_mixed`` report latency with the kernel
#: CPU time taken out.  Both create hundreds of small files per unit of
#: work, and the box's root filesystem is ext4 *without a journal*: there
#: the inode allocator skips every inode deleted in the last 5 minutes
#: whose table block is dirty, scanning past them on each create.  After
#: any mass delete nearby (this benchmark's own clean-up, a checkout
#: being removed) creating a file costs 0.5 ms instead of 0.03, for
#: minutes — measured: the same fill is 100 ms or 200 ms wall, with user
#: time flat and kernel time 20 vs 100 ms.  Nothing the program does, or
#: a later PR could fix, moves that; so on these two workloads the
#: kernel time is subtracted, and reported beside the result instead.
KERNEL_TIME_EXCLUDED = ("batch_fill", "serve_mixed")

#: GC stays *enabled* while a sample runs (users pay for it); a full
#: collection before each sample keeps one sample's garbage out of the
#: next one's time.
GC_POLICY = "enabled; gc.collect() before each sample"


@dataclass
class Run:
    """One invocation: inputs, scratch space, verdicts, tracer."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    quick: bool
    workdir: str
    tracer: Tracer = field(default_factory=NullTracer)
    verdicts: Verdicts = field(default_factory=Verdicts)
    #: human-readable notes that travel with the result
    notes: List[str] = field(default_factory=list)

    def scratch(self, name: str) -> str:
        path = os.path.join(self.workdir, name)
        os.makedirs(path, exist_ok=True)
        return path

    def min_samples(self, tail_percentile: float) -> int:
        """Samples the workload's tail percentile needs; ``--quick``
        runs take what the clock gives (their tail is not comparable)."""
        return 3 if self.quick else stats.samples_needed(tail_percentile)


class Workload:
    """Interface: ``setup`` (everything before the first timed sample,
    including the correctness oracle), then ``measure`` (tracing off,
    end-to-end metrics) or ``measure_traced`` (per-layer metrics)."""

    name = ""

    def __init__(self, run: Run):
        self.run = run

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self) -> Dict[str, float]:
        raise NotImplementedError

    def measure_traced(self) -> Dict[str, float]:
        raise NotImplementedError

    def teardown(self) -> None:
        pass


@dataclass
class Timed:
    """Raw wall (ms) per sample, the kernel CPU time inside it, and the
    index of the last calibration tick before it."""

    wall: List[float] = field(default_factory=list)
    kernel: List[float] = field(default_factory=list)
    tick: List[int] = field(default_factory=list)

    def normalised(self, norm: stats.Normaliser, minus_kernel: bool = False):
        """Each sample scaled by the ticks just before and after it."""
        return [
            norm.scale(w - k if minus_kernel else w, t, t + 2)
            for w, k, t in zip(self.wall, self.kernel, self.tick)
        ]


def timed_samples(
    fn: Callable[[], None],
    seconds: float,
    min_samples: int,
    norm: stats.Normaliser,
    cal_every: int = 1,
    before: Optional[Callable[[], None]] = None,
) -> Timed:
    """Call ``fn`` until both ``seconds`` have passed and
    ``min_samples`` are in.  ``before`` runs untimed ahead of each
    sample; a calibration tick is interleaved every ``cal_every``
    samples (and one closes the series), so drift hits both alike."""
    timed = Timed()
    deadline = time.perf_counter() + seconds
    last_tick = 0
    while time.perf_counter() < deadline or len(timed.wall) < min_samples:
        if len(timed.wall) % cal_every == 0:
            last_tick = norm.tick()
        if before is not None:
            before()
        gc.collect()
        kernel_before = resource.getrusage(resource.RUSAGE_SELF).ru_stime
        start = time.perf_counter()
        fn()
        timed.wall.append((time.perf_counter() - start) * 1e3)
        kernel_after = resource.getrusage(resource.RUSAGE_SELF).ru_stime
        timed.kernel.append((kernel_after - kernel_before) * 1e3)
        timed.tick.append(last_tick)
    norm.tick()
    return timed


def tail_percentile_for(samples: int, wanted: float, quick: bool) -> float:
    """The workload's tail percentile; a ``--quick`` run that has too
    few samples for it falls back to the median (never compared)."""
    if quick:
        return stats.supported_percentile(samples, (wanted,)) or 50
    return wanted


def tail_of(values: List[float], percentile: float) -> float:
    if percentile == 50:
        return stats.median(values)
    return stats.percentile(values, percentile)


def summarise(
    timed: Timed,
    norm: stats.Normaliser,
    tail_percentile: float,
    quick: bool,
    minus_kernel: bool = False,
) -> Dict[str, float]:
    """latency/tail (normalised) plus the raw values beside them."""
    tail_p = tail_percentile_for(len(timed.wall), tail_percentile, quick)
    normalised = timed.normalised(norm, minus_kernel)
    return {
        "latency_ms": stats.median(normalised),
        "tail_ms": tail_of(normalised, tail_p),
        "raw_latency_ms": stats.median(timed.wall),
        "raw_tail_ms": tail_of(timed.wall, tail_p),
        "raw_kernel_ms": stats.median(timed.kernel),
        "kernel_time_excluded": minus_kernel,
        "tail_percentile": tail_p,
        "cal_ms": norm.cal_ms,
        "cal_ref_ms": norm.ref_ms,
        "cal_samples": len(norm.ticks),
        "samples": len(timed.wall),
    }


class GcMeter:
    """Time spent inside the cyclic collector, via ``gc.callbacks``."""

    def __init__(self):
        self.seconds = 0.0
        self._start = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start

    def __enter__(self) -> "GcMeter":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._callback)


# ----------------------------------------------------------------------
# Instrumentation of the program's public entry points (traced runs)
# ----------------------------------------------------------------------


def _pattern_totals(timing) -> Dict[str, List[int]]:
    """pass name -> [trials, rewrites] from a ``PassTiming``."""
    out: Dict[str, List[int]] = {}
    for pass_name, patterns in timing.pattern_stats.items():
        trials = sum(int(e["trials"]) for e in patterns.values())
        rewrites = sum(int(e["rewrites"]) for e in patterns.values())
        out[pass_name] = [trials, rewrites]
    return out


RAISE_PASS = "raise-affine-to-linalg"


def install_instrumentation(tracer: Tracer) -> None:
    """Wrap the public calls the per-layer table is built from.

    The README lists these names; a refactor that moves one must
    re-point the matching line here.
    """
    import repro.execution.engine.codegen as codegen
    import repro.execution.engine.optimizer as optimizer
    import repro.ir.parser as parser
    import repro.ir.printer as printer
    import repro.ir.verifier as verifier
    import repro.met as met
    import repro.runtime.batch as batch
    import repro.scheduling.autotune  # noqa: F401
    import repro.scheduling.interpreter as sched
    import repro.serving.units  # noqa: F401
    import repro.tool as tool
    import repro.transforms.lowering as lowering
    from repro.execution.engine import cache as kcache
    from repro.execution.engine.disk_cache import DiskKernelCache
    from repro.execution.engine.engine import ExecutionEngine
    from repro.ir.pass_manager import PassManager
    from repro.tactics.raising import RaiseAffineToLinalgPass

    def around_raise_pass(tr, args, kwargs):
        pass_ = args[0]
        callsites_before = pass_.stats.total

        def done(_result):
            results = pass_.rewrite_results  # reset by every run()
            tr.count("tactics.raise_trials", sum(r.trials for r in results))
            tr.count(
                "tactics.raise_rewrites",
                sum(r.num_rewrites for r in results),
            )
            tr.count(
                "tactics.raised_callsites",
                pass_.stats.total - callsites_before,
            )

        return done

    def around_pass_manager(tr, args, kwargs):
        pm = args[0]
        cache = pm.pass_cache
        before = cache.stats.snapshot() if cache is not None else None
        seconds_before = dict(pm.timing.seconds)
        patterns_before = _pattern_totals(pm.timing)
        lowering_run = tr.inside("transforms.lower")
        raise_passes = [p for p in pm.passes if p.name == RAISE_PASS]
        callsites_before = sum(p.stats.total for p in raise_passes)

        def done(timing):
            for name, seconds in timing.seconds.items():
                delta = seconds - seconds_before.get(name, 0.0)
                if name == RAISE_PASS:
                    if cache is not None:  # else the pass's own span has it
                        tr.count("tactics.raise_s", delta)
                elif not lowering_run:
                    tr.count("transforms.opt_passes_s", delta)
            for name, (trials, rewrites) in _pattern_totals(timing).items():
                b_trials, b_rewrites = patterns_before.get(name, (0, 0))
                if name == RAISE_PASS:
                    if cache is not None:
                        tr.count("tactics.raise_trials", trials - b_trials)
                        tr.count(
                            "tactics.raise_rewrites", rewrites - b_rewrites
                        )
                elif lowering_run:
                    tr.count("transforms.lower_trials", trials - b_trials)
                    tr.count(
                        "transforms.lower_rewrites", rewrites - b_rewrites
                    )
            if cache is not None:
                tr.count(
                    "tactics.raised_callsites",
                    sum(p.stats.total for p in raise_passes) - callsites_before,
                )
                after = cache.stats.snapshot()
                for key in ("hits", "misses", "executions", "prefix_restores"):
                    tr.count(f"pass_cache.{key}", after[key] - before[key])

        return done

    def after_codegen(tr, args, kwargs):
        def done(compiled):
            vec = getattr(compiled, "vectorize_stats", None) or {}
            tr.count("engine.nests_collapsed", vec.get("nests_collapsed", 0))
            tr.count("engine.nests_partial", vec.get("nests_partial", 0))
            tr.count("engine.nests_bailed", vec.get("nests_bailed", 0))
            tr.count("engine.contractions", vec.get("contractions", 0))
            tr.count(
                "engine.vectorize_bails",
                sum(vec.get("bail_reasons", {}).values()),
            )

        return done

    tracer.instrument(met, "compile_c", "met.compile_c")
    tracer.instrument(
        RaiseAffineToLinalgPass, "run", "tactics.raise", around_raise_pass
    )
    tracer.instrument(lowering, "lower_to_llvm", "transforms.lower")
    tracer.instrument(printer, "print_module", "ir.print")
    tracer.instrument(parser, "parse_module", "ir.parse")
    tracer.instrument(verifier, "verify", "ir.verify")
    tracer.instrument(kcache, "fingerprint_module", "ir.fingerprint")
    tracer.instrument(PassManager, "run", "ir.pass_manager", around_pass_manager)
    tracer.instrument(ExecutionEngine, "__init__", "engine.build")
    tracer.instrument(ExecutionEngine, "run", "engine.run")
    tracer.instrument(optimizer, "run_optimizer", "engine.optimize")
    tracer.instrument(codegen, "compile_module", "engine.codegen", after_codegen)
    tracer.instrument(sched, "apply_schedule", "scheduling.apply")
    if hasattr(batch, "_run_unit"):
        # Private, but the one place a per-file span can go: what it
        # leaves uncovered (reads, hashing, output writes) is the
        # runtime layer's own time.
        tracer.instrument(batch, "_run_unit", "batch.unit")
    tracer.instrument(tool, "load_input", "tool.load_input")
    tracer.instrument(tool, "build_pipeline", "tool.build_pipeline")
    tracer.instrument(
        kcache.KernelCache, "get_or_compile_key", "engine.kernel_cache"
    )
    tracer.instrument(DiskKernelCache, "__init__", "engine.cache_open")
    for attr in ("load", "load_text"):
        tracer.instrument(DiskKernelCache, attr, "engine.cache_get")
    for attr in ("store", "store_text"):
        tracer.instrument(DiskKernelCache, attr, "engine.cache_put")


def start_tracing(run: Run) -> Tracer:
    """Switch the run from the null tracer to a recording one and
    instrument the program; untraced samples must be taken before."""
    tracer = run.tracer = Tracer()
    install_instrumentation(tracer)
    return tracer


def layer_metrics(tracer: Tracer, samples: int) -> Dict[str, float]:
    """Per traced sample: span totals (ms) and counters, by the
    per-layer metric names of :mod:`..spec`."""
    n = max(1, samples)
    c = tracer.counters

    def span_ms(name: str) -> float:
        return tracer.total(name) * 1e3 / n

    def count(name: str) -> float:
        return c.get(name, 0) / n

    raise_ms = span_ms("tactics.raise") + c.get("tactics.raise_s", 0.0) * 1e3 / n
    trials = count("tactics.raise_trials")
    rewrites = count("tactics.raise_rewrites")
    lookups = count("pass_cache.hits") + count("pass_cache.misses")
    nests = (
        count("engine.nests_collapsed")
        + count("engine.nests_partial")
        + count("engine.nests_bailed")
    )
    return {
        "met.compile_c_ms": span_ms("met.compile_c"),
        "tactics.raise_ms": raise_ms,
        "tactics.raise_trials": trials,
        "tactics.raise_rewrites": rewrites,
        "tactics.match_yield": rewrites / trials if trials else 0.0,
        "tactics.raised_callsites": count("tactics.raised_callsites"),
        "transforms.lower_ms": span_ms("transforms.lower"),
        "transforms.lower_trials": count("transforms.lower_trials"),
        "transforms.lower_rewrites": count("transforms.lower_rewrites"),
        "transforms.opt_passes_ms": c.get("transforms.opt_passes_s", 0.0) * 1e3 / n,
        "ir.print_ms": span_ms("ir.print"),
        "ir.parse_ms": span_ms("ir.parse"),
        "ir.verify_ms": span_ms("ir.verify"),
        "ir.fingerprint_ms": span_ms("ir.fingerprint"),
        "pass_cache.hits": count("pass_cache.hits"),
        "pass_cache.misses": count("pass_cache.misses"),
        "pass_cache.executions": count("pass_cache.executions"),
        "pass_cache.prefix_restores": count("pass_cache.prefix_restores"),
        "pass_cache.hit_ratio": (
            count("pass_cache.hits") / lookups if lookups else 0.0
        ),
        "engine.build_ms": span_ms("engine.build"),
        "engine.optimize_ms": span_ms("engine.optimize"),
        "engine.codegen_ms": span_ms("engine.codegen"),
        "engine.run_ms": span_ms("engine.run"),
        "engine.nests_collapsed": count("engine.nests_collapsed"),
        "engine.contractions": count("engine.contractions"),
        "engine.vectorize_bails": count("engine.vectorize_bails"),
        "engine.collapse_ratio": (
            count("engine.nests_collapsed") / nests if nests else 0.0
        ),
        "engine.cache_get_ms": span_ms("engine.cache_get"),
        "engine.cache_put_ms": span_ms("engine.cache_put"),
        "scheduling.apply_ms": span_ms("scheduling.apply"),
        "trace.coverage_pct": tracer.coverage() * 100.0,
        "trace.samples": float(samples),
    }
