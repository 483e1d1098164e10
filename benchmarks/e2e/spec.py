"""Names, units, directions and bounds — the one table ``BENCHMARK.json``,
the runner's output and the README are checked against."""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Seconds one run measures for (``run_seconds`` in BENCHMARK.json).
RUN_SECONDS = 8

COMMAND = ["python3", "benchmarks/e2e/run.py"]
PATHS = ["benchmarks/e2e"]

#: (name, why)
WORKLOADS: List[Tuple[str, str]] = [
    (
        "compile_cold",
        "Paper sec. V-B: 16 kernels compile_c->raise->lower_to_llvm, no "
        "cache; met/tactics/transforms/ir.rewrite do all the work, "
        "engine/caches/serving none.",
    ),
    (
        "batch_fill",
        "mlt-opt batch path with every cache tier (modules/ passes/ "
        "kernels/) empty and writing: mid-level passes, codegen and "
        "cache puts dominate.",
    ),
    (
        "batch_replay",
        "Same run_batch call over a filled cache_dir: pure cache reads; "
        "a store/key change that helps fill and hurts replay (or the "
        "reverse) shows here.",
    ),
    (
        "exec_baseline",
        "Fig. 9 run time of generated code at mid sizes, unraised "
        "pipeline: optimizer, vectorizer and codegen decide it; raising "
        "is idle (control of exec_raised).",
    ),
    (
        "exec_raised",
        "Fig. 9 run time at mid sizes, mlt-blas pipeline: raising and "
        "runtime helpers decide it; the vectorizer is idle (control of "
        "exec_baseline).",
    ),
    (
        "tune_search",
        "mlt-tune: 4 kernels x 24 schedules per search; apply_schedule "
        "+ pass cache + codegen per candidate; nothing else exercises "
        "scheduling/.",
    ),
    (
        "serve_hot",
        "mlt-serve subprocess, 4 hot corpus kernels: unit work is ~30 "
        "us, so framing, event loop and hot map are the whole cost.",
    ),
    (
        "serve_mixed",
        "Same server, every 10th request a unique raw-C compile that "
        "misses every tier: queue, executor and tenant caches writing "
        "under load.",
    ),
]

#: (name, unit, better, bound)
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("latency_ms", "ms", "lower", 0.25),
    ("tail_ms", "ms", "lower", 0.25),
    ("code_bytes", "bytes", "lower", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

#: What ``tail_ms`` is on each workload: a percentile of the same
#: samples ``latency_ms`` is the median of, chosen so that a run of
#: ``RUN_SECONDS`` leaves >= 10 samples beyond it.
TAIL_PERCENTILE: Dict[str, float] = {
    "compile_cold": 75,
    "batch_fill": 75,
    "batch_replay": 90,
    "exec_baseline": 75,
    "exec_raised": 90,
    "tune_search": 75,
    "serve_hot": 75,
    "serve_mixed": 75,
}

_MS, _COUNT, _RATIO = "ms", "count", "ratio"

#: (name, unit, better).  Layer = module name; 0 means "idle here".
PER_LAYER: List[Tuple[str, str, str]] = [
    # met
    ("met.compile_c_ms", _MS, "lower"),
    ("met.src_bytes_per_s", "bytes/s", "higher"),
    # tactics
    ("tactics.tdl_build_ms", _MS, "lower"),
    ("tactics.raise_ms", _MS, "lower"),
    ("tactics.raise_trials", _COUNT, "lower"),
    ("tactics.raise_rewrites", _COUNT, "higher"),
    ("tactics.match_yield", _RATIO, "higher"),
    ("tactics.raised_callsites", _COUNT, "higher"),
    # transforms
    ("transforms.lower_ms", _MS, "lower"),
    ("transforms.lower_raised_extra_ms", _MS, "lower"),
    ("transforms.lower_trials", _COUNT, "lower"),
    ("transforms.lower_rewrites", _COUNT, "lower"),
    ("transforms.opt_passes_ms", _MS, "lower"),
    ("transforms.raise_overhead_pct", "%", "lower"),
    # ir
    ("ir.print_ms", _MS, "lower"),
    ("ir.parse_ms", _MS, "lower"),
    ("ir.verify_ms", _MS, "lower"),
    ("ir.fingerprint_ms", _MS, "lower"),
    ("ir.ops_after_met", _COUNT, "lower"),
    ("ir.ops_after_raise", _COUNT, "lower"),
    ("ir.ops_after_lower", _COUNT, "lower"),
    ("ir.gc_ms", _MS, "lower"),
    ("ir.gc_share", _RATIO, "lower"),
    # ir.pass_cache
    ("pass_cache.hits", _COUNT, "higher"),
    ("pass_cache.misses", _COUNT, "lower"),
    ("pass_cache.executions", _COUNT, "lower"),
    ("pass_cache.prefix_restores", _COUNT, "higher"),
    ("pass_cache.hit_ratio", _RATIO, "higher"),
    # execution.engine
    ("engine.build_ms", _MS, "lower"),
    ("engine.optimize_ms", _MS, "lower"),
    ("engine.codegen_ms", _MS, "lower"),
    ("engine.run_ms", _MS, "lower"),
    ("engine.nests_collapsed", _COUNT, "higher"),
    ("engine.contractions", _COUNT, "higher"),
    ("engine.vectorize_bails", _COUNT, "lower"),
    ("engine.collapse_ratio", _RATIO, "higher"),
    ("engine.cache_get_ms", _MS, "lower"),
    ("engine.cache_put_ms", _MS, "lower"),
    ("engine.kernel_cache_hits", _COUNT, "higher"),
    ("engine.kernel_cache_misses", _COUNT, "lower"),
    ("engine.disk_bytes_written", "bytes", "lower"),
    ("engine.disk_bytes_read", "bytes", "lower"),
    # execution.interpreter
    ("interpreter.check_ms", _MS, "lower"),
    # runtime
    ("batch.unit_ms", _MS, "lower"),
    ("batch.module_cache_hits", _COUNT, "higher"),
    # scheduling
    ("scheduling.apply_ms", _MS, "lower"),
    ("scheduling.eval_ms", _MS, "lower"),
    ("scheduling.measure_ms", _MS, "lower"),
    ("scheduling.candidates", _COUNT, "higher"),
    ("scheduling.rejected", _COUNT, "lower"),
    ("scheduling.winner_run_ms", _MS, "lower"),
    # serving
    ("serving.decode_ms", _MS, "lower"),
    ("serving.normalize_ms", _MS, "lower"),
    ("serving.unit_hot_ms", _MS, "lower"),
    ("serving.unit_cold_ms", _MS, "lower"),
    ("serving.encode_ms", _MS, "lower"),
    ("serving.ping_rtt_ms", _MS, "lower"),
    ("serving.loop_residual_ms", _MS, "lower"),
    ("serving.overhead_ratio", _RATIO, "lower"),
    ("serving.seq_p50_ms", _MS, "lower"),
    ("serving.sat_rps", "1/s", "higher"),
    ("serving.lat_p50_ms", _MS, "lower"),
    ("serving.lat_tail_ms", _MS, "lower"),
    ("serving.max_rate_rps", "1/s", "higher"),
    ("serving.coalesced", _COUNT, "higher"),
    ("serving.shed", _COUNT, "lower"),
    ("serving.errors", _COUNT, "lower"),
    ("serving.gen_late_p50_ms", _MS, "lower"),
    ("serving.gen_late_tail_ms", _MS, "lower"),
    ("serving.backlog_end", _COUNT, "lower"),
    # the instrument itself
    ("trace.overhead_pct", "%", "lower"),
    ("trace.coverage_pct", "%", "higher"),
    ("trace.samples", _COUNT, "higher"),
]

#: Counts that must repeat exactly across two runs of one seed; later
#: issues may rest claims on them (choosing-metrics guide, section 8).
EXACT_REPEAT = (
    "code_bytes",
    "ir.ops_after_met",
    "ir.ops_after_raise",
    "ir.ops_after_lower",
    "tactics.raise_trials",
    "transforms.lower_trials",
    "pass_cache.hits",
    "pass_cache.misses",
    "pass_cache.executions",
    "pass_cache.prefix_restores",
    "engine.nests_collapsed",
)


def workload_names() -> List[str]:
    return [name for name, _ in WORKLOADS]


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }
