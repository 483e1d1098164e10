"""Shared reporting and measurement utilities for the benchmark suite.

Every benchmark regenerates one table or figure of the paper and
reports rows in the same layout, writing a copy under
``benchmarks/results/`` so the numbers survive the pytest run —
``report`` for human-readable text tables, ``report_json`` for
machine-readable rows (``BENCH_*.json``).

This module is also runnable — the bench-smoke entry point::

    PYTHONPATH=src python -m benchmarks.harness --engine both

pushes one small Figure-9 kernel through the baseline and the raised
(BLAS) pipelines on the selected execution backend(s), checks that the
interpreter and the compiled engine agree numerically, and writes
``benchmarks/results/BENCH_fig9.json``.  ``--compile-time`` compares
the worklist and snapshot pattern drivers on ``--kernel`` instead
(``BENCH_sec5b.json``).  :func:`write_corpus` and :func:`run_corpus`
push the paper corpus through ``mlt-opt``'s batch driver for the
serial-vs-pool determinism tests.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

ENGINES = ("interpret", "compiled")

#: Wall-clock measurements use a generous interpreter step budget — the
#: point is to measure slow execution, not to abort it.
MEASURE_MAX_STEPS = 2_000_000_000


def format_table(
    title: str, headers: Sequence[str], rows: Sequence[Sequence]
) -> str:
    widths = [len(h) for h in headers]
    str_rows = [[_cell(c) for c in row] for row in rows]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title, ""]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def report(name: str, text: str) -> str:
    """Print and persist one benchmark report."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as handle:
        handle.write(text + "\n")
    print("\n" + text + "\n")
    return path


def report_json(name: str, payload) -> str:
    """Persist one machine-readable benchmark report.

    ``payload`` is typically ``{"rows": [...]}`` where each row follows
    the schema ``{benchmark, kernel, pipeline, engine, wall_time_s,
    checksum}``.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


# ----------------------------------------------------------------------
# Measured execution
# ----------------------------------------------------------------------


def checksum(buffers) -> float:
    """Order-independent scalar digest of the output buffers."""
    return float(sum(float(buf.sum()) for buf in buffers))


def run_measured(
    module,
    func_name: str,
    engine: str,
    pipeline: str = "",
    seed: int = 0,
):
    """Execute one function on deterministic random inputs.

    Returns ``(wall_time_s, checksum, buffers, vectorize_stats)``.  For
    the compiled engine, construction (codegen or cache hit) happens
    outside the timed region — the measurement is steady-state kernel
    execution, the quantity Figure 9 reports — and ``vectorize_stats``
    carries the vectorizer's codegen decisions (``None`` for the
    interpreter, which has no vectorizer).
    """
    from repro.fuzzing.oracle import make_args, module_arg_shapes

    args = make_args(module_arg_shapes(module, func_name), seed)
    vectorize_stats = None
    if engine == "compiled":
        from repro.execution import ExecutionEngine

        runner = ExecutionEngine(module, pipeline=pipeline)
        vectorize_stats = runner.vectorize_stats
    elif engine == "interpret":
        from repro.execution import Interpreter

        runner = Interpreter(module, max_steps=MEASURE_MAX_STEPS)
    else:
        raise ValueError(f"unknown engine {engine!r}; known: {ENGINES}")
    start = time.perf_counter()
    runner.run(func_name, *args)
    wall = time.perf_counter() - start
    return wall, checksum(args), args, vectorize_stats


def measure_pipelines(
    source: str,
    func_name: str,
    kernel: str,
    engines: Sequence[str],
    pipelines: Sequence[str] = ("baseline", "mlt-blas"),
    seed: int = 0,
    benchmark: str = "fig9",
    tile: int = 32,
    rtol: float = 2e-3,
) -> List[Dict]:
    """Measure one kernel across pipelines and engines.

    Returns ``BENCH_*`` schema rows.  When more than one engine is
    requested the backends' output buffers are compared per pipeline and
    a mismatch raises ``AssertionError`` — this is the bench-smoke
    agreement check.
    """
    import numpy as np

    from repro.evaluation.pipelines import build_module

    rows: List[Dict] = []
    for pipeline in pipelines:
        module = build_module(source, pipeline, tile=tile)
        outputs = {}
        for engine in engines:
            wall, digest, buffers, vec_stats = run_measured(
                module, func_name, engine, pipeline=pipeline, seed=seed
            )
            outputs[engine] = buffers
            row = {
                "benchmark": benchmark,
                "kernel": kernel,
                "pipeline": pipeline,
                "engine": engine,
                "wall_time_s": wall,
                "checksum": digest,
            }
            if vec_stats is not None:
                row["vectorize_stats"] = vec_stats
            rows.append(row)
        if len(outputs) > 1:
            reference = outputs[engines[0]]
            for engine in engines[1:]:
                for pos, (ref, act) in enumerate(
                    zip(reference, outputs[engine])
                ):
                    assert np.allclose(ref, act, rtol=rtol, atol=1e-5), (
                        f"{kernel}/{pipeline}: {engines[0]} and {engine} "
                        f"disagree on arg {pos}"
                    )
    return rows


# ----------------------------------------------------------------------
# Bench-smoke CLI
# ----------------------------------------------------------------------


def _compile_time_smoke(kernel: str) -> int:
    """Bench-smoke for the pattern drivers: one kernel, both greedy
    drivers, byte-identical IR required, report to BENCH_sec5b.json."""
    # Imported lazily: the bench module imports this harness.
    from .bench_sec5b_compile_time import (
        measure_drivers,
        write_driver_report,
    )

    rows, summary = measure_drivers(kernels=[kernel])
    path = write_driver_report(rows, summary)
    table = format_table(
        f"compile-time smoke — {kernel} (small), both pattern drivers",
        ["driver", "wall_time_s", "match trials"],
        [
            (
                driver,
                f"{summary['wall_time_s'][driver]:.6f}",
                summary["total_trials"][driver],
            )
            for driver in sorted(summary["total_trials"])
        ],
    )
    print(table)
    print(f"\nwrote {path}")
    print(
        "drivers produce byte-identical IR; worklist speedup "
        f"{summary['speedup_worklist_vs_snapshot']:.3f}x"
    )
    return 0


# ----------------------------------------------------------------------
# Corpus runs through ``mlt-opt``'s batch driver
# ----------------------------------------------------------------------


def write_corpus(kernel_names: Sequence[str], input_dir: str) -> List[str]:
    """Write each paper kernel's small C source to
    ``input_dir/<kernel>.c``; returns the paths in kernel order."""
    from repro.evaluation import get_kernel

    os.makedirs(input_dir, exist_ok=True)
    paths = []
    for name in kernel_names:
        spec = get_kernel(name)
        path = os.path.join(input_dir, f"{name}.c")
        with open(path, "w") as handle:
            handle.write(spec.small())
        paths.append(path)
    return paths


def run_corpus(
    inputs: Sequence[str],
    pipelines: Sequence[str],
    jobs: int,
    cache_dir: str,
    out_dir: str,
) -> Dict:
    """One ``mlt-opt`` batch (:func:`repro.runtime.batch.run_batch`) per
    named pipeline over ``inputs``, kernels compiled into ``cache_dir``.

    Returns an aggregate row; its ``outputs`` map ``(kernel, pipeline)``
    to the unit's printed module and kernel source, the digest the
    determinism tests compare across runs.  A failed unit is an error.
    """
    from repro.evaluation.pipelines import NAMED_PIPELINES
    from repro.runtime.batch import run_batch, unit_config
    from repro.store import ArtifactStore, text_fingerprint

    batches = [
        (
            pipeline,
            run_batch(
                inputs,
                NAMED_PIPELINES[pipeline],
                os.path.join(out_dir, pipeline),
                jobs=jobs,
                cache_dir=cache_dir,
                compile_kernels=True,
            ),
        )
        for pipeline in pipelines
    ]

    kernels = ArtifactStore(cache_dir).kernels.disk
    outputs = {}
    codegen = module_hits = 0
    for pipeline, results in batches:
        config = unit_config(NAMED_PIPELINES[pipeline], "worklist", "auto")
        for result in results:
            if not result.ok:
                raise AssertionError(
                    f"corpus run: {result.input_path} under {pipeline}: "
                    f"{result.detail}"
                )
            codegen += result.cache_snapshot["memory"].get("codegen_count", 0)
            module_hits += result.detail == "module-cache"
            with open(result.output_path) as handle:
                text = handle.read()
            compiled = kernels.load(config.kernel_key(text_fingerprint(text)))
            if compiled is None:
                raise AssertionError(
                    f"corpus run: {result.input_path} under {pipeline}: "
                    "no kernel in the cache"
                )
            kernel = os.path.splitext(os.path.basename(result.input_path))[0]
            outputs[kernel, pipeline] = (text, compiled.source)
    return {
        "units": len(outputs),
        "codegen_count": codegen,
        "module_cache_hits": module_hits,
        "outputs": outputs,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.harness",
        description=(
            "Bench smoke: run one small Figure-9 kernel through the "
            "baseline and raised (BLAS) pipelines, compare execution "
            "backends, and write results/BENCH_fig9.json.  With "
            "--compile-time, instead compare the two pattern drivers "
            "(Section V-B) and write results/BENCH_sec5b.json."
        ),
    )
    parser.add_argument(
        "--engine",
        choices=[*ENGINES, "both"],
        default="both",
        help="execution backend(s); 'both' also cross-checks agreement",
    )
    parser.add_argument(
        "--compile-time",
        action="store_true",
        help="instead of execution, compare the worklist and snapshot "
        "pattern drivers on --kernel (IR must be byte-identical) and "
        "write results/BENCH_sec5b.json",
    )
    parser.add_argument(
        "--kernel",
        default="gemm",
        help="paper benchmark name (default: gemm)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="input RNG seed"
    )
    parser.add_argument(
        "--out",
        default="BENCH_fig9",
        help="results/<out>.json report name (default: BENCH_fig9)",
    )
    args = parser.parse_args(list(sys.argv[1:] if argv is None else argv))

    if args.compile_time:
        return _compile_time_smoke(args.kernel)

    from repro.evaluation import get_kernel

    spec = get_kernel(args.kernel)
    engines = list(ENGINES) if args.engine == "both" else [args.engine]
    rows = measure_pipelines(
        spec.small(),
        spec.func_name,
        args.kernel,
        engines,
        seed=args.seed,
    )
    path = report_json(args.out, {"rows": rows})
    table = format_table(
        f"bench-smoke — {args.kernel} (small), wall-clock seconds",
        ["kernel", "pipeline", "engine", "wall_time_s", "checksum"],
        [
            (
                r["kernel"],
                r["pipeline"],
                r["engine"],
                f"{r['wall_time_s']:.6f}",
                f"{r['checksum']:.6f}",
            )
            for r in rows
        ],
    )
    print(table)
    print(f"\nwrote {path}")
    if len(engines) > 1:
        print("engines agree on every pipeline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
