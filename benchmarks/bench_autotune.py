"""Schedule-autotuning benchmark: tuned vs. default pipeline.

Runs the transform-dialect autotuner (:mod:`repro.scheduling.autotune`)
over a corpus slice and reports, per kernel, the default ``opt=full``
wall-clock, the tuned schedule's wall-clock, and the winning parameter
point.  Two acceptance bars back the headline claim:

* **tuned never loses** — the enumeration places the default parameter
  point first, so in-budget search returns a schedule at least as fast
  as the canned full pipeline on the measured inputs.  Candidates that
  compile to the same kernel share one measurement, so the bar is exact
  (``speedup >= 1.0``), not a noise allowance;
* **warm replay is free** — with ``--expect-warm`` (the second CI run
  against the same ``--cache-dir``) every row must come from the
  persisted ``schedules/`` namespace: ``cached == true`` and
  ``evaluations == 0``.

Reports to ``benchmarks/results/BENCH_autotune.json`` (and a text
table beside it).  Runnable standalone (the tune-smoke CI entry
point)::

    PYTHONPATH=src python -m benchmarks.bench_autotune \
        --budget 8 --jobs 2 --cache-dir /tmp/tune-cache
"""

from __future__ import annotations

import argparse
import sys

from benchmarks.harness import format_table, report, report_json
from repro.scheduling.autotune import autotune, vacuous_search_note


def render(results: dict) -> str:
    rows = []
    for row in results["rows"]:
        params = row["best_params"]
        rows.append(
            [
                row["kernel"],
                row["default_wall_s"] * 1e6,
                row["tuned_wall_s"] * 1e6,
                row["speedup"],
                "warm"
                if row["cached"]
                else f"{row['evaluations']} evals/"
                f"{row['distinct_kernels']} kernels",
                f"tile={params['tile']} uj={params['unroll_jam']} "
                f"{'fuse:' + params['order'] if params['fuse'] else 'no-fuse'}",
            ]
        )
    summary = results["summary"]
    table = format_table(
        "Schedule autotuning: tuned vs. default (best-of-repeats, us)",
        ["kernel", "default", "tuned", "speedup", "search", "winner"],
        rows,
    )
    notes = ""
    for row in results["rows"]:
        note = vacuous_search_note(row)
        if note:
            notes += f"\n{row['kernel']}: {note}"
    return (
        table
        + "\n\n"
        + f"evaluations={summary['evaluations']} "
        + f"distinct_kernels={summary['distinct_kernels']} "
        + f"budget={summary['budget']} jobs={summary['jobs']} "
        + f"best_speedup={summary['best_speedup']:.2f}x"
        + notes
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_autotune", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--kernels", default="gemm,2mm,doitgen,atax")
    parser.add_argument("--budget", type=int, default=24)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--heavy", action="store_true")
    parser.add_argument(
        "--expect-warm",
        action="store_true",
        help="assert every kernel replays from the schedule cache "
        "(cached, zero search evaluations)",
    )
    args = parser.parse_args(argv)

    results = autotune(
        kernels=tuple(filter(None, args.kernels.split(","))),
        budget=args.budget,
        jobs=args.jobs,
        repeats=args.repeats,
        seed=args.seed,
        cache_dir=args.cache_dir,
        heavy=args.heavy,
    )
    report("autotune_measured", render(results))
    report_json("BENCH_autotune", results)

    failures = []
    for row in results["rows"]:
        if row["speedup"] < 1.0:
            failures.append(
                f"{row['kernel']}: tuned schedule is slower than the "
                f"default pipeline ({row['speedup']:.2f}x)"
            )
    if args.expect_warm:
        for row in results["rows"]:
            if not row["cached"] or row["evaluations"]:
                failures.append(
                    f"{row['kernel']}: expected warm schedule-cache "
                    f"replay, got cached={row['cached']} "
                    f"evaluations={row['evaluations']}"
                )
    elif not results["summary"]["evaluations"] and not all(
        row["cached"] for row in results["rows"]
    ):
        failures.append("cold run performed no search evaluations")
    for failure in failures:
        sys.stderr.write(f"bench_autotune: FAIL: {failure}\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
