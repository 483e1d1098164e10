"""Runner: ``python3 benchmarks/e2e/run.py`` (or ``python -m benchmarks.e2e``).

One workload (the benchmark contract's call)::

    run.py --workload W --seed N --seconds S --trace 0|1

prints a human-readable report and, as the last line of stdout, one
JSON object ``{correct, attempted, failed, metrics}`` holding every
end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``).

Without ``--workload`` every workload runs, each in a fresh subprocess
of this same script; ``--trace`` adds the traced run, ``--aa`` runs
everything twice and compares against the bounds, ``--quick`` is a
<= 30 s smoke run of the same code paths.
"""

from __future__ import annotations

import os
import sys
import time

_PROCESS_START = time.perf_counter()

# Before NumPy loads: one BLAS thread, so kernel run times do not
# depend on what else the box is doing with its second core.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))
if __package__ in (None, ""):
    # Run as a script: make ``benchmarks.e2e`` importable as a package.
    sys.path.insert(0, _ROOT)
    __package__ = "benchmarks.e2e"
sys.path.insert(0, os.path.join(_ROOT, "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

from . import spec, stats  # noqa: E402

RESULTS_DIR = os.path.join(_HERE, "results")
WORK_ROOT = os.path.join(_HERE, ".work")

#: Setup is timed in this many fresh processes per run (this one plus
#: ``SETUP_REPEATS - 1`` ``--setup-only`` children) and the median
#: reported, so one slow import does not read as a regression.
SETUP_REPEATS = 3


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------


def _self_command(extra: List[str]) -> List[str]:
    return [sys.executable, os.path.join(_HERE, "run.py")] + extra


def _child_setup_seconds(args, workdir: str) -> float:
    proc = subprocess.run(
        _self_command(
            [
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--setup-only", workdir,
            ]
        ),
        stdout=subprocess.PIPE,
        text=True,
        timeout=170,
        cwd=_ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"--setup-only child exited {proc.returncode}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _flush_filesystem() -> None:
    """Write back every dirty page and inode now, so that no one else's
    writeback lands inside a timed sample.

    Measured on this box (journal-less ext4 on virtio): when the flusher
    thread writes back the metadata of files created ~30 s earlier — by
    the previous run, typically — creating a file costs 5x more kernel
    CPU for seconds at a time (run_batch fill: 100 -> 200 ms).  Flushing
    before the first sample and after the last delete keeps every run's
    leftovers out of the next one.
    """
    os.sync()


def _spread_work_directories() -> None:
    """Mark the scratch root as an ext4 "top of hierarchy" directory
    (``chattr +T``), so that the allocator puts each run's directory in
    a different block group.

    Why it matters here: the root filesystem is ext4 without a journal,
    where creating a file scans past every inode deleted in the same
    block group during the last 5 minutes.  A run that lands in the
    group its predecessor's clean-up just emptied creates files 3x
    slower (160-file fill: 50 ms vs 150 ms); spread out, every run
    meets the same untouched group.  Unsupported elsewhere: ignored.
    """
    import array
    import fcntl

    get_flags, set_flags, topdir = 0x80086601, 0x40086602, 0x00020000
    os.makedirs(WORK_ROOT, exist_ok=True)
    fd = os.open(WORK_ROOT, os.O_RDONLY)
    try:
        flags = array.array("l", [0])
        fcntl.ioctl(fd, get_flags, flags, True)
        if not flags[0] & topdir:
            flags[0] |= topdir
            fcntl.ioctl(fd, set_flags, flags)
    except OSError:
        pass
    finally:
        os.close(fd)


def run_workload(args) -> int:
    from .workloads import WORKLOADS
    from .workloads.base import GC_POLICY, Run

    _spread_work_directories()
    # A --setup-only child works inside its parent's directory and
    # leaves the deleting to it.
    workdir = args.setup_only or os.path.join(WORK_ROOT, str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    run = Run(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        quick=args.quick,
        workdir=workdir,
    )
    workload = WORKLOADS[args.workload](run)
    try:
        workload.setup()
        setup_samples = [time.perf_counter() - _PROCESS_START]
        if args.setup_only:
            print(json.dumps({"setup_s": setup_samples[0]}))
            return 0
        if not run.quick:
            for index in range(1, SETUP_REPEATS):
                setup_samples.append(
                    _child_setup_seconds(
                        args, os.path.join(workdir, f"setup-{index}")
                    )
                )
        _flush_filesystem()

        if run.trace:
            detail = workload.measure_traced()
            names = [n for n, _, _ in spec.PER_LAYER]
            units = {n: u for n, u, _ in spec.PER_LAYER}
            metrics = {n: float(detail.get(n, 0.0)) for n in names}
            trace_path = os.path.join(
                RESULTS_DIR, f"trace-{args.workload}.json"
            )
            run.tracer.write_chrome_trace(trace_path)
        else:
            detail = workload.measure()
            detail["setup_s"] = stats.median(setup_samples)
            # The server's high-water mark on serve_*, this process's
            # elsewhere.
            detail.setdefault("peak_rss_mb", _peak_rss_mb())
            names = [n for n, _, _, _ in spec.END_TO_END]
            units = {n: u for n, u, _, _ in spec.END_TO_END}
            metrics = {n: float(detail[n]) for n in names}
    finally:
        workload.teardown()
        if not args.setup_only:
            shutil.rmtree(workdir, ignore_errors=True)
            _flush_filesystem()

    verdicts = run.verdicts
    result = {
        "correct": verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {
            n: {"value": metrics[n], "unit": units[n]} for n in names
        },
    }
    row = {
        "workload": args.workload,
        "trace": int(run.trace),
        "quick": run.quick,
        "seed": args.seed,
        "seconds": args.seconds,
        "setup_samples_s": setup_samples,
        "gc_policy": GC_POLICY,
        "failures": verdicts.failures[:20],
        "notes": run.notes,
        "detail": {k: v for k, v in detail.items() if k not in metrics},
        **result,
        **_host_facts(),
    }
    _append_history(row)
    _print_report(row, run)
    print(json.dumps(result))
    return 0


def _print_report(row: dict, run) -> None:
    print(
        f"== {row['workload']}  seed={row['seed']} seconds={row['seconds']} "
        f"trace={row['trace']}{' QUICK (not comparable)' if row['quick'] else ''}"
    )
    print(f"   gc: {row['gc_policy']}; BLAS threads pinned to 1")
    for name, entry in row["metrics"].items():
        print(f"   {name:36} {entry['value']:16.6f} {entry['unit']}")
    for key, value in sorted(row["detail"].items()):
        if isinstance(value, float):
            print(f"   . {key:34} {value:16.6f}")
        else:
            print(f"   . {key:34} {value}")
    for note in row["notes"]:
        print(f"   note: {note}")
    print(
        f"   attempted={row['attempted']} failed={row['failed']} "
        f"fail_share={row['failed'] / max(1, row['attempted']):.6f}"
    )
    for failure in row["failures"]:
        print(f"   FAILED: {failure}")
    if row["trace"]:
        print(run.tracer.layer_table())


# ----------------------------------------------------------------------
# History
# ----------------------------------------------------------------------


def _git(*argv: str) -> Optional[str]:
    try:
        proc = subprocess.run(
            ["git", *argv],
            cwd=_ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _host_facts() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    status = _git("status", "--porcelain")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": bool(status) if status is not None else None,
        "nproc": os.cpu_count(),
        "effective_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _append_history(row: dict) -> None:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "history.jsonl"), "a") as handle:
        handle.write(json.dumps(row, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Every workload, each in a fresh subprocess
# ----------------------------------------------------------------------


def _run_child(workload: str, args, trace: int) -> dict:
    argv = [
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
    ]
    if args.quick:
        argv.append("--quick")
    proc = subprocess.run(
        _self_command(argv),
        stdout=subprocess.PIPE,
        text=True,
        timeout=900,
        cwd=_ROOT,
    )
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_suite(args) -> Dict[str, Dict[str, dict]]:
    """workload -> {"end_to_end": result, "per_layer": result?}."""
    suite: Dict[str, Dict[str, dict]] = {}
    for workload in spec.workload_names():
        entry = {"end_to_end": _run_child(workload, args, 0)}
        if args.trace:
            entry["per_layer"] = _run_child(workload, args, 1)
        suite[workload] = entry
    return suite


def _suite_ok(suite) -> bool:
    return all(
        result["correct"]
        for entry in suite.values()
        for result in entry.values()
    )


def compare_aa(first, second) -> int:
    """Print both runs side by side; non-zero when an end-to-end pair
    differs by more than its bound or an exact-repeat count moved."""
    bounds = {n: b for n, _, _, b in spec.END_TO_END}
    breaches = 0
    print(
        f"\n{'workload':14} {'metric':14} {'run A':>14} {'run B':>14} "
        f"{'rel diff':>9} {'bound':>6}"
    )
    for workload in spec.workload_names():
        a = first[workload]["end_to_end"]["metrics"]
        b = second[workload]["end_to_end"]["metrics"]
        for name, bound in bounds.items():
            va, vb = a[name]["value"], b[name]["value"]
            rel = abs(vb - va) / va
            over = rel > bound
            breaches += over
            print(
                f"{workload:14} {name:14} {va:14.4f} {vb:14.4f} "
                f"{rel:9.4f} {bound:6.2f}{'  OVER' if over else ''}"
            )
        for name in spec.EXACT_REPEAT:
            for kind in ("end_to_end", "per_layer"):
                ma = first[workload].get(kind, {}).get("metrics", {})
                mb = second[workload].get(kind, {}).get("metrics", {})
                if name in ma and ma[name]["value"] != mb[name]["value"]:
                    breaches += 1
                    print(
                        f"{workload:14} {name}: {ma[name]['value']} != "
                        f"{mb[name]['value']}  NOT EXACT"
                    )
    print(f"\nA/A: {breaches} pair(s) outside their bound")
    return breaches


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=spec.workload_names())
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument(
        "--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1)
    )
    parser.add_argument("--aa", action="store_true")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else float(spec.RUN_SECONDS)

    if args.workload:
        return run_workload(args)

    first = run_suite(args)
    ok = _suite_ok(first)
    breaches = 0
    if args.aa:
        second = run_suite(args)
        ok = ok and _suite_ok(second)
        breaches = compare_aa(first, second)
    if not args.quick:  # a smoke run's numbers are not worth keeping
        latest = {"seed": args.seed, **_host_facts(), "workloads": first}
        os.makedirs(RESULTS_DIR, exist_ok=True)
        with open(os.path.join(RESULTS_DIR, "latest.json"), "w") as handle:
            json.dump(latest, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0 if ok and not breaches else 1


if __name__ == "__main__":
    sys.exit(main())
