"""Synthesis-raising benchmark: the near-miss kernels TDL cannot match.

Four hand-written contraction kernels sit just outside the structural
TDL matchers' pattern space (transposed A operand, ``-=`` accumulation,
transposed output, rank-0 dot output).  For each, this benchmark
asserts the tiering story end to end:

1. ``-raise-affine-to-linalg`` leaves the loop nest standing (TDL
   miss);
2. ``-raise-affine-to-linalg -raise-affine-synth`` raises every band
   (synth hit), with the candidate I/O-validated by the equivalence
   oracle — ``synth_ms`` is what that second pass cost (its interpreter
   trials dominate), ``wall_time_s`` one run of the raised kernel;
3. every raised ``linalg.generic`` is one the engine's codegen
   recognizes as a contraction (``generic_contraction_spec``), so it
   compiles to a planned BLAS call (``@``/``np.tensordot``);
4. the compiled result numerically matches the un-raised interpreter
   run on fresh inputs.

``--corpus DIR`` additionally sweeps a fuzzer-exported near-miss corpus
(``fuzz-failures/near-miss/``), re-checking every recorded
``expect_synth_raise`` expectation.  Results land in
``benchmarks/results/BENCH_raise.json``; any assertion failure is the
exit code.
"""

import argparse
import glob
import json
import os
import sys
import time

import numpy as np

from repro.dialects.affine import AffineForOp
from repro.analysis.contraction import generic_contraction_spec
from repro.met import compile_c
from repro.tactics.stats import merge_pass_stats
from repro.tool import build_pipeline

from .harness import checksum, format_table, report, report_json

#: name -> (func_name, C source).  Sizes are small enough that the
#: oracle's interpreter trials stay fast, large enough that the
#: contraction fast path is doing real work.
NEAR_MISS_KERNELS = {
    "transposed-matmul": (
        "kernel",
        """
void kernel(float A[20][16], float B[20][24], float C[16][24]) {
  for (int i = 0; i < 16; i++)
    for (int j = 0; j < 24; j++)
      for (int k = 0; k < 20; k++)
        C[i][j] += A[k][i] * B[k][j];
}
""",
    ),
    "subtract-matmul": (
        "kernel",
        """
void kernel(float A[16][20], float B[20][24], float C[16][24]) {
  for (int i = 0; i < 16; i++)
    for (int j = 0; j < 24; j++)
      for (int k = 0; k < 20; k++)
        C[i][j] -= A[i][k] * B[k][j];
}
""",
    ),
    "permuted-output": (
        "kernel",
        """
void kernel(float A[16][20], float B[20][24], float C[24][16]) {
  for (int i = 0; i < 16; i++)
    for (int j = 0; j < 24; j++)
      for (int k = 0; k < 20; k++)
        C[j][i] += A[i][k] * B[k][j];
}
""",
    ),
    "dot": (
        "kernel",
        """
void kernel(float x[512], float y[512], float s[1]) {
  for (int i = 0; i < 512; i++)
    s[0] += x[i] * y[i];
}
""",
    ),
}


def _loops_left(module) -> int:
    return sum(1 for op in module.walk() if isinstance(op, AffineForOp))


#: Raising tiers are passes: the TDL tier, then the synthesis fallback.
TIERS = ["raise-affine-to-linalg", "raise-affine-synth"]


def _raise(source: str, pass_names):
    """(raised module, the passes' merged stats, seconds per pass)."""
    module = compile_c(source)
    pm = build_pipeline(pass_names)
    timing = pm.run(module)
    return module, merge_pass_stats(pm.passes), timing.seconds


def _module_args(module, func_name, seed):
    rng = np.random.default_rng(seed)
    func = module.lookup(func_name)
    return [
        (rng.random(tuple(arg.type.shape), dtype=np.float32) - 0.5)
        for arg in func.arguments
    ]


def measure_kernel(name: str, func_name: str, source: str) -> dict:
    from repro.execution.engine import ExecutionEngine
    from repro.execution.interpreter import Interpreter

    tdl_module, _, _ = _raise(source, TIERS[:1])
    tdl_raised = _loops_left(tdl_module) == 0

    synth_module, stats, seconds = _raise(source, TIERS)
    synth_raised = _loops_left(synth_module) == 0
    snap = stats.snapshot()["synth"]

    row = {
        "benchmark": "raise",
        "kernel": name,
        "tdl_raised": tdl_raised,
        "synth_raised": synth_raised,
        "raised_ops": snap["raised_ops"],
        "candidates_enumerated": snap["candidates_enumerated"],
        "candidates_rejected": snap["candidates_rejected"],
        "oracle_trials": snap["trials_run"],
        "synth_ms": seconds[TIERS[1]] * 1e3,
        "fast_path": False,
        "io_validated": False,
        "wall_time_s": None,
        "checksum": None,
    }
    if not synth_raised:
        return row

    engine = ExecutionEngine(synth_module)
    row["fast_path"] = all(
        generic_contraction_spec(op) is not None
        for op in synth_module.walk()
        if op.name == "linalg.generic"
    )

    # Fresh-input cross-check: un-raised interpreter vs raised engine.
    reference = compile_c(source)
    want = _module_args(reference, func_name, seed=11)
    got = [a.copy() for a in want]
    Interpreter(reference, max_steps=50_000_000).run(func_name, *want)
    start = time.perf_counter()
    engine.run(func_name, *got)
    row["wall_time_s"] = time.perf_counter() - start
    row["io_validated"] = all(
        np.allclose(g, w, rtol=2e-3, atol=1e-5) for g, w in zip(got, want)
    )
    row["checksum"] = checksum(got)
    return row


def sweep_corpus(corpus_dir: str) -> dict:
    """Re-check every exported near-miss corpus entry's recorded
    ``expect_synth_raise`` expectation."""
    from repro.fuzzing.campaign import FuzzCampaign

    entries = sorted(glob.glob(os.path.join(corpus_dir, "*", "kernel.c")))
    swept, mismatches = [], []
    for kernel_path in entries:
        directory = os.path.dirname(kernel_path)
        with open(os.path.join(directory, "expectation.json")) as handle:
            expectation = json.load(handle)
        with open(kernel_path) as handle:
            source = handle.read()
        got = FuzzCampaign._synth_raises_all(source)
        want = expectation["expect_synth_raise"]
        swept.append(
            {
                "entry": os.path.basename(directory),
                "family": expectation["family"],
                "expect_synth_raise": want,
                "synth_raised": got,
                "ok": got == want,
            }
        )
        if got != want:
            mismatches.append(os.path.basename(directory))
    return {
        "corpus_dir": corpus_dir,
        "entries": len(swept),
        "mismatches": mismatches,
        "results": swept,
    }


def run(corpus_dir=None) -> int:
    rows = [
        measure_kernel(name, func_name, source)
        for name, (func_name, source) in NEAR_MISS_KERNELS.items()
    ]
    recovered = [
        r
        for r in rows
        if not r["tdl_raised"]
        and r["synth_raised"]
        and r["io_validated"]
        and r["fast_path"]
    ]
    summary = {
        "kernels": len(rows),
        "tdl_raised": sum(r["tdl_raised"] for r in rows),
        "synth_raised": sum(r["synth_raised"] for r in rows),
        "recovered_on_fast_path": len(recovered),
    }
    payload = {"rows": rows, "summary": summary}

    corpus = None
    if corpus_dir is not None:
        corpus = sweep_corpus(corpus_dir)
        payload["corpus"] = corpus

    table = format_table(
        "Near-miss raising: TDL tier vs synthesis tier",
        [
            "kernel",
            "tdl",
            "synth",
            "fast-path",
            "io-valid",
            "candidates",
            "trials",
            "synth ms",
        ],
        [
            [
                r["kernel"],
                "raised" if r["tdl_raised"] else "miss",
                "raised" if r["synth_raised"] else "miss",
                "yes" if r["fast_path"] else "no",
                "yes" if r["io_validated"] else "no",
                r["candidates_enumerated"],
                r["oracle_trials"],
                f"{r['synth_ms']:.1f}",
            ]
            for r in rows
        ],
    )
    lines = [table, "", f"summary: {json.dumps(summary, sort_keys=True)}"]
    if corpus is not None:
        lines.append(
            f"corpus: {corpus['entries']} entries, "
            f"{len(corpus['mismatches'])} mismatches"
        )
    report("raise_near_miss", "\n".join(lines))
    path = report_json("BENCH_raise", payload)
    print(f"wrote {path}")

    failures = []
    if summary["tdl_raised"] != 0:
        failures.append("a near-miss kernel was raised by the TDL tier")
    if summary["recovered_on_fast_path"] < 3:
        failures.append(
            "fewer than 3 kernels recovered by synthesis onto the "
            "contraction fast path"
        )
    if corpus is not None and corpus["mismatches"]:
        failures.append(f"corpus mismatches: {corpus['mismatches']}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench-raise",
        description="near-miss raising benchmark (TDL vs synthesis)",
    )
    parser.add_argument(
        "--corpus",
        metavar="DIR",
        default=None,
        help="also sweep a fuzz-exported near-miss corpus directory "
        "(e.g. fuzz-failures/near-miss)",
    )
    args = parser.parse_args(argv)
    return run(corpus_dir=args.corpus)


if __name__ == "__main__":
    sys.exit(main())
