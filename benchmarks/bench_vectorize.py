"""Whole-nest vectorization ablation: wall-clock of the compiled
engine's three vectorize modes plus the raised BLAS pipeline.

Per kernel, the baseline (un-raised) module is compiled four ways:

  * ``none``       — scalar Python loop nests (vectorizer off);
  * ``innermost``  — only the innermost loop of each band becomes a
    NumPy expression (the engine's pre-whole-nest behaviour);
  * ``nest``       — whole perfect bands collapse to N-d kernels, with
    each contraction planned at codegen as one ``@``/``np.tensordot``/
    ``np.einsum`` call;
  * ``mlt-blas``   — the raised pipeline (Linalg -> BLAS library
    calls), compiled with the default ``nest`` mode, as the
    library-dispatch reference point.

Each mode gets an isolated in-memory ``KernelCache`` so the rows never
share codegen, and every mode is first cross-checked against the
interpreter on a small instance of the same kernel before the timed
sizes run.  The headline assertion is the whole-nest payoff: ``nest``
must beat ``innermost`` by >= 5x on the level-3 kernels (gemm, 2mm),
where collapsing to a single contraction removes the per-row dispatch
overhead that innermost-only vectorization still pays.

A second ablation varies the engine's mid-level optimizer
(``opt_mode`` none/fuse/full) on kernels whose raw form the vectorizer
rejects — an undistributed GEMM with its init statement still inline,
and a two-store elementwise nest.  These rows demonstrate (and
``check_vectorize_rows`` asserts) that the optimizer promotes at least
one kernel from fully scalar under ``opt=none`` to whole-nest
collapsed under ``opt=full``.
"""

import time

import numpy as np
import pytest

from repro.evaluation.kernels import gemm_source, mvt_source, two_mm_source
from repro.evaluation.pipelines import build_module
from repro.execution import ExecutionEngine, Interpreter, KernelCache
from repro.met import compile_c

from .harness import checksum, format_table, report, report_json

MODES = ("none", "innermost", "nest")

OPT_ABLATION = ("none", "fuse", "full")

ADDSUB_TIMED = """
void addsub(float A[256][256], float B[256][256], float S[256][256], float D[256][256]) {
  for (int i = 0; i < 256; i++)
    for (int j = 0; j < 256; j++) {
      S[i][j] = A[i][j] + B[i][j];
      D[i][j] = A[i][j] - B[i][j];
    }
}
"""

ADDSUB_SMALL = """
void addsub(float A[6][7], float B[6][7], float S[6][7], float D[6][7]) {
  for (int i = 0; i < 6; i++)
    for (int j = 0; j < 7; j++) {
      S[i][j] = A[i][j] + B[i][j];
      D[i][j] = A[i][j] - B[i][j];
    }
}
"""

#: Kernels for the optimizer ablation, compiled with the frontend's
#: source-level distribution OFF so the optimizer has real work to do:
#: the inline-init GEMM is an imperfect nest (multiple-statement body),
#: and addsub has two stores in one body — both scalar under
#: ``opt=none``.
OPT_KERNELS = [
    (
        "gemm-init",
        "gemm",
        gemm_source(48, 48, 48, init=True),
        gemm_source(6, 5, 4, init=True),
    ),
    ("addsub", "addsub", ADDSUB_TIMED, ADDSUB_SMALL),
]

#: (kernel, func_name, timed source, small source for the
#: interpreter-agreement check).  Timed sizes are chosen so the scalar
#: mode still finishes in seconds while the innermost/nest gap is well
#: out of the noise floor.
KERNELS = [
    (
        "gemm",
        "gemm",
        gemm_source(96, 96, 96, init=False),
        gemm_source(8, 8, 8, init=False),
    ),
    (
        "2mm",
        "two_mm",
        two_mm_source(64, 64, 64, 64),
        two_mm_source(6, 5, 4, 3),
    ),
    ("mvt", "mvt", mvt_source(256), mvt_source(8)),
]


def _make_args(module, func_name, seed=0):
    from repro.fuzzing.oracle import make_args, module_arg_shapes

    return make_args(module_arg_shapes(module, func_name), seed)


def _timed_run(runner, module, func_name, repeats):
    """Best-of-``repeats`` steady-state wall time on fresh inputs.

    Fresh inputs per repeat keep accumulating kernels (``C += ...``)
    numerically identical across repeats; argument setup stays outside
    the timed region, matching ``harness.run_measured``.
    """
    best = float("inf")
    digest = None
    for _ in range(repeats):
        args = _make_args(module, func_name)
        start = time.perf_counter()
        runner.run(func_name, *args)
        best = min(best, time.perf_counter() - start)
        digest = checksum(args)
    return best, digest


def _check_against_interpreter(source, func_name, kernel):
    """Every mode (and the raised pipeline) must reproduce the
    interpreter's buffers on a small instance, rtol 2e-3."""
    module = build_module(source, "baseline")
    reference = _make_args(module, func_name)
    Interpreter(module).run(func_name, *reference)

    compiled = []
    for mode in MODES:
        engine = ExecutionEngine(
            module, pipeline="baseline", cache=KernelCache(), vectorize=mode
        )
        compiled.append((f"baseline/{mode}", module, engine))
    raised = build_module(source, "mlt-blas")
    compiled.append(
        (
            "mlt-blas/nest",
            raised,
            ExecutionEngine(raised, pipeline="mlt-blas", cache=KernelCache()),
        )
    )
    for label, mod, engine in compiled:
        args = _make_args(mod, func_name)
        engine.run(func_name, *args)
        for pos, (ref, act) in enumerate(zip(reference, args)):
            assert np.allclose(ref, act, rtol=2e-3, atol=1e-5), (
                f"{kernel} {label}: disagrees with interpreter on arg {pos}"
            )


def _check_opt_against_interpreter(small_source, func_name, kernel):
    """Every opt mode must reproduce the interpreter on a small
    instance of the undistributed kernel."""
    module = compile_c(small_source, distribute=False)
    reference = _make_args(module, func_name)
    Interpreter(module).run(func_name, *reference)
    for opt in OPT_ABLATION:
        engine = ExecutionEngine(
            module,
            pipeline="bench-opt",
            cache=KernelCache(),
            vectorize="nest",
            opt_mode=opt,
        )
        args = _make_args(module, func_name)
        engine.run(func_name, *args)
        for pos, (ref, act) in enumerate(zip(reference, args)):
            assert np.allclose(ref, act, rtol=2e-3, atol=1e-5), (
                f"{kernel} opt={opt}: disagrees with interpreter on arg {pos}"
            )


def collect_vectorize_rows():
    rows = []
    for kernel, func_name, timed_source, small_source in KERNELS:
        _check_against_interpreter(small_source, func_name, kernel)

        module = build_module(timed_source, "baseline")
        for mode in MODES:
            engine = ExecutionEngine(
                module,
                pipeline="baseline",
                cache=KernelCache(),
                vectorize=mode,
            )
            # The scalar mode is orders of magnitude slower; one run is
            # already far above the timer's noise floor.
            repeats = 1 if mode == "none" else 3
            wall, digest = _timed_run(engine, module, func_name, repeats)
            rows.append(
                {
                    "benchmark": "vectorize",
                    "kernel": kernel,
                    "pipeline": "baseline",
                    "mode": mode,
                    "opt": "none",
                    "engine": "compiled",
                    "wall_time_s": wall,
                    "checksum": digest,
                    "vectorize_stats": engine.vectorize_stats,
                }
            )

        raised = build_module(timed_source, "mlt-blas")
        engine = ExecutionEngine(
            raised, pipeline="mlt-blas", cache=KernelCache()
        )
        wall, digest = _timed_run(engine, raised, func_name, repeats=3)
        rows.append(
            {
                "benchmark": "vectorize",
                "kernel": kernel,
                "pipeline": "mlt-blas",
                "mode": "nest",
                "opt": "none",
                "engine": "compiled",
                "wall_time_s": wall,
                "checksum": digest,
                "vectorize_stats": engine.vectorize_stats,
            }
        )

    for kernel, func_name, timed_source, small_source in OPT_KERNELS:
        _check_opt_against_interpreter(small_source, func_name, kernel)
        module = compile_c(timed_source, distribute=False)
        for opt in OPT_ABLATION:
            engine = ExecutionEngine(
                module,
                pipeline="bench-opt",
                cache=KernelCache(),
                vectorize="nest",
                opt_mode=opt,
            )
            repeats = 1 if opt == "none" else 3
            wall, digest = _timed_run(engine, module, func_name, repeats)
            rows.append(
                {
                    "benchmark": "vectorize",
                    "kernel": kernel,
                    "pipeline": "bench-opt",
                    "mode": "nest",
                    "opt": opt,
                    "engine": "compiled",
                    "wall_time_s": wall,
                    "checksum": digest,
                    "vectorize_stats": engine.vectorize_stats,
                    "opt_stats": engine.opt_stats,
                }
            )
    return rows


def write_vectorize_report(rows):
    """Write BENCH_vectorize.json + the human table; returns the paths."""
    json_path = report_json("BENCH_vectorize", {"rows": rows})
    by = {
        (r["kernel"], r["pipeline"], r["mode"], r["opt"]): r for r in rows
    }

    def _scalar_baseline(kernel, pipeline):
        """The slowest (fully scalar) row of the kernel's own ablation."""
        if pipeline in ("baseline", "mlt-blas"):
            return by[(kernel, "baseline", "none", "none")]["wall_time_s"]
        return by[(kernel, "bench-opt", "nest", "none")]["wall_time_s"]

    table_rows = []
    for r in rows:
        scalar = _scalar_baseline(r["kernel"], r["pipeline"])
        speedup = (
            f"{scalar / r['wall_time_s']:.1f}x"
            if r["wall_time_s"] > 0
            else "inf"
        )
        stats = r["vectorize_stats"]
        table_rows.append(
            (
                r["kernel"],
                r["pipeline"],
                r["mode"],
                r["opt"],
                f"{r['wall_time_s']:.6f}",
                speedup,
                stats["nests_collapsed"],
                stats["contractions"],
            )
        )
    txt_path = report(
        "vectorize_modes",
        format_table(
            "Whole-nest vectorization — wall-clock seconds vs scalar",
            [
                "kernel",
                "pipeline",
                "mode",
                "opt",
                "wall_time_s",
                "vs scalar",
                "collapsed",
                "contract",
            ],
            table_rows,
        ),
    )
    return json_path, txt_path


def check_vectorize_rows(rows):
    """The payoff assertions bench-smoke enforces."""
    by = {
        (r["kernel"], r["pipeline"], r["mode"], r["opt"]): r["wall_time_s"]
        for r in rows
    }
    stats = {
        (r["kernel"], r["pipeline"], r["mode"], r["opt"]): r[
            "vectorize_stats"
        ]
        for r in rows
    }
    # Whole-nest collapse must beat innermost-only vectorization by 5x
    # on the level-3 kernels: a contraction call replaces thousands of
    # per-row NumPy dispatches.
    for kernel in ("gemm", "2mm"):
        nest = by[(kernel, "baseline", "nest", "none")]
        innermost = by[(kernel, "baseline", "innermost", "none")]
        assert nest * 5 <= innermost, (
            f"{kernel}: whole-nest {nest:.6f}s not 5x faster than "
            f"innermost-only {innermost:.6f}s"
        )
    # ... and every mode must beat the scalar loops outright.
    for kernel, _, _, _ in KERNELS:
        scalar = by[(kernel, "baseline", "none", "none")]
        for mode in ("innermost", "nest"):
            assert by[(kernel, "baseline", mode, "none")] < scalar, (
                kernel,
                mode,
            )
    # The stats rows must reflect the codegen decisions the modes claim:
    # nest recognizes contractions; innermost and none never do.
    assert stats[("gemm", "baseline", "nest", "none")]["contractions"] >= 1
    assert stats[("2mm", "baseline", "nest", "none")]["contractions"] >= 2
    assert stats[("mvt", "baseline", "nest", "none")]["contractions"] >= 2
    for (kernel, pipeline, mode, _), s in stats.items():
        if mode != "nest":
            assert s["contractions"] == 0, (kernel, pipeline, mode)
    # The optimizer ablation: at least one kernel must go from fully
    # scalar under opt=none to whole-nest collapsed under opt=full —
    # the mid-level pipeline's reason to exist — and the promotion must
    # pay off in wall-clock.
    promoted = [
        kernel
        for kernel, _, _, _ in OPT_KERNELS
        if stats[(kernel, "bench-opt", "nest", "none")]["nests_collapsed"]
        == 0
        and stats[(kernel, "bench-opt", "nest", "full")]["nests_collapsed"]
        >= 1
    ]
    assert promoted, (
        "no kernel was promoted from scalar (opt=none) to collapsed "
        "(opt=full)"
    )
    for kernel in promoted:
        assert (
            by[(kernel, "bench-opt", "nest", "full")]
            < by[(kernel, "bench-opt", "nest", "none")]
        ), kernel


def test_vectorize_modes_measured(benchmark):
    rows = benchmark.pedantic(
        collect_vectorize_rows, rounds=1, iterations=1
    )
    write_vectorize_report(rows)
    check_vectorize_rows(rows)
