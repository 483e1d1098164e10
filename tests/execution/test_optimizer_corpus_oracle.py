"""Whole-corpus optimizer oracle: every kernel x pipeline compiled with
``opt_mode="fuse"`` and ``"full"`` agrees with the interpreter running
the *untouched* MET module, and on ``baseline`` every nest of every
kernel collapses whole under every ``opt_mode``.

The fuzz oracle covers generated modules; this covers the kernels the
benchmarks time.  Its absence is how a fusion miscompile of
gemver/baseline (the consumer nest fused under a producer that had not
finished ``x``) went unnoticed for six PRs, and how the optimizer ran
gesummv and gemver 1000x slower than no optimizer for as long (fusion
glued two collapsed contractions into one body that did not collapse).
"""

import pytest

from repro.evaluation import PAPER_BENCHMARKS, get_kernel
from repro.evaluation import kernels as K
from repro.evaluation.pipelines import build_module
from repro.execution import ExecutionEngine, Interpreter
from repro.execution.engine.cache import KernelCache
from repro.execution.engine.optimizer import OPT_MODES
from repro.fuzzing.oracle import (
    EngineRow,
    check_engine_rows,
    make_args,
    module_arg_shapes,
)
from repro.met import compile_c
from repro.tactics.contraction import (
    PAPER_CONTRACTIONS,
    parse_contraction_spec,
)

KERNELS = sorted(PAPER_BENCHMARKS) + ["doitgen"]
#: The pipelines the benchmarks execute, spelled out so the test ids
#: stay fixed whatever else the named-pipeline table holds.
PIPELINES = ("baseline", "mlt-blas", "mlt-linalg")


def _source(name):
    """``small()``, except the 6-index contractions shrink to extents
    2..7 so the reference interpreter takes milliseconds."""
    if name in PAPER_CONTRACTIONS:
        names = sorted({v for p in parse_contraction_spec(name) for v in p})
        if len(names) == 6:
            return K.contraction_source(
                name, {v: 2 + i for i, v in enumerate(names)}
            )
    return get_kernel(name).small()


@pytest.fixture(scope="module", params=KERNELS)
def reference(request):
    name = request.param
    source, func = _source(name), get_kernel(name).func_name
    module = compile_c(source)
    inputs = make_args(module_arg_shapes(module, func), seed=11)
    expected = [a.copy() for a in inputs]
    Interpreter(module, max_steps=2_000_000_000).run(func, *expected)
    return source, func, inputs, expected


def _engine(source, pipeline, opt_mode):
    return ExecutionEngine(
        build_module(source, pipeline),
        pipeline=pipeline,
        opt_mode=opt_mode,
        cache=KernelCache(),
    )


def _assert_matches_interpreter(reference, pipeline, opt_mode):
    """One row of the fuzz oracle's matrix, on a paper kernel."""
    source, func, inputs, expected = reference
    row = EngineRow(
        f"{pipeline}/opt={opt_mode}",
        "opt",
        {"opt_mode": opt_mode, "cache": KernelCache()},
    )
    (result,) = check_engine_rows(
        build_module(source, pipeline),
        func,
        inputs,
        expected,
        "corpus",
        [row],
        pipeline_name=pipeline,
        rtol=1e-4,
    )
    assert result.ok, f"[{result.kind}] {result.detail}"


@pytest.mark.parametrize("pipeline", PIPELINES)
def test_full_optimizer_matches_interpreter(reference, pipeline):
    _assert_matches_interpreter(reference, pipeline, "full")


@pytest.mark.parametrize("pipeline", PIPELINES)
def test_fuse_optimizer_matches_interpreter(reference, pipeline):
    _assert_matches_interpreter(reference, pipeline, "fuse")


@pytest.mark.parametrize("opt_mode", OPT_MODES)
def test_every_baseline_nest_collapses(reference, opt_mode):
    # The structural floor under the exec_baseline timings: no
    # optimizer mode may leave a paper kernel with a scalar loop.
    stats = _engine(reference[0], "baseline", opt_mode).vectorize_stats
    assert stats["nests_collapsed"] >= 1
    assert stats["nests_bailed"] == stats["nests_partial"] == 0
    assert stats["bail_reasons"] == {}
