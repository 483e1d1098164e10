"""Whole-corpus optimizer oracle: every kernel x pipeline compiled with
``opt_mode="full"`` agrees with the interpreter running the *untouched*
MET module.

The fuzz oracle covers generated modules; this covers the kernels the
benchmarks time.  Its absence is how a fusion miscompile of
gemver/baseline (the consumer nest fused under a producer that had not
finished ``x``) went unnoticed for six PRs.
"""

import pytest

from repro.evaluation import PAPER_BENCHMARKS, get_kernel
from repro.evaluation import kernels as K
from repro.evaluation.pipelines import MODULE_BUILDERS, build_module
from repro.execution import ExecutionEngine, Interpreter
from repro.execution.engine.cache import KernelCache
from repro.fuzzing.oracle import make_args, module_arg_shapes
from repro.met import compile_c
from repro.tactics.contraction import (
    PAPER_CONTRACTIONS,
    parse_contraction_spec,
)

from ..conftest import assert_close

KERNELS = sorted(PAPER_BENCHMARKS) + ["doitgen"]


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


@pytest.mark.parametrize("pipeline", sorted(MODULE_BUILDERS))
def test_full_optimizer_matches_interpreter(reference, pipeline):
    source, func, inputs, expected = reference
    engine = ExecutionEngine(
        build_module(source, pipeline),
        pipeline=pipeline,
        opt_mode="full",
        cache=KernelCache(),
    )
    actual = [a.copy() for a in inputs]
    engine.run(func, *actual)
    for got, want in zip(actual, expected):
        assert_close(got, want, rtol=1e-4)
