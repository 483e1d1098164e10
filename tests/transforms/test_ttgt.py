"""``-linalg-contraction-ttgt``: raising leaves each contraction one
``linalg.generic`` (the TDL ``contractionBuilder``), and this pass gives
it the TTGT layout in the pipelines whose backend needs a GEMM.

The TTGT tactic that raised straight to transpose/reshape/matmul is the
oracle: raise plus the pass must print what it printed.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.evaluation import get_kernel
from repro.execution import ExecutionEngine, Interpreter
from repro.execution.engine.cache import KernelCache
from repro.ir import Context, PassManager, print_module
from repro.met import compile_c
from repro.tactics import parse_tds
from repro.tactics.contraction import (
    PAPER_CONTRACTIONS,
    TTGTRefused,
    contraction_generic_tdl,
    contraction_tactic_tdl,
    ttgt_plans,
)
from repro.tactics.raising import compile_tdl, raise_affine_to_linalg
from repro.tool import build_pipeline
from repro.transforms import LinalgContractionTTGTPass

from ..analysis.test_contraction import (
    _contraction_module,
    contractions,
    scalar_loops,
    small_integers,
)


def _linalg_ops(module):
    """The linalg ops of ``module``, not counting generic bodies."""
    return [
        op.name
        for op in module.walk()
        if op.name.startswith("linalg.") and op.name != "linalg.yield"
    ]


def _ttgt(module):
    pass_ = LinalgContractionTTGTPass()
    PassManager(Context()).add(pass_).run(module)
    return pass_.counters


class TestTheTTGTTacticIsTheOracle:
    @pytest.mark.parametrize("spec", PAPER_CONTRACTIONS)
    def test_raise_then_ttgt_prints_what_the_ttgt_tactic_raised(self, spec):
        source = get_kernel(spec).small()
        oracle = compile_c(source)
        raise_affine_to_linalg(
            oracle, compile_tdl(contraction_tactic_tdl(spec))
        )
        module = compile_c(source)
        raise_affine_to_linalg(module)
        assert _linalg_ops(module) == ["linalg.generic"]
        assert _ttgt(module) == {"ttgt": {"planned": 1}}
        assert print_module(module) == print_module(oracle)


class TestContractionBuilder:
    @pytest.mark.parametrize("spec", PAPER_CONTRACTIONS)
    def test_same_matcher_one_builder(self, spec):
        (generic,) = compile_tdl(contraction_generic_tdl(spec))
        (ttgt,) = compile_tdl(contraction_tactic_tdl(spec))
        assert generic.name == ttgt.name
        assert generic.source == ttgt.source
        (builder,) = generic.record.builders
        out, a, b = (list(part) for part in spec.split("-"))
        assert builder.kind == "contractionBuilder"
        assert builder.indices == [a, b, out]

    def test_tablegen_round_trip(self):
        (tactic,) = compile_tdl(contraction_generic_tdl("abc-acd-db"))
        text = tactic.record.emit_tablegen()
        assert "contractionBuilder<In<[A, B]>, Out<[C]>, " in text
        assert "Indices<[{a, c, d}, {d, b}, {a, b, c}]>" in text
        (parsed,) = parse_tds(text)
        assert parsed.builders == tactic.record.builders

    def test_dims_follow_the_band_loop_order(self):
        # The statement lists b before c; the band nests c outside b.
        source = """
void contraction(float A[4][5][6], float B[6][3], float C[4][3][5]) {
  for (int a = 0; a < 4; a++)
    for (int c = 0; c < 5; c++)
      for (int b = 0; b < 3; b++)
        for (int d = 0; d < 6; d++)
          C[a][b][c] += A[a][c][d] * B[d][b];
}
"""
        module = compile_c(source)
        raise_affine_to_linalg(module)
        (generic,) = [op for op in module.walk() if op.name == "linalg.generic"]
        assert [str(m) for m in generic.indexing_maps] == [
            "(d0, d1, d2, d3) -> (d0, d1, d3)",
            "(d0, d1, d2, d3) -> (d3, d2)",
            "(d0, d1, d2, d3) -> (d0, d2, d1)",
        ]
        assert generic.iterator_types == ["parallel"] * 3 + ["reduction"]


#: ``bench_raise``'s near-misses at small extents: TDL misses each, and
#: synthesis raises each to a multiply-accumulate generic.
NEAR_MISSES = {
    "transposed-matmul": """
void kernel(float A[5][3], float B[5][4], float C[3][4]) {
  for (int i = 0; i < 3; i++)
    for (int j = 0; j < 4; j++)
      for (int k = 0; k < 5; k++)
        C[i][j] += A[k][i] * B[k][j];
}
""",
    "permuted-output": """
void kernel(float A[3][5], float B[5][4], float C[4][3]) {
  for (int i = 0; i < 3; i++)
    for (int j = 0; j < 4; j++)
      for (int k = 0; k < 5; k++)
        C[j][i] += A[i][k] * B[k][j];
}
""",
    "subtract-matmul": """
void kernel(float A[3][5], float B[5][4], float C[3][4]) {
  for (int i = 0; i < 3; i++)
    for (int j = 0; j < 4; j++)
      for (int k = 0; k < 5; k++)
        C[i][j] -= A[i][k] * B[k][j];
}
""",
    "dot": """
void kernel(float x[8], float y[8], float s[1]) {
  for (int i = 0; i < 8; i++)
    s[0] += x[i] * y[i];
}
""",
}

SYNTH_TO_BLAS = [
    "raise-affine-to-linalg",
    "raise-affine-synth",
    "linalg-contraction-ttgt",
    "convert-linalg-to-blas",
]


def _synth_to_blas(name):
    module = compile_c(NEAR_MISSES[name])
    pm = build_pipeline(SYNTH_TO_BLAS)
    pm.run(module)
    ttgt = next(p for p in pm.passes if p.name == "linalg-contraction-ttgt")
    return module, ttgt.counters


def _outputs(module, seed=7):
    func = module.lookup("kernel")
    rng = np.random.default_rng(seed)
    args = [
        rng.random(tuple(arg.type.shape), dtype=np.float32) - 0.5
        for arg in func.arguments
    ]
    Interpreter(module).run("kernel", *args)
    return args


class TestSynthesizedNearMisses:
    @pytest.mark.parametrize("name", ["transposed-matmul", "permuted-output"])
    def test_reaches_sgemm(self, name):
        module, counters = _synth_to_blas(name)
        names = [op.name for op in module.walk()]
        assert counters == {"ttgt": {"planned": 1}}
        assert names.count("blas.sgemm") == 1 and "blas.transpose" in names
        assert "linalg.generic" not in names and "affine.for" not in names
        want = _outputs(compile_c(NEAR_MISSES[name]))
        for got, expected in zip(_outputs(module), want):
            np.testing.assert_allclose(got, expected, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize(
        "name, reason",
        [("subtract-matmul", "not-additive"), ("dot", "no-free-index")],
    )
    def test_no_gemm_layout_stays_a_generic(self, name, reason):
        module, counters = _synth_to_blas(name)
        assert counters == {"ttgt": {reason: 1}}
        assert _linalg_ops(module) == ["linalg.generic"]


def test_blas_conversion_alone_leaves_the_generic():
    module = compile_c(get_kernel("abc-acd-db").small())
    build_pipeline(["raise-affine-to-linalg", "convert-linalg-to-blas"]).run(
        module
    )
    names = [op.name for op in module.walk()]
    assert "linalg.generic" in names and "blas.sgemm" not in names


# ----------------------------------------------------------------------
# Over random contractions: the pass plans exactly what the planner
# plans, and a planned rewrite computes what the generic computed
# ----------------------------------------------------------------------


def _spec(a_dims, b_dims, out_dims):
    """The ``out-A-B`` text of a drawn contraction: loop ``d`` is the
    ``d``-th letter."""
    return "-".join(
        "".join("abcd"[d] for d in dims) for dims in (out_dims, a_dims, b_dims)
    )


def _planner_outcome(spec):
    try:
        ttgt_plans(spec)
    except TTGTRefused as refused:
        return refused.reason
    return "planned"


def _interpret(module, inputs):
    args = [x.copy() for x in inputs]
    Interpreter(module).run("f", *args)
    return args


def _execute(module, inputs):
    args = [x.copy() for x in inputs]
    ExecutionEngine(module, cache=KernelCache()).run("f", *args)
    return args


def _assert_equal(got, want):
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


# One drawn case per refusal a generic can reach, so each is pinned
# whatever hypothesis draws: (extents, A dims, B dims, output dims,
# subtract).
@example(([2, 3, 4], [0, 2], [2, 1], [0, 1], False), 0)  # planned
@example(([2, 3, 4], [0, 2], [2, 1], [0, 1], True), 0)  # not-additive
@example(([2, 3], [0, 1], [1], [0, 1], False), 0)  # no-contracted-index
@example(([4], [0], [0], [], False), 0)  # no-free-index
@example(([2, 3, 4, 2], [0, 1, 2], [1, 2, 3], [0, 1, 3], False), 0)  # batch
@example(([2, 3, 4, 2], [0, 1, 2], [1, 3], [0, 3], False), 0)  # one-sided
@given(contractions(), st.integers(0, 9))
@settings(max_examples=100, deadline=None)
def test_the_pass_plans_what_the_planner_plans(case, seed):
    extents, a_dims, b_dims, out_dims, subtract = case
    module, _, shapes = _contraction_module(
        extents, a_dims, b_dims, out_dims, subtract
    )
    inputs = small_integers(shapes, seed)
    with scalar_loops():
        want = _interpret(module, inputs)
    # The engine's kernel of the generic (``contraction_src``).
    _assert_equal(_execute(module, inputs), want)
    outcome = (
        "not-additive"
        if subtract
        else _planner_outcome(_spec(a_dims, b_dims, out_dims))
    )
    assert _ttgt(module) == {"ttgt": {outcome: 1}}
    if outcome != "planned":
        assert _linalg_ops(module) == ["linalg.generic"]
        return
    assert "linalg.generic" not in _linalg_ops(module)
    _assert_equal(_interpret(module, inputs), want)
    _assert_equal(_execute(module, inputs), want)


def test_a_generic_the_reader_refuses_is_counted_and_kept():
    # Loop 1 indexes only the output: the product is broadcast along it.
    module, _, _ = _contraction_module([3, 5, 4], [2, 0], [2, 0], [0, 1], False)
    assert _ttgt(module) == {"ttgt": {"not-a-contraction": 1}}
    assert _linalg_ops(module) == ["linalg.generic"]
