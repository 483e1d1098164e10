"""Whole-nest vectorization: band detection, contraction recognition,
LICM, the bail-out taxonomy, and property tests against the interpreter.

The contract under test: for every mode in ``VECTORIZE_MODES`` the
compiled engine mutates argument buffers exactly like the interpreter
(up to f32 reassociation tolerance), and the ``vectorize_stats``
attached to the kernel truthfully describe what codegen did.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dialects import affine as affine_d
from repro.dialects import std
from repro.dialects.affine import perfect_nest
from repro.execution import ExecutionEngine, Interpreter, KernelCache
from repro.execution.engine import generate_module_source
from repro.execution.engine.codegen import contraction_src
from repro.execution.engine.licm import hoist_loop_invariants
from repro.fuzzing.oracle import make_args, module_arg_shapes
from repro.ir import (
    AffineMap,
    Builder,
    FuncOp,
    InsertionPoint,
    ModuleOp,
    ReturnOp,
    f32,
    memref,
)
from repro.ir import affine_expr as ae
from repro.met import compile_c

RTOL = 2e-3
ATOL = 1e-5


def _stats_for(module, vectorize="nest"):
    return ExecutionEngine(
        module, cache=KernelCache(), vectorize=vectorize
    ).vectorize_stats


def _check_all_modes(module, func_name, seed=0):
    """Interpreter vs engine in every mode; returns per-mode stats."""
    shapes = module_arg_shapes(module, func_name)
    reference = make_args(shapes, seed)
    Interpreter(module, max_steps=200_000_000).run(func_name, *reference)
    stats = {}
    for mode in ("nest", "innermost", "none"):
        args = make_args(shapes, seed)
        engine = ExecutionEngine(module, cache=KernelCache(), vectorize=mode)
        engine.run(func_name, *args)
        for ref, act in zip(reference, args):
            np.testing.assert_allclose(ref, act, rtol=RTOL, atol=ATOL)
        stats[mode] = engine.vectorize_stats
    return stats


# ----------------------------------------------------------------------
# Band detection
# ----------------------------------------------------------------------


class TestBandDetection:
    def _outer_loops(self, source, func_name):
        module = compile_c(source)
        func = module.lookup(func_name)
        return module, [
            op
            for op in func.entry_block.operations
            if isinstance(op, affine_d.AffineForOp)
        ]

    def test_perfect_triple_nest_is_one_band(self):
        src = """
        void k(float A[4][5], float B[5][6], float C[4][6]) {
          for (int i = 0; i < 4; i++)
            for (int j = 0; j < 6; j++)
              for (int p = 0; p < 5; p++)
                C[i][j] += A[i][p] * B[p][j];
        }
        """
        _, loops = self._outer_loops(src, "k")
        assert len(loops) == 1
        assert len(perfect_nest(loops[0])) == 3

    def test_imperfect_nest_band_stops_at_the_extra_statement(self):
        src = """
        void k(float A[4][5], float B[4]) {
          for (int i = 0; i < 4; i++) {
            B[i] = 0.0f;
            for (int j = 0; j < 5; j++)
              B[i] += A[i][j];
          }
        }
        """
        _, loops = self._outer_loops(src, "k")
        assert len(perfect_nest(loops[0])) == 1

    def test_single_loop_is_a_band_of_one(self):
        src = """
        void k(float A[8], float B[8]) {
          for (int i = 0; i < 8; i++)
            B[i] = A[i] + 1.0f;
        }
        """
        _, loops = self._outer_loops(src, "k")
        assert len(perfect_nest(loops[0])) == 1


# ----------------------------------------------------------------------
# Whole-nest collapse and contraction recognition
# ----------------------------------------------------------------------


class TestContractionRecognition:
    def test_gemm_collapses_to_one_contract_call(self):
        from repro.evaluation.kernels import gemm_source

        module = compile_c(gemm_source(8, 7, 6))
        stats = _check_all_modes(module, "gemm")["nest"]
        assert stats["nests_bailed"] == 0
        assert stats["contractions"] == 1
        source = generate_module_source(module)
        assert " @ " in source  # planned as one matrix product
        assert "for " not in source  # fully loop-free

    def test_two_mm_recognizes_both_contractions(self):
        from repro.evaluation.kernels import two_mm_source

        module = compile_c(two_mm_source(6, 5, 4, 3))
        stats = _check_all_modes(module, "two_mm")["nest"]
        assert stats["contractions"] == 2
        assert stats["nests_bailed"] == 0

    def test_mvt_recognizes_both_matvecs(self):
        from repro.evaluation.kernels import mvt_source

        module = compile_c(mvt_source(9))
        stats = _check_all_modes(module, "mvt")["nest"]
        assert stats["contractions"] == 2

    def test_doitgen_like_3d_contraction(self):
        # doitgen's core: sum[r][q][p] += A[r][q][s] * C4[s][p].
        src = """
        void doitgen(float A[3][4][5], float C4[5][5], float S[3][4][5]) {
          for (int r = 0; r < 3; r++)
            for (int q = 0; q < 4; q++)
              for (int p = 0; p < 5; p++)
                for (int s = 0; s < 5; s++)
                  S[r][q][p] += A[r][q][s] * C4[s][p];
        }
        """
        module = compile_c(src)
        stats = _check_all_modes(module, "doitgen")["nest"]
        assert stats["nests_collapsed"] == 1
        assert stats["contractions"] == 1

    def test_scaled_contraction_keeps_scalar_factor_outside(self):
        src = """
        void k(float A[4][5], float B[5][6], float C[4][6]) {
          for (int i = 0; i < 4; i++)
            for (int j = 0; j < 6; j++)
              for (int p = 0; p < 5; p++)
                C[i][j] += (1.5f * A[i][p]) * B[p][j];
        }
        """
        module = compile_c(src)
        assert _check_all_modes(module, "k")["nest"]["contractions"] == 1
        source = generate_module_source(module)
        # The factor scales the planned product, not one operand.
        assert "((1.5) * (" in source and " @ " in source

    def test_full_reduction_with_one_sided_label(self):
        # out[0] += A[i][j] * B[i]: label j is summed but appears in
        # only one operand, so the runtime must not take the tensordot
        # fast path (regression: it used to return a wrong-rank array).
        src = """
        void red(float A[4][5], float B[4], float out[1]) {
          for (int i = 0; i < 4; i++)
            for (int j = 0; j < 5; j++)
              out[0] += A[i][j] * B[i];
        }
        """
        module = compile_c(src)
        _check_all_modes(module, "red")

    @pytest.mark.parametrize(
        "body, spelling",
        [
            ("C[i][j] -= A[i][k] * B[k][j];", "] -= (_t"),
            ("C[2 * i][j] += A[i][k] * B[k][j];", ", 2), slice("),
            ("C[j][i] += A[i][k] * B[k][j];", ").T"),
        ],
        ids=["subtracting", "step-two-target", "transposed-target"],
    )
    def test_accumulation_writes_through_the_store_view(self, body, spelling):
        src = f"""
        void k(float A[5][4], float B[4][6], float C[10][10]) {{
          for (int i = 0; i < 5; i++)
            for (int j = 0; j < 6; j++)
              for (int k = 0; k < 4; k++)
                {body}
        }}
        """
        module = compile_c(src)
        assert _check_all_modes(module, "k")["nest"]["contractions"] == 1
        (store,) = [
            line for line in generate_module_source(module).splitlines()
            if "= (_t" in line
        ]
        assert spelling in store

    def test_innermost_mode_never_emits_contract(self):
        from repro.evaluation.kernels import gemm_source

        module = compile_c(gemm_source(8, 7, 6))
        assert _stats_for(module, "innermost")["contractions"] == 0
        source = generate_module_source(module, vectorize="innermost")
        assert " @ " not in source and "_np.tensordot(" not in source
        assert "for " in source

    def test_none_mode_emits_pure_scalar_loops(self):
        from repro.evaluation.kernels import gemm_source

        module = compile_c(gemm_source(8, 7, 6))
        assert _stats_for(module, "none")["contractions"] == 0
        source = generate_module_source(module, vectorize="none")
        assert "slice(" not in source
        assert " @ " not in source and "_np.tensordot(" not in source


@st.composite
def two_operand_specs(draw):
    """``"A,B->O"`` over up to four labels: each operand a nonempty
    ordered subset, the output any ordered subset of their union."""
    labels = draw(
        st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True)
    )

    def part(pool, min_size):
        order = draw(st.permutations(pool))
        return "".join(order[: draw(st.integers(min_size, len(pool)))])

    a_spec, b_spec = part(labels, 1), part(labels, 1)
    return f"{a_spec},{b_spec}->{part(sorted(set(a_spec + b_spec)), 0)}"


def _planned(spec, *operands):
    """The expression codegen plans for ``spec`` and its value, with
    ``_np`` bound as in a generated kernel."""
    names = [f"x{i}" for i in range(len(operands))]
    src = contraction_src(spec, names)
    return src, eval(src, {"_np": np}, dict(zip(names, operands)))


class TestRuntimeContract:
    """The contraction a kernel runs, as planned by codegen."""

    def test_tensordot_path_matches_einsum(self):
        rng = np.random.default_rng(0)
        a = rng.random((4, 5, 3), dtype=np.float32)
        b = rng.random((5, 3, 6), dtype=np.float32)
        src, got = _planned("acd,cdb->ab", a, b)
        assert src == "_np.tensordot(x0, x1, ([1, 2], [0, 1]))"
        np.testing.assert_allclose(
            got, np.einsum("acd,cdb->ab", a, b), rtol=RTOL
        )
        src, got = _planned("ac,cb->ab", a[:, :, 0], b[:, 0, :])
        assert src == "(x0 @ x1)"
        np.testing.assert_allclose(
            got, np.einsum("ac,cb->ab", a[:, :, 0], b[:, 0, :]), rtol=RTOL
        )

    def test_transposed_output_order(self):
        rng = np.random.default_rng(1)
        a = rng.random((4, 5), dtype=np.float32)
        b = rng.random((5, 6), dtype=np.float32)
        src, got = _planned("ac,cb->ba", a, b)
        assert src == "(x0 @ x1).T"
        np.testing.assert_allclose(
            got, np.einsum("ac,cb->ba", a, b), rtol=RTOL
        )
        c = rng.random((4, 5, 2), dtype=np.float32)
        src, got = _planned("acd,cb->bda", c, b)
        assert src.endswith(".transpose((2, 1, 0))")
        np.testing.assert_allclose(
            got, np.einsum("acd,cb->bda", c, b), rtol=RTOL
        )

    def test_one_sided_summed_label_falls_back_to_einsum(self):
        # 'b' is contracted but appears only in the first operand;
        # tensordot cannot sum it, so the plan must be einsum instead
        # of a wrong-rank product.
        rng = np.random.default_rng(3)
        a = rng.random((3, 4), dtype=np.float32)
        b = rng.random(3, dtype=np.float32)
        for spec in ("ab,a->", "ab,a->a"):
            src, got = _planned(spec, a, b)
            assert src.startswith("_np.einsum(")
            np.testing.assert_allclose(
                got, np.einsum(spec, a, b), rtol=RTOL
            )

    def test_batch_axes_fall_back_to_einsum(self):
        rng = np.random.default_rng(2)
        a = rng.random((3, 4, 5), dtype=np.float32)
        b = rng.random((3, 5, 6), dtype=np.float32)
        src, got = _planned("abc,acd->abd", a, b)
        assert src == "_np.einsum('abc,acd->abd', x0, x1, optimize=True)"
        np.testing.assert_allclose(
            got, np.einsum("abc,acd->abd", a, b), rtol=RTOL
        )

    def test_dtype_preserved(self):
        a = np.ones((2, 3), dtype=np.float32)
        b = np.ones((3, 2, 2), dtype=np.float32)
        for spec, y in (("ac,cb->ab", b[:, :, 0]), ("ac,cbd->abd", b)):
            assert _planned(spec, a, y)[1].dtype == np.float32

    @settings(max_examples=150, deadline=None)
    @given(spec=two_operand_specs(), scaled=st.booleans())
    @example(spec="ca,cb->ab", scaled=False)  # x0.T @ x1
    @example(spec="ac,bc->ba", scaled=True)  # (x0 @ x1.T).T, scaled
    @example(spec="a,ba->b", scaled=False)  # vector @ matrix.T
    @example(spec="ab,b->a", scaled=False)  # matrix @ vector
    @example(spec="a,a->", scaled=True)  # scalar output, scaled
    @example(spec="ab,a->b", scaled=False)  # one-sided summed label
    @example(spec="abc,acd->abd", scaled=False)  # batch label
    @example(spec="acd,cb->bda", scaled=False)  # tensordot, transposed
    def test_every_plan_matches_einsum(self, spec, scaled):
        ins, _ = spec.split("->")
        extent = {c: 2 + "abcd".index(c) for c in ins if c != ","}
        rng = np.random.default_rng(0)
        a, b = (
            rng.random([extent[c] for c in part], dtype=np.float32)
            for part in ins.split(",")
        )
        src = contraction_src(spec, ["x0", "x1"])
        want = np.einsum(spec, a, b)
        if scaled:  # the vectorizer's spelling of a scalar factor
            src, want = f"((1.5) * {src})", 1.5 * want
        got = eval(src, {"_np": np}, {"x0": a, "x1": b})
        assert np.shape(got) == want.shape, src
        np.testing.assert_allclose(got, want, rtol=RTOL, err_msg=src)


# ----------------------------------------------------------------------
# Bail-out taxonomy
# ----------------------------------------------------------------------


class TestBailTaxonomy:
    """Each known bail reason is reachable, recorded under its key, and
    the scalar fallback still matches the interpreter."""

    def _bails(self, source, func_name):
        module = compile_c(source)
        stats = _check_all_modes(module, func_name)["nest"]
        return stats["bail_reasons"], stats

    def test_two_ivs_in_one_subscript(self):
        # Only a *store* bails: overlapping writes are order-dependent
        # (the load form is a window view, see TestWindowLoads).
        src = """
        void k(float A[10], float B[4][5]) {
          for (int i = 0; i < 4; i++)
            for (int j = 0; j < 5; j++)
              A[i + j] = B[i][j];
        }
        """
        reasons, stats = self._bails(src, "k")
        assert reasons == {"two-ivs-in-one-subscript": 1}
        # The j loop alone still vectorizes: partial collapse.
        assert stats["nests_partial"] == 1

    def test_iv_in_two_subscripts(self):
        src = """
        void k(float A[5][5], float B[5]) {
          for (int i = 0; i < 5; i++)
            B[i] = A[i][i];
        }
        """
        reasons, stats = self._bails(src, "k")
        assert "iv-in-two-subscripts" in reasons
        assert stats["nests_bailed"] == 1

    def test_non_positive_stride(self):
        src = """
        void k(float A[8], float B[8]) {
          for (int i = 0; i < 8; i++)
            B[i] = A[7 - i];
        }
        """
        reasons, _ = self._bails(src, "k")
        assert "non-positive-stride" in reasons

    def test_loop_carried_dependence(self):
        src = """
        void k(float A[12]) {
          for (int i = 1; i < 12; i++)
            A[i] = A[i - 1] + A[i];
        }
        """
        reasons, stats = self._bails(src, "k")
        assert "loop-carried-dependence" in reasons
        assert stats["nests_bailed"] == 1

    def test_multiple_stores(self):
        # distribute=False: loop distribution would split the stores
        # into two trivially vectorizable loops before the engine runs.
        src = """
        void k(float A[6], float B[6]) {
          for (int i = 0; i < 6; i++) {
            A[i] = 1.0f;
            B[i] = 2.0f;
          }
        }
        """
        module = compile_c(src, distribute=False)
        stats = _check_all_modes(module, "k")["nest"]
        assert "multiple-stores" in stats["bail_reasons"]

    def test_unsafe_op_nested_imperfect_loop(self):
        src = """
        void k(float A[4][5], float B[4]) {
          for (int i = 0; i < 4; i++) {
            B[i] = 0.0f;
            for (int j = 0; j < 5; j++)
              B[i] += A[i][j];
          }
        }
        """
        module = compile_c(src, distribute=False)
        stats = _check_all_modes(module, "k")["nest"]
        # The i band's body holds an affine.for: not a safe op.
        assert "unsafe-op" in stats["bail_reasons"]
        assert stats["nests_partial"] == 1

    def test_not_a_reduction(self):
        src = """
        void k(float A[4][5], float C[4]) {
          for (int i = 0; i < 4; i++)
            for (int j = 0; j < 5; j++)
              C[i] = C[i] * A[i][j];
        }
        """
        reasons, _ = self._bails(src, "k")
        assert "not-a-reduction" in reasons

    def test_no_accumulator_load(self):
        src = """
        void k(float A[4][5], float B[4][5], float C[4]) {
          for (int i = 0; i < 4; i++)
            for (int j = 0; j < 5; j++)
              C[i] = A[i][j] + B[i][j];
        }
        """
        reasons, _ = self._bails(src, "k")
        assert "no-accumulator-load" in reasons

    def test_subtrahend_accumulator(self):
        src = """
        void k(float A[4][5], float C[4]) {
          for (int i = 0; i < 4; i++)
            for (int j = 0; j < 5; j++)
              C[i] = A[i][j] - C[i];
        }
        """
        reasons, _ = self._bails(src, "k")
        assert "subtrahend-accumulator" in reasons

    def test_subtraction_reduction_is_not_a_bail(self):
        src = """
        void k(float A[4][5], float C[4]) {
          for (int i = 0; i < 4; i++)
            for (int j = 0; j < 5; j++)
              C[i] -= A[i][j];
        }
        """
        module = compile_c(src)
        stats = _check_all_modes(module, "k")["nest"]
        assert stats["nests_collapsed"] == 1
        assert stats["bail_reasons"] == {}

    def test_invariant_reduction_axis(self):
        src = """
        void k(float A[4], float C[4]) {
          for (int i = 0; i < 4; i++)
            for (int j = 0; j < 5; j++)
              C[i] += A[i];
        }
        """
        reasons, _ = self._bails(src, "k")
        assert "invariant-reduction-axis" in reasons

    def test_extra_reduction_load(self):
        src = """
        void k(float A[4][5], float C[4]) {
          for (int i = 0; i < 4; i++)
            for (int j = 0; j < 5; j++)
              C[i] = C[i] + A[i][j] * C[i];
        }
        """
        reasons, _ = self._bails(src, "k")
        assert "extra-reduction-load" in reasons

    def test_no_store(self):
        module = ModuleOp.create()
        func = FuncOp.create("f", [memref(8, f32)])
        module.append_function(func)
        (src,) = func.arguments
        builder = Builder(InsertionPoint.at_end(func.entry_block))
        loops, ivs = affine_d.build_loop_nest(builder, [(0, 4)])
        body = Builder(InsertionPoint(loops[-1].body, 0))
        load = body.insert(affine_d.AffineLoadOp.create(src, [ivs[0]]))
        body.insert(std.AddFOp.create(load.result, load.result))
        builder.insert(ReturnOp.create())
        stats = _stats_for(module)
        assert "no-store" in stats["bail_reasons"]

    def test_triangular_bounds(self):
        module = ModuleOp.create()
        func = FuncOp.create("f", [memref(8, 8, f32)])
        module.append_function(func)
        (buf,) = func.arguments
        builder = Builder(InsertionPoint.at_end(func.entry_block))
        outer = builder.insert(affine_d.AffineForOp.create(0, 8))
        inner = affine_d.AffineForOp.create(
            0,
            AffineMap(1, 0, [ae.dim(0) + 1]),
            ub_operands=[outer.induction_var],
        )
        outer.body.insert(len(outer.body.operations) - 1, inner)
        body = Builder(InsertionPoint(inner.body, 0))
        zero = body.insert(std.ConstantOp.create(0.0, f32))
        body.insert(
            affine_d.AffineStoreOp.create(
                zero.result,
                buf,
                [outer.induction_var, inner.induction_var],
            )
        )
        builder.insert(ReturnOp.create())
        stats = _stats_for(module)
        assert "triangular-bounds" in stats["bail_reasons"]
        # The inner loop still collapses once the outer goes scalar.
        assert stats["nests_partial"] == 1

    def test_non_linear_subscript(self):
        module = ModuleOp.create()
        func = FuncOp.create("f", [memref(64, f32), memref(8, f32)])
        module.append_function(func)
        src, dst = func.arguments
        builder = Builder(InsertionPoint.at_end(func.entry_block))
        loops, ivs = affine_d.build_loop_nest(builder, [(0, 8)])
        body = Builder(InsertionPoint(loops[-1].body, 0))
        load = body.insert(
            affine_d.AffineLoadOp.create(
                src, [ivs[0]], AffineMap(1, 0, [ae.dim(0) % 3])
            )
        )
        body.insert(affine_d.AffineStoreOp.create(load.result, dst, [ivs[0]]))
        builder.insert(ReturnOp.create())
        stats = _stats_for(module)
        assert "non-linear-subscript" in stats["bail_reasons"]


# ----------------------------------------------------------------------
# Window views: several band ivs in one load subscript
# ----------------------------------------------------------------------


class TestWindowLoads:
    """A load subscript ``a*i + b*j + c`` is one slice over its span
    opened into one axis per iv by ``_rt.window``; every mode still
    matches the interpreter."""

    def _collapsed(self, source, func_name, contractions):
        module = compile_c(source)
        stats = _check_all_modes(module, func_name)["nest"]
        assert stats["bail_reasons"] == {}
        assert stats["nests_partial"] == stats["nests_bailed"] == 0
        assert stats["contractions"] == contractions
        return generate_module_source(module)

    def test_one_dimensional_convolution_is_one_contraction(self):
        src = """
        void k(float x[12], float h[4], float y[9]) {
          for (int i = 0; i < 9; i++)
            for (int j = 0; j < 4; j++)
              y[i] += x[i + j] * h[j];
        }
        """
        source = self._collapsed(src, "k", contractions=1)
        assert source.count("_rt.window(") == 1
        # 'ab,b->a' is a matrix-vector product over the window view.
        assert source.count(" @ ") == 1

    def test_strided_window(self):
        src = """
        void k(float x[20], float h[3], float y[9]) {
          for (int i = 0; i < 9; i++)
            for (int j = 0; j < 3; j++)
              y[i] += x[2 * i + j] * h[j];
        }
        """
        assert "((2, " in self._collapsed(src, "k", contractions=1)

    def test_nonzero_lower_bounds_and_step_two(self):
        src = """
        void k(float x[24], float h[6], float y[12]) {
          for (int i = 2; i < 11; i += 2)
            for (int j = 1; j < 5; j++)
              y[i] += x[i + 2 * j + 1] * h[j];
        }
        """
        self._collapsed(src, "k", contractions=1)

    def test_elementwise_window(self):
        src = """
        void k(float A[10], float B[4][5]) {
          for (int i = 0; i < 4; i++)
            for (int j = 0; j < 5; j++)
              B[i][j] = A[i + j];
        }
        """
        self._collapsed(src, "k", contractions=0)

    def test_two_windowed_subscripts_in_one_access(self):
        from repro.evaluation import get_kernel

        source = self._collapsed(
            get_kernel("conv2d-nchw").small(), "conv2d", contractions=1
        )
        assert source.count("_rt.window(") == 2

    @pytest.mark.parametrize(
        "body, reason",
        [
            ("A[i][0] = A[i + j][0] + h[j];", "no-accumulator-load"),
            ("A[i][4] += A[i + j][4] * h[j];", "extra-reduction-load"),
            ("A[i][j] = A[i + j][4] + h[j];", "loop-carried-dependence"),
        ],
    )
    def test_in_place_window_still_bails(self, body, reason):
        # A window load of the stored buffer never has the store's
        # signature, so the dependence bails fire as for any shifted
        # read of it.
        src = """
        void k(float A[12][5], float h[5]) {
          for (int i = 0; i < 8; i++)
            for (int j = 0; j < 5; j++)
              %s
        }
        """ % body
        module = compile_c(src)
        stats = _check_all_modes(module, "k")["nest"]
        assert "_rt.window(" not in generate_module_source(module)
        assert stats["bail_reasons"].get(reason, 0) >= 1

    @settings(max_examples=30, deadline=None)
    @given(
        coeffs=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        const=st.integers(0, 3),
        lows=st.tuples(st.integers(0, 2), st.integers(0, 2)),
        steps=st.tuples(st.integers(1, 2), st.integers(1, 2)),
        trips=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        body=st.sampled_from(
            [
                "y[i] += x[%s] * h[j];",  # contraction
                "y[i] += x[%s];",  # .sum over the window's j axis
                "B[j][i] = x[%s] + h[j];",  # elementwise, transposed store
            ]
        ),
    )
    def test_random_windows_match_interpreter(
        self, coeffs, const, lows, steps, trips, body
    ):
        (a, b), (lo_i, lo_j), (st_i, st_j) = coeffs, lows, steps
        hi_i = lo_i + st_i * (trips[0] - 1)
        hi_j = lo_j + st_j * (trips[1] - 1)
        src = """
        void k(float x[%d], float h[%d], float y[%d], float B[%d][%d]) {
          for (int i = %d; i <= %d; i += %d)
            for (int j = %d; j <= %d; j += %d)
              %s
        }
        """ % (
            a * hi_i + b * hi_j + const + 1, hi_j + 1, hi_i + 1,
            hi_j + 1, hi_i + 1,
            lo_i, hi_i, st_i, lo_j, hi_j, st_j,
            body % f"{a} * i + {b} * j + {const}",
        )
        stats = _check_all_modes(compile_c(src), "k")["nest"]
        assert stats["nests_collapsed"] == 1 and not stats["bail_reasons"]

    def test_window_refuses_a_clamped_slice(self):
        # NumPy clamps an out-of-range slice silently; restriding the
        # short view would read past the buffer.
        from repro.execution.engine.runtime import EngineError, window

        x = np.arange(10, dtype=np.float32)
        view = window(x[slice(2, 2 + 7)], 0, ((1, 5), (1, 3)))
        assert view.shape == (5, 3) and not view.flags.writeable
        np.testing.assert_array_equal(view[4], x[6:9])
        with pytest.raises(EngineError, match="out of bounds"):
            window(x[slice(6, 6 + 7)], 0, ((1, 5), (1, 3)))


# ----------------------------------------------------------------------
# LICM over residual scalar loops
# ----------------------------------------------------------------------


class TestLICM:
    def test_invariant_assignment_hoists(self):
        lines = [
            "    for v0 in range(0, 8, 1):",
            "        v1 = 2 + 3",
            "        acc[v0] = acc[v0] + v1",
        ]
        hoisted, count = hoist_loop_invariants(lines)
        assert count == 1
        assert hoisted[0] == "    v1 = 2 + 3"

    def test_loop_variant_assignment_stays(self):
        lines = [
            "    for v0 in range(0, 8, 1):",
            "        v1 = v0 * 2",
            "        acc[v0] = acc[v0] + v1",
        ]
        _, count = hoist_loop_invariants(lines)
        assert count == 0

    def test_faultable_hoist_is_guarded(self):
        lines = [
            "    for v0 in range(0, n, 1):",
            "        v1 = table[3].item()",
            "        acc[v0] = acc[v0] + v1",
        ]
        hoisted, count = hoist_loop_invariants(lines)
        assert count == 1
        # A subscript read must not execute for a zero-trip loop.
        assert hoisted[0] == "    if len(range(0, n, 1)) > 0:"
        assert "v1 = table[3].item()" in hoisted[1]

    def test_dependent_chain_hoists_together(self):
        lines = [
            "    for v0 in range(0, 8, 1):",
            "        v1 = table[3].item()",
            "        v2 = v1 * 2",
            "        acc[v0] = acc[v0] + v2",
        ]
        hoisted, count = hoist_loop_invariants(lines)
        assert count == 2
        # v2 depends on the guarded v1 so it must stay under the guard.
        guard = hoisted.index("    if len(range(0, 8, 1)) > 0:")
        assert any("v1 = " in line for line in hoisted[guard + 1:])
        assert any("v2 = " in line for line in hoisted[guard + 1:])

    def test_stored_buffer_blocks_hoisting(self):
        lines = [
            "    for v0 in range(0, 8, 1):",
            "        v1 = acc[3].item()",
            "        acc[v0] = acc[v0] + v1",
        ]
        _, count = hoist_loop_invariants(lines)
        assert count == 0

    def test_fn_call_poisons_the_loop(self):
        lines = [
            "    for v0 in range(0, 8, 1):",
            "        v1 = 2 + 3",
            "        v2 = _fn_helper(v1)",
        ]
        _, count = hoist_loop_invariants(lines)
        assert count == 0

    def test_licm_fires_on_bailed_kernel_and_stats_count_it(self):
        # The diagonal access bails; the residual scalar loop re-reads
        # an invariant subscript start every iteration, which LICM
        # hoists behind a zero-trip guard.
        src = """
        void k(float A[5][5], float B[5], float C[5]) {
          for (int i = 0; i < 5; i++)
            C[i] = A[i][i] + B[2];
        }
        """
        module = compile_c(src)
        stats = _check_all_modes(module, "k")["nest"]
        assert stats["licm_hoisted"] >= 1

    def test_licm_disabled_leaves_lines_alone(self):
        src = """
        void k(float A[5][5], float B[5], float C[5]) {
          for (int i = 0; i < 5; i++)
            C[i] = A[i][i] + B[2];
        }
        """
        module = compile_c(src)
        with_licm = generate_module_source(module)
        without = generate_module_source(module, licm=False)
        assert with_licm != without
        # The invariant B[2] read is re-executed per trip without LICM.
        assert "if len(range(" in with_licm
        assert "if len(range(" not in without


# ----------------------------------------------------------------------
# Engine plumbing: stats, modes, cache isolation
# ----------------------------------------------------------------------


class TestEnginePlumbing:
    def test_unknown_mode_is_a_clean_error(self):
        from repro.execution.engine import EngineError

        module = compile_c("void k(float A[4]) { }")
        with pytest.raises(EngineError, match="vectorize"):
            ExecutionEngine(module, cache=KernelCache(), vectorize="turbo")

    def test_modes_do_not_share_cache_entries(self):
        from repro.evaluation.kernels import gemm_source

        cache = KernelCache()
        module = compile_c(gemm_source(8, 7, 6))
        ExecutionEngine(module, cache=cache, vectorize="nest")
        ExecutionEngine(module, cache=cache, vectorize="none")
        assert cache.stats.codegen_count == 2

    def test_stats_survive_the_disk_cache(self, tmp_path):
        from repro.evaluation.kernels import gemm_source
        from repro.execution.engine import DiskKernelCache

        module = compile_c(gemm_source(8, 7, 6))
        warm = KernelCache(disk=DiskKernelCache(str(tmp_path)))
        stats = ExecutionEngine(module, cache=warm).vectorize_stats
        assert stats["contractions"] >= 1
        cold = KernelCache(disk=DiskKernelCache(str(tmp_path)))
        rehydrated = ExecutionEngine(module, cache=cold)
        assert cold.stats.codegen_count == 0
        assert rehydrated.vectorize_stats == stats

    def test_stats_snapshot_shape(self):
        module = compile_c("void k(float A[4]) { }")
        stats = _stats_for(module)
        assert set(stats) == {
            "nests_collapsed",
            "nests_partial",
            "nests_bailed",
            "contractions",
            "licm_hoisted",
            "bail_reasons",
            "buffer_plan",
        }


# ----------------------------------------------------------------------
# Property tests: random strided/transposed/offset patterns
# ----------------------------------------------------------------------


def _pattern_module(rank, coeffs, consts, transpose, extents):
    """B[perm(i...)] = A[c0*i0+k0][c1*i1+k1]... + 1.0 over safe bounds."""
    in_dims = [
        coeffs[d] * (extents[d] - 1) + consts[d] + 1 for d in range(rank)
    ]
    module = ModuleOp.create()
    func = FuncOp.create(
        "f",
        [
            memref(*in_dims, f32),
            memref(*[extents[p] for p in transpose], f32),
        ],
    )
    module.append_function(func)
    src, dst = func.arguments
    builder = Builder(InsertionPoint.at_end(func.entry_block))
    loops, ivs = affine_d.build_loop_nest(
        builder, [(0, e) for e in extents]
    )
    body = Builder(InsertionPoint(loops[-1].body, 0))
    load = body.insert(
        affine_d.AffineLoadOp.create(
            src,
            ivs,
            AffineMap(
                rank,
                0,
                [
                    ae.dim(d) * coeffs[d] + consts[d]
                    for d in range(rank)
                ],
            ),
        )
    )
    one = body.insert(std.ConstantOp.create(1.0, f32))
    total = body.insert(std.AddFOp.create(load.result, one.result))
    body.insert(
        affine_d.AffineStoreOp.create(
            total.result,
            dst,
            [ivs[p] for p in transpose],
            AffineMap.identity(rank),
        )
    )
    builder.insert(ReturnOp.create())
    return module


@st.composite
def access_patterns(draw):
    rank = draw(st.integers(min_value=1, max_value=3))
    extents = [
        draw(st.integers(min_value=1, max_value=5)) for _ in range(rank)
    ]
    coeffs = [
        draw(st.integers(min_value=1, max_value=3)) for _ in range(rank)
    ]
    consts = [
        draw(st.integers(min_value=0, max_value=4)) for _ in range(rank)
    ]
    transpose = draw(st.permutations(list(range(rank))))
    return rank, coeffs, consts, list(transpose), extents


class TestAccessPatternProperties:
    @settings(max_examples=40, deadline=None)
    @given(pattern=access_patterns(), seed=st.integers(0, 2**16))
    def test_strided_transposed_offset_accesses_match_interpreter(
        self, pattern, seed
    ):
        module = _pattern_module(*pattern)
        shapes = module_arg_shapes(module, "f")
        reference = make_args(shapes, seed)
        Interpreter(module, max_steps=200_000_000).run("f", *reference)
        for mode in ("nest", "none"):
            args = make_args(shapes, seed)
            ExecutionEngine(
                module, cache=KernelCache(), vectorize=mode
            ).run("f", *args)
            for ref, act in zip(reference, args):
                np.testing.assert_allclose(ref, act, rtol=RTOL, atol=ATOL)

    @settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(1, 6),
        n=st.integers(1, 6),
        k=st.integers(1, 6),
        seed=st.integers(0, 2**16),
    )
    def test_random_shape_gemm_contraction_matches(self, m, n, k, seed):
        from repro.evaluation.kernels import gemm_source

        module = compile_c(gemm_source(m, n, k))
        shapes = module_arg_shapes(module, "gemm")
        reference = make_args(shapes, seed)
        Interpreter(module, max_steps=200_000_000).run("gemm", *reference)
        args = make_args(shapes, seed)
        ExecutionEngine(module, cache=KernelCache()).run("gemm", *args)
        for ref, act in zip(reference, args):
            np.testing.assert_allclose(ref, act, rtol=RTOL, atol=ATOL)


# ----------------------------------------------------------------------
# New safe ops inside collapsed bands
# ----------------------------------------------------------------------


class TestWidenedSafeOps:
    def _module_with_body(self, build_value):
        module = ModuleOp.create()
        func = FuncOp.create("f", [memref(8, f32), memref(8, f32)])
        module.append_function(func)
        src, dst = func.arguments
        builder = Builder(InsertionPoint.at_end(func.entry_block))
        loops, ivs = affine_d.build_loop_nest(builder, [(0, 8)])
        body = Builder(InsertionPoint(loops[-1].body, 0))
        load = body.insert(affine_d.AffineLoadOp.create(src, [ivs[0]]))
        value = build_value(body, load.result)
        body.insert(affine_d.AffineStoreOp.create(value, dst, [ivs[0]]))
        builder.insert(ReturnOp.create())
        return module

    def test_negf_vectorizes(self):
        module = self._module_with_body(
            lambda body, v: body.insert(std.NegFOp.create(v)).result
        )
        stats = _check_all_modes(module, "f")["nest"]
        assert stats["nests_collapsed"] == 1

    def test_cmpf_select_clamp_vectorizes_to_where(self):
        def clamp(body, v):
            limit = body.insert(std.ConstantOp.create(0.25, f32))
            compare = body.insert(std.CmpFOp.create("olt", v, limit.result))
            return body.insert(
                std.SelectOp.create(compare.result, v, limit.result)
            ).result

        module = self._module_with_body(clamp)
        stats = _check_all_modes(module, "f")["nest"]
        assert stats["nests_collapsed"] == 1
        assert "_np.where" in generate_module_source(module)
