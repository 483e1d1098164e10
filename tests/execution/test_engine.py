"""Functional tests for the compiled NumPy execution engine.

The contract under test: for any module the Figure-9 pipelines can
produce, ``ExecutionEngine.run`` mutates the argument buffers exactly
like ``Interpreter.run`` (up to float reassociation tolerance), while
the kernel cache makes repeated compilation free.
"""

import numpy as np
import pytest

from repro.execution import (
    EngineError,
    ExecutionEngine,
    Interpreter,
    InterpreterError,
    KernelCache,
    run_function_compiled,
)
from repro.execution.engine import compile_module, generate_module_source
from repro.fuzzing.oracle import build_pipelines, make_args, module_arg_shapes
from repro.ir import Context
from repro.ir.parser import parse_module
from repro.met import compile_c

GEMM = """
void gemm(float A[8][6], float B[6][7], float C[8][7]) {
  for (int i = 0; i < 8; i++)
    for (int j = 0; j < 7; j++)
      for (int k = 0; k < 6; k++)
        C[i][j] += A[i][k] * B[k][j];
}
"""

STENCIL = """
void stencil(float A[10], float B[10]) {
  for (int i = 1; i < 9; i++)
    B[i] = A[i - 1] + A[i] + A[i + 1];
}
"""

SAXPY = """
void saxpy(float x[16], float y[16]) {
  for (int i = 0; i < 16; i++)
    y[i] = y[i] + 2.0f * x[i];
}
"""


def _run_both(module, func_name, seed=0, pipeline=""):
    shapes = module_arg_shapes(module, func_name)
    args_interp = make_args(shapes, seed)
    args_engine = [a.copy() for a in args_interp]
    Interpreter(module).run(func_name, *args_interp)
    engine = ExecutionEngine(module, pipeline=pipeline, cache=KernelCache())
    engine.run(func_name, *args_engine)
    for ref, act in zip(args_interp, args_engine):
        np.testing.assert_allclose(ref, act, rtol=2e-3, atol=1e-5)
    return engine


class TestBasicAgreement:
    def test_gemm_matches_interpreter(self):
        engine = _run_both(compile_c(GEMM), "gemm")
        # The whole ijk nest is a recognizable contraction — it must
        # collapse into one BLAS-backed contraction call, planned as a
        # matrix product.
        assert engine.vectorize_stats["contractions"] == 1
        assert " @ " in engine.source

    def test_stencil_matches_interpreter(self):
        engine = _run_both(compile_c(STENCIL), "stencil")
        # Elementwise with offset accesses — slice vectorization.
        assert "slice(" in engine.source

    def test_saxpy_read_write_same_buffer(self):
        engine = _run_both(compile_c(SAXPY), "saxpy")
        assert "slice(" in engine.source

    @pytest.mark.parametrize("pipeline", ["mlt-linalg", "mlt-blas", "mlt-affine"])
    def test_gemm_agrees_across_fig9_pipelines(self, pipeline):
        module = compile_c(GEMM, distribute=False)
        for _, _, factory in build_pipelines()[pipeline].flat_passes():
            factory().run(module, Context())
        _run_both(module, "gemm", pipeline=pipeline)

    def test_run_function_compiled_one_shot(self):
        module = compile_c(SAXPY)
        shapes = module_arg_shapes(module, "saxpy")
        args = make_args(shapes, 3)
        expected = [a.copy() for a in args]
        Interpreter(module).run("saxpy", *expected)
        run_function_compiled(module, "saxpy", *args)
        np.testing.assert_allclose(args[1], expected[1], rtol=2e-3, atol=1e-5)


class TestVectorizationFallbacks:
    def test_loop_carried_dependence_falls_back_to_scalar_loop(self):
        src = """
        void scan(float A[12]) {
          for (int i = 1; i < 12; i++)
            A[i] = A[i - 1] + A[i];
        }
        """
        engine = _run_both(compile_c(src), "scan")
        # Prefix sums are order-dependent: slice vectorization would be
        # wrong, so the inner loop must stay scalar.
        assert "slice(" not in engine.source

    def test_zero_trip_loop_is_a_noop(self):
        module = compile_c(GEMM)
        engine = ExecutionEngine(module, cache=KernelCache())
        # Guard clause present for vectorized loops.
        assert "> 0:" in engine.source


class TestKernelCache:
    def test_identical_module_hits_cache(self):
        cache = KernelCache()
        first = compile_c(GEMM)
        second = compile_c(GEMM)
        ExecutionEngine(first, pipeline="p", cache=cache)
        assert cache.stats.codegen_count == 1
        ExecutionEngine(second, pipeline="p", cache=cache)
        assert cache.stats.codegen_count == 1
        assert cache.stats.hits == 1

    def test_pipeline_name_is_part_of_the_key(self):
        cache = KernelCache()
        module = compile_c(GEMM)
        ExecutionEngine(module, pipeline="a", cache=cache)
        ExecutionEngine(module, pipeline="b", cache=cache)
        assert cache.stats.codegen_count == 2

    def test_ir_mutation_invalidates(self):
        cache = KernelCache()
        module = compile_c(GEMM)
        ExecutionEngine(module, pipeline="p", cache=cache)
        mutated = compile_c(GEMM.replace("C[i][j] +=", "C[i][j] -="))
        ExecutionEngine(mutated, pipeline="p", cache=cache)
        assert cache.stats.codegen_count == 2

    def test_bounded_eviction(self):
        cache = KernelCache(max_entries=1)
        ExecutionEngine(compile_c(GEMM), pipeline="a", cache=cache)
        ExecutionEngine(compile_c(STENCIL), pipeline="a", cache=cache)
        assert len(cache) == 1
        assert cache.stats.evictions == 1

    def test_clear_resets_stats(self):
        cache = KernelCache()
        ExecutionEngine(compile_c(GEMM), cache=cache)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.codegen_count == 0


class TestErrors:
    def test_unknown_function(self):
        engine = ExecutionEngine(compile_c(GEMM), cache=KernelCache())
        with pytest.raises(EngineError, match="no function @nope"):
            engine.run("nope")

    def test_wrong_arg_count(self):
        engine = ExecutionEngine(compile_c(GEMM), cache=KernelCache())
        with pytest.raises(EngineError, match="expects 3 args"):
            engine.run("gemm", np.zeros((8, 6), np.float32))

    def test_non_ndarray_memref_arg(self):
        engine = ExecutionEngine(compile_c(GEMM), cache=KernelCache())
        with pytest.raises(EngineError, match="expected ndarray"):
            engine.run("gemm", [[1.0]], [[1.0]], [[1.0]])


ADD_ONE = """
void add_one(float A[6][4], float B[6][4]) {
  for (int i = 0; i < 6; i++)
    for (int j = 0; j < 4; j++)
      B[i][j] = A[i][j] + 1.0f;
}
"""


def _add_one(level):
    module = compile_c(ADD_ONE)
    if level == "llvm":
        from repro.transforms import lower_to_llvm

        lower_to_llvm(module)
    return module


@pytest.mark.parametrize("level", ["affine", "llvm"])
@pytest.mark.parametrize(
    "backend, error",
    [
        (lambda m: ExecutionEngine(m, cache=KernelCache()), EngineError),
        (Interpreter, InterpreterError),
    ],
    ids=["engine", "interpreter"],
)
class TestMemrefArgumentLayout:
    """``memref<6x4xf32>`` means 24 row-major contiguous floats.  A
    lowered ``llvm.store`` goes through ``mem.reshape(-1)``, which for
    any other layout is a copy: B used to come back all zeros."""

    def test_contiguous_arguments_run(self, level, backend, error):
        a = np.arange(24, dtype=np.float32).reshape(6, 4)
        b = np.zeros((6, 4), np.float32)
        backend(_add_one(level)).run("add_one", a, b)
        np.testing.assert_array_equal(b, a + 1.0)

    def test_transposed_output_is_rejected_by_name(self, level, backend, error):
        a = np.zeros((6, 4), np.float32)
        b = np.zeros((4, 6), np.float32).T
        with pytest.raises(error, match=r"@add_one: argument 1: .*C-contiguous"):
            backend(_add_one(level)).run("add_one", a, b)

    def test_strided_input_is_rejected(self, level, backend, error):
        a = np.zeros((6, 8), np.float32)[:, ::2]
        b = np.zeros((6, 4), np.float32)
        with pytest.raises(error, match=r"argument 0: .*C-contiguous"):
            backend(_add_one(level)).run("add_one", a, b)

    def test_wrong_shape_is_rejected(self, level, backend, error):
        a = np.zeros((6, 4), np.float32)
        with pytest.raises(error, match=r"argument 1: expected shape \(6, 4\)"):
            backend(_add_one(level)).run(
                "add_one", a, np.zeros((4, 6), np.float32)
            )
        with pytest.raises(error, match=r"argument 0: expected shape"):
            backend(_add_one(level)).run(
                "add_one", np.zeros(24, np.float32), a
            )


MM = """
void mm(float A[8][8], float B[8][8], float C[8][8]) {
  for (int i = 0; i < 8; i++)
    for (int j = 0; j < 8; j++)
      for (int k = 0; k < 8; k++)
        C[i][j] += A[i][k] * B[k][j];
}
"""


def _mm_backends(pipeline):
    """``(backend, message prefix)``: the interpreter and the engine in
    every vectorize mode, on ``mm`` as ``pipeline`` leaves it."""
    module = compile_c(MM, distribute=False)
    if pipeline is not None:
        for _, _, factory in build_pipelines()[pipeline].flat_passes():
            factory().run(module, Context())
    yield Interpreter(module), ""
    for vectorize in ("none", "nest", "innermost"):
        cache = KernelCache()
        yield ExecutionEngine(module, vectorize=vectorize, cache=cache), (
            "engine: "
        )


@pytest.mark.parametrize("pipeline", [None, "mlt-blas"])
class TestAliasedArguments:
    """Distinct memref arguments must not overlap.  ``run("mm", A, B,
    A)`` with integer-valued inputs used to return an answer under both
    backends, a different one per vectorize mode (12 921 apart between
    ``none`` and ``nest``); now both refuse it before anything runs."""

    def test_the_same_array_twice_is_refused(self, pipeline):
        rng = np.random.default_rng(0)
        a = rng.integers(-9, 10, (8, 8)).astype(np.float32)
        b = rng.integers(-9, 10, (8, 8)).astype(np.float32)
        for backend, prefix in _mm_backends(pipeline):
            before = a.copy()
            with pytest.raises((EngineError, InterpreterError)) as info:
                backend.run("mm", a, b, a)
            assert str(info.value) == prefix + "@mm: arguments 0 and 2 overlap"
            np.testing.assert_array_equal(a, before)

    def test_overlapping_views_are_refused_disjoint_ones_run(self, pipeline):
        pool = np.arange(192, dtype=np.float32) % 7
        views = [pool[s : s + 64].reshape(8, 8) for s in (0, 64, 128)]
        expected = [v.copy() for v in views]
        Interpreter(compile_c(MM)).run("mm", *expected)
        for backend, prefix in _mm_backends(pipeline):
            overlapping = pool[96:160].reshape(8, 8)  # half of views[1]
            with pytest.raises((EngineError, InterpreterError)) as info:
                backend.run("mm", views[0], views[1], overlapping)
            assert str(info.value) == prefix + "@mm: arguments 1 and 2 overlap"
            # One buffer, three disjoint views: nothing overlaps.
            shared = pool.copy()
            args = [shared[s : s + 64].reshape(8, 8) for s in (0, 64, 128)]
            backend.run("mm", *args)
            np.testing.assert_allclose(args[2], expected[2], rtol=1e-6)


DOUBLE_VIA_CALL = """
module {
  func @g(%x: memref<6xf32>, %y: memref<6xf32>) {
    affine.for %i = 0 to 6 {
      %a = affine.load %y[%i] : memref<6xf32>
      %b = affine.load %x[%i] : memref<6xf32>
      %c = std.addf %a, %b : f32
      affine.store %c, %y[%i] : memref<6xf32>
    }
    return
  }
  func @f(%v: memref<6xf32>) {
    func.call @g(%v, %v) : (memref<6xf32>, memref<6xf32>) -> ()
    return
  }
}
"""


def test_an_ir_level_call_may_pass_one_buffer_twice():
    """The no-overlap contract binds the entry call only, in both
    backends: a parsed ``func.call @g(%v, %v)`` runs alike under the
    interpreter and the engine in every vectorize mode."""
    module = parse_module(DOUBLE_VIA_CALL)
    v = np.arange(6, dtype=np.float32)
    want = v.copy()
    Interpreter(module).run("f", want)
    np.testing.assert_array_equal(want, 2 * v)
    for vectorize in ("none", "nest", "innermost"):
        got = v.copy()
        engine = ExecutionEngine(module, vectorize=vectorize, cache=KernelCache())
        engine.run("f", got)
        np.testing.assert_array_equal(got, want)


class TestGeneratedSource:
    def test_source_is_deterministic(self):
        module = compile_c(GEMM)
        assert generate_module_source(module) == generate_module_source(module)

    def test_compile_module_exposes_all_functions(self):
        two = GEMM + STENCIL
        compiled = compile_module(compile_c(two))
        assert set(compiled.functions) == {"gemm", "stencil"}

    def test_engine_source_property(self):
        engine = ExecutionEngine(compile_c(STENCIL), cache=KernelCache())
        assert "def _fn_stencil(" in engine.source


FLOAT_BINOPS = ("addf", "subf", "mulf", "divf", "maxf")

ELEMENTWISE_BINOP = """
module {{
  func @f(%a: memref<8xf32>, %b: memref<8xf32>, %c: memref<8xf32>) {{
    affine.for %i = 0 to 8 {{
      %x = affine.load %a[%i] : memref<8xf32>
      %y = affine.load %b[%i] : memref<8xf32>
      %z = std.{op} %x, %y : f32
      affine.store %z, %c[%i] : memref<8xf32>
    }}
    return
  }}
}}
"""


@pytest.mark.parametrize("op", FLOAT_BINOPS)
def test_float_binops_agree_on_nan_and_inf(op):
    """Every float binary op means one thing in the interpreter and in
    each vectorize mode, NaN and infinity operands included: ``maxf``
    propagates NaN from either side, as ``np.maximum`` and MLIR's
    ``arith.maximumf`` do.  (No zero divisors: the interpreter computes
    in Python floats, where ``x / 0.0`` raises.)"""
    module = parse_module(ELEMENTWISE_BINOP.format(op=op))
    nan, inf = float("nan"), float("inf")
    a = np.array([nan, 1, nan, 2, inf, -inf, inf, 5], dtype=np.float32)
    b = np.array([1, nan, nan, 3, inf, inf, -inf, -inf], dtype=np.float32)
    want = np.full(8, 7.0, dtype=np.float32)
    Interpreter(module).run("f", a.copy(), b.copy(), want)
    with np.errstate(invalid="ignore"):
        reference = {
            "addf": a + b, "subf": a - b, "mulf": a * b,
            "divf": a / b, "maxf": np.maximum(a, b),
        }[op]
    np.testing.assert_array_equal(want, reference)
    for vectorize in ("nest", "innermost", "none"):
        got = np.full(8, 7.0, dtype=np.float32)
        engine = ExecutionEngine(module, vectorize=vectorize, cache=KernelCache())
        with np.errstate(invalid="ignore"):
            engine.run("f", a.copy(), b.copy(), got)
        np.testing.assert_array_equal(got, want, err_msg=vectorize)
