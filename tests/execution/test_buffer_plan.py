"""The engine's buffer plan (``execution/engine/buffers.py``): which
``std.alloc`` becomes a view, which a producer's own result, and — the
point of this file — every shape for which the zero-filled alloc and
the copy must stay.

The contract: whatever the plan decides, the compiled kernel leaves
every argument *bit-identical* to the interpreter, whose ``std.alloc``
is ``np.zeros`` and whose ``reshape``/``transpose`` always copy.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dialects import linalg as linalg_d
from repro.dialects import std
from repro.evaluation import kernels as K
from repro.evaluation.pipelines import build_module
from repro.execution import (
    EngineError,
    ExecutionEngine,
    Interpreter,
    KernelCache,
)
from repro.execution.engine import runtime
from repro.execution.interpreter import _sgemm as interpreter_sgemm
from repro.fuzzing.oracle import make_args, module_arg_shapes
from repro.ir import (
    Builder,
    Context,
    FuncOp,
    InsertionPoint,
    ModuleOp,
    ReturnOp,
    f32,
    index,
    memref,
    verify,
)
from repro.ir.parser import parse_module
from repro.tactics.contraction import (
    PAPER_CONTRACTIONS,
    parse_contraction_spec,
    transposing_copies,
    ttgt_plan,
)


def _assert_bit_identical(module, func="f", seed=3):
    """Engine vs interpreter on the same inputs; returns the engine."""
    base = make_args(module_arg_shapes(module, func), seed)
    expected = [a.copy() for a in base]
    Interpreter(module).run(func, *expected)
    engine = ExecutionEngine(module, cache=KernelCache())
    actual = [a.copy() for a in base]
    engine.run(func, *actual)
    for pos, (want, got) in enumerate(zip(expected, actual)):
        assert want.dtype == got.dtype and want.tobytes() == got.tobytes(), (
            f"arg {pos} differs\n{engine.source}"
        )
    return engine


def _plan(engine):
    return engine.vectorize_stats["buffer_plan"]


ARGS = "%a: memref<2x3xf32>, %b: memref<6xf32>, %c: memref<3x2xf32>"


def _module(body, args=ARGS):
    module = parse_module(
        "module {\n  func @f(" + args + ") {\n" + body + "\n    return\n  }\n}"
    )
    verify(module, Context())
    return module


ALLOC6 = '%v = "std.alloc"() : () -> (memref<6xf32>)'
FLATTEN_A = (
    "linalg.reshape(%a, %v) {reassociation = [[0, 1]]} : "
    "(memref<2x3xf32>, memref<6xf32>)"
)
UNFLATTEN_A = (
    "linalg.reshape(%v, %a) {reassociation = [[0, 1]]} : "
    "(memref<6xf32>, memref<2x3xf32>)"
)
FILL_A = "%k = std.constant 7.0 : f32\nlinalg.fill(%k, %a) : (f32, memref<2x3xf32>)"
FILL_V = "%k = std.constant 7.0 : f32\nlinalg.fill(%k, %v) : (f32, memref<6xf32>)"
V_TO_B = "linalg.copy(%v, %b) : (memref<6xf32>, memref<6xf32>)"
A_TO_C = (
    "linalg.transpose(%a, %c) {permutation = [1, 0]} : "
    "(memref<2x3xf32>, memref<3x2xf32>)"
)


class TestRulesFire:
    """The three aliasing rules and ``fresh``, so the refusals below
    are refusals of something that otherwise happens."""

    def test_rule_a_two_read_only_names(self):
        engine = _assert_bit_identical(
            _module("\n".join([ALLOC6, FLATTEN_A, V_TO_B, A_TO_C]))
        )
        assert "_rt.reshape_view(" in engine.source
        assert "_np.zeros(" not in engine.source
        assert _plan(engine) == {
            "view": 1, "fresh": 0, "zeros": 0, "reasons": {},
        }

    def test_rule_b_view_takes_over_a_dead_local(self):
        engine = _assert_bit_identical(
            _module(
                "\n".join(
                    [
                        '%t = "std.alloc"() : () -> (memref<3x2xf32>)',
                        "linalg.transpose(%a, %t) {permutation = [1, 0]} : "
                        "(memref<2x3xf32>, memref<3x2xf32>)",
                        ALLOC6,
                        "linalg.reshape(%t, %v) {reassociation = [[0, 1]]} : "
                        "(memref<3x2xf32>, memref<6xf32>)",
                        FILL_A,
                        "%one = std.constant 1.0 : f32",
                        "affine.for %i = 0 to 3 {",
                        "  affine.store %one, %v[%i] : memref<6xf32>",
                        "}",
                        V_TO_B,
                    ]
                )
            )
        )
        assert "_rt.transposed(" in engine.source
        assert "_rt.reshape_view(" in engine.source
        assert _plan(engine)["view"] == _plan(engine)["fresh"] == 1

    def test_rule_c_round_trip_drops_the_copy_back(self):
        engine = _assert_bit_identical(
            _module(
                "\n".join(
                    [ALLOC6, FLATTEN_A, FILL_V.replace("%v)", "%b)"),
                     "%one = std.constant 1.0 : f32",
                     "affine.for %i = 0 to 3 {",
                     "  affine.store %one, %v[%i] : memref<6xf32>",
                     "}",
                     UNFLATTEN_A, A_TO_C]
                )
            )
        )
        assert "_rt.reshape_view(" in engine.source
        assert "_rt.reshape(" not in engine.source
        assert _plan(engine)["view"] == 1

    def test_fill_and_copy_produce_their_own_buffer(self):
        engine = _assert_bit_identical(
            _module(
                "\n".join(
                    [
                        ALLOC6,
                        FILL_V,
                        '%w = "std.alloc"() : () -> (memref<6xf32>)',
                        "linalg.copy(%v, %w) : (memref<6xf32>, memref<6xf32>)",
                        "linalg.copy(%w, %b) : (memref<6xf32>, memref<6xf32>)",
                    ]
                )
            )
        )
        assert "_np.zeros(" not in engine.source
        assert _plan(engine)["fresh"] == 2


class TestViewGuard:
    """``ExecutionEngine.run`` vouches for argument layout; a caller
    that goes straight to the compiled function does not, and rule (c)
    has dropped the copy-back — so the view itself refuses."""

    def _round_trip(self):
        return ExecutionEngine(
            _module("\n".join([ALLOC6, FLATTEN_A, FILL_V, UNFLATTEN_A])),
            cache=KernelCache(),
        )

    def test_strided_argument_past_run_fails_loudly(self):
        kernel = self._round_trip().compiled.functions["f"]
        strided = np.zeros((2, 6), np.float32)[:, ::2]
        with pytest.raises(EngineError, match="C-contiguous float32"):
            kernel(strided, np.zeros(6, np.float32), np.zeros((3, 2), np.float32))
        assert not strided.any()

    def test_argument_of_another_dtype_fails_loudly(self):
        engine = self._round_trip()
        with pytest.raises(EngineError, match="does not match its memref"):
            engine.run(
                "f",
                np.zeros((2, 3), np.float64),
                np.zeros(6, np.float32),
                np.zeros((3, 2), np.float32),
            )


class TestCopyIsKept:
    """One adversarial module per refused shape: the copy (or the
    zero-filled alloc) stays, with the reason, and outputs still match
    the interpreter bit for bit."""

    def _refused(self, body, reason, cls="fresh", **kwargs):
        engine = _assert_bit_identical(_module(body, **kwargs))
        assert "_rt.reshape_view(" not in engine.source, engine.source
        plan = _plan(engine)
        assert plan["view"] == 0 and plan[cls] >= 1
        assert plan["reasons"].get(reason), plan
        return engine

    def test_source_written_while_the_view_is_live(self):
        self._refused(
            "\n".join([ALLOC6, FLATTEN_A, FILL_A, V_TO_B]),
            "source-written-later",
        )

    def test_view_written_while_the_source_is_read_later(self):
        self._refused(
            "\n".join([ALLOC6, FLATTEN_A, FILL_V, V_TO_B, A_TO_C]),
            "view-written",
        )

    def test_argument_view_written_without_copy_back(self):
        # %a is never touched again, but it is the caller's memory.
        self._refused(
            "\n".join([ALLOC6, FLATTEN_A, FILL_V, V_TO_B]), "view-written"
        )

    def test_reshape_inside_a_loop(self):
        engine = self._refused(
            "\n".join(
                [ALLOC6, "affine.for %i = 0 to 2 {", FLATTEN_A, "}", V_TO_B]
            ),
            "in-loop",
            cls="zeros",
        )
        assert "_np.zeros(" in engine.source

    def test_alloc_inside_a_loop(self):
        engine = self._refused(
            "\n".join(
                ["affine.for %i = 0 to 2 {", ALLOC6, FLATTEN_A, V_TO_B, "}"]
            ),
            "in-loop",
            cls="zeros",
        )
        assert "_np.zeros(" in engine.source

    def test_alloc_read_before_its_first_write_reads_zeros(self):
        engine = self._refused(
            "\n".join([ALLOC6, V_TO_B, FLATTEN_A, A_TO_C]),
            "used-before-write",
            cls="zeros",
        )
        assert "_np.zeros(" in engine.source

    def test_partial_first_write_keeps_the_zeros(self):
        # Elements 3..5 are never stored: they must read as 0.
        self._refused(
            "\n".join(
                [ALLOC6, "%one = std.constant 1.0 : f32",
                 "affine.for %i = 0 to 3 {",
                 "  affine.store %one, %v[%i] : memref<6xf32>", "}", V_TO_B]
            ),
            "in-loop",
            cls="zeros",
        )

    def test_alloc_that_is_its_own_input(self):
        self._refused(
            "\n".join(
                [
                    '%s = "std.alloc"() : () -> (memref<3x3xf32>)',
                    "linalg.transpose(%s, %s) {permutation = [1, 0]} : "
                    "(memref<3x3xf32>, memref<3x3xf32>)",
                    "linalg.copy(%s, %d) : (memref<3x3xf32>, memref<3x3xf32>)",
                ]
            ),
            "used-before-write",
            cls="zeros",
            args="%d: memref<3x3xf32>",
        )

    def test_one_alloc_written_by_two_producers(self):
        # The second reshape writes the view: were it %a's memory, %a
        # would end up holding %c.
        engine = self._refused(
            "\n".join(
                [
                    ALLOC6,
                    FLATTEN_A,
                    "linalg.reshape(%c, %v) {reassociation = [[0, 1]]} : "
                    "(memref<3x2xf32>, memref<6xf32>)",
                    V_TO_B,
                ]
            ),
            "view-written",
        )
        assert "_rt.reshaped(" in engine.source  # first producer
        assert "_rt.reshape(" in engine.source  # second one copies into it

    def test_round_trip_with_the_source_read_in_between(self):
        self._refused(
            "\n".join([ALLOC6, FLATTEN_A, FILL_V, A_TO_C, UNFLATTEN_A]),
            "source-written-later",
        )

    def test_round_trip_that_lands_in_another_buffer(self):
        self._refused(
            "\n".join(
                [
                    ALLOC6,
                    FLATTEN_A,
                    FILL_V,
                    "linalg.reshape(%v, %d) {reassociation = [[0, 1]]} : "
                    "(memref<6xf32>, memref<2x3xf32>)",
                ]
            ),
            "view-written",
            args="%a: memref<2x3xf32>, %d: memref<2x3xf32>",
        )

    def test_local_source_read_after_its_view_is_written(self):
        self._refused(
            "\n".join(
                [
                    '%t = "std.alloc"() : () -> (memref<3x2xf32>)',
                    "linalg.transpose(%a, %t) {permutation = [1, 0]} : "
                    "(memref<2x3xf32>, memref<3x2xf32>)",
                    ALLOC6,
                    "linalg.reshape(%t, %v) {reassociation = [[0, 1]]} : "
                    "(memref<3x2xf32>, memref<6xf32>)",
                    FILL_V,
                    V_TO_B,
                    "linalg.copy(%t, %c) : (memref<3x2xf32>, memref<3x2xf32>)",
                ]
            ),
            "view-written",
        )

    def test_view_passed_to_a_call(self):
        module = parse_module(
            """
module {
  func @g(%x: memref<6xf32>) {
    %k = std.constant 7.0 : f32
    linalg.fill(%k, %x) : (f32, memref<6xf32>)
    return
  }
  func @f(%a: memref<2x3xf32>, %b: memref<6xf32>) {
    %v = "std.alloc"() : () -> (memref<6xf32>)
    linalg.reshape(%a, %v) {reassociation = [[0, 1]]} : (memref<2x3xf32>, memref<6xf32>)
    func.call @g(%v) : (memref<6xf32>) -> ()
    linalg.copy(%v, %b) : (memref<6xf32>, memref<6xf32>)
    return
  }
}
"""
        )
        engine = _assert_bit_identical(module)
        assert "_rt.reshape_view(" not in engine.source
        assert _plan(engine)["reasons"] == {"escapes": 1}

    def test_multi_block_function_is_not_planned(self):
        module = parse_module(
            """
module {
  func @f(%a: memref<2x3xf32>, %b: memref<6xf32>) {
    %v = "std.alloc"() : () -> (memref<6xf32>)
    llvm.br ^bb0
    ^bb0:
    linalg.reshape(%a, %v) {reassociation = [[0, 1]]} : (memref<2x3xf32>, memref<6xf32>)
    linalg.copy(%v, %b) : (memref<6xf32>, memref<6xf32>)
    return
  }
}
"""
        )
        engine = _assert_bit_identical(module)
        assert "_np.zeros(" in engine.source
        assert "_rt.reshape(" in engine.source
        assert _plan(engine) == {
            "view": 0, "fresh": 0, "zeros": 1, "reasons": {"cfg": 1},
        }


# ----------------------------------------------------------------------
# Property: random straight-line programs
# ----------------------------------------------------------------------

ARG_SHAPES = [(2, 3), (3, 2), (6,), (6,), (2, 2), (3, 3)]
KINDS = ("alloc", "fill", "poke", "transpose", "reshape", "copy", "matmul")
#: ``None`` (half the time) sends the result to a brand-new alloc: the
#: only shape the plan acts on.  An index picks an existing buffer.
TARGETS = st.one_of(st.none(), st.none(), st.integers(0, 40))


def _count(shape):
    return int(np.prod(shape))


def _random_program(steps):
    """Interpret ``steps`` — ``(kind, source, target, aux)`` tuples — as
    a straight-line function over the six arguments.  ``source`` picks
    among all values so far, ``target`` among those of the shape the op
    needs (``None``: allocate one); a step that does not apply to the
    source's rank is skipped."""
    module = ModuleOp.create()
    func = FuncOp.create("f", [memref(*shape, f32) for shape in ARG_SHAPES])
    module.append_function(func)
    builder = Builder(InsertionPoint.at_end(func.entry_block))
    values = list(func.arguments)

    def alloc(shape):
        values.append(
            builder.insert(std.AllocOp.create(memref(*shape, f32))).result
        )
        return values[-1]

    def target(shape, index):
        if index is None:
            return alloc(shape)
        fitting = [v for v in values if tuple(v.type.shape) == shape]
        return fitting[index % len(fitting)] if fitting else alloc(shape)

    for kind, i, j, k in steps:
        # Half the draws stay among the three newest values, where the
        # views and their sources are.
        src = values[-1 - i % 3] if i % 2 else values[i % len(values)]
        shape = tuple(src.type.shape)
        if kind == "alloc":
            alloc(shape)
        elif kind == "fill":
            const = builder.insert(std.ConstantOp.create(float(k % 5), f32))
            builder.insert(linalg_d.FillOp.create(const.result, src))
        elif kind == "poke":  # a partial write: one element
            const = builder.insert(std.ConstantOp.create(float(k % 5), f32))
            at = [
                builder.insert(std.ConstantOp.create(k % dim, index)).result
                for dim in shape
            ]
            builder.insert(std.StoreOp.create(const.result, src, at))
        elif kind == "copy":
            builder.insert(linalg_d.CopyOp.create(src, target(shape, j)))
        elif kind == "transpose" and len(shape) == 2:
            builder.insert(
                linalg_d.TransposeOp.create(src, target(shape[::-1], j), [1, 0])
            )
        elif kind == "reshape":
            # Collapse 2-d -> 1-d, or expand 1-d -> one of its 2-d forms.
            if len(shape) == 2:
                out = (_count(shape),)
            else:
                forms = [
                    s
                    for s in ARG_SHAPES
                    if len(s) == 2 and _count(s) == shape[0]
                ]
                out = forms[k % len(forms)] if forms else None
            if out is not None:
                builder.insert(
                    linalg_d.ReshapeOp.create(src, target(out, j), [[0, 1]])
                )
        elif kind == "matmul" and len(shape) == 2:
            rhs = [
                v
                for v in values
                if v.type.rank == 2 and v.type.shape[0] == shape[1]
            ]
            b = rhs[k % len(rhs)]
            builder.insert(
                linalg_d.MatmulOp.create(
                    src, b, target((shape[0], b.type.shape[1]), j)
                )
            )
    builder.insert(ReturnOp.create())
    verify(module, Context())
    return module


class TestRandomPrograms:
    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from(KINDS),
                st.integers(0, 40),
                TARGETS,
                st.integers(0, 40),
            ),
            max_size=16,
        ),
        seed=st.integers(0, 5),
    )
    @settings(max_examples=1000, deadline=None)
    def test_engine_matches_interpreter_bit_for_bit(self, steps, seed):
        _assert_bit_identical(_random_program(steps), seed=seed)


# ----------------------------------------------------------------------
# sgemm / sgemv: the one-pass route
# ----------------------------------------------------------------------


class TestOnePassGemm:
    def _operands(self, dtype=np.float32):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((7, 5)).astype(dtype)
        b = rng.standard_normal((5, 9)).astype(dtype)
        c = rng.standard_normal((7, 9)).astype(dtype)
        c[0, 0], c[1, 1], c[2, 2], c[3, 3] = np.nan, np.inf, -0.0, -np.inf
        return a, b, c

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fast_path_is_bit_identical_to_the_general_form(self, dtype):
        a, b, c = self._operands(dtype)
        expected = c.copy()
        interpreter_sgemm(a, b, expected, 1.0, 1.0)
        runtime.sgemm(a, b, c, 1.0, 1.0)
        assert c.tobytes() == expected.tobytes()

    def test_mixed_dtypes_take_the_general_form(self):
        a, b, c = self._operands()
        a = a.astype(np.float64)
        expected = c.copy()
        interpreter_sgemm(a, b, expected)
        runtime.sgemm(a, b, c)
        assert c.dtype == np.float32 and c.tobytes() == expected.tobytes()

    def test_beta_zero_still_multiplies_nan_by_zero(self):
        # BLAS would overwrite C; this repo's sgemm scales it, so NaN
        # and inf in C survive beta == 0.  The fast path must not
        # change that.
        a, b, c = self._operands()
        expected = c.copy()
        with np.errstate(invalid="ignore"):  # inf * 0
            interpreter_sgemm(a, b, expected, 1.0, 0.0)
            runtime.sgemm(a, b, c, 1.0, 0.0)
        assert np.isnan(c[0, 0]) and np.isnan(c[1, 1])
        assert c.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("trans", [False, True])
    def test_sgemv_matches_the_interpreter(self, trans):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((6, 6)).astype(np.float32)
        x = rng.standard_normal(6).astype(np.float32)
        y = rng.standard_normal(6).astype(np.float32)
        expected = y + ((a.T if trans else a) @ x).astype(np.float32)
        runtime.sgemv(a, x, y, trans=trans)
        assert y.tobytes() == expected.tobytes()


# ----------------------------------------------------------------------
# Structural floor under the exec_raised timings (CI: bench-smoke)
# ----------------------------------------------------------------------


def _mid_contraction(spec):
    """``benchmarks/e2e/corpus.py``'s mid size for a contraction."""
    names = sorted({v for part in parse_contraction_spec(spec) for v in part})
    extent = {4: 48, 5: 24, 6: 12}[len(names)]
    return K.contraction_source(spec, {v: extent for v in names})


#: Transposing copies of each raised contraction's TTGT plan, 10 in
#: all: the planner's choice and its price, so a plan that needs more,
#: or a price the IR does not bear out, fails by kernel.
#: ``abc-acd-db``'s two are C's copy in and back out: its output
#: interleaves the GEMM's row and column indices.
TTGT_TRANSPOSES = {
    "ab-acd-dbc": 1,
    "abc-acd-db": 2,
    "abc-ad-bdc": 1,
    "ab-cad-dcb": 1,
    "abc-bda-dc": 1,
    "abcd-aebf-dfce": 2,
    "abcd-aebf-fdec": 2,
}


class TestRaisedContractionsAllocateNothingTheyDontNeed:
    @pytest.mark.parametrize("spec", PAPER_CONTRACTIONS)
    def test_ttgt_costs_its_transposes_and_one_gemm(self, spec):
        module = build_module(_mid_contraction(spec), "mlt-blas")
        transposes = sum(
            op.name == "blas.transpose" for op in module.walk()
        )
        assert transposes == TTGT_TRANSPOSES[spec]
        assert transposes == transposing_copies(ttgt_plan(spec))
        engine = ExecutionEngine(
            module, pipeline="mlt-blas", opt_mode="full", cache=KernelCache()
        )
        source = engine.source
        assert "_np.zeros(" not in source, source
        assert "_rt.reshape(" not in source and "_rt.reshaped(" not in source
        copies = source.count("_rt.transpose(") + source.count(
            "_rt.transposed("
        )
        assert copies == transposes, source
        plan = _plan(engine)
        assert plan["zeros"] == 0 and plan["reasons"] == {}, plan
