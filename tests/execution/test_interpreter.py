"""Interpreter: every dialect executes with numpy semantics."""

import numpy as np
import pytest

from repro.dialects import blas as blas_d
from repro.dialects import linalg as linalg_d
from repro.dialects import std
from repro.execution import Interpreter, InterpreterError, run_function
from repro.ir import (
    Builder,
    FuncOp,
    InsertionPoint,
    ModuleOp,
    OpTable,
    ReturnOp,
    f32,
    memref,
)
from repro.ir.parser import parse_module
from repro.met import compile_c

from ..conftest import assert_close, random_arrays


def _module_of(build, arg_shapes, results=()):
    module = ModuleOp.create()
    func = FuncOp.create("f", [memref(*s, f32) for s in arg_shapes], results)
    module.append_function(func)
    b = Builder(InsertionPoint.at_end(func.entry_block))
    ret = build(b, func.arguments)
    b.insert(ReturnOp.create(ret if isinstance(ret, list) else []))
    return module


class TestScalarExecution:
    def test_arith_chain(self):
        module = parse_module(
            """
            func @f() -> (f32) {
              %0 = std.constant 2.0 : f32
              %1 = std.constant 3.0 : f32
              %2 = std.addf %0, %1 : f32
              %3 = std.mulf %2, %2 : f32
              %4 = std.subf %3, %0 : f32
              %5 = std.divf %4, %1 : f32
              return %5 : f32
            }
            """
        )
        (result,) = run_function(module, "f")
        assert result == pytest.approx((25.0 - 2.0) / 3.0)

    def test_f32_rounding_modeled(self):
        module = parse_module(
            """
            func @f() -> (f32) {
              %0 = std.constant 16777216.0 : f32
              %1 = std.constant 1.0 : f32
              %2 = std.addf %0, %1 : f32
              return %2 : f32
            }
            """
        )
        (result,) = run_function(module, "f")
        assert result == 16777216.0  # 2^24 + 1 rounds down in f32

    def test_integer_ops(self):
        module = parse_module(
            """
            func @f() {
              %0 = std.constant 7 : index
              %1 = std.constant 2 : index
              %2 = std.divi %0, %1 : index
              %3 = std.remi %0, %1 : index
              return
            }
            """
        )
        run_function(module, "f")

    def test_unknown_function(self):
        module = ModuleOp.create()
        with pytest.raises(InterpreterError):
            run_function(module, "nope")

    def test_arity_mismatch(self):
        module = parse_module("func @f(%arg0: memref<4xf32>) { return }")
        with pytest.raises(InterpreterError):
            run_function(module, "f")

    def test_non_array_argument_rejected(self):
        module = parse_module("func @f(%arg0: memref<4xf32>) { return }")
        with pytest.raises(InterpreterError):
            run_function(module, "f", 3.0)


class TestLoopsAndMemory:
    def test_affine_loop_with_step(self):
        module = compile_c(
            """
            void f(float A[10]) {
              for (int i = 0; i < 10; i += 3)
                A[i] = 1.0f;
            }
            """
        )
        a = np.zeros(10, np.float32)
        run_function(module, "f", a)
        assert list(np.nonzero(a)[0]) == [0, 3, 6, 9]

    def test_symbolic_bound_execution(self):
        module = compile_c(
            """
            void f(float A[10], int n) {
              for (int i = 0; i < n; i++)
                A[i] = 2.0f;
            }
            """
        )
        a = np.zeros(10, np.float32)
        run_function(module, "f", a, 4)
        assert a.sum() == 8.0

    def test_local_alloc_zero_initialized(self):
        module = compile_c(
            """
            void f(float A[4]) {
              float T[4];
              for (int i = 0; i < 4; i++)
                A[i] = T[i] + 1.0f;
            }
            """
        )
        a = np.zeros(4, np.float32)
        run_function(module, "f", a)
        assert (a == 1.0).all()

    def test_step_budget_enforced(self):
        module = compile_c(
            """
            void f(float A[4]) {
              for (int i = 0; i < 4; i++)
                for (int j = 0; j < 4; j++)
                  A[i] += 1.0f;
            }
            """
        )
        interp = Interpreter(module, max_steps=10)
        with pytest.raises(InterpreterError):
            interp.run("f", np.zeros(4, np.float32))

    def test_function_call(self):
        module = compile_c(
            "void inner(float A[4]) { for (int i = 0; i < 4; i++) A[i] = 5.0f; }"
        )
        outer = FuncOp.create("outer", [memref(4, f32)])
        module.append_function(outer)
        from repro.ir.builtin import CallOp

        outer.entry_block.append(
            CallOp.create("inner", [outer.arguments[0]])
        )
        outer.entry_block.append(ReturnOp.create())
        a = np.zeros(4, np.float32)
        run_function(module, "outer", a)
        assert (a == 5.0).all()


class TestLinalgExecution:
    def test_matmul_accumulates(self):
        module = _module_of(
            lambda b, args: b.insert(linalg_d.MatmulOp.create(*args)),
            [(3, 4), (4, 5), (3, 5)],
        )
        a, b_, c = random_arrays(0, (3, 4), (4, 5), (3, 5))
        expected = c + a @ b_
        run_function(module, "f", a, b_, c)
        assert_close(c, expected)

    def test_blas_sgemm_alpha_beta(self):
        module = _module_of(
            lambda b, args: b.insert(
                blas_d.SgemmOp.create(*args, alpha=2.0, beta=0.5)
            ),
            [(3, 4), (4, 5), (3, 5)],
        )
        a, b_, c = random_arrays(1, (3, 4), (4, 5), (3, 5))
        expected = 0.5 * c + 2.0 * (a @ b_)
        run_function(module, "f", a, b_, c)
        assert_close(c, expected)

    def test_sgemv_trans(self):
        module = _module_of(
            lambda b, args: b.insert(
                blas_d.SgemvOp.create(*args, trans=True)
            ),
            [(3, 4), (3,), (4,)],
        )
        a, x, y = random_arrays(2, (3, 4), (3,), (4,))
        expected = y + a.T @ x
        run_function(module, "f", a, x, y)
        assert_close(y, expected)

    def test_transpose(self):
        module = _module_of(
            lambda b, args: b.insert(
                linalg_d.TransposeOp.create(args[0], args[1], [1, 2, 0])
            ),
            [(2, 3, 4), (3, 4, 2)],
        )
        src, dst = random_arrays(3, (2, 3, 4), (3, 4, 2))
        run_function(module, "f", src, dst)
        assert_close(dst, np.transpose(src, [1, 2, 0]))

    def test_reshape(self):
        module = _module_of(
            lambda b, args: b.insert(
                linalg_d.ReshapeOp.create(args[0], args[1], [[0, 1], [2]])
            ),
            [(3, 4, 5), (12, 5)],
        )
        src, dst = random_arrays(4, (3, 4, 5), (12, 5))
        run_function(module, "f", src, dst)
        assert_close(dst, src.reshape(12, 5))

    def test_conv2d_matches_direct(self):
        module = _module_of(
            lambda b, args: b.insert(linalg_d.Conv2DNchwOp.create(*args)),
            [(1, 3, 8, 8), (4, 3, 3, 3), (1, 4, 6, 6)],
        )
        src, kern = random_arrays(5, (1, 3, 8, 8), (4, 3, 3, 3))
        out = np.zeros((1, 4, 6, 6), np.float32)
        run_function(module, "f", src, kern, out)
        ref = np.zeros_like(out)
        for f_ in range(4):
            for y in range(6):
                for x in range(6):
                    ref[0, f_, y, x] = (
                        src[0, :, y:y + 3, x:x + 3] * kern[f_]
                    ).sum()
        assert_close(out, ref, rtol=1e-3)

    def test_fill(self):
        def build(b, args):
            c = b.insert(std.ConstantOp.create(3.0, f32))
            b.insert(linalg_d.FillOp.create(c.result, args[0]))

        module = _module_of(build, [(4, 4)])
        a = np.ones((4, 4), np.float32)
        run_function(module, "f", a)
        assert (a == 3.0).all()

    def test_unhandled_op_reported(self):
        module = _module_of(
            lambda b, args: b.create("foo.bar"),
            [(4,)],
        )
        with pytest.raises(InterpreterError):
            run_function(module, "f", np.zeros(4, np.float32))


class TestPlanOnce:
    """``run`` plans each op once, then runs its closure on every
    execution; the plan lives for that one run."""

    SRC = """
    void scale(float A[8]) {
      for (int i = 0; i < 8; i++)
        A[i] = A[i] * 2.0f;
    }
    """

    def _count_planning(self, monkeypatch):
        from repro.execution import interpreter as interp_mod

        planned = []
        counting = {}
        for cls, planner in interp_mod._PLANNERS.rows.items():
            def plan(p, op, planner=planner):
                planned.append(id(op))
                return planner(p, op)

            counting[cls] = plan
        monkeypatch.setattr(interp_mod, "_PLANNERS", OpTable(counting))
        return planned

    def test_each_op_is_planned_once_per_run(self, monkeypatch):
        module = compile_c(self.SRC)
        planned = self._count_planning(monkeypatch)
        interp = Interpreter(module)
        a = np.ones(8, np.float32)
        interp.run("scale", a)
        # 8 iterations, yet each op (bar the top-level return, which the
        # function plan handles itself) is planned exactly once.
        ops = [op for op in module.lookup("scale").walk()]
        assert sorted(planned) == sorted(
            id(op) for op in ops
            if op.name not in ("func.func", "func.return", "affine.yield")
        )
        assert len(planned) == len(set(planned))
        np.testing.assert_array_equal(a, np.full(8, 2.0, np.float32))

    def test_a_plan_lives_for_one_run(self, monkeypatch):
        module = compile_c(self.SRC)
        func = module.lookup("scale")
        state = [sorted(vars(op)) for op in func.walk()]
        planned = self._count_planning(monkeypatch)
        interp = Interpreter(module)
        interp.run("scale", np.ones(8, np.float32))
        per_run = len(planned)
        interp.run("scale", np.ones(8, np.float32))
        assert len(planned) == 2 * per_run
        # Nothing is memoized on the IR, so a mutation between runs is
        # planned afresh and never meets a stale plan.
        assert [sorted(vars(op)) for op in func.walk()] == state
        loop = next(op for op in func.walk() if op.name == "affine.for")
        loop.set_constant_bounds(0, 4)
        a = np.ones(8, np.float32)
        interp.run("scale", a)
        np.testing.assert_array_equal(a[:4], 2.0)
        np.testing.assert_array_equal(a[4:], 1.0)
