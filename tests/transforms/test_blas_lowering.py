"""BLAS dialect lowering to llvm.call and its execution."""

import numpy as np
import pytest

from repro.dialects import blas as blas_d
from repro.execution import (
    ExecutionEngine,
    Interpreter,
    InterpreterError,
    KernelCache,
)
from repro.ir import (
    OP_REGISTRY,
    Builder,
    Context,
    FuncOp,
    InsertionPoint,
    ModuleOp,
    PassManager,
    ReturnOp,
    f32,
    memref,
    print_module,
    verify,
)
from repro.ir.parser import parse_module
from repro.met import compile_c
from repro.transforms import LowerBlasToLLVMPass

from ..filecheck import filecheck
from ..conftest import assert_close, interpreter_source, random_arrays


def _blas_module():
    module = ModuleOp.create()
    func = FuncOp.create(
        "f", [memref(4, 5, f32), memref(5, 6, f32), memref(4, 6, f32)]
    )
    module.append_function(func)
    builder = Builder(InsertionPoint.at_end(func.entry_block))
    builder.insert(blas_d.SgemmOp.create(*func.arguments))
    builder.insert(ReturnOp.create())
    return module


class TestBlasToLLVM:
    def test_lowering_emits_library_call(self):
        module = _blas_module()
        LowerBlasToLLVMPass().run(module, Context())
        verify(module, Context())
        filecheck(print_module(module), """
          CHECK-LABEL: func @f
          CHECK-NOT: blas.sgemm
          CHECK: llvm.call @cblas_sgemm(%arg0, %arg1, %arg2)
        """)

    def test_lowered_call_executes_via_library_shim(self):
        module = _blas_module()
        LowerBlasToLLVMPass().run(module, Context())
        a, b = random_arrays(0, (4, 5), (5, 6))
        c = np.zeros((4, 6), np.float32)
        Interpreter(module).run("f", a, b, c)
        assert_close(c, a @ b)

    def test_unknown_symbol_rejected_at_runtime(self):
        from repro.dialects import llvm as llvm_d

        module = ModuleOp.create()
        func = FuncOp.create("f", [])
        module.append_function(func)
        func.entry_block.append(llvm_d.CallOp.create("dlopen_mystery", []))
        func.entry_block.append(ReturnOp.create())
        with pytest.raises(InterpreterError):
            Interpreter(module).run("f")

    def test_sgemv_symbol(self):
        module = ModuleOp.create()
        func = FuncOp.create(
            "f", [memref(4, 5, f32), memref(5, f32), memref(4, f32)]
        )
        module.append_function(func)
        builder = Builder(InsertionPoint.at_end(func.entry_block))
        builder.insert(blas_d.SgemvOp.create(*func.arguments))
        builder.insert(ReturnOp.create())
        LowerBlasToLLVMPass().run(module, Context())
        assert "cblas_sgemv" in print_module(module)
        a, x = random_arrays(1, (4, 5), (5,))
        y = np.zeros(4, np.float32)
        Interpreter(module).run("f", a, x, y)
        assert_close(y, a @ x)

    def test_every_paper_kernel_agrees_with_the_met_module(self):
        # Each library op keeps what it means on its llvm.call: built by
        # mlt-blas, lowered, and printed -> parsed, every kernel computes
        # what its MET module does, in the interpreter and the engine.
        from repro.evaluation import PAPER_BENCHMARKS, get_kernel
        from repro.evaluation.pipelines import build_module
        from repro.fuzzing.oracle import (
            execute_snapshot,
            make_args,
            module_arg_shapes,
        )

        symbols = set()
        for name in sorted(PAPER_BENCHMARKS):
            source = interpreter_source(name)
            func = get_kernel(name).func_name
            reference = compile_c(source)
            lowered = build_module(source, "mlt-blas")
            PassManager(Context()).add(LowerBlasToLLVMPass()).run(lowered)
            verify(lowered, Context())
            assert not any(op.dialect == "blas" for op in lowered.walk())
            symbols.update(
                op.callee for op in lowered.walk() if op.name == "llvm.call"
            )
            reparsed = parse_module(print_module(lowered))
            assert print_module(reparsed) == print_module(lowered), name
            args = make_args(module_arg_shapes(reference, func), seed=3)
            expected = execute_snapshot(reference, func, args)
            compiled = [a.copy() for a in args]
            ExecutionEngine(reparsed, cache=KernelCache()).run(func, *compiled)
            for actual in (execute_snapshot(reparsed, func, args), compiled):
                for want, got in zip(expected, actual):
                    assert_close(want, got, rtol=2e-3)
        assert symbols == {
            cls.SYMBOL
            for cls in OP_REGISTRY.values()
            if issubclass(cls, blas_d.LibraryCall)
        }
