"""Audit: the interpreter handler table must cover every op the
dialects can construct.

Anything registered in OP_REGISTRY is constructible by some pipeline
(the fuzzer builds modules at every level), so every op must either
resolve to a planner in ``_PLANNERS`` (its own row, or a base class's)
or be explicitly accounted for as a structural container.  A new
dialect op without a handler fails this audit instead of surfacing
later as an ``unhandled op`` crash mid-fuzz.
"""

import numpy as np
import pytest

import repro.dialects  # noqa: F401 — populates OP_REGISTRY
from repro.execution import Interpreter
from repro.execution.interpreter import _PLANNERS, InterpreterError
from repro.ir import (
    Block,
    Builder,
    Context,
    FuncOp,
    InsertionPoint,
    ModuleOp,
    ReturnOp,
    f32,
    memref,
    verify,
)
from repro.ir.core import OP_REGISTRY

from .test_engine_coverage import STRUCTURAL_OPS, dead_rows, unresolved


class TestHandlerCoverage:
    def test_every_registered_op_is_executable(self):
        missing = unresolved(_PLANNERS, OP_REGISTRY) - STRUCTURAL_OPS
        assert not missing, (
            f"dialect ops without an interpreter handler: {sorted(missing)}; "
            "add a handler (or a clean-diagnostic stub) to "
            "execution/interpreter.py"
        )

    def test_no_stale_handlers(self):
        stale = dead_rows(_PLANNERS)
        assert not stale, f"handlers no registered op reaches: {stale}"


class TestNewHandlers:
    def test_llvm_unreachable_raises_clean_diagnostic(self):
        from repro.dialects import llvm as llvm_d

        module = ModuleOp.create()
        func = FuncOp.create("f", [])
        module.append_function(func)
        entry = func.entry_block
        entry.append(llvm_d.UnreachableOp())
        block = func.regions[0].add_block(Block())
        block.append(ReturnOp.create())
        with pytest.raises(InterpreterError, match="unreachable"):
            Interpreter(module).run("f")

    def test_linalg_yield_is_noop_in_generic_body(self):
        """linalg.generic executes its body ops; a stray linalg.yield
        dispatched directly must not crash."""
        from repro.dialects import linalg as linalg_d

        module = ModuleOp.create()
        func = FuncOp.create("f", [memref(4, f32), memref(4, f32)])
        module.append_function(func)
        src, dst = func.arguments
        builder = Builder(InsertionPoint.at_end(func.entry_block))
        from repro.ir import AffineMap

        generic = linalg_d.GenericOp.create(
            inputs=[src],
            outputs=[dst],
            indexing_maps=[AffineMap.identity(1), AffineMap.identity(1)],
            iterator_types=["parallel"],
        )
        body = generic.body
        from repro.dialects import std

        two = Builder(InsertionPoint(body, 0)).insert(
            std.MulFOp.create(body.arguments[0], body.arguments[0])
        )
        body.append(linalg_d.LinalgYieldOp.create([two.result]))
        builder.insert(generic)
        builder.insert(ReturnOp.create())
        verify(module, Context())

        a = np.arange(4, dtype=np.float32)
        b = np.zeros(4, np.float32)
        Interpreter(module).run("f", a, b)
        np.testing.assert_allclose(b, a * a)

    def test_branch_outside_cfg_is_malformed_not_unhandled(self):
        from repro.dialects import llvm as llvm_d

        module = ModuleOp.create()
        func = FuncOp.create("f", [])
        module.append_function(func)
        entry = func.entry_block
        dest = Block()
        entry.append(llvm_d.BrOp.create(dest))
        with pytest.raises(InterpreterError, match="malformed IR"):
            Interpreter(module).run("f")
