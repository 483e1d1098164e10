"""Structural If matcher and scf.if interpretation."""

import numpy as np
import pytest

from repro.dialects import scf, std
from repro.execution import Interpreter
from repro.ir import (
    Builder,
    FuncOp,
    InsertionPoint,
    ModuleOp,
    ReturnOp,
    f32,
    i1,
    index,
    memref,
)

from .matchers import For, If, NestedPatternContext


def _module_with_if():
    module = ModuleOp.create()
    func = FuncOp.create("f", [memref(8, f32)])
    module.append_function(func)
    b = Builder(InsertionPoint.at_end(func.entry_block))
    from repro.dialects.affine import AffineForOp, AffineStoreOp

    loop = b.insert(AffineForOp.create(0, 8))
    inner = Builder(InsertionPoint(loop.body, 0))
    two = inner.insert(std.ConstantOp.create(2, index))
    rem = inner.insert(std.RemIOp.create(loop.induction_var, two.result))
    zero = inner.insert(std.ConstantOp.create(0, index))
    cond = inner.insert(std.CmpIOp.create("eq", rem.result, zero.result))
    if_op = inner.insert(scf.IfOp.create(cond.result))
    value = std.ConstantOp.create(1.0, f32)
    if_op.then_block.insert(0, value)
    if_op.then_block.insert(
        1,
        AffineStoreOp.create(
            value.result, func.arguments[0], [loop.induction_var]
        ),
    )
    b.insert(ReturnOp.create())
    return module, loop, if_op


class TestIfMatcher:
    def test_if_matches(self):
        module, loop, if_op = _module_with_if()
        with NestedPatternContext():
            assert If().match(if_op)
            assert not If().match(loop)

    def test_for_does_not_match_if(self):
        module, loop, if_op = _module_with_if()
        with NestedPatternContext():
            assert not For().match(if_op)

    def test_if_callback(self):
        module, loop, if_op = _module_with_if()
        with NestedPatternContext():
            has_store = If(
                lambda body: any(
                    op.name == "affine.store" for op in body.operations
                )
            )
            assert has_store.match(if_op)


class TestIfExecution:
    def test_guarded_store(self):
        module, _, _ = _module_with_if()
        a = np.zeros(8, np.float32)
        Interpreter(module).run("f", a)
        assert list(np.nonzero(a)[0]) == [0, 2, 4, 6]
