"""Canonicalization: folding, DCE, empty-loop removal."""

import pytest

from repro.dialects import llvm, std
from repro.dialects.affine import AffineApplyOp, AffineForOp
from repro.ir import (
    AffineMap,
    Builder,
    CallOp,
    FuncOp,
    InsertionPoint,
    MemRefType,
    ModuleOp,
    ReturnOp,
    dim,
    f32,
    index,
)
from repro.ir.types import i1
from repro.transforms import canonicalize


def _func():
    module = ModuleOp.create()
    func = FuncOp.create("f", [])
    module.append_function(func)
    builder = Builder(InsertionPoint.at_end(func.entry_block))
    return module, func, builder


#: One op over ``f(x: f32, y: f32, i: index, j: index, p: i1,
#: buf: memref<4xf32>)``'s arguments, which no fold can touch.
_UNUSED_OPS = {
    "std.negf": lambda x, y, i, j, p, buf: std.NegFOp.create(x),
    "std.cmpf": lambda x, y, i, j, p, buf: std.CmpFOp.create("olt", x, y),
    "std.select": lambda x, y, i, j, p, buf: std.SelectOp.create(p, x, y),
    "std.cmpi": lambda x, y, i, j, p, buf: std.CmpIOp.create("slt", i, j),
    "std.divi": lambda x, y, i, j, p, buf: std.DivIOp.create(i, j),
    "std.remi": lambda x, y, i, j, p, buf: std.RemIOp.create(i, j),
    "std.load": lambda x, y, i, j, p, buf: std.LoadOp.create(buf, [i]),
    "llvm.load": lambda x, y, i, j, p, buf: llvm.LoadOp.create(buf, i),
}


def _func_over_arguments(make_op):
    module = ModuleOp.create()
    func = FuncOp.create(
        "f", [f32, f32, index, index, i1, MemRefType([4], f32)]
    )
    module.append_function(func)
    builder = Builder(InsertionPoint.at_end(func.entry_block))
    builder.insert(make_op(*func.arguments))
    builder.insert(ReturnOp.create())
    return func


@pytest.mark.parametrize("name", sorted(_UNUSED_OPS))
def test_unused_op_declared_to_write_nothing_is_removed(name):
    """Every op declared ``PURE`` or a load goes when unused, not only
    those a list of names happened to hold."""
    func = _func_over_arguments(_UNUSED_OPS[name])
    assert canonicalize(func) == 1
    assert [op.name for op in func.entry_block.operations] == ["func.return"]


def test_unused_op_with_no_declaration_stays():
    """A call declares no effect, so it may do anything: it stays."""
    func = _func_over_arguments(
        lambda x, y, i, j, p, buf: CallOp.create("g", [x], [f32])
    )
    assert canonicalize(func) == 0
    assert func.entry_block.operations[0].name == "func.call"


class TestCanonicalize:
    def test_dead_constant_removed(self):
        module, func, b = _func()
        b.insert(std.ConstantOp.create(1.0, f32))
        b.insert(ReturnOp.create())
        assert canonicalize(func) == 1
        assert len(func.entry_block) == 1

    def test_constant_folding_chain(self):
        module, func, b = _func()
        c1 = b.insert(std.ConstantOp.create(2.0, f32))
        c2 = b.insert(std.ConstantOp.create(3.0, f32))
        add = b.insert(std.AddFOp.create(c1.result, c2.result))
        mul = b.insert(std.MulFOp.create(add.result, add.result))
        b.insert(ReturnOp.create())
        canonicalize(func)
        # Everything folds away: nothing uses the results.
        assert len(func.entry_block) == 1

    def test_integer_folding(self):
        module, func, b = _func()
        c1 = b.insert(std.ConstantOp.create(10, index))
        c2 = b.insert(std.ConstantOp.create(3, index))
        div = b.insert(std.DivIOp.create(c1.result, c2.result))
        loop = b.insert(AffineForOp.create(0, 4))
        # keep div alive through a store-like use inside the loop
        from repro.dialects.std import AllocOp, StoreOp
        from repro.ir import MemRefType

        alloc = func.entry_block.insert(
            0, AllocOp.create(MemRefType([16], index))
        )
        loop.body.insert(
            0,
            StoreOp.create(div.result, alloc.result, [div.result]),
        )
        b.insert(ReturnOp.create())
        canonicalize(func)
        consts = [
            op.value
            for op in func.walk()
            if isinstance(op, std.ConstantOp)
        ]
        assert 3 in consts or 10 in consts  # folded 10 // 3
        assert not any(op.name == "std.divi" for op in func.walk())

    def test_empty_loop_removed(self):
        module, func, b = _func()
        b.insert(AffineForOp.create(0, 100))
        b.insert(ReturnOp.create())
        canonicalize(func)
        assert not any(isinstance(op, AffineForOp) for op in func.walk())

    def test_zero_trip_loop_removed(self):
        module, func, b = _func()
        loop = b.insert(AffineForOp.create(5, 5))
        inner = std.ConstantOp.create(1.0, f32)
        loop.body.insert(0, inner)
        b.insert(ReturnOp.create())
        canonicalize(func)
        assert not any(isinstance(op, AffineForOp) for op in func.walk())

    def test_affine_apply_folds(self):
        module, func, b = _func()
        c = b.insert(std.ConstantOp.create(5, index))
        apply_op = b.insert(
            AffineApplyOp.create(AffineMap(1, 0, [dim(0) * 2 + 1]), [c.result])
        )
        from repro.dialects.std import AllocOp, StoreOp
        from repro.ir import MemRefType

        alloc = b.insert(AllocOp.create(MemRefType([16], index)))
        b.insert(StoreOp.create(apply_op.result, alloc.result, [c.result]))
        b.insert(ReturnOp.create())
        canonicalize(func)
        consts = {
            op.value
            for op in func.walk()
            if isinstance(op, std.ConstantOp)
        }
        assert 11 in consts

    def test_stores_never_removed(self):
        from repro.dialects.std import AllocOp, StoreOp
        from repro.ir import MemRefType

        module, func, b = _func()
        alloc = b.insert(AllocOp.create(MemRefType([4], f32)))
        c = b.insert(std.ConstantOp.create(1.0, f32))
        i = b.insert(std.ConstantOp.create(0, index))
        b.insert(StoreOp.create(c.result, alloc.result, [i.result]))
        b.insert(ReturnOp.create())
        canonicalize(func)
        assert any(op.name == "std.store" for op in func.walk())
