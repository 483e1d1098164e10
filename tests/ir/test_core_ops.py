"""Core IR structures: operations, blocks, regions, use-def, cloning."""

import pytest

from repro.dialects import std
from repro.dialects.affine import AffineForOp, AffineLoadOp, AffineStoreOp
from repro.ir import (
    Block,
    Builder,
    FuncOp,
    IRError,
    InsertionPoint,
    ModuleOp,
    OP_REGISTRY,
    Operation,
    Region,
    ReturnOp,
    create_operation,
    f32,
    index,
    memref,
)

from ..conftest import build_gemm_module


def _constants(n):
    return [std.ConstantOp.create(float(i), f32) for i in range(n)]


class TestOperationBasics:
    def test_create_dispatches_registered_class(self):
        op = create_operation("std.constant", result_types=[f32])
        assert isinstance(op, std.ConstantOp)

    def test_unregistered_name_gets_base_class(self):
        op = create_operation("foo.bar")
        assert type(op) is Operation
        assert op.name == "foo.bar"

    def test_dialect_prefix(self):
        assert std.ConstantOp.create(1.0, f32).dialect == "std"

    def test_operands_are_tracked(self):
        c1, c2 = _constants(2)
        add = std.AddFOp.create(c1.result, c2.result)
        assert add.operands == [c1.result, c2.result]
        assert add in c1.result.users

    def test_set_operand_updates_uses(self):
        c1, c2, c3 = _constants(3)
        add = std.AddFOp.create(c1.result, c2.result)
        add.set_operand(0, c3.result)
        assert not c1.result.is_used()
        assert add in c3.result.users

    def test_result_property_single(self):
        c = std.ConstantOp.create(1.0, f32)
        assert c.result is c.results[0]

    def test_result_property_rejects_zero_results(self):
        op = create_operation("foo.noresult")
        with pytest.raises(IRError):
            op.result

    def test_rejects_non_value_operand(self):
        with pytest.raises(IRError):
            Operation(operands=[42])

    def test_attr_helpers(self):
        op = create_operation("foo.bar")
        op.set_attr("x", 3)
        assert op.attr("x").value == 3
        assert op.attr("missing", "dflt") == "dflt"


class TestBlocksAndRegions:
    def test_append_sets_parent(self):
        block = Block()
        op = create_operation("foo.bar")
        block.append(op)
        assert op.parent_block is block

    def test_double_insertion_rejected(self):
        block = Block()
        op = create_operation("foo.bar")
        block.append(op)
        with pytest.raises(IRError):
            Block().append(op)

    def test_remove_clears_parent(self):
        block = Block()
        op = block.append(create_operation("foo.bar"))
        block.remove(op)
        assert op.parent_block is None

    def test_empty_block_is_falsy_but_addable(self):
        region = Region()
        block = Block()
        assert len(block) == 0
        added = region.add_block(block)
        assert added is block  # regression: empty blocks are falsy

    def test_block_arguments(self):
        block = Block([index, f32])
        assert len(block.arguments) == 2
        assert block.arguments[0].type == index

    def test_terminator_detection(self):
        block = Block()
        block.append(create_operation("foo.bar"))
        assert block.terminator is None
        block.append(ReturnOp.create())
        assert block.terminator is not None
        assert len(block.ops_without_terminator()) == 1

    def test_insert_at_keeps_the_insertion_point_on_its_op(self):
        block = Block()
        first, second = _constants(2)
        block.append(first)
        block.append(second)
        builder = Builder(InsertionPoint.before(second))
        hoisted = create_operation("foo.hoisted")
        builder.insert_at(block, 0, hoisted)
        here = builder.insert(create_operation("foo.here"))
        assert block.operations == [hoisted, first, here, second]
        # An insertion point before the position, or in another block,
        # does not move.
        builder.set_insertion_point_before(first)
        other = Block()
        builder.insert_at(other, 0, create_operation("foo.elsewhere"))
        builder.insert_at(block, 3, create_operation("foo.later"))
        assert builder.insert(create_operation("foo.then")) is block.operations[1]


class TestStructuralOps:
    def test_erase_requires_unused_results(self):
        c1, c2 = _constants(2)
        block = Block()
        block.append(c1)
        block.append(c2)
        add = block.append(std.AddFOp.create(c1.result, c2.result))
        with pytest.raises(IRError):
            c1.erase()
        add.erase()
        c1.erase()
        assert len(block) == 1

    def test_replace_all_uses(self):
        c1, c2, c3 = _constants(3)
        add = std.AddFOp.create(c1.result, c2.result)
        c1.replace_all_uses_with([c3.result])
        assert add.operand(0) is c3.result

    def test_move_before_after(self):
        block = Block()
        a = block.append(create_operation("foo.a"))
        b = block.append(create_operation("foo.b"))
        b.move_before(a)
        assert block.operations == [b, a]
        b.move_after(a)
        assert block.operations == [a, b]

    def test_is_before_in_block(self):
        block = Block()
        a = block.append(create_operation("foo.a"))
        b = block.append(create_operation("foo.b"))
        assert a.is_before_in_block(b)
        assert not b.is_before_in_block(a)

    def test_is_before_requires_same_block(self):
        a = Block().append(create_operation("foo.a"))
        b = Block().append(create_operation("foo.b"))
        with pytest.raises(IRError):
            a.is_before_in_block(b)

    def test_walk_preorder(self):
        module = build_gemm_module()
        names = [op.name for op in module.walk()]
        assert names[0] == "builtin.module"
        assert names[1] == "func.func"
        assert names.count("affine.for") == 3
        assert "affine.store" in names

    def test_walk_inner_excludes_self(self):
        module = build_gemm_module()
        assert all(op is not module for op in module.walk_inner())

    def test_is_ancestor(self):
        module = build_gemm_module()
        func = module.functions[0]
        store = next(
            op for op in module.walk() if op.name == "affine.store"
        )
        assert func.is_ancestor_of(store)
        assert not store.is_ancestor_of(func)


class TestCloning:
    def test_clone_module_structure(self):
        module = build_gemm_module()
        clone = module.clone()
        original = [op.name for op in module.walk()]
        cloned = [op.name for op in clone.walk()]
        assert original == cloned

    def test_clone_remaps_internal_values(self):
        module = build_gemm_module()
        clone = module.clone()
        original_values = {
            id(r) for op in module.walk() for r in op.results
        }
        for op in clone.walk():
            for operand in op.operands:
                assert id(operand) not in original_values

    def test_clone_with_external_mapping(self):
        c1, c2 = _constants(2)
        add = std.AddFOp.create(c1.result, c1.result)
        clone = add.clone({c1.result: c2.result})
        assert clone.operands == [c2.result, c2.result]

    def test_clone_preserves_attributes(self):
        c = std.ConstantOp.create(4.0, f32)
        assert c.clone({}).value == 4.0


class TestModuleAndFunc:
    def test_module_lookup(self):
        module = build_gemm_module(name="k1")
        assert module.lookup("k1") is module.functions[0]
        assert module.lookup("nope") is None

    def test_func_arguments_match_type(self):
        func = FuncOp.create("f", [memref(4, f32), index])
        assert len(func.arguments) == 2
        assert func.function_type.inputs == (memref(4, f32), index)

    def test_duplicate_symbols_rejected(self):
        module = ModuleOp.create()
        for _ in range(2):
            func = FuncOp.create("dup", [])
            func.entry_block.append(ReturnOp.create())
            module.append_function(func)
        with pytest.raises(IRError):
            module.verify_()

    def test_registry_contains_all_dialect_ops(self):
        for name in [
            "std.addf",
            "affine.for",
            "affine.matmul",
            "scf.for",
            "linalg.matmul",
            "blas.sgemm",
            "llvm.br",
            "func.func",
        ]:
            assert name in OP_REGISTRY
