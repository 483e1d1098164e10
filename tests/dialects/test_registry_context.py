"""Dialect registry, context, and abstraction ladder."""

import pytest

from repro.dialects import ABSTRACTION_LEVEL, all_dialects
from repro.ir import OP_REGISTRY, READ, WRITE, Context, Dialect


class TestContext:
    def test_all_dialects_loaded_by_default(self):
        ctx = Context()
        for name in ("std", "affine", "scf", "linalg", "blas", "llvm"):
            assert ctx.is_loaded(name)

    def test_builtin_and_func_always_present(self):
        ctx = Context()
        assert ctx.is_loaded("builtin")
        assert ctx.is_loaded("func")

    def test_empty_context(self):
        ctx = Context(load_all=False)
        assert not ctx.is_loaded("affine")
        ctx.load_dialect(Dialect("affine"))
        assert ctx.is_loaded("affine")

    def test_get_dialect(self):
        ctx = Context()
        assert ctx.get_dialect("linalg") is not None
        assert ctx.get_dialect("nope") is None

    def test_loaded_dialects_sorted(self):
        names = Context().loaded_dialects
        assert names == sorted(names)


class TestDialectOps:
    def test_dialect_lists_its_ops(self):
        Context()  # ensure registration side effects
        affine = Dialect("affine")
        ops = affine.operations
        assert "affine.for" in ops
        assert "affine.matmul" in ops
        assert not any(op.startswith("linalg.") for op in ops)

    def test_all_dialects_enumeration(self):
        names = {d.name for d in all_dialects()}
        assert names == {
            "std",
            "affine",
            "scf",
            "linalg",
            "blas",
            "llvm",
            "transform",
        }


class TestAbstractionLadder:
    def test_raising_goes_up(self):
        # the core premise: linalg sits above affine sits above scf/std
        assert ABSTRACTION_LEVEL["linalg"] > ABSTRACTION_LEVEL["affine"]
        assert ABSTRACTION_LEVEL["affine"] > ABSTRACTION_LEVEL["scf"]
        assert ABSTRACTION_LEVEL["scf"] > ABSTRACTION_LEVEL["std"]
        assert ABSTRACTION_LEVEL["std"] > ABSTRACTION_LEVEL["llvm"]

    def test_blas_at_linalg_level(self):
        assert ABSTRACTION_LEVEL["blas"] == ABSTRACTION_LEVEL["linalg"]


class TestDeclaredOpProperties:
    """Purity, memory effect and flop count are declared once, on the
    op class; every pass reads these declarations."""

    def _names(self, predicate):
        return {name for name, cls in OP_REGISTRY.items() if predicate(cls)}

    def test_declared_pure_ops(self):
        assert self._names(lambda cls: cls.PURE) == {
            "std.constant",
            "std.addf",
            "std.subf",
            "std.mulf",
            "std.divf",
            "std.maxf",
            "std.addi",
            "std.subi",
            "std.muli",
            "std.divi",
            "std.remi",
            "std.negf",
            "std.cmpf",
            "std.cmpi",
            "std.select",
            "std.index_cast",
            "affine.apply",
        }

    @pytest.mark.parametrize(
        "effect, mnemonic", [(READ, "load"), (WRITE, "store")]
    )
    def test_declared_scalar_access_effects(self, effect, mnemonic):
        assert self._names(lambda cls: cls.MEMORY_EFFECT == effect) == {
            f"{dialect}.{mnemonic}" for dialect in ("affine", "std", "llvm")
        }

    def test_declared_flops(self):
        assert {
            name: cls.FLOPS for name, cls in OP_REGISTRY.items() if cls.FLOPS
        } == dict.fromkeys(
            ("std.addf", "std.subf", "std.mulf", "std.divf", "std.maxf"), 1
        )

    def test_declared_pure_ops_have_no_memory_effect(self):
        assert not self._names(
            lambda cls: cls.PURE and cls.MEMORY_EFFECT is not None
        )
