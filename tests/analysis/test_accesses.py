"""Memory-access decomposition over IV values."""

import pytest

from repro.analysis import (
    access_function,
    collect_accesses,
    enclosing_loops,
)
from repro.analysis.accesses import effects_known
from repro.dialects.affine import AffineForOp, AffineLoadOp, AffineStoreOp
from repro.met import compile_c

from ..conftest import build_gemm_module


def _gemm_parts():
    module = build_gemm_module()
    func = module.functions[0]
    accesses = collect_accesses(func)
    return module, func, accesses


class TestAccessFunction:
    def test_gemm_access_count(self):
        _, _, accesses = _gemm_parts()
        assert len(accesses) == 4  # 3 loads + 1 store

    def test_write_flags(self):
        _, _, accesses = _gemm_parts()
        assert [a.is_write for a in accesses] == [False, False, False, True]

    def test_store_load_same_element(self):
        _, _, accesses = _gemm_parts()
        c_load, store = accesses[0], accesses[3]
        assert store.same_element(c_load)

    def test_different_arrays_not_same_element(self):
        _, _, accesses = _gemm_parts()
        assert not accesses[1].same_element(accesses[2])

    def test_coefficients(self):
        module = compile_c(
            """
            void f(float A[64]) {
              for (int i = 0; i < 8; i++)
                A[i * 4 + 1] = 0.0f;
            }
            """,
            distribute=False,
        )
        store = next(
            op for op in module.walk() if isinstance(op, AffineStoreOp)
        )
        access = access_function(store)
        sub = access.subscripts[0]
        loop = next(
            op for op in module.walk() if isinstance(op, AffineForOp)
        )
        assert sub.coeff(loop.induction_var) == 4
        assert sub.constant == 1

    def test_non_access_op_returns_none(self):
        module = build_gemm_module()
        mul = next(op for op in module.walk() if op.name == "std.mulf")
        assert access_function(mul) is None

    def test_ivs_used(self):
        _, _, accesses = _gemm_parts()
        a_access = accesses[1]
        assert len(a_access.ivs_used()) == 2

    def test_constant_subscript(self):
        module = compile_c(
            "void f(float A[4]) { for (int i = 0; i < 4; i++) A[2] = 0.0f; }",
            distribute=False,
        )
        store = next(
            op for op in module.walk() if isinstance(op, AffineStoreOp)
        )
        access = access_function(store)
        assert access.subscripts[0].is_constant()


class TestHelpers:
    def test_enclosing_loops_order(self):
        module = build_gemm_module()
        store = next(
            op for op in module.walk() if isinstance(op, AffineStoreOp)
        )
        loops = enclosing_loops(store)
        assert len(loops) == 3
        assert loops[2].parent_op is loops[1]



@pytest.mark.parametrize(
    "passes, unknown",
    [
        # loops, affine accesses and scalar arithmetic: all known
        ((), {"func.return"}),
        # structured ops and library calls may touch any memory
        (
            ("raise-affine-to-linalg", "convert-linalg-to-blas"),
            {"blas.sgemm", "linalg.fill", "func.return"},
        ),
        # std accesses and scf loops are not what the analyses enumerate
        (
            ("lower-affine",),
            {"scf.for", "scf.yield", "std.load", "std.store", "func.return"},
        ),
    ],
)
def test_declared_effects_known(passes, unknown):
    from repro.evaluation.kernels import gemm_source
    from repro.tool import build_pipeline

    module = compile_c(gemm_source(4, 4, 4))
    build_pipeline(list(passes)).run(module)
    func = module.functions[0]
    ops = [op for op in func.walk() if op is not func]
    assert {op.name for op in ops if not effects_known(op)} == unknown
