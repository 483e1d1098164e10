"""SCF -> Affine promotion (lifting from SCF, paper footnote 1)."""

import numpy as np
import pytest

from repro.dialects.affine import AffineForOp
from repro.execution import Interpreter
from repro.ir import Context, verify
from repro.met import compile_c
from repro.tactics import raise_affine_to_linalg
from repro.transforms import (
    lower_affine_to_scf,
    promote_scf_to_affine,
)

from ..conftest import assert_close, random_arrays

GEMM_SRC = """
void gemm(float A[6][7], float B[7][8], float C[6][8]) {
  for (int i = 0; i < 6; i++)
    for (int j = 0; j < 8; j++)
      for (int k = 0; k < 7; k++)
        C[i][j] += A[i][k] * B[k][j];
}
"""


def _scf_gemm():
    """A gemm at the SCF level (affine structure deliberately erased)."""
    module = compile_c(GEMM_SRC)
    for func in module.functions:
        lower_affine_to_scf(func)
    return module


class TestPromotion:
    def test_loops_promoted(self):
        module = _scf_gemm()
        promoted = promote_scf_to_affine(module.functions[0])
        assert promoted == 3
        assert not any(op.name == "scf.for" for op in module.walk())
        assert any(isinstance(op, AffineForOp) for op in module.walk())
        verify(module, Context())

    def test_accesses_promoted_to_affine(self):
        module = _scf_gemm()
        promote_scf_to_affine(module.functions[0])
        assert not any(op.name == "std.load" for op in module.walk())
        assert any(op.name == "affine.load" for op in module.walk())

    def test_promotion_roundtrip_semantics(self):
        ref = compile_c(GEMM_SRC)
        promoted = _scf_gemm()
        promote_scf_to_affine(promoted.functions[0])
        A, B = random_arrays(0, (6, 7), (7, 8))
        C1 = np.zeros((6, 8), np.float32)
        C2 = np.zeros((6, 8), np.float32)
        Interpreter(ref).run("gemm", A, B, C1)
        Interpreter(promoted).run("gemm", A, B, C2)
        assert_close(C1, C2)

    def test_lifting_from_scf_enables_tactics(self):
        """The paper's footnote: MLT can lift from SCF — by promoting
        to Affine first, the GEMM tactic fires on SCF input."""
        module = _scf_gemm()
        promote_scf_to_affine(module.functions[0])
        stats = raise_affine_to_linalg(module)
        assert stats.callsites.get("GEMM") == 1

    def test_symbolic_scf_bound_not_promoted(self):
        src = """
        void f(float A[32], int n) {
          for (int i = 0; i < n; i++)
            A[i] = 0.0f;
        }
        """
        module = compile_c(src)
        for func in module.functions:
            lower_affine_to_scf(func)
        promoted = promote_scf_to_affine(module.functions[0])
        assert promoted == 0
        assert any(op.name == "scf.for" for op in module.walk())

    def test_strided_access_recovered(self):
        src = """
        void f(float A[64]) {
          for (int i = 0; i < 8; i++)
            A[i * 4 + 2] = 1.0f;
        }
        """
        module = compile_c(src)
        for func in module.functions:
            lower_affine_to_scf(func)
        promote_scf_to_affine(module.functions[0])
        loads_stores = [
            op for op in module.walk() if op.name == "affine.store"
        ]
        assert len(loads_stores) == 1
        a = np.zeros(64, np.float32)
        Interpreter(module).run("f", a)
        assert list(np.nonzero(a)[0]) == [2, 6, 10, 14, 18, 22, 26, 30]


class TestPassReport:
    """``raise-scf-to-affine`` reports the changes of the function it
    ran on, whatever other promotions run in the process meanwhile:
    serving runs units on executor threads, and a falsy report skips
    ``verify_each`` and is believed by the pass cache."""

    def test_report_survives_an_interleaved_promotion(self, monkeypatch):
        from repro.transforms import promotion

        target = _scf_gemm().functions[0]
        # Already affine: promoting it again changes nothing.
        bystander = compile_c(GEMM_SRC).functions[0]
        original = promotion.promote_scf_to_affine

        def interleaved(func):
            promoted = original(func)
            original(bystander)  # another unit's promotion lands here
            return promoted

        monkeypatch.setattr(promotion, "promote_scf_to_affine", interleaved)
        reported = promotion.SCFToAffinePass().run_on_function(
            target, Context()
        )
        assert reported
        assert not any(op.name == "scf.for" for op in target.walk())

    def test_unchanged_function_reports_nothing(self):
        from repro.transforms import SCFToAffinePass

        func = compile_c(GEMM_SRC).functions[0]
        assert not SCFToAffinePass().run_on_function(func, Context())
