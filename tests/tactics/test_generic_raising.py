"""Contractions no named tactic matches end up as ``linalg.generic``.

These are the inputs the deleted ``tactics/generic_raising.py`` pattern
raised or rejected, run through the pipeline that replaced it:
``-raise-affine-to-linalg`` then ``-raise-affine-synth``.
"""

import numpy as np

from repro.dialects.affine import AffineForOp
from repro.dialects.linalg import GenericOp
from repro.execution import Interpreter
from repro.ir import Context, verify
from repro.met import compile_c

from ..conftest import assert_close, raise_two_tiers, random_arrays

#: A contraction with transposed output: no named tactic matches it.
TRANSPOSED_OUT = """
void f(float A[5][6], float B[6][7], float C[7][5]) {
  for (int i = 0; i < 5; i++)
    for (int j = 0; j < 7; j++)
      for (int k = 0; k < 6; k++)
        C[j][i] += A[i][k] * B[k][j];
}
"""

#: A 5-index contraction outside the seven TTGT specs.
EXOTIC = """
void f(float A[4][5][6], float B[6][5][7], float C[4][7]) {
  for (int a = 0; a < 4; a++)
    for (int b = 0; b < 7; b++)
      for (int c = 0; c < 5; c++)
        for (int d = 0; d < 6; d++)
          C[a][b] += A[a][c][d] * B[d][c][b];
}
"""

GEMM = """
void gemm(float A[5][6], float B[6][7], float C[5][7]) {
  for (int i = 0; i < 5; i++)
    for (int j = 0; j < 7; j++)
      for (int k = 0; k < 6; k++)
        C[i][j] += A[i][k] * B[k][j];
}
"""

ALIASED_ACCUMULATOR = """
void f(float A[6][6], float C[6][6]) {
  for (int i = 0; i < 6; i++)
    for (int j = 0; j < 6; j++)
      for (int k = 0; k < 6; k++)
        C[i][j] += A[i][k] * C[k][j];
}
"""

SCALED_SUBSCRIPT = """
void f(float A[5][12], float B[6][7], float C[5][7]) {
  for (int i = 0; i < 5; i++)
    for (int j = 0; j < 7; j++)
      for (int k = 0; k < 6; k++)
        C[i][j] += A[i][2 * k] * B[k][j];
}
"""


def _generics(module):
    return [op for op in module.walk() if isinstance(op, GenericOp)]


def _loops(module):
    return [op for op in module.walk() if isinstance(op, AffineForOp)]


def _assert_same_result(ref, other, seed, in_shapes, out_shape, rtol=1e-4):
    a, b = random_arrays(seed, *in_shapes)
    c1 = np.zeros(out_shape, np.float32)
    c2 = np.zeros(out_shape, np.float32)
    Interpreter(ref).run("f", a, b, c1)
    Interpreter(other).run("f", a, b, c2)
    assert_close(c1, c2, rtol=rtol)


class TestGenericRaising:
    def test_transposed_output_raises_to_generic(self):
        module = compile_c(TRANSPOSED_OUT)
        stats = raise_two_tiers(module)
        assert stats.callsites == {}
        assert stats.snapshot()["synth"]["raised_ops"] == {"linalg.generic": 1}
        (generic,) = _generics(module)
        assert generic.iterator_types == ["parallel", "parallel", "reduction"]
        assert not _loops(module)
        verify(module, Context())

    def test_transposed_output_semantics(self):
        raised = compile_c(TRANSPOSED_OUT)
        raise_two_tiers(raised)
        _assert_same_result(
            compile_c(TRANSPOSED_OUT), raised, 0, [(5, 6), (6, 7)], (7, 5)
        )

    def test_exotic_contraction(self):
        raised = compile_c(EXOTIC)
        assert raise_two_tiers(raised).snapshot()["synth"]["nests_raised"] == 1
        assert len(_generics(raised)) == 1 and not _loops(raised)
        _assert_same_result(
            compile_c(EXOTIC),
            raised,
            1,
            [(4, 5, 6), (6, 5, 7)],
            (4, 7),
            rtol=1e-3,
        )

    def test_named_tactics_take_priority(self):
        # Plain GEMM must be claimed by the GEMM tactic; the fallback
        # tier then finds no loop to look at.
        module = compile_c(GEMM)
        stats = raise_two_tiers(module)
        assert stats.callsites == {"GEMM": 1}
        assert stats.snapshot()["synth"]["nests_attempted"] == 0
        assert not _generics(module)

    def test_generic_mops_up_after_named(self):
        module = compile_c(GEMM + TRANSPOSED_OUT)
        stats = raise_two_tiers(module)
        assert stats.callsites == {"GEMM": 1}
        assert stats.snapshot()["synth"]["raised_ops"] == {"linalg.generic": 1}
        assert not _loops(module)

    def test_aliased_accumulator_rejected(self):
        module = compile_c(ALIASED_ACCUMULATOR)
        stats = raise_two_tiers(module)
        assert stats.total == 0
        assert stats.snapshot()["synth"]["nests_raised"] == 0
        assert len(_loops(module)) == 3

    def test_scaled_subscript_rejected(self):
        module = compile_c(SCALED_SUBSCRIPT)
        stats = raise_two_tiers(module)
        assert stats.total == 0
        assert stats.snapshot()["synth"]["nests_raised"] == 0
        assert len(_loops(module)) == 3

    def test_generic_flops_accounting(self):
        module = compile_c(TRANSPOSED_OUT)
        raise_two_tiers(module)
        (generic,) = _generics(module)
        assert generic.flops() == 2 * 5 * 6 * 7

    def test_generic_lowers_back_to_loops(self):
        from repro.transforms import lower_linalg_to_affine

        roundtrip = compile_c(TRANSPOSED_OUT)
        raise_two_tiers(roundtrip)
        lower_linalg_to_affine(roundtrip)
        verify(roundtrip, Context())
        assert _loops(roundtrip) and not _generics(roundtrip)
        _assert_same_result(
            compile_c(TRANSPOSED_OUT), roundtrip, 2, [(5, 6), (6, 7)], (7, 5)
        )
