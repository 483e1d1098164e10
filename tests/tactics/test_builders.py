"""Builder execution: buffer sizing, env threading, error paths."""

import pytest

from repro.dialects.affine import AffineMatmulOp, outermost_loops
from repro.dialects.linalg import MatmulOp, ReshapeOp, TransposeOp
from repro.met import compile_c
from repro.tactics import parse_tdl, tdl_to_tds
from repro.tactics.builders import BuilderError, apply_builders
from repro.tactics.compiled import compile_tactic
from repro.tactics.tds import BuilderSpec, TacticRecord


GEMM_SRC = """
void gemm(float A[5][6], float B[6][7], float C[5][7]) {
  for (int i = 0; i < 5; i++)
    for (int j = 0; j < 7; j++)
      for (int k = 0; k < 6; k++)
        C[i][j] += A[i][k] * B[k][j];
}
"""

TTGT_SRC = """
void contraction(float A[4][6][8], float B[8][5], float C[4][5][6]) {
  for (int a = 0; a < 4; a++)
    for (int b = 0; b < 5; b++)
      for (int c = 0; c < 6; c++)
        for (int d = 0; d < 8; d++)
          C[a][b][c] += A[a][c][d] * B[d][b];
}
"""


def _matched(src, tdl):
    module = compile_c(src)
    record = tdl_to_tds(parse_tdl(tdl)[0])
    tactic = compile_tactic(record)
    for root in outermost_loops(module.functions[0]):
        result = tactic.match(root)
        if result is not None:
            return module, record, result
    raise AssertionError("tactic did not match")


class TestApplyBuilders:
    def test_gemm_linalg_target(self):
        module, record, match = _matched(
            GEMM_SRC, "def G { pattern = builder C(i,j) += A(i,k) * B(k,j) }"
        )
        created = apply_builders(record, match, "linalg")
        assert len(created) == 1
        assert isinstance(created[0], MatmulOp)
        assert not any(op.name == "affine.for" for op in module.walk())

    def test_gemm_affine_target(self):
        module, record, match = _matched(
            GEMM_SRC, "def G { pattern = builder C(i,j) += A(i,k) * B(k,j) }"
        )
        created = apply_builders(record, match, "affine")
        assert isinstance(created[0], AffineMatmulOp)

    def test_unknown_target_rejected(self):
        module, record, match = _matched(
            GEMM_SRC, "def G { pattern = builder C(i,j) += A(i,k) * B(k,j) }"
        )
        # Library calls come from ``convert-linalg-to-blas``, not from
        # the builders.
        for target in ("halide", "blas"):
            with pytest.raises(BuilderError, match="unknown raising target"):
                apply_builders(record, match, target)

    def test_affine_target_rejects_ttgt(self):
        from repro.tactics import contraction_tactic_tdl

        module, record, match = _matched(
            TTGT_SRC, contraction_tactic_tdl("abc-acd-db")
        )
        with pytest.raises(BuilderError):
            apply_builders(record, match, "affine")

    def test_ttgt_temporaries_sized_from_extents(self):
        from repro.tactics import contraction_tactic_tdl

        module, record, match = _matched(
            TTGT_SRC, contraction_tactic_tdl("abc-acd-db")
        )
        created = apply_builders(record, match, "linalg")
        allocs = [op for op in created if op.name == "std.alloc"]
        shapes = sorted(tuple(a.results[0].type.shape) for a in allocs)
        # D (and its transpose temps): (a*c, b) = (24, 5); E: (24, 8)
        assert (24, 5) in shapes
        assert (24, 8) in shapes

    def test_ttgt_op_sequence(self):
        from repro.tactics import contraction_tactic_tdl

        module, record, match = _matched(
            TTGT_SRC, contraction_tactic_tdl("abc-acd-db")
        )
        created = apply_builders(record, match, "linalg")
        kinds = [op.name for op in created if op.name != "std.alloc"]
        assert kinds == [
            "linalg.transpose",
            "linalg.reshape",
            "linalg.reshape",
            "linalg.matmul",
            "linalg.reshape",
            "linalg.transpose",
        ]

    def test_unknown_input_name_rejected(self):
        module, record, match = _matched(
            GEMM_SRC, "def G { pattern = builder C(i,j) += A(i,k) * B(k,j) }"
        )
        bad = TacticRecord(
            "BAD",
            record.pattern,
            [BuilderSpec("matmulBuilder", ["X", "B"], ["C"])],
        )
        with pytest.raises(BuilderError):
            apply_builders(bad, match, "linalg")

    def test_unsized_temporary_rejected(self):
        module, record, match = _matched(
            GEMM_SRC, "def G { pattern = builder C(i,j) += A(i,k) * B(k,j) }"
        )
        bad = TacticRecord(
            "BAD",
            record.pattern,
            [BuilderSpec("matmulBuilder", ["A", "B"], ["T"])],  # no Dims
        )
        with pytest.raises(BuilderError):
            apply_builders(bad, match, "linalg")
