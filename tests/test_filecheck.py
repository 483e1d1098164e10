"""The mini-FileCheck utility itself."""

import pytest

from .filecheck import FileCheckError, filecheck

SAMPLE = """\
func @gemm(%arg0: memref<8x8xf32>) {
  %0 = std.constant 0.0 : f32
  linalg.fill(%0, %arg0) : (f32, memref<8x8xf32>)
  linalg.matmul(%arg0, %arg0, %arg0) : (...)
  return
}
"""


class TestDirectives:
    def test_check_in_order(self):
        filecheck(SAMPLE, """
          CHECK: func @gemm
          CHECK: linalg.fill
          CHECK: linalg.matmul
        """)

    def test_check_out_of_order_fails(self):
        with pytest.raises(FileCheckError):
            filecheck(SAMPLE, """
              CHECK: linalg.matmul
              CHECK: linalg.fill
            """)

    def test_check_next(self):
        filecheck(SAMPLE, """
          CHECK: std.constant
          CHECK-NEXT: linalg.fill
        """)

    def test_check_next_fails_when_not_adjacent(self):
        with pytest.raises(FileCheckError):
            filecheck(SAMPLE, """
              CHECK: func @gemm
              CHECK-NEXT: linalg.fill
            """)

    def test_check_not_between_matches(self):
        filecheck(SAMPLE, """
          CHECK: func @gemm
          CHECK-NOT: affine.for
          CHECK: return
        """)

    def test_check_not_detects_violation(self):
        with pytest.raises(FileCheckError):
            filecheck(SAMPLE, """
              CHECK: func @gemm
              CHECK-NOT: linalg.fill
              CHECK: return
            """)

    def test_trailing_check_not(self):
        filecheck(SAMPLE, """
          CHECK: linalg.matmul
          CHECK-NOT: linalg.fill
        """)

    def test_check_label_anchors(self):
        two_funcs = SAMPLE + "func @other() {\n  return\n}\n"
        filecheck(two_funcs, """
          CHECK-LABEL: func @other
          CHECK-NEXT: return
        """)

    def test_check_dag_any_order(self):
        filecheck(SAMPLE, """
          CHECK-DAG: linalg.matmul
          CHECK-DAG: linalg.fill
        """)

    def test_inline_regex(self):
        filecheck(SAMPLE, "CHECK: memref<{{[0-9]+}}x8xf32>")

    def test_inline_regex_mismatch(self):
        with pytest.raises(FileCheckError):
            filecheck(SAMPLE, "CHECK: memref<{{[a-z]+}}x8xf32>")

    def test_captures(self):
        filecheck(SAMPLE, """
          CHECK: %[[C:[0-9]+]] = std.constant
          CHECK-NEXT: linalg.fill(%[[C]],
        """)

    def test_capture_mismatch(self):
        with pytest.raises(FileCheckError):
            filecheck(SAMPLE, """
              CHECK: %[[C:[0-9]+]] = std.constant
              CHECK: linalg.matmul(%[[C]],
            """)

    def test_undefined_capture_rejected(self):
        with pytest.raises(FileCheckError):
            filecheck(SAMPLE, "CHECK: %[[NOPE]] = std.constant")

    def test_empty_checks_rejected(self):
        with pytest.raises(FileCheckError):
            filecheck(SAMPLE, "   \n  ")

    def test_non_directive_rejected(self):
        with pytest.raises(FileCheckError):
            filecheck(SAMPLE, "EXPECT: func")


class TestOnRealIR:
    def test_raised_gemm_golden(self):
        from repro.ir import print_module
        from repro.met import compile_c
        from repro.tactics import raise_affine_to_linalg

        module = compile_c(
            """
            void gemm(float A[8][8], float B[8][8], float C[8][8]) {
              for (int i = 0; i < 8; i++)
                for (int j = 0; j < 8; j++) {
                  C[i][j] = 0.0f;
                  for (int k = 0; k < 8; k++)
                    C[i][j] += A[i][k] * B[k][j];
                }
            }
            """
        )
        raise_affine_to_linalg(module)
        filecheck(print_module(module), """
          CHECK-LABEL: func @gemm
          CHECK: %[[ZERO:[0-9]+]] = std.constant 0.0 : f32
          CHECK-NEXT: linalg.fill(%[[ZERO]], %arg2)
          CHECK-NOT: affine.for
          CHECK: linalg.matmul(%arg0, %arg1, %arg2)
          CHECK-NEXT: return
        """)

    def test_ttgt_golden(self):
        from repro.evaluation.kernels import contraction_source
        from repro.ir import print_module
        from repro.ir import Context
        from repro.met import compile_c
        from repro.tactics import raise_affine_to_linalg
        from repro.transforms import LinalgContractionTTGTPass

        module = compile_c(
            contraction_source(
                "abc-acd-db", {"a": 4, "b": 5, "c": 6, "d": 7}
            )
        )
        raise_affine_to_linalg(module)
        # Raising leaves one generic; the TTGT layout is its own pass.
        filecheck(print_module(module), """
          CHECK-LABEL: func @contraction
          CHECK-NOT: affine.for
          CHECK: linalg.generic
          CHECK-NOT: linalg.matmul
        """)
        LinalgContractionTTGTPass().run(module, Context())
        filecheck(print_module(module), """
          CHECK-LABEL: func @contraction
          CHECK-DAG: linalg.transpose
          CHECK-DAG: linalg.reshape
          CHECK: linalg.matmul
          CHECK: linalg.transpose
          CHECK-NOT: affine.for
        """)
