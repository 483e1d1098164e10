"""Textual IR: printing and parse round-trips."""

import pytest

from repro.ir import Context, print_module, verify
from repro.ir.parser import ParseError, parse_func, parse_module

from ..conftest import build_gemm_module


def roundtrip(source: str) -> str:
    module = parse_module(source)
    verify(module, Context())
    text1 = print_module(module)
    text2 = print_module(parse_module(text1))
    assert text1 == text2
    return text1


class TestBasicForms:
    def test_empty_func(self):
        text = roundtrip("func @f() { return }")
        assert "func @f()" in text

    def test_module_wrapper_optional(self):
        bare = parse_module("func @f() { return }")
        wrapped = parse_module("module { func @f() { return } }")
        assert print_module(bare) == print_module(wrapped)

    def test_gemm_module_roundtrip(self):
        module = build_gemm_module()
        text = print_module(module)
        reparsed = print_module(parse_module(text))
        assert reparsed == text

    def test_constants_and_arith(self):
        text = roundtrip(
            """
            func @f() {
              %0 = std.constant 1.5 : f32
              %1 = std.constant 2.0 : f32
              %2 = std.addf %0, %1 : f32
              %3 = std.mulf %2, %2 : f32
              return
            }
            """
        )
        assert "std.addf" in text and "std.mulf" in text

    def test_index_constants(self):
        text = roundtrip(
            """
            func @f() {
              %0 = std.constant 4 : index
              %1 = std.addi %0, %0 : index
              return
            }
            """
        )
        assert "std.constant 4 : index" in text

    def test_return_with_value(self):
        text = roundtrip(
            """
            func @f() -> (f32) {
              %0 = std.constant 1.0 : f32
              return %0 : f32
            }
            """
        )
        assert "return %0 : f32" in text


class TestAffineForms:
    def test_for_with_step(self):
        text = roundtrip(
            """
            func @f() {
              affine.for %i = 0 to 100 step 4 {
              }
              return
            }
            """
        )
        assert "step 4" in text

    def test_for_unit_attribute_trails_the_body(self):
        text = roundtrip(
            """
            func @f() {
              affine.for %i = 0 to 64 step 8 {
                affine.for %j = %i to affine_map<(d0) -> (d0 + 8)>(%i) {
                } {no_vectorize}
              } {no_vectorize}
              affine.for %k = 0 to 4 {
              }
              return
            }
            """
        )
        assert text.count("} {no_vectorize}") == 2
        loops = [
            op
            for op in parse_module(text).walk()
            if op.name == "affine.for"
        ]
        assert [loop.no_vectorize for loop in loops] == [True, True, False]
        assert loops[0].clone().no_vectorize

    def test_unit_attribute_in_generic_form(self):
        text = roundtrip(
            """
            func @f() {
              %0 = "std.alloc"() {pinned, rank = 1} : () -> (memref<4xf32>)
              return
            }
            """
        )
        assert "{pinned, rank = 1}" in text

    def test_symbolic_upper_bound(self):
        text = roundtrip(
            """
            func @f(%arg0: index) {
              affine.for %i = 0 to %arg0 {
              }
              return
            }
            """
        )
        assert "to %arg0" in text

    def test_min_upper_bound(self):
        text = roundtrip(
            """
            func @f() {
              affine.for %i = 0 to 100 step 32 {
                affine.for %j = %i to min affine_map<(d0) -> (d0 + 32, 100)>(%i) {
                }
              }
              return
            }
            """
        )
        assert "min affine_map" in text

    def test_load_store_complex_access(self):
        text = roundtrip(
            """
            func @f(%arg0: memref<64x64xf32>) {
              affine.for %i = 0 to 31 {
                affine.for %j = 0 to 10 {
                  %0 = affine.load %arg0[%i * 2 + 1, %j + 5] : memref<64x64xf32>
                  affine.store %0, %arg0[%i, %j] : memref<64x64xf32>
                }
              }
              return
            }
            """
        )
        assert "(%0 * 2) + 1" in text or "%0 * 2 + 1" in text

    def test_affine_apply(self):
        text = roundtrip(
            """
            func @f() {
              affine.for %i = 0 to 10 {
                %0 = affine.apply affine_map<(d0) -> (d0 * 4 + 1)>(%i)
              }
              return
            }
            """
        )
        assert "affine.apply" in text

    def test_affine_matmul_triple_form(self):
        text = roundtrip(
            """
            func @f(%arg0: memref<4x4xf32>, %arg1: memref<4x4xf32>, %arg2: memref<4x4xf32>) {
              affine.matmul(%arg0, %arg1, %arg2) : (memref<4x4xf32>, memref<4x4xf32>, memref<4x4xf32>)
              return
            }
            """
        )
        assert "affine.matmul(%arg0, %arg1, %arg2)" in text


class TestLinalgAndBlasForms:
    def test_linalg_matmul(self):
        roundtrip(
            """
            func @f(%arg0: memref<4x5xf32>, %arg1: memref<5x6xf32>, %arg2: memref<4x6xf32>) {
              linalg.matmul(%arg0, %arg1, %arg2) : (memref<4x5xf32>, memref<5x6xf32>, memref<4x6xf32>)
              return
            }
            """
        )

    def test_linalg_transpose_with_attr(self):
        text = roundtrip(
            """
            func @f(%arg0: memref<4x5xf32>, %arg1: memref<5x4xf32>) {
              linalg.transpose(%arg0, %arg1) {permutation = [1, 0]} : (memref<4x5xf32>, memref<5x4xf32>)
              return
            }
            """
        )
        assert "permutation = [1, 0]" in text

    def test_blas_sgemm_attrs(self):
        text = roundtrip(
            """
            func @f(%arg0: memref<4x5xf32>, %arg1: memref<5x6xf32>, %arg2: memref<4x6xf32>) {
              blas.sgemm(%arg0, %arg1, %arg2) {alpha = 1.0, beta = 1.0, library = "mkl-dnn"} : (memref<4x5xf32>, memref<5x6xf32>, memref<4x6xf32>)
              return
            }
            """
        )
        assert 'library = "mkl-dnn"' in text

    def test_generic_fallback_form(self):
        text = roundtrip(
            """
            func @f() {
              %0 = "std.alloc"() : () -> (memref<4xf32>)
              return
            }
            """
        )
        assert '"std.alloc"()' in text


class TestCFGForms:
    def test_branches(self):
        text = roundtrip(
            """
            func @f() {
              %0 = std.constant 0 : index
              llvm.br ^bb1(%0)
            ^bb1(%1: index):
              %2 = std.constant 10 : index
              %3 = std.cmpi "slt", %1, %2 : index
              llvm.cond_br %3, ^bb2, ^bb3
            ^bb2:
              %4 = std.constant 1 : index
              %5 = std.addi %1, %4 : index
              llvm.br ^bb1(%5)
            ^bb3:
              return
            }
            """
        )
        assert "llvm.cond_br" in text
        assert "^bb" in text


class TestParseErrors:
    def test_undefined_value(self):
        with pytest.raises(ParseError):
            parse_module("func @f() { %0 = std.addf %1, %1 : f32 return }")

    def test_unknown_op(self):
        with pytest.raises(ParseError):
            parse_module("func @f() { std.bogus return }")

    def test_bad_token(self):
        with pytest.raises(ParseError):
            parse_module("func @f() { $$$ }")

    def test_for_trailing_dict_cannot_restate_the_header(self):
        with pytest.raises(ParseError, match="loop header"):
            parse_module(
                "func @f() { affine.for %i = 0 to 4 { } {step = 2} return }"
            )

    def test_parse_func_requires_single(self):
        from repro.ir import IRError

        with pytest.raises(IRError):
            parse_func("func @a() { return } func @b() { return }")

    def test_result_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_module(
                'func @f(%arg0: memref<4x4xf32>) '
                "{ %0 = affine.matmul(%arg0, %arg0, %arg0) : "
                "(memref<4x4xf32>, memref<4x4xf32>, memref<4x4xf32>) return }"
            )
