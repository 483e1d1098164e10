"""Linalg and BLAS dialect ops: shape verification, flops, accessors."""

import pytest

from repro.dialects import blas, linalg
from repro.ir import (
    AffineMap,
    Block,
    FuncOp,
    IRError,
    dim,
    f32,
    memref,
)


def _args(*shapes):
    func = FuncOp.create("f", [memref(*s, f32) for s in shapes])
    return func.arguments


class TestMatmul:
    def test_flops(self):
        a, b, c = _args((4, 5), (5, 6), (4, 6))
        assert linalg.MatmulOp.create(a, b, c).flops() == 2 * 4 * 5 * 6

    def test_shape_mismatch(self):
        a, b, c = _args((4, 5), (7, 6), (4, 6))
        with pytest.raises(IRError):
            linalg.MatmulOp.create(a, b, c).verify_()


class TestMatvec:
    def test_normal_shapes(self):
        a, x, y = _args((4, 5), (5,), (4,))
        op = linalg.MatvecOp.create(a, x, y)
        op.verify_()
        assert not op.trans
        assert op.flops() == 2 * 4 * 5

    def test_transposed_shapes(self):
        a, x, y = _args((4, 5), (4,), (5,))
        op = linalg.MatvecOp.create(a, x, y, trans=True)
        op.verify_()
        assert op.trans

    def test_transposed_mismatch(self):
        a, x, y = _args((4, 5), (5,), (4,))
        with pytest.raises(IRError):
            linalg.MatvecOp.create(a, x, y, trans=True).verify_()


class TestTranspose:
    def test_valid_permutation(self):
        inp, out = _args((4, 5, 6), (4, 6, 5))
        linalg.TransposeOp.create(inp, out, [0, 2, 1]).verify_()

    def test_bad_permutation(self):
        inp, out = _args((4, 5), (5, 4))
        with pytest.raises(IRError):
            linalg.TransposeOp.create(inp, out, [0, 0]).verify_()

    def test_output_shape_checked(self):
        inp, out = _args((4, 5), (4, 5))
        with pytest.raises(IRError):
            linalg.TransposeOp.create(inp, out, [1, 0]).verify_()


class TestReshape:
    def test_collapse(self):
        inp, out = _args((4, 5, 6), (20, 6))
        op = linalg.ReshapeOp.create(inp, out, [[0, 1], [2]])
        op.verify_()
        assert op.is_collapse()
        assert op.reassociation == [[0, 1], [2]]

    def test_expand(self):
        inp, out = _args((20, 6), (4, 5, 6))
        op = linalg.ReshapeOp.create(inp, out, [[0, 1], [2]])
        op.verify_()
        assert not op.is_collapse()

    def test_group_product_mismatch(self):
        inp, out = _args((4, 5, 6), (21, 6))
        with pytest.raises(IRError):
            linalg.ReshapeOp.create(inp, out, [[0, 1], [2]]).verify_()

    def test_uncovered_dims(self):
        inp, out = _args((4, 5, 6), (20, 6))
        with pytest.raises(IRError):
            linalg.ReshapeOp.create(inp, out, [[0], [2]]).verify_()


class TestConv2D:
    def test_valid(self):
        i, k, o = _args((1, 3, 8, 8), (4, 3, 3, 3), (1, 4, 6, 6))
        op = linalg.Conv2DNchwOp.create(i, k, o)
        op.verify_()
        assert op.flops() == 2 * 1 * 4 * 6 * 6 * 3 * 3 * 3

    def test_bad_output_size(self):
        i, k, o = _args((1, 3, 8, 8), (4, 3, 3, 3), (1, 4, 8, 8))
        with pytest.raises(IRError):
            linalg.Conv2DNchwOp.create(i, k, o).verify_()

    def test_input_larger_than_the_window_is_valid(self):
        # h = 10 >= oh + kh - 1 = 8: the op reads rows 0..7 only.
        i, k, o = _args((1, 3, 10, 9), (4, 3, 3, 3), (1, 4, 6, 6))
        linalg.Conv2DNchwOp.create(i, k, o).verify_()

    @pytest.mark.parametrize(
        "shape", [(1, 3, 7, 8), (1, 3, 8, 7)], ids=["height", "width"]
    )
    def test_input_smaller_than_the_window_is_rejected(self, shape):
        i, k, o = _args(shape, (4, 3, 3, 3), (1, 4, 6, 6))
        with pytest.raises(IRError):
            linalg.Conv2DNchwOp.create(i, k, o).verify_()


class TestGeneric:
    def _make(self):
        a, b = _args((4, 5), (4, 5))
        op = linalg.GenericOp.create(
            [a],
            [b],
            [AffineMap.identity(2), AffineMap.identity(2)],
            ["parallel", "parallel"],
        )
        block = op.body
        from repro.dialects.std import MulFOp

        mul = block.append(MulFOp.create(block.arguments[0], block.arguments[0]))
        block.append(linalg.LinalgYieldOp.create([mul.result]))
        return op

    def test_iteration_domain(self):
        op = self._make()
        assert op.iteration_domain() == [4, 5]
        assert op.num_loops == 2

    def test_flops(self):
        assert self._make().flops() == 20

    def test_verify_ok(self):
        self._make().verify_()

    def test_map_count_mismatch(self):
        a, b = _args((4, 5), (4, 5))
        with pytest.raises(IRError):
            linalg.GenericOp.create(
                [a], [b], [AffineMap.identity(2)], ["parallel", "parallel"]
            )

    def test_bad_iterator_type(self):
        a, b = _args((4, 5), (4, 5))
        with pytest.raises(IRError):
            linalg.GenericOp.create(
                [a],
                [b],
                [AffineMap.identity(2)] * 2,
                ["parallel", "spiral"],
            )

    def test_yield_arity_checked(self):
        op = self._make()
        op.body.operations.pop()  # drop the yield
        op.body.append(linalg.LinalgYieldOp.create([]))
        with pytest.raises(IRError):
            op.verify_()


class TestBlasOps:
    def test_sgemm_attrs(self):
        a, b, c = _args((4, 5), (5, 6), (4, 6))
        op = blas.SgemmOp.create(a, b, c, alpha=2.0, beta=0.5, library="openblas")
        assert op.alpha == 2.0
        assert op.beta == 0.5
        assert op.library == "openblas"
        assert op.flops() == 240

    def test_unknown_library_rejected(self):
        a, b, c = _args((4, 5), (5, 6), (4, 6))
        op = blas.SgemmOp.create(a, b, c, library="mkl-dnn")
        op.attributes["library"] = op.attributes["library"].__class__("eigen")
        with pytest.raises(IRError):
            op.verify_()

    def test_sgemv_trans(self):
        a, x, y = _args((4, 5), (4,), (5,))
        op = blas.SgemvOp.create(a, x, y, trans=True)
        assert op.trans

    def test_blas_transpose_permutation(self):
        inp, out = _args((4, 5), (5, 4))
        op = blas.TransposeOp.create(inp, out, [1, 0])
        assert op.permutation == [1, 0]

    def test_blas_reshape_groups(self):
        inp, out = _args((4, 5, 6), (20, 6))
        op = blas.ReshapeOp.create(inp, out, [[0, 1], [2]])
        assert op.reassociation == [[0, 1], [2]]

    def test_conv_flops(self):
        i, k, o = _args((1, 3, 8, 8), (4, 3, 3, 3), (1, 4, 6, 6))
        assert blas.Conv2DOp.create(i, k, o).flops() == 2 * 4 * 36 * 27
