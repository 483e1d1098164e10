"""The ``blas`` dialect: calls into vendor-optimized libraries.

These ops model dynamically-linked BLAS/MKL-DNN routines.  They sit at
the same abstraction level as Linalg; the MLT-BLAS path replaces Linalg
ops with these (§V-B).  Each call carries the target ``library``
attribute and — important for the level-2 BLAS results in Figure 9 —
incurs a fixed dynamic-link dispatch overhead modeled by the cost model.
"""

from __future__ import annotations

from typing import List, Sequence

from ..ir.attributes import ArrayAttr, FloatAttr, StringAttr, int_array_attr
from ..ir.core import IRError, Operation, register_op
from ..ir.values import Value

#: Libraries with modeled efficiencies (see repro.execution.machines).
KNOWN_LIBRARIES = ("mkl-dnn", "openblas")


class BlasCallOp(Operation):
    """Base class for library-call ops."""

    @property
    def library(self) -> str:
        return self.attributes["library"].value

    def verify_(self) -> None:
        if self.attributes["library"].value not in KNOWN_LIBRARIES:
            raise IRError(f"{self.name}: unknown library {self.library!r}")


@register_op
class SgemmOp(BlasCallOp):
    """``blas.sgemm``: C = alpha*A*B + beta*C (single precision)."""

    OP_NAME = "blas.sgemm"

    @staticmethod
    def create(
        a: Value,
        b: Value,
        c: Value,
        alpha: float = 1.0,
        beta: float = 1.0,
        library: str = "mkl-dnn",
    ) -> "SgemmOp":
        return SgemmOp(
            operands=[a, b, c],
            attributes={
                "alpha": FloatAttr(alpha),
                "beta": FloatAttr(beta),
                "library": StringAttr(library),
            },
        )

    @property
    def a(self) -> Value:
        return self.operand(0)

    @property
    def b(self) -> Value:
        return self.operand(1)

    @property
    def c(self) -> Value:
        return self.operand(2)

    @property
    def alpha(self) -> float:
        return self.attributes["alpha"].value

    @property
    def beta(self) -> float:
        return self.attributes["beta"].value

    def flops(self) -> int:
        m, k = self.a.type.shape
        n = self.b.type.shape[1]
        return 2 * m * k * n


@register_op
class SgemvOp(BlasCallOp):
    """``blas.sgemv``: y += op(A)*x where op is identity or transpose
    (the CBLAS ``trans`` parameter)."""

    OP_NAME = "blas.sgemv"

    @staticmethod
    def create(
        a: Value,
        x: Value,
        y: Value,
        library: str = "mkl-dnn",
        trans: bool = False,
    ) -> "SgemvOp":
        from ..ir.attributes import BoolAttr

        return SgemvOp(
            operands=[a, x, y],
            attributes={
                "library": StringAttr(library),
                "trans": BoolAttr(trans),
            },
        )

    @property
    def trans(self) -> bool:
        attr = self.attributes.get("trans")
        return bool(attr.value) if attr is not None else False

    @property
    def a(self) -> Value:
        return self.operand(0)

    @property
    def x(self) -> Value:
        return self.operand(1)

    @property
    def y(self) -> Value:
        return self.operand(2)

    def flops(self) -> int:
        m, n = self.a.type.shape
        return 2 * m * n


@register_op
class TransposeOp(BlasCallOp):
    """``blas.transpose``: out-of-place tensor transposition routine."""

    OP_NAME = "blas.transpose"

    @staticmethod
    def create(
        input: Value,
        output: Value,
        permutation: Sequence[int],
        library: str = "mkl-dnn",
    ) -> "TransposeOp":
        return TransposeOp(
            operands=[input, output],
            attributes={
                "permutation": int_array_attr(permutation),
                "library": StringAttr(library),
            },
        )

    @property
    def input(self) -> Value:
        return self.operand(0)

    @property
    def output(self) -> Value:
        return self.operand(1)

    @property
    def permutation(self) -> List[int]:
        return [a.value for a in self.attributes["permutation"]]


@register_op
class ReshapeOp(BlasCallOp):
    """``blas.reshape``: view a buffer with collapsed/expanded dims.

    Library-side reshapes of contiguous buffers are metadata-only; the
    cost model accounts them as free (no data movement).
    """

    OP_NAME = "blas.reshape"

    @staticmethod
    def create(
        input: Value,
        output: Value,
        reassociation: Sequence[Sequence[int]],
        library: str = "mkl-dnn",
    ) -> "ReshapeOp":
        groups = ArrayAttr([int_array_attr(g) for g in reassociation])
        return ReshapeOp(
            operands=[input, output],
            attributes={"reassociation": groups, "library": StringAttr(library)},
        )

    @property
    def input(self) -> Value:
        return self.operand(0)

    @property
    def output(self) -> Value:
        return self.operand(1)

    @property
    def reassociation(self) -> List[List[int]]:
        return [
            [a.value for a in group]
            for group in self.attributes["reassociation"]
        ]


@register_op
class Conv2DOp(BlasCallOp):
    """``blas.conv2d``: library convolution (e.g. MKL-DNN primitive)."""

    OP_NAME = "blas.conv2d"

    @staticmethod
    def create(
        input: Value, kernel: Value, output: Value, library: str = "mkl-dnn"
    ) -> "Conv2DOp":
        return Conv2DOp(
            operands=[input, kernel, output],
            attributes={"library": StringAttr(library)},
        )

    @property
    def input(self) -> Value:
        return self.operand(0)

    @property
    def kernel(self) -> Value:
        return self.operand(1)

    @property
    def output(self) -> Value:
        return self.operand(2)

    def flops(self) -> int:
        f, c, kh, kw = self.kernel.type.shape
        n, _, oh, ow = self.output.type.shape
        return 2 * n * f * oh * ow * c * kh * kw
