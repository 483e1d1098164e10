"""The ``blas`` dialect: calls into vendor-optimized libraries.

These ops model dynamically-linked BLAS/MKL-DNN routines.  Each is the
``linalg`` op it replaces (its *twin*) plus the call's own attributes:
operands, indexing maps, ``flops()`` and the verifier are the twin's,
so a call rejects every shape its twin rejects.  Every call carries the
target ``library``; ``sgemm`` adds ``alpha``/``beta``.  The MLT-BLAS
path makes them from Linalg through :data:`TWINS`
(``convert-linalg-to-blas``, §V-B); each call incurs a fixed
dynamic-link dispatch overhead modeled by the cost model, which matters
for the level-2 BLAS results in Figure 9.
"""

from __future__ import annotations

from typing import Dict, Type

from ..ir.attributes import FloatAttr, StringAttr
from ..ir.core import IRError, Operation, register_op
from ..ir.values import Value
from . import linalg

#: Libraries with modeled efficiencies (see repro.execution.machines).
KNOWN_LIBRARIES = ("mkl-dnn", "openblas")


class LibraryCall:
    """Makes a ``linalg`` op a call into ``library``.  Listed before the
    twin among a call's bases, so its ``create`` and ``verify_`` wrap
    the twin's."""

    #: The routine's symbol in the library ABI: ``convert-blas-to-llvm``
    #: lowers the call to ``llvm.call @SYMBOL``.
    SYMBOL: str

    @classmethod
    def create(cls, *args, library: str = "mkl-dnn", **kwargs):
        op = super().create(*args, **kwargs)
        op.attributes["library"] = StringAttr(library)
        return op

    @classmethod
    def of(cls, twin: Operation, library: str) -> Operation:
        """The call computing what ``twin`` computes, over its operands
        and with its attributes."""
        attributes = {**twin.attributes, "library": StringAttr(library)}
        return cls(operands=twin.operands, attributes=attributes)

    @property
    def library(self) -> str:
        return self.attributes["library"].value

    def verify_(self) -> None:
        if self.library not in KNOWN_LIBRARIES:
            raise IRError(f"{self.name}: unknown library {self.library!r}")
        super().verify_()


@register_op
class SgemmOp(LibraryCall, linalg.MatmulOp):
    """``blas.sgemm``: C = alpha*A*B + beta*C (single precision)."""

    OP_NAME = "blas.sgemm"
    SYMBOL = "cblas_sgemm"

    @classmethod
    def create(
        cls,
        a: Value,
        b: Value,
        c: Value,
        alpha: float = 1.0,
        beta: float = 1.0,
        library: str = "mkl-dnn",
    ) -> "SgemmOp":
        return cls(
            operands=[a, b, c],
            attributes={
                "alpha": FloatAttr(alpha),
                "beta": FloatAttr(beta),
                "library": StringAttr(library),
            },
        )

    @classmethod
    def of(cls, twin: Operation, library: str) -> "SgemmOp":
        return cls.create(*twin.operands, library=library)

    @property
    def alpha(self) -> float:
        return self.attributes["alpha"].value

    @property
    def beta(self) -> float:
        return self.attributes["beta"].value


@register_op
class SgemvOp(LibraryCall, linalg.MatvecOp):
    """``blas.sgemv``: y += op(A)*x where op is identity or transpose
    (the CBLAS ``trans`` parameter)."""

    OP_NAME = "blas.sgemv"
    SYMBOL = "cblas_sgemv"


@register_op
class TransposeOp(LibraryCall, linalg.TransposeOp):
    """``blas.transpose``: out-of-place tensor transposition routine."""

    OP_NAME = "blas.transpose"
    SYMBOL = "mkl_somatcopy"


@register_op
class ReshapeOp(LibraryCall, linalg.ReshapeOp):
    """``blas.reshape``: view a buffer with collapsed/expanded dims.

    Library-side reshapes of contiguous buffers are metadata-only; the
    cost model accounts them as free (no data movement).
    """

    OP_NAME = "blas.reshape"
    SYMBOL = "mlt_reshape_view"


@register_op
class Conv2DOp(LibraryCall, linalg.Conv2DNchwOp):
    """``blas.conv2d``: library convolution (e.g. MKL-DNN primitive)."""

    OP_NAME = "blas.conv2d"
    SYMBOL = "mkldnn_convolution_forward"


#: Each linalg op ``convert-linalg-to-blas`` replaces -> its library call.
TWINS: Dict[Type[Operation], Type[LibraryCall]] = {
    linalg.MatmulOp: SgemmOp,
    linalg.MatvecOp: SgemvOp,
    linalg.TransposeOp: TransposeOp,
    linalg.ReshapeOp: ReshapeOp,
    linalg.Conv2DNchwOp: Conv2DOp,
}
