"""The ``std`` dialect: constants and scalar arithmetic.

This matches the standard dialect of the MLIR version the paper builds
on (git ``48c28d5``), where scalar float arithmetic lives in ``std``
(``std.addf``, ``std.mulf``, ...).
"""

from __future__ import annotations

from typing import Union

from ..ir.attributes import FloatAttr, IntegerAttr
from ..ir.core import IRError, Operation, register_op
from ..ir.types import IndexType, IntegerType, Type, is_float
from ..ir.values import Value


@register_op
class ConstantOp(Operation):
    """An SSA constant of index, integer, or float type."""

    OP_NAME = "std.constant"

    @staticmethod
    def create(value: Union[int, float], ty: Type) -> "ConstantOp":
        if isinstance(ty, (IndexType, IntegerType)):
            attr = IntegerAttr(int(value))
        elif is_float(ty):
            attr = FloatAttr(float(value))
        else:
            raise IRError(f"unsupported constant type {ty}")
        return ConstantOp(result_types=[ty], attributes={"value": attr})

    @property
    def value(self) -> Union[int, float]:
        return self.attributes["value"].value


class BinaryArithOp(Operation):
    """Base for two-operand, one-result arithmetic ops."""

    PYTHON_FUNC = staticmethod(lambda a, b: None)

    @classmethod
    def create(cls, lhs: Value, rhs: Value) -> "BinaryArithOp":
        if lhs.type != rhs.type:
            raise IRError(
                f"{cls.OP_NAME}: operand types differ ({lhs.type} vs {rhs.type})"
            )
        return cls(operands=[lhs, rhs], result_types=[lhs.type])

    @property
    def lhs(self) -> Value:
        return self.operand(0)

    @property
    def rhs(self) -> Value:
        return self.operand(1)

    def verify_(self) -> None:
        if self.num_operands != 2 or self.num_results != 1:
            raise IRError(f"{self.name}: expects 2 operands and 1 result")
        if self.operand(0).type != self.operand(1).type:
            raise IRError(f"{self.name}: operand type mismatch")


class FloatArithOp(BinaryArithOp):
    def verify_(self) -> None:
        super().verify_()
        if not is_float(self.operand(0).type):
            raise IRError(f"{self.name}: requires float operands")


class IntArithOp(BinaryArithOp):
    def verify_(self) -> None:
        super().verify_()
        if not isinstance(self.operand(0).type, (IntegerType, IndexType)):
            raise IRError(f"{self.name}: requires integer or index operands")


@register_op
class AddFOp(FloatArithOp):
    OP_NAME = "std.addf"
    PYTHON_FUNC = staticmethod(lambda a, b: a + b)


@register_op
class SubFOp(FloatArithOp):
    OP_NAME = "std.subf"
    PYTHON_FUNC = staticmethod(lambda a, b: a - b)


@register_op
class MulFOp(FloatArithOp):
    OP_NAME = "std.mulf"
    PYTHON_FUNC = staticmethod(lambda a, b: a * b)


@register_op
class DivFOp(FloatArithOp):
    OP_NAME = "std.divf"
    PYTHON_FUNC = staticmethod(lambda a, b: a / b)


@register_op
class MaxFOp(FloatArithOp):
    """The larger operand; a NaN in either operand is the result, as in
    ``np.maximum`` and MLIR's ``arith.maximumf`` (Python's ``max``
    returns whichever operand comes first when one is NaN)."""

    OP_NAME = "std.maxf"
    PYTHON_FUNC = staticmethod(lambda a, b: a if a >= b or a != a else b)


@register_op
class NegFOp(Operation):
    """Floating-point negation: ``%r = std.negf %a : f32``."""

    OP_NAME = "std.negf"
    PYTHON_FUNC = staticmethod(lambda a: -a)

    @staticmethod
    def create(value: Value) -> "NegFOp":
        if not is_float(value.type):
            raise IRError("std.negf requires a float operand")
        return NegFOp(operands=[value], result_types=[value.type])

    def verify_(self) -> None:
        if self.num_operands != 1 or self.num_results != 1:
            raise IRError(f"{self.name}: expects 1 operand and 1 result")
        if not is_float(self.operand(0).type):
            raise IRError(f"{self.name}: requires a float operand")


@register_op
class CmpFOp(Operation):
    """Float comparison (ordered predicates only); predicate attribute
    in {oeq, one, olt, ole, ogt, oge}.  Result type is ``i1``."""

    OP_NAME = "std.cmpf"

    PREDICATES = {
        "oeq": lambda a, b: a == b,
        "one": lambda a, b: a != b,
        "olt": lambda a, b: a < b,
        "ole": lambda a, b: a <= b,
        "ogt": lambda a, b: a > b,
        "oge": lambda a, b: a >= b,
    }

    @staticmethod
    def create(predicate: str, lhs: Value, rhs: Value) -> "CmpFOp":
        from ..ir.attributes import StringAttr
        from ..ir.types import i1

        if predicate not in CmpFOp.PREDICATES:
            raise IRError(f"unknown cmpf predicate {predicate!r}")
        if lhs.type != rhs.type or not is_float(lhs.type):
            raise IRError("std.cmpf requires matching float operands")
        return CmpFOp(
            operands=[lhs, rhs],
            result_types=[i1],
            attributes={"predicate": StringAttr(predicate)},
        )

    @property
    def predicate(self) -> str:
        return self.attributes["predicate"].value


@register_op
class AddIOp(IntArithOp):
    OP_NAME = "std.addi"
    PYTHON_FUNC = staticmethod(lambda a, b: a + b)


@register_op
class SubIOp(IntArithOp):
    OP_NAME = "std.subi"
    PYTHON_FUNC = staticmethod(lambda a, b: a - b)


@register_op
class MulIOp(IntArithOp):
    OP_NAME = "std.muli"
    PYTHON_FUNC = staticmethod(lambda a, b: a * b)


@register_op
class DivIOp(IntArithOp):
    """Signed integer floor division (used when expanding affine
    floordiv/ceildiv during lowering)."""

    OP_NAME = "std.divi"
    PYTHON_FUNC = staticmethod(lambda a, b: a // b)


@register_op
class RemIOp(IntArithOp):
    OP_NAME = "std.remi"
    PYTHON_FUNC = staticmethod(lambda a, b: a % b)


@register_op
class LoadOp(Operation):
    """Multi-dimensional load with plain index operands (post-affine)."""

    OP_NAME = "std.load"

    @staticmethod
    def create(memref: Value, indices) -> "LoadOp":
        return LoadOp(
            operands=[memref, *indices],
            result_types=[memref.type.element_type],
        )

    @property
    def memref(self) -> Value:
        return self.operand(0)

    @property
    def indices(self):
        return self.operands[1:]


@register_op
class StoreOp(Operation):
    OP_NAME = "std.store"

    @staticmethod
    def create(value: Value, memref: Value, indices) -> "StoreOp":
        return StoreOp(operands=[value, memref, *indices])

    @property
    def value(self) -> Value:
        return self.operand(0)

    @property
    def memref(self) -> Value:
        return self.operand(1)

    @property
    def indices(self):
        return self.operands[2:]


@register_op
class CmpIOp(Operation):
    """Integer/index comparison; predicate attribute in
    {eq, ne, slt, sle, sgt, sge}."""

    OP_NAME = "std.cmpi"

    PREDICATES = {
        "eq": lambda a, b: a == b,
        "ne": lambda a, b: a != b,
        "slt": lambda a, b: a < b,
        "sle": lambda a, b: a <= b,
        "sgt": lambda a, b: a > b,
        "sge": lambda a, b: a >= b,
    }

    @staticmethod
    def create(predicate: str, lhs: Value, rhs: Value) -> "CmpIOp":
        from ..ir.attributes import StringAttr
        from ..ir.types import i1

        if predicate not in CmpIOp.PREDICATES:
            raise IRError(f"unknown cmpi predicate {predicate!r}")
        return CmpIOp(
            operands=[lhs, rhs],
            result_types=[i1],
            attributes={"predicate": StringAttr(predicate)},
        )

    @property
    def predicate(self) -> str:
        return self.attributes["predicate"].value


@register_op
class SelectOp(Operation):
    """``select(cond, a, b)``: a if cond else b."""

    OP_NAME = "std.select"

    @staticmethod
    def create(cond: Value, true_value: Value, false_value: Value) -> "SelectOp":
        if true_value.type != false_value.type:
            raise IRError("std.select operand types differ")
        return SelectOp(
            operands=[cond, true_value, false_value],
            result_types=[true_value.type],
        )

    @property
    def condition(self) -> Value:
        return self.operand(0)


@register_op
class IndexCastOp(Operation):
    """Cast between index and integer types."""

    OP_NAME = "std.index_cast"

    @staticmethod
    def create(value: Value, ty: Type) -> "IndexCastOp":
        return IndexCastOp(operands=[value], result_types=[ty])


@register_op
class AllocOp(Operation):
    """Allocate a buffer (local array in the source program)."""

    OP_NAME = "std.alloc"

    @staticmethod
    def create(memref_type) -> "AllocOp":
        from ..ir.types import MemRefType

        if not isinstance(memref_type, MemRefType):
            raise IRError("std.alloc result must be a memref type")
        return AllocOp(result_types=[memref_type])


@register_op
class DeallocOp(Operation):
    OP_NAME = "std.dealloc"

    @staticmethod
    def create(memref: Value) -> "DeallocOp":
        return DeallocOp(operands=[memref])
