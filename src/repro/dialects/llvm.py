"""The ``llvm`` dialect: the lowest-level representation.

Models LLVM-IR-like unstructured control flow (branches between blocks
with block arguments standing in for phi nodes) and flat memory access
through explicitly linearized indices.  This is the code-generation
floor of the progressive-lowering pipeline (the "valley" of Figure 1).
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Sequence

from ..ir.attributes import ArrayAttr, Attribute, StringAttr
from ..ir.core import READ, WRITE, Block, IRError, Operation, register_op
from ..ir.types import MemRefType, Type
from ..ir.values import Value


@register_op
class BrOp(Operation):
    """Unconditional branch, passing values to the successor's args."""

    OP_NAME = "llvm.br"
    IS_TERMINATOR = True

    @staticmethod
    def create(dest: Block, args: Sequence[Value] = ()) -> "BrOp":
        return BrOp(operands=args, successors=[dest])

    @property
    def dest(self) -> Block:
        return self.successors[0]

    def verify_(self) -> None:
        if len(self.successors) != 1:
            raise IRError("llvm.br needs exactly one successor")
        dest_args = self.successors[0].arguments
        if len(dest_args) != self.num_operands:
            raise IRError(
                f"llvm.br passes {self.num_operands} values to a block "
                f"expecting {len(dest_args)}"
            )


@register_op
class CondBrOp(Operation):
    """Conditional branch on an i1 value (no block arguments passed)."""

    OP_NAME = "llvm.cond_br"
    IS_TERMINATOR = True

    @staticmethod
    def create(cond: Value, true_dest: Block, false_dest: Block) -> "CondBrOp":
        return CondBrOp(operands=[cond], successors=[true_dest, false_dest])

    @property
    def condition(self) -> Value:
        return self.operand(0)

    @property
    def true_dest(self) -> Block:
        return self.successors[0]

    @property
    def false_dest(self) -> Block:
        return self.successors[1]

    def verify_(self) -> None:
        if len(self.successors) != 2:
            raise IRError("llvm.cond_br needs exactly two successors")
        if self.successors[0].arguments or self.successors[1].arguments:
            raise IRError("llvm.cond_br successors must not take arguments")


@register_op
class LoadOp(Operation):
    """Flat load: element at a linearized index of a buffer."""

    OP_NAME = "llvm.load"
    MEMORY_EFFECT = READ

    @staticmethod
    def create(memref: Value, index: Value) -> "LoadOp":
        ty = memref.type
        if not isinstance(ty, MemRefType):
            raise IRError("llvm.load expects a memref operand")
        return LoadOp(operands=[memref, index], result_types=[ty.element_type])

    @property
    def memref(self) -> Value:
        return self.operand(0)

    @property
    def index(self) -> Value:
        return self.operand(1)


@register_op
class StoreOp(Operation):
    """Flat store: write an element at a linearized index."""

    OP_NAME = "llvm.store"
    MEMORY_EFFECT = WRITE

    @staticmethod
    def create(value: Value, memref: Value, index: Value) -> "StoreOp":
        return StoreOp(operands=[value, memref, index])

    @property
    def value(self) -> Value:
        return self.operand(0)

    @property
    def memref(self) -> Value:
        return self.operand(1)

    @property
    def index(self) -> Value:
        return self.operand(2)


@register_op
class CallOp(Operation):
    """Call into an external (library) symbol.  Attributes other than
    ``callee`` are the routine's parameters that are not operands
    (``sgemm``'s ``alpha``, a transpose's ``permutation``)."""

    OP_NAME = "llvm.call"

    @staticmethod
    def create(
        callee: str,
        operands: Sequence[Value],
        result_types: Sequence[Type] = (),
        attributes: Optional[Mapping[str, Attribute]] = None,
    ) -> "CallOp":
        return CallOp(
            operands=operands,
            result_types=result_types,
            attributes={**(attributes or {}), "callee": StringAttr(callee)},
        )

    @property
    def callee(self) -> str:
        return self.attributes["callee"].value

    @property
    def parameters(self) -> Dict[str, Any]:
        """The attributes other than ``callee``, as Python values."""
        return {
            name: _python_value(attr)
            for name, attr in self.attributes.items()
            if name != "callee"
        }


def _python_value(attr: Attribute) -> Any:
    if isinstance(attr, ArrayAttr):
        return [_python_value(element) for element in attr]
    return attr.value


@register_op
class UnreachableOp(Operation):
    OP_NAME = "llvm.unreachable"
    IS_TERMINATOR = True
