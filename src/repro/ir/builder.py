"""Insertion-point-based IR construction."""

from __future__ import annotations

from typing import Optional, Sequence

from .core import Block, IRError, Operation, create_operation
from .types import Type
from .values import Value


class InsertionPoint:
    """A position inside a block where new ops are inserted."""

    def __init__(self, block: Block, index: Optional[int] = None):
        self.block = block
        #: ``None`` means "always append at the end".
        self.index = index

    @staticmethod
    def at_end(block: Block) -> "InsertionPoint":
        return InsertionPoint(block, None)

    @staticmethod
    def before(op: Operation) -> "InsertionPoint":
        if op.parent_block is None:
            raise IRError("op is not in a block")
        return InsertionPoint(op.parent_block, op.parent_block.operations.index(op))


class Builder:
    """Creates operations at a movable insertion point."""

    def __init__(self, insertion_point: Optional[InsertionPoint] = None):
        self._ip = insertion_point

    # -- insertion point management --------------------------------------

    def set_insertion_point_before(self, op: Operation) -> None:
        self._ip = InsertionPoint.before(op)

    # -- op creation -------------------------------------------------------

    def insert(self, op: Operation) -> Operation:
        if self._ip is None:
            raise IRError("builder has no insertion point")
        if self._ip.index is None:
            self._ip.block.append(op)
        else:
            self._ip.block.insert(self._ip.index, op)
            self._ip.index += 1
        return op

    def insert_at(self, block: Block, position: int, op: Operation) -> Operation:
        """Insert ``op`` at ``block.operations[position]`` through
        :meth:`insert`, leaving the insertion point before the op it was
        before (its index shifts when it is in ``block`` at or past
        ``position``)."""
        ip = self._ip
        self._ip = InsertionPoint(block, position)
        try:
            self.insert(op)
        finally:
            self._ip = ip
        if ip is not None and ip.block is block and (
            ip.index is not None and ip.index >= position
        ):
            ip.index += 1
        return op

    def create(
        self,
        name: str,
        operands: Sequence[Value] = (),
        result_types: Sequence[Type] = (),
        attributes: Optional[dict] = None,
        num_regions: int = 0,
    ) -> Operation:
        op = create_operation(
            name,
            operands=operands,
            result_types=result_types,
            attributes=attributes,
            num_regions=num_regions,
        )
        return self.insert(op)
