"""SSA values and use-def chains."""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from .types import Type

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core import Block, Operation


class OpOperand:
    """A single use of a :class:`Value` by an operation.

    Tracking uses through explicit operand objects keeps use-def chains
    consistent when operands are replaced.
    """

    __slots__ = ("owner", "index", "value")

    def __init__(self, owner: "Operation", index: int, value: "Value"):
        self.owner = owner
        self.index = index
        self.value = value
        value._uses.append(self)

    def set(self, new_value: "Value") -> None:
        """Point this operand at ``new_value``, updating use lists."""
        self.value._uses.remove(self)
        self.value = new_value
        new_value._uses.append(self)

    def drop(self) -> None:
        self.value._uses.remove(self)


class Value:
    """Base class for SSA values (op results and block arguments)."""

    __slots__ = ("type", "_uses")

    def __init__(self, type: Type):
        self.type = type
        self._uses: List[OpOperand] = []

    @property
    def uses(self) -> List[OpOperand]:
        return list(self._uses)

    @property
    def users(self) -> List["Operation"]:
        """Operations that use this value (with duplicates removed,
        preserving order)."""
        # A dict keeps first-insertion order: an ordered dedupe by identity.
        return list({id(use.owner): use.owner for use in self._uses}.values())

    def has_one_use(self) -> bool:
        return len(self._uses) == 1

    def is_used(self) -> bool:
        return bool(self._uses)

    def replace_all_uses_with(self, new_value: "Value") -> None:
        if new_value is self:
            return
        uses = self._uses
        self._uses = []
        for use in uses:
            use.value = new_value
        new_value._uses.extend(uses)

    @property
    def defining_op(self) -> Optional["Operation"]:
        """The operation producing this value, or ``None`` for block
        arguments."""
        return None


class OpResult(Value):
    """A value produced by an operation."""

    __slots__ = ("owner", "index")

    def __init__(self, owner: "Operation", index: int, type: Type):
        super().__init__(type)
        self.owner = owner
        self.index = index

    @property
    def defining_op(self) -> Optional["Operation"]:
        return self.owner

    def __repr__(self) -> str:
        return f"<OpResult #{self.index} of {self.owner.name} : {self.type}>"


class BlockArgument(Value):
    """A value bound on entry to a block (e.g. a loop induction
    variable or function parameter)."""

    __slots__ = ("owner", "index")

    def __init__(self, owner: "Block", index: int, type: Type):
        super().__init__(type)
        self.owner = owner
        self.index = index

    def __repr__(self) -> str:
        return f"<BlockArgument #{self.index} : {self.type}>"
