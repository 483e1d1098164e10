"""Core IR structures: operations, blocks, and regions.

The design mirrors MLIR: an :class:`Operation` is the atomic IR unit;
it uses SSA values as operands, produces new values as results, carries
attributes, and may hold nested :class:`Region` instances, each of which
contains :class:`Block` instances, which in turn contain operations.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Type as PyType

from .attributes import Attribute, attr_from_python
from .types import Type
from .values import BlockArgument, OpOperand, OpResult, Value


class IRError(Exception):
    """Raised on structurally invalid IR manipulation."""


#: Global registry mapping fully-qualified op names ("affine.for") to the
#: Python class implementing them.  Populated by dialect modules at import
#: time; :func:`create_operation` dispatches through it so that parsed or
#: generically-built ops get the right Python class.
OP_REGISTRY: Dict[str, PyType["Operation"]] = {}

#: The values of :attr:`Operation.MEMORY_EFFECT`.
READ, WRITE = "read", "write"


def register_op(cls: PyType["Operation"]) -> PyType["Operation"]:
    """Class decorator registering an operation class by its OP_NAME."""
    name = getattr(cls, "OP_NAME", None)
    if not name:
        raise IRError(f"{cls.__name__} lacks an OP_NAME")
    OP_REGISTRY[name] = cls
    return cls


class OpTable:
    """One row per op kind, keyed on op classes.

    :meth:`lookup` returns the row of the first class in the op class's
    MRO that has one, so a subclass (``affine.matmul``, each ``blas``
    call, each binary arith op) inherits its base's row unless it
    declares its own; ``None`` if no class does.  ``rows`` is the dict
    or a function returning it, called on the first lookup: modules
    under ``ir/`` cannot import the dialects at load.  Lookups are
    memoized per class, so a repeat one is a single dict lookup.
    """

    __slots__ = ("_rows", "_resolved")

    def __init__(self, rows):
        self._rows = rows
        self._resolved: Dict[type, object] = {}

    @property
    def rows(self) -> Dict[type, object]:
        if callable(self._rows):
            self._rows = self._rows()
        return self._rows

    def lookup(self, cls: type):
        try:
            return self._resolved[cls]
        except KeyError:
            pass
        rows = self.rows
        row = next((rows[base] for base in cls.__mro__ if base in rows), None)
        self._resolved[cls] = row
        return row


class Operation:
    """A single IR operation.

    Subclasses set ``OP_NAME`` ("dialect.mnemonic") and may add accessor
    properties, a :meth:`verify_` hook, and custom print/parse methods.
    """

    OP_NAME = "builtin.unregistered"
    #: Ops marked as terminators must appear last in their block.
    IS_TERMINATOR = False
    #: The op has no memory effect: unused, it may be deleted, and it
    #: may be duplicated or moved past any other op.
    PURE = False
    #: A scalar access's effect on its one memref operand: ``READ``
    #: for a load, ``WRITE`` for a store.  ``None`` with ``PURE``
    #: unset means the op may do anything (a call, a loop).
    MEMORY_EFFECT: Optional[str] = None
    #: Scalar floating-point operations one execution performs.
    FLOPS = 0

    def __init__(
        self,
        operands: Sequence[Value] = (),
        result_types: Sequence[Type] = (),
        attributes: Optional[Dict[str, Attribute]] = None,
        num_regions: int = 0,
        name: Optional[str] = None,
        successors: Sequence["Block"] = (),
    ):
        self._name = name or self.OP_NAME
        #: Successor blocks for branch-like terminators (CFG dialects).
        self.successors: List[Block] = list(successors) if successors else []
        self._operands: List[OpOperand] = []
        for i, value in enumerate(operands):
            if not isinstance(value, Value):
                raise IRError(
                    f"operand {i} of {self._name} is not a Value: {value!r}"
                )
            self._operands.append(OpOperand(self, i, value))
        # Most ops have no successors, attributes or regions and at most
        # one result: the empty cases skip the copying constructors.
        self.results: List[OpResult] = (
            [OpResult(self, i, ty) for i, ty in enumerate(result_types)]
            if result_types
            else []
        )
        self.attributes: Dict[str, Attribute] = (
            dict(attributes) if attributes else {}
        )
        self.regions: List[Region] = (
            [Region(self) for _ in range(num_regions)] if num_regions else []
        )
        self.parent_block: Optional[Block] = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        return self._name

    @property
    def dialect(self) -> str:
        return self._name.split(".", 1)[0]

    @property
    def operands(self) -> List[Value]:
        return [operand.value for operand in self._operands]

    @property
    def num_operands(self) -> int:
        return len(self._operands)

    def operand(self, index: int) -> Value:
        return self._operands[index].value

    def set_operand(self, index: int, value: Value) -> None:
        self._operands[index].set(value)

    @property
    def result(self) -> OpResult:
        if len(self.results) != 1:
            raise IRError(f"{self._name} has {len(self.results)} results")
        return self.results[0]

    @property
    def num_results(self) -> int:
        return len(self.results)

    def attr(self, key: str, default=None):
        return self.attributes.get(key, default)

    def set_attr(self, key: str, value) -> None:
        self.attributes[key] = attr_from_python(value)

    @property
    def parent_op(self) -> Optional["Operation"]:
        if self.parent_block is None or self.parent_block.parent_region is None:
            return None
        return self.parent_block.parent_region.parent_op

    @property
    def parent_region(self) -> Optional["Region"]:
        return self.parent_block.parent_region if self.parent_block else None

    def region(self, index: int = 0) -> "Region":
        return self.regions[index]

    @property
    def body(self) -> "Block":
        """Entry block of the first region (loops, functions, modules)."""
        return self.regions[0].entry_block

    # ------------------------------------------------------------------
    # Structural manipulation
    # ------------------------------------------------------------------

    def drop_all_references(self) -> None:
        """Drop all operand uses, recursively through nested regions."""
        for operand in self._operands:
            operand.drop()
        self._operands = []
        for region in self.regions:
            for block in region.blocks:
                for op in list(block.operations):
                    op.drop_all_references()

    def erase(self) -> None:
        """Remove this op from its block and sever all use-def edges.

        The op's results must be unused.
        """
        for res in self.results:
            if res.is_used():
                raise IRError(
                    f"cannot erase {self._name}: result #{res.index} still used"
                )
        self.drop_all_references()
        if self.parent_block is not None:
            self.parent_block.remove(self)

    def replace_all_uses_with(self, new_values: Sequence[Value]) -> None:
        if len(new_values) != len(self.results):
            raise IRError("replacement value count mismatch")
        for res, new in zip(self.results, new_values):
            res.replace_all_uses_with(new)

    def move_before(self, other: "Operation") -> None:
        if other.parent_block is None:
            raise IRError("target op is not in a block")
        if self.parent_block is not None:
            self.parent_block.remove(self)
        block = other.parent_block
        block.insert(block.operations.index(other), self)

    def move_after(self, other: "Operation") -> None:
        if other.parent_block is None:
            raise IRError("target op is not in a block")
        if self.parent_block is not None:
            self.parent_block.remove(self)
        block = other.parent_block
        block.insert(block.operations.index(other) + 1, self)

    def is_before_in_block(self, other: "Operation") -> bool:
        if self.parent_block is not other.parent_block or self.parent_block is None:
            raise IRError("ops are not in the same block")
        ops = self.parent_block.operations
        return ops.index(self) < ops.index(other)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------

    def walk(self) -> Iterator["Operation"]:
        """Pre-order traversal: this op, then all nested ops.

        Each block's op list is snapshotted when the walk reaches it, so
        the caller may erase or insert ops while iterating.  An explicit
        stack instead of one nested generator per op keeps the cost per
        visited op independent of the nesting depth.
        """
        yield self
        if not self.regions:
            return
        stack = [self._child_ops()]
        while stack:
            for op in stack[-1]:
                yield op
                if op.regions:
                    stack.append(op._child_ops())
                    break
            else:
                stack.pop()

    def _child_ops(self) -> Iterator["Operation"]:
        """The ops directly inside this op's regions, in order."""
        for region in self.regions:
            for block in region.blocks:
                yield from list(block.operations)

    def walk_inner(self) -> Iterator["Operation"]:
        """All nested ops, excluding this op itself."""
        walker = self.walk()
        next(walker)
        return walker

    def is_ancestor_of(self, other: "Operation") -> bool:
        node = other
        while node is not None:
            if node is self:
                return True
            node = node.parent_op
        return False

    # ------------------------------------------------------------------
    # Cloning
    # ------------------------------------------------------------------

    def clone(self, value_map: Optional[Dict[Value, Value]] = None) -> "Operation":
        """Deep-copy this operation (and nested regions).

        ``value_map`` maps original values to replacements; operands found
        in the map are remapped, results and block arguments of the clone
        are recorded in it.
        """
        if value_map is None:
            value_map = {}
        new_operands = [value_map.get(v, v) for v in self.operands]
        new_op = create_operation(
            self._name,
            operands=new_operands,
            result_types=[r.type for r in self.results],
            attributes=dict(self.attributes),
            num_regions=len(self.regions),
            successors=[value_map.get(b, b) for b in self.successors],
        )
        for old_res, new_res in zip(self.results, new_op.results):
            value_map[old_res] = new_res
        for old_region, new_region in zip(self.regions, new_op.regions):
            old_region.clone_into(new_region, value_map)
        return new_op

    # ------------------------------------------------------------------
    # Verification and display
    # ------------------------------------------------------------------

    def verify_(self) -> None:
        """Op-specific structural checks; overridden by subclasses."""

    def __repr__(self) -> str:
        from .printer import print_op_signature

        return f"<{print_op_signature(self)}>"


class Block:
    """An ordered list of operations with entry arguments."""

    def __init__(self, arg_types: Sequence[Type] = ()):
        self.arguments: List[BlockArgument] = []
        self.operations: List[Operation] = []
        self.parent_region: Optional[Region] = None
        for ty in arg_types:
            self.add_argument(ty)

    def add_argument(self, ty: Type) -> BlockArgument:
        arg = BlockArgument(self, len(self.arguments), ty)
        self.arguments.append(arg)
        return arg

    def append(self, op: Operation) -> Operation:
        return self.insert(len(self.operations), op)

    def insert(self, index: int, op: Operation) -> Operation:
        if op.parent_block is not None:
            raise IRError(f"{op.name} is already in a block")
        self.operations.insert(index, op)
        op.parent_block = self
        return op

    def remove(self, op: Operation) -> None:
        self.operations.remove(op)
        op.parent_block = None

    def move_ops_from(
        self,
        source: "Block",
        start: int,
        stop: Optional[int] = None,
        index: Optional[int] = None,
    ) -> None:
        """Move ``source.operations[start:stop]`` into this block at
        ``index`` (default: the end), order kept — one slice per side
        instead of a ``remove``/``insert`` pair per op."""
        moved = source.operations[start:stop]
        del source.operations[start:stop]
        for op in moved:
            op.parent_block = self
        if index is None:
            self.operations.extend(moved)
        else:
            self.operations[index:index] = moved

    @property
    def parent_op(self) -> Optional[Operation]:
        return self.parent_region.parent_op if self.parent_region else None

    @property
    def terminator(self) -> Optional[Operation]:
        if self.operations and self.operations[-1].IS_TERMINATOR:
            return self.operations[-1]
        return None

    def ops_without_terminator(self) -> List[Operation]:
        term = self.terminator
        if term is None:
            return list(self.operations)
        return self.operations[:-1]

    def walk(self) -> Iterator[Operation]:
        for op in list(self.operations):
            yield from op.walk()

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.operations)

    def __len__(self) -> int:
        return len(self.operations)


class Region:
    """A list of blocks owned by an operation."""

    def __init__(self, parent_op: Optional[Operation] = None):
        self.blocks: List[Block] = []
        self.parent_op = parent_op

    @property
    def entry_block(self) -> Block:
        if not self.blocks:
            raise IRError("region has no blocks")
        return self.blocks[0]

    def add_block(self, block: Optional[Block] = None) -> Block:
        if block is None:  # note: an empty Block is falsy (len == 0)
            block = Block()
        if block.parent_region is not None:
            raise IRError("block is already in a region")
        self.blocks.append(block)
        block.parent_region = self
        return block

    def clone_into(self, dest: "Region", value_map: Dict[Value, Value]) -> None:
        for block in self.blocks:
            new_block = dest.add_block()
            value_map[block] = new_block  # lets branches remap successors
            for arg in block.arguments:
                new_arg = new_block.add_argument(arg.type)
                value_map[arg] = new_arg
        for block, new_block in zip(self.blocks, dest.blocks[-len(self.blocks):]):
            for op in block.operations:
                new_block.append(op.clone(value_map))

    def walk(self) -> Iterator[Operation]:
        for block in self.blocks:
            yield from block.walk()


def create_operation(
    name: str,
    operands: Sequence[Value] = (),
    result_types: Sequence[Type] = (),
    attributes: Optional[Dict[str, Attribute]] = None,
    num_regions: int = 0,
    successors: Sequence[Block] = (),
) -> Operation:
    """Instantiate an op, dispatching to its registered class if any."""
    cls = OP_REGISTRY.get(name, Operation)
    op = cls.__new__(cls)
    Operation.__init__(
        op,
        operands=operands,
        result_types=result_types,
        attributes=attributes,
        num_regions=num_regions,
        name=name,
        successors=successors,
    )
    return op
