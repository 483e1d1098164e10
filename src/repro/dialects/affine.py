"""The ``affine`` dialect: polyhedral loops and affine memory access.

Loops carry their bounds as affine maps over bound operands, loads and
stores carry an access map applied to their index operands, which keeps
transformation validity preconditions (affine-ness) in the IR itself.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from ..ir.affine_expr import AffineExpr
from ..ir.affine_map import AffineMap
from ..ir.attributes import AffineMapAttr, IntegerAttr, UnitAttr
from ..ir.core import Block, IRError, Operation, register_op
from ..ir.types import IndexType, MemRefType
from ..ir.values import BlockArgument, Value


@register_op
class AffineYieldOp(Operation):
    """Terminates the body of an affine.for."""

    OP_NAME = "affine.yield"
    IS_TERMINATOR = True

    @staticmethod
    def create() -> "AffineYieldOp":
        return AffineYieldOp()


@register_op
class AffineForOp(Operation):
    """``affine.for %iv = lb to ub step s { ... }``.

    Bounds are affine maps evaluated over the op's operands; the common
    case of constant bounds uses nullary constant maps.
    """

    OP_NAME = "affine.for"

    #: Attributes the loop header spells out; anything else prints as a
    #: trailing attribute dictionary after the body.
    STRUCTURAL_ATTRS = (
        "lower_bound",
        "upper_bound",
        "step",
        "lb_operand_count",
    )

    @staticmethod
    def create(
        lower_bound: Union[int, AffineMap],
        upper_bound: Union[int, AffineMap],
        step: int = 1,
        lb_operands: Sequence[Value] = (),
        ub_operands: Sequence[Value] = (),
    ) -> "AffineForOp":
        if isinstance(lower_bound, int):
            lower_bound = AffineMap.constant_map([lower_bound])
        if isinstance(upper_bound, int):
            upper_bound = AffineMap.constant_map([upper_bound])
        if step <= 0:
            raise IRError(f"affine.for step must be positive, got {step}")
        op = AffineForOp(
            operands=list(lb_operands) + list(ub_operands),
            attributes={
                "lower_bound": AffineMapAttr(lower_bound),
                "upper_bound": AffineMapAttr(upper_bound),
                "step": IntegerAttr(step),
                "lb_operand_count": IntegerAttr(len(lb_operands)),
            },
            num_regions=1,
        )
        body = op.regions[0].add_block(Block([IndexType()]))
        body.append(AffineYieldOp.create())
        return op

    # -- accessors --------------------------------------------------------

    @property
    def induction_var(self) -> BlockArgument:
        return self.body.arguments[0]

    @property
    def step(self) -> int:
        return self.attributes["step"].value

    @property
    def lower_bound_map(self) -> AffineMap:
        return self.attributes["lower_bound"].map

    @property
    def upper_bound_map(self) -> AffineMap:
        return self.attributes["upper_bound"].map

    @property
    def lb_operands(self) -> List[Value]:
        count = self.attributes["lb_operand_count"].value
        return self.operands[:count]

    @property
    def ub_operands(self) -> List[Value]:
        count = self.attributes["lb_operand_count"].value
        return self.operands[count:]

    @property
    def no_vectorize(self) -> bool:
        """Set by the tiling stages on the loops they create: the band
        was proven non-collapsible before tiling, so codegen emits the
        loop as written instead of re-attempting (and re-recording the
        bail of) the whole-nest vectorizer."""
        return "no_vectorize" in self.attributes

    def mark_no_vectorize(self) -> None:
        self.attributes["no_vectorize"] = UnitAttr()

    def constant_lower_bound(self) -> Optional[int]:
        map_ = self.lower_bound_map
        if map_.num_results == 1 and map_.results[0].is_constant():
            return map_.results[0].evaluate((), ())
        return None

    def constant_upper_bound(self) -> Optional[int]:
        """Constant upper bound; for multi-result (min) maps, the min of
        the constant results if all are constant."""
        map_ = self.upper_bound_map
        if all(e.is_constant() for e in map_.results):
            return min(e.evaluate((), ()) for e in map_.results)
        return None

    def has_constant_bounds(self) -> bool:
        return (
            self.constant_lower_bound() is not None
            and self.constant_upper_bound() is not None
        )

    def constant_trip_count(self) -> Optional[int]:
        lb = self.constant_lower_bound()
        ub = self.constant_upper_bound()
        if lb is None or ub is None:
            return None
        if ub <= lb:
            return 0
        return -((lb - ub) // self.step)  # ceildiv(ub - lb, step)

    def set_constant_bounds(self, lb: int, ub: int, step: Optional[int] = None):
        self.attributes["lower_bound"] = AffineMapAttr(AffineMap.constant_map([lb]))
        self.attributes["upper_bound"] = AffineMapAttr(AffineMap.constant_map([ub]))
        if step is not None:
            self.attributes["step"] = IntegerAttr(step)

    def ops_in_body(self) -> List[Operation]:
        """Body operations, excluding the terminator."""
        return self.body.ops_without_terminator()

    def verify_(self) -> None:
        if len(self.regions) != 1 or not self.regions[0].blocks:
            raise IRError("affine.for requires a body block")
        body = self.body
        if len(body.arguments) != 1 or not isinstance(
            body.arguments[0].type, IndexType
        ):
            raise IRError("affine.for body must take a single index argument")
        if not isinstance(body.terminator, AffineYieldOp):
            raise IRError("affine.for body must end with affine.yield")
        count = self.attributes["lb_operand_count"].value
        if self.lower_bound_map.num_dims != count:
            raise IRError("affine.for lower bound operand count mismatch")
        if self.upper_bound_map.num_dims != self.num_operands - count:
            raise IRError("affine.for upper bound operand count mismatch")


class AffineAccessOpBase(Operation):
    """Shared accessors for affine.load / affine.store."""

    MEMREF_OPERAND_INDEX = 0

    @property
    def memref(self) -> Value:
        return self.operand(self.MEMREF_OPERAND_INDEX)

    @property
    def indices(self) -> List[Value]:
        return self.operands[self.MEMREF_OPERAND_INDEX + 1:]

    @property
    def map(self) -> AffineMap:
        return self.attributes["map"].map

    @property
    def memref_type(self) -> MemRefType:
        ty = self.memref.type
        if not isinstance(ty, MemRefType):
            raise IRError(f"{self.name}: operand is not a memref")
        return ty

    def access_exprs(self) -> Tuple[AffineExpr, ...]:
        return self.map.results

    def verify_(self) -> None:
        map_ = self.map
        if map_.num_results != self.memref_type.rank:
            raise IRError(
                f"{self.name}: map has {map_.num_results} results for "
                f"rank-{self.memref_type.rank} memref"
            )
        if map_.num_dims != len(self.indices):
            raise IRError(
                f"{self.name}: map expects {map_.num_dims} dims, "
                f"got {len(self.indices)} index operands"
            )
        for idx in self.indices:
            if not isinstance(idx.type, IndexType):
                raise IRError(f"{self.name}: index operand is not of index type")


@register_op
class AffineLoadOp(AffineAccessOpBase):
    OP_NAME = "affine.load"

    @staticmethod
    def create(
        memref: Value,
        indices: Sequence[Value],
        map_: Optional[AffineMap] = None,
    ) -> "AffineLoadOp":
        if map_ is None:
            map_ = AffineMap.identity(len(indices))
        elem = memref.type.element_type
        return AffineLoadOp(
            operands=[memref, *indices],
            result_types=[elem],
            attributes={"map": AffineMapAttr(map_)},
        )


@register_op
class AffineStoreOp(AffineAccessOpBase):
    OP_NAME = "affine.store"
    MEMREF_OPERAND_INDEX = 1

    @staticmethod
    def create(
        value: Value,
        memref: Value,
        indices: Sequence[Value],
        map_: Optional[AffineMap] = None,
    ) -> "AffineStoreOp":
        if map_ is None:
            map_ = AffineMap.identity(len(indices))
        return AffineStoreOp(
            operands=[value, memref, *indices],
            attributes={"map": AffineMapAttr(map_)},
        )

    @property
    def value(self) -> Value:
        return self.operand(0)


@register_op
class AffineApplyOp(Operation):
    """Applies a single-result affine map to index operands."""

    OP_NAME = "affine.apply"

    @staticmethod
    def create(map_: AffineMap, operands: Sequence[Value]) -> "AffineApplyOp":
        if map_.num_results != 1:
            raise IRError("affine.apply requires a single-result map")
        return AffineApplyOp(
            operands=operands,
            result_types=[IndexType()],
            attributes={"map": AffineMapAttr(map_)},
        )

    @property
    def map(self) -> AffineMap:
        return self.attributes["map"].map


@register_op
class AffineMatmulOp(Operation):
    """High-level matrix-multiply op *within* the Affine dialect.

    Models the custom ``matmul`` operation of Bondhugula's "High
    Performance Code Generation in MLIR" study: ``C += A * B`` on 2-d
    memrefs, lowered to OpenBLAS/BLIS-style tiled, vectorized code.
    This is the raising target of the Affine-to-Affine path (§V-A).
    """

    OP_NAME = "affine.matmul"

    @staticmethod
    def create(a: Value, b: Value, c: Value) -> "AffineMatmulOp":
        return AffineMatmulOp(operands=[a, b, c])

    @property
    def a(self) -> Value:
        return self.operand(0)

    @property
    def b(self) -> Value:
        return self.operand(1)

    @property
    def c(self) -> Value:
        return self.operand(2)

    def verify_(self) -> None:
        for operand in self.operands:
            ty = operand.type
            if not isinstance(ty, MemRefType) or ty.rank != 2:
                raise IRError("affine.matmul operands must be 2-d memrefs")
        m, k = self.a.type.shape
        k2, n = self.b.type.shape
        m2, n2 = self.c.type.shape
        dims_known = -1 not in (m, k, k2, n, m2, n2)
        if dims_known and (k != k2 or m != m2 or n != n2):
            raise IRError(
                f"affine.matmul shape mismatch: ({m}x{k}) * ({k2}x{n}) "
                f"-> ({m2}x{n2})"
            )


# ----------------------------------------------------------------------
# Loop-nest utilities
# ----------------------------------------------------------------------


def perfect_nest(root: AffineForOp) -> List[AffineForOp]:
    """The maximal perfectly-nested loop band starting at ``root``.

    A loop band is perfect when each loop's body contains exactly one
    operation (besides the terminator) and that operation is the next
    loop.  The innermost loop of the band may contain arbitrary
    straight-line code.
    """
    band = [root]
    current = root
    while True:
        body_ops = current.ops_in_body()
        if len(body_ops) == 1 and isinstance(body_ops[0], AffineForOp):
            current = body_ops[0]
            band.append(current)
        else:
            return band


def innermost_loops(op: Operation) -> List[AffineForOp]:
    """All affine.for ops that contain no nested affine.for."""
    result = []
    for nested in op.walk():
        if isinstance(nested, AffineForOp) and not any(
            isinstance(inner, AffineForOp)
            for inner in nested.walk_inner()
        ):
            result.append(nested)
    return result


def outermost_loops(op: Operation) -> List[AffineForOp]:
    """Affine loops not nested inside another affine loop within ``op``."""
    result = []
    for nested in op.walk():
        if isinstance(nested, AffineForOp):
            parent = nested.parent_op
            is_outer = True
            while parent is not None and parent is not op:
                if isinstance(parent, AffineForOp):
                    is_outer = False
                    break
                parent = parent.parent_op
            if is_outer:
                result.append(nested)
    return result


def loop_nest_depth(root: AffineForOp) -> int:
    """Maximum loop nesting depth, counting ``root`` itself."""
    deepest = 0
    for op in root.body.walk():
        if isinstance(op, AffineForOp):
            deepest = max(deepest, loop_nest_depth(op))
    return 1 + deepest


def build_loop_nest(
    builder,
    bounds: Sequence[Tuple[int, int]],
    steps: Optional[Sequence[int]] = None,
) -> Tuple[List[AffineForOp], List[Value]]:
    """Create a perfect nest of constant-bound loops.

    Returns the loops (outermost first) and their induction variables.
    The builder's insertion point is left *unchanged*; use the innermost
    loop's body to emit the payload.
    """
    steps = list(steps) if steps is not None else [1] * len(bounds)
    loops: List[AffineForOp] = []
    ivs: List[Value] = []
    for (lb, ub), step in zip(bounds, steps):
        loop = AffineForOp.create(lb, ub, step)
        if loops:
            loops[-1].body.insert(len(loops[-1].body.operations) - 1, loop)
        else:
            builder.insert(loop)
        loops.append(loop)
        ivs.append(loop.induction_var)
    return loops, ivs
