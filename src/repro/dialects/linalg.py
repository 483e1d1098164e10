"""The ``linalg`` dialect: linear-algebra operations on buffers.

Every op here but ``linalg.reshape`` is a *structured op*
(:class:`LinalgStructuredOp`): a loop nest over an iteration domain that
reads and writes each operand through one indexing map and computes a
payload at every point.  ``linalg.generic`` spells its maps, iterator
types and payload (a region) out.  The named ops (``matmul``,
``matvec``, ``conv2d_nchw``, ``transpose``, ``fill``), which cover the
builders the paper's TDS supports, fix their maps and payload kind; they
print compactly, and verify, count flops and lower to loops through the
same interface as the generic.  All ops here use memref (buffer)
operands, matching the paper's evaluation flow (C code -> Affine ->
Linalg on buffers).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir.affine_expr import AffineDimExpr, dim
from ..ir.affine_map import AffineMap
from ..ir.attributes import (
    AffineMapAttr,
    ArrayAttr,
    IntegerAttr,
    StringAttr,
    int_array_attr,
)
from ..ir.core import Block, IRError, Operation, register_op
from ..ir.types import MemRefType
from ..ir.values import Value
from . import std


def _require_memref(op_name: str, value: Value):
    ty = value.type
    if not isinstance(ty, MemRefType):
        raise IRError(f"{op_name}: operand must be a memref, got {ty}")
    return ty


#: Scalar arithmetic ops one point of each fixed payload kind executes.
_PAYLOAD_ARITH = {"mac": 2, "copy": 0, "fill": 0}


class LinalgStructuredOp(Operation):
    """A loop nest that reads and writes each operand (inputs first, then
    outputs) through one indexing map over the nest's loops.

    ``PAYLOAD`` names what one point of the iteration domain computes:
    ``mac`` stores ``in0 * in1 + out``, ``copy`` stores ``in0``,
    ``fill`` stores the scalar ``in0`` (whose map has no results) and
    ``region`` runs the op's body (``linalg.generic``).  The domain, the
    verifier, ``flops()`` and the lowering to loops
    (``transforms/lowering.py``) are written once against the maps and
    the payload kind, so a new structured op supplies only those two.
    """

    PAYLOAD = "region"

    @property
    def indexing_maps(self) -> Sequence[AffineMap]:
        raise NotImplementedError

    @property
    def num_inputs(self) -> int:
        return self.num_operands - 1

    @property
    def inputs(self) -> List[Value]:
        return self.operands[: self.num_inputs]

    @property
    def outputs(self) -> List[Value]:
        return self.operands[self.num_inputs:]

    @property
    def num_loops(self) -> int:
        return self.indexing_maps[0].num_dims

    def _loop_extents(self):
        """``(loop, size)`` for every operand dimension indexed by a
        bare loop ``d<loop>``: the sizes the loop's extent is read from."""
        for operand, map_ in zip(self.operands, self.indexing_maps):
            if not isinstance(operand.type, MemRefType):
                continue
            for expr, size in zip(map_.results, operand.type.shape):
                if isinstance(expr, AffineDimExpr):
                    yield expr.position, size
                    continue
                linear = expr.as_linear()
                if linear is None:
                    continue
                single = linear.single_dim()
                if single and single[1] == 1 and single[2] == 0:
                    yield single[0], size

    def iteration_domain(self) -> List[int]:
        """Loop extents inferred from operand shapes via indexing maps."""
        extents: List[Optional[int]] = [None] * self.num_loops
        for loop, size in self._loop_extents():
            extents[loop] = size
        if any(e is None for e in extents):
            raise IRError(
                f"{self.name}: could not infer the full iteration domain"
            )
        return extents  # type: ignore[return-value]

    def _payload_arith(self) -> int:
        return _PAYLOAD_ARITH[self.PAYLOAD]

    def flops(self) -> int:
        """Scalar floating-point operations: the domain's size times
        the payload's arithmetic."""
        domain = 1
        for extent in self.iteration_domain():
            domain *= extent
        return domain * self._payload_arith()

    def verify_(self) -> None:
        maps = self.indexing_maps
        loops = self.num_loops
        for operand, map_ in zip(self.operands, maps):
            if map_.num_dims != loops:
                raise IRError(
                    f"{self.name}: map {map_} expects {map_.num_dims} "
                    f"dims but op has {loops} loops"
                )
            ty = operand.type
            if not isinstance(ty, MemRefType):
                # A map with no results reads a scalar (a fill's value).
                if map_.num_results:
                    raise IRError(f"{self.name}: operand must be a memref")
                continue
            if map_.num_results != ty.rank:
                raise IRError(
                    f"{self.name}: map {map_} rank {map_.num_results} vs "
                    f"memref rank {ty.rank}"
                )
        # Every operand dimension a loop indexes must agree on that
        # loop's extent; otherwise the domain would be whichever operand
        # came last, and the op would read part of the others.
        extents: Dict[int, int] = {}
        indexed = set()
        for loop, size in self._loop_extents():
            indexed.add(loop)
            if size >= 0 and extents.setdefault(loop, size) != size:
                raise IRError(
                    f"{self.name}: operands disagree on the extent of "
                    f"loop d{loop} ({extents[loop]} vs {size})"
                )
        if len(indexed) < loops:
            raise IRError(
                f"{self.name}: could not infer the full iteration domain"
            )
        # An empty domain reads nothing; a dynamic extent bounds nothing.
        if len(extents) == loops and 0 not in extents.values():
            self._verify_windows(maps, extents)

    def _verify_windows(self, maps, extents: Dict[int, int]) -> None:
        """Every compound subscript (a convolution's ``oh + kh``) stays
        inside its dimension at the domain's far corner: an input may be
        larger than the window the op reads, never smaller."""
        for operand, map_ in zip(self.operands, maps):
            ty = operand.type
            if not isinstance(ty, MemRefType):
                continue
            for position, (expr, size) in enumerate(
                zip(map_.results, ty.shape)
            ):
                if size < 0 or isinstance(expr, AffineDimExpr):
                    continue
                linear = expr.as_linear()
                if linear is None or linear.symbol_coeffs:
                    continue
                reach = linear.constant + sum(
                    max(0, coeff * (extents[loop] - 1))
                    for loop, coeff in linear.dim_coeffs.items()
                )
                if reach >= size:
                    raise IRError(
                        f"{self.name}: subscript {expr} reaches {reach} "
                        f"in dimension {position} of {ty}"
                    )


def _maps(num_loops: int, *operands) -> Tuple[AffineMap, ...]:
    """One map per operand over ``num_loops`` loops; each subscript is
    a loop position, or a tuple of positions summed."""
    loops = [dim(i) for i in range(num_loops)]

    def subscript(positions):
        if isinstance(positions, int):
            return loops[positions]
        expr = loops[positions[0]]
        for position in positions[1:]:
            expr = expr + loops[position]
        return expr

    return tuple(
        AffineMap(num_loops, 0, [subscript(p) for p in subscripts])
        for subscripts in operands
    )


#: ``C[i, j] += A[i, k] * B[k, j]`` over loops ``(i, j, k)``; the
#: interface ``affine.matmul`` shares.
MATMUL_MAPS = _maps(3, (0, 2), (2, 1), (0, 1))
#: ``y[i] += A[i, j] * x[j]``, and with ``trans`` ``y[j] += A[i, j] *
#: x[i]``: the matrix's contiguous dimension stays innermost.
_MATVEC_MAPS = {
    False: _maps(2, (0, 1), (1,), (0,)),
    True: _maps(2, (0, 1), (0,), (1,)),
}
#: ``O[n, f, oh, ow] += I[n, c, oh + kh, ow + kw] * K[f, c, kh, kw]``
#: over loops ``(n, f, oh, ow, c, kh, kw)``.
_CONV2D_NCHW_MAPS = _maps(
    7, (0, 4, (2, 5), (3, 6)), (1, 4, 5, 6), (0, 1, 2, 3)
)


@lru_cache(maxsize=64)
def _transpose_maps(permutation: Tuple[int, ...]) -> Tuple[AffineMap, ...]:
    """``out[i0, ..] = in[..]`` over the output's loops: input dimension
    ``k`` is read by the loop of the output dimension ``perm`` sends it
    to."""
    return _maps(
        len(permutation),
        tuple(permutation.index(k) for k in range(len(permutation))),
        tuple(range(len(permutation))),
    )


@lru_cache(maxsize=64)
def _fill_maps(rank: int) -> Tuple[AffineMap, ...]:
    return _maps(rank, (), tuple(range(rank)))


@register_op
class MatmulOp(LinalgStructuredOp):
    """``linalg.matmul``: C += A * B on 2-d memrefs."""

    OP_NAME = "linalg.matmul"
    PAYLOAD = "mac"
    indexing_maps = MATMUL_MAPS

    @staticmethod
    def create(a: Value, b: Value, c: Value) -> "MatmulOp":
        return MatmulOp(operands=[a, b, c])

    @property
    def a(self) -> Value:
        return self.operand(0)

    @property
    def b(self) -> Value:
        return self.operand(1)

    @property
    def c(self) -> Value:
        return self.operand(2)


@register_op
class MatvecOp(LinalgStructuredOp):
    """``linalg.matvec``: y += A * x (or y += A^T * x with trans)."""

    OP_NAME = "linalg.matvec"
    PAYLOAD = "mac"

    @staticmethod
    def create(a: Value, x: Value, y: Value, trans: bool = False) -> "MatvecOp":
        from ..ir.attributes import BoolAttr

        return MatvecOp(operands=[a, x, y], attributes={"trans": BoolAttr(trans)})

    @property
    def trans(self) -> bool:
        attr = self.attributes.get("trans")
        return bool(attr.value) if attr is not None else False

    @property
    def indexing_maps(self) -> Sequence[AffineMap]:
        return _MATVEC_MAPS[self.trans]

    @property
    def a(self) -> Value:
        return self.operand(0)

    @property
    def x(self) -> Value:
        return self.operand(1)

    @property
    def y(self) -> Value:
        return self.operand(2)


@register_op
class TransposeOp(LinalgStructuredOp):
    """``linalg.transpose``: out = permute(in, permutation)."""

    OP_NAME = "linalg.transpose"
    PAYLOAD = "copy"

    @staticmethod
    def create(input: Value, output: Value, permutation: Sequence[int]):
        return TransposeOp(
            operands=[input, output],
            attributes={"permutation": int_array_attr(permutation)},
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

    @property
    def indexing_maps(self) -> Sequence[AffineMap]:
        return _transpose_maps(tuple(self.permutation))

    def verify_(self) -> None:
        perm = self.permutation
        if sorted(perm) != list(range(len(perm))):
            raise IRError(f"linalg.transpose: bad permutation {perm}")
        super().verify_()


@register_op
class ReshapeOp(Operation):
    """``linalg.reshape``: collapse or expand dimensions by reassociation.

    ``reassociation`` groups source (collapse) or target (expand)
    dimensions; e.g. ``[[0, 1], [2]]`` collapses a 3-d buffer into 2-d.
    The direction is inferred from operand ranks.  No indexing map
    relates the two buffers' subscripts, so it is not a structured op.
    """

    OP_NAME = "linalg.reshape"

    @staticmethod
    def create(
        input: Value, output: Value, reassociation: Sequence[Sequence[int]]
    ) -> "ReshapeOp":
        groups = ArrayAttr([int_array_attr(g) for g in reassociation])
        return ReshapeOp(
            operands=[input, output], attributes={"reassociation": groups}
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

    def is_collapse(self) -> bool:
        return self.input.type.rank >= self.output.type.rank

    def verify_(self) -> None:
        in_ty = _require_memref(self.name, self.input)
        out_ty = _require_memref(self.name, self.output)
        groups = self.reassociation
        high, low = (in_ty, out_ty) if self.is_collapse() else (out_ty, in_ty)
        if len(groups) != low.rank:
            raise IRError(
                f"linalg.reshape: {len(groups)} groups for rank-{low.rank} result"
            )
        covered = [d for group in groups for d in group]
        if covered != list(range(high.rank)):
            raise IRError(
                f"linalg.reshape: reassociation {groups} does not cover "
                f"rank-{high.rank} operand"
            )
        if -1 not in high.shape and -1 not in low.shape:
            for group, low_dim in zip(groups, low.shape):
                size = 1
                for d in group:
                    size *= high.shape[d]
                if size != low_dim:
                    raise IRError(
                        f"linalg.reshape: group {group} product {size} != "
                        f"{low_dim}"
                    )


@register_op
class Conv2DNchwOp(LinalgStructuredOp):
    """``linalg.conv2d_nchw``: 2-d convolution, NCHW layout.

    Input (N, C, H, W), kernel (F, C, KH, KW), output (N, F, OH, OW).
    The input may be larger than ``out + kernel - 1``, never smaller.
    """

    OP_NAME = "linalg.conv2d_nchw"
    PAYLOAD = "mac"
    indexing_maps = _CONV2D_NCHW_MAPS

    @staticmethod
    def create(input: Value, kernel: Value, output: Value) -> "Conv2DNchwOp":
        return Conv2DNchwOp(operands=[input, kernel, output])

    @property
    def input(self) -> Value:
        return self.operand(0)

    @property
    def kernel(self) -> Value:
        return self.operand(1)

    @property
    def output(self) -> Value:
        return self.operand(2)


@register_op
class FillOp(LinalgStructuredOp):
    """``linalg.fill``: out[...] = scalar."""

    OP_NAME = "linalg.fill"
    PAYLOAD = "fill"

    @staticmethod
    def create(value: Value, output: Value) -> "FillOp":
        return FillOp(operands=[value, output])

    @property
    def fill_value(self) -> Value:
        return self.operand(0)

    @property
    def output(self) -> Value:
        return self.operand(1)

    @property
    def indexing_maps(self) -> Sequence[AffineMap]:
        return _fill_maps(_require_memref(self.name, self.output).rank)


@register_op
class LinalgYieldOp(Operation):
    OP_NAME = "linalg.yield"
    IS_TERMINATOR = True

    @staticmethod
    def create(values: Sequence[Value]) -> "LinalgYieldOp":
        return LinalgYieldOp(operands=values)


@register_op
class GenericOp(LinalgStructuredOp):
    """``linalg.generic``: the general structured op.

    Iteration space is implied by iterator_types; each operand is read
    (inputs) or read-written (outputs) through its indexing map.  The
    body block receives one scalar argument per operand and yields the
    values stored to the outputs.
    """

    OP_NAME = "linalg.generic"

    @staticmethod
    def create(
        inputs: Sequence[Value],
        outputs: Sequence[Value],
        indexing_maps: Sequence[AffineMap],
        iterator_types: Sequence[str],
    ) -> "GenericOp":
        operands = list(inputs) + list(outputs)
        if len(indexing_maps) != len(operands):
            raise IRError("linalg.generic: one indexing map per operand")
        for it in iterator_types:
            if it not in ("parallel", "reduction"):
                raise IRError(f"bad iterator type {it!r}")
        op = GenericOp(
            operands=operands,
            attributes={
                "indexing_maps": ArrayAttr(
                    [AffineMapAttr(m) for m in indexing_maps]
                ),
                "iterator_types": ArrayAttr(
                    [StringAttr(s) for s in iterator_types]
                ),
                "num_inputs": IntegerAttr(len(inputs)),
            },
            num_regions=1,
        )
        scalar_types = [v.type.element_type for v in operands]
        op.regions[0].add_block(Block(scalar_types))
        return op

    @staticmethod
    def create_contraction(
        a: Value,
        b: Value,
        output: Value,
        indexing_maps: Sequence[AffineMap],
        subtract: bool = False,
    ) -> "GenericOp":
        """A multiply-accumulate generic, ``out = out + a * b`` (``out -
        a * b`` with ``subtract``): the body every raiser gives a tensor
        contraction.  A loop is parallel iff the output map indexes it."""
        out_map = indexing_maps[-1]
        free = set().union(*(e.dims_used() for e in out_map.results))
        iterator_types = [
            "parallel" if d in free else "reduction"
            for d in range(out_map.num_dims)
        ]
        op = GenericOp.create([a, b], [output], indexing_maps, iterator_types)
        block = op.body
        x, y, acc = block.arguments
        mul = block.append(std.MulFOp.create(x, y))
        combine = block.append(
            (std.SubFOp if subtract else std.AddFOp).create(acc, mul.result)
        )
        block.append(LinalgYieldOp.create([combine.result]))
        return op

    @property
    def num_inputs(self) -> int:
        return self.attributes["num_inputs"].value

    @property
    def indexing_maps(self) -> List[AffineMap]:
        return [a.map for a in self.attributes["indexing_maps"]]

    @property
    def iterator_types(self) -> List[str]:
        return [a.value for a in self.attributes["iterator_types"]]

    @property
    def num_loops(self) -> int:
        return len(self.iterator_types)

    def _payload_arith(self) -> int:
        return sum(1 for op in self.body.operations if op.dialect == "std")

    def verify_(self) -> None:
        for operand in self.operands:
            if not isinstance(operand.type, MemRefType):
                raise IRError("linalg.generic operands must be memrefs")
        super().verify_()
        block = self.body
        if len(block.arguments) != self.num_operands:
            raise IRError(
                "linalg.generic body must take one scalar per operand"
            )
        term = block.terminator
        if not isinstance(term, LinalgYieldOp):
            raise IRError("linalg.generic body must end with linalg.yield")
        if term.num_operands != len(self.outputs):
            raise IRError(
                "linalg.yield must yield one value per output operand"
            )
