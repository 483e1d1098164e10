"""The ``linalg`` dialect: linear-algebra operations on buffers.

Named ops (`matmul`, `matvec`, `transpose`, `reshape`, `conv2d_nchw`)
cover the builders the paper's TDS supports; ``linalg.generic`` provides
the fully general structured-op form with indexing maps and iterator
types.  All ops here use memref (buffer) operands, matching the paper's
evaluation flow (C code -> Affine -> Linalg on buffers).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..ir.affine_expr import AffineDimExpr
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


def _require_memref(op_name: str, value: Value, rank: Optional[int] = None):
    ty = value.type
    if not isinstance(ty, MemRefType):
        raise IRError(f"{op_name}: operand must be a memref, got {ty}")
    if rank is not None and ty.rank != rank:
        raise IRError(f"{op_name}: expected rank-{rank} memref, got {ty}")
    return ty


class LinalgStructuredOp(Operation):
    """Base class for linalg ops; provides flop accounting hooks."""

    def flops(self) -> int:
        """Number of scalar floating-point operations executed."""
        return 0

    def memory_footprint_bytes(self) -> int:
        total = 0
        for operand in self.operands:
            ty = operand.type
            if isinstance(ty, MemRefType):
                count = ty.num_elements()
                if count is not None:
                    total += count * 4
        return total


@register_op
class MatmulOp(LinalgStructuredOp):
    """``linalg.matmul``: C += A * B on 2-d memrefs."""

    OP_NAME = "linalg.matmul"

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

    def verify_(self) -> None:
        a = _require_memref(self.name, self.a, 2)
        b = _require_memref(self.name, self.b, 2)
        c = _require_memref(self.name, self.c, 2)
        m, k = a.shape
        k2, n = b.shape
        m2, n2 = c.shape
        if -1 not in (m, k, k2, n, m2, n2) and (k != k2 or m != m2 or n != n2):
            raise IRError(
                f"linalg.matmul shape mismatch ({m}x{k})*({k2}x{n})->({m2}x{n2})"
            )

    def flops(self) -> int:
        m, k = self.a.type.shape
        n = self.b.type.shape[1]
        return 2 * m * k * n


@register_op
class MatvecOp(LinalgStructuredOp):
    """``linalg.matvec``: y += A * x (or y += A^T * x with trans)."""

    OP_NAME = "linalg.matvec"

    @staticmethod
    def create(a: Value, x: Value, y: Value, trans: bool = False) -> "MatvecOp":
        from ..ir.attributes import BoolAttr

        return MatvecOp(operands=[a, x, y], attributes={"trans": BoolAttr(trans)})

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

    def verify_(self) -> None:
        a = _require_memref(self.name, self.a, 2)
        x = _require_memref(self.name, self.x, 1)
        y = _require_memref(self.name, self.y, 1)
        m, n = a.shape
        if self.trans:
            m, n = n, m
        if -1 not in (m, n) and (x.shape[0] != n or y.shape[0] != m):
            raise IRError(
                f"linalg.matvec shape mismatch ({m}x{n})*({x.shape[0]})"
                f"->({y.shape[0]})"
            )

    def flops(self) -> int:
        m, n = self.a.type.shape
        return 2 * m * n


@register_op
class TransposeOp(LinalgStructuredOp):
    """``linalg.transpose``: out = permute(in, permutation)."""

    OP_NAME = "linalg.transpose"

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

    def verify_(self) -> None:
        in_ty = _require_memref(self.name, self.input)
        out_ty = _require_memref(self.name, self.output)
        perm = self.permutation
        if sorted(perm) != list(range(in_ty.rank)):
            raise IRError(f"linalg.transpose: bad permutation {perm}")
        expected = tuple(in_ty.shape[p] for p in perm)
        if -1 not in in_ty.shape and out_ty.shape != expected:
            raise IRError(
                f"linalg.transpose: output shape {out_ty.shape} != {expected}"
            )


@register_op
class ReshapeOp(LinalgStructuredOp):
    """``linalg.reshape``: collapse or expand dimensions by reassociation.

    ``reassociation`` groups source (collapse) or target (expand)
    dimensions; e.g. ``[[0, 1], [2]]`` collapses a 3-d buffer into 2-d.
    The direction is inferred from operand ranks.
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
    """

    OP_NAME = "linalg.conv2d_nchw"

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

    def verify_(self) -> None:
        in_ty = _require_memref(self.name, self.input, 4)
        k_ty = _require_memref(self.name, self.kernel, 4)
        out_ty = _require_memref(self.name, self.output, 4)
        n, c, h, w = in_ty.shape
        f, c2, kh, kw = k_ty.shape
        n2, f2, oh, ow = out_ty.shape
        static = -1 not in in_ty.shape + k_ty.shape + out_ty.shape
        # A valid convolution reads only the input window it needs: the
        # input may be larger than ``out + kernel - 1``, never smaller.
        if static and (
            c != c2
            or n != n2
            or f != f2
            or h < oh + kh - 1
            or w < ow + kw - 1
        ):
            raise IRError("linalg.conv2d_nchw shape mismatch")

    def flops(self) -> int:
        f, c, kh, kw = self.kernel.type.shape
        n, _, oh, ow = self.output.type.shape
        return 2 * n * f * oh * ow * c * kh * kw


@register_op
class FillOp(LinalgStructuredOp):
    """``linalg.fill``: out[...] = scalar."""

    OP_NAME = "linalg.fill"

    @staticmethod
    def create(value: Value, output: Value) -> "FillOp":
        return FillOp(operands=[value, output])

    @property
    def fill_value(self) -> Value:
        return self.operand(0)

    @property
    def output(self) -> Value:
        return self.operand(1)


@register_op
class CopyOp(LinalgStructuredOp):
    OP_NAME = "linalg.copy"

    @staticmethod
    def create(input: Value, output: Value) -> "CopyOp":
        return CopyOp(operands=[input, output])

    @property
    def input(self) -> Value:
        return self.operand(0)

    @property
    def output(self) -> Value:
        return self.operand(1)


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
    def inputs(self) -> List[Value]:
        return self.operands[: self.num_inputs]

    @property
    def outputs(self) -> List[Value]:
        return self.operands[self.num_inputs:]

    @property
    def indexing_maps(self) -> List[AffineMap]:
        return [a.map for a in self.attributes["indexing_maps"]]

    @property
    def iterator_types(self) -> List[str]:
        return [a.value for a in self.attributes["iterator_types"]]

    @property
    def num_loops(self) -> int:
        return len(self.iterator_types)

    def _loop_extents(self):
        """``(loop, size)`` for every operand dimension indexed by a
        bare loop ``d<loop>``: the sizes the loop's extent is read from."""
        for operand, map_ in zip(self.operands, self.indexing_maps):
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
                "linalg.generic: could not infer the full iteration domain"
            )
        return extents  # type: ignore[return-value]

    def flops(self) -> int:
        domain = 1
        for extent in self.iteration_domain():
            domain *= extent
        body_arith = sum(
            1 for op in self.body.operations if op.dialect == "std"
        )
        return domain * body_arith

    def verify_(self) -> None:
        maps = self.indexing_maps
        loops = self.num_loops
        for map_ in maps:
            if map_.num_dims != loops:
                raise IRError(
                    f"linalg.generic: map {map_} expects {map_.num_dims} "
                    f"dims but op has {loops} loops"
                )
        for operand, map_ in zip(self.operands, maps):
            ty = operand.type
            if not isinstance(ty, MemRefType):
                raise IRError("linalg.generic operands must be memrefs")
            if map_.num_results != ty.rank:
                raise IRError(
                    f"linalg.generic: map {map_} rank {map_.num_results} vs "
                    f"memref rank {ty.rank}"
                )
        # Every operand dimension a loop indexes must agree on that
        # loop's extent; otherwise the domain would be whichever operand
        # came last, and the op would read part of the others.
        extents: Dict[int, int] = {}
        for loop, size in self._loop_extents():
            if size >= 0 and extents.setdefault(loop, size) != size:
                raise IRError(
                    f"linalg.generic: operands disagree on the extent of "
                    f"loop d{loop} ({extents[loop]} vs {size})"
                )
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
