"""Analytical performance model (roofline + working sets).

Predicts single-core execution time of a function at any abstraction
level:

  * **Affine loop nests** are costed per innermost statement with a
    roofline: compute throughput (scalar or vector, with a reduction
    penalty) vs. memory time derived from per-reference reuse analysis —
    each reference is assigned the cache level whose capacity covers the
    data touched between its temporal reuses, and charged that level's
    bandwidth for the bytes it moves per iteration.
  * **Library calls** (``blas.*``) are charged their linalg twin's
    flops at the machine's measured level-2 or level-3 library rate,
    plus the fixed dynamic-link dispatch overhead — the term that makes
    Pluto win the level-2 kernels in Figure 9.
  * **``affine.matmul``** is charged the OpenBLAS/BLIS codegen
    efficiency of §V-A (no call overhead: it lowers to inlined code).

This is the explicit stand-in for the paper's hardware testbed (see
DESIGN.md, "Substitutions"): absolute numbers are model outputs, but
the orderings and ratios the paper reports emerge from the same
arithmetic-intensity and overhead mechanics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..analysis.accesses import MemoryAccess, access_function
from ..dialects import linalg
from ..dialects.affine import AffineForOp, AffineMatmulOp
from ..dialects.blas import LibraryCall
from ..ir import IRError, Operation, Value
from ..ir.affine_expr import AffineDimExpr
from .machines import CacheLevel, Machine

_ELEMENT_BYTES = 4  # single-precision evaluation (paper §V)
_CACHE_LINE = 64


class CostModelError(IRError):
    pass


@dataclass
class StatementCost:
    description: str
    seconds: float
    flops: int


@dataclass
class CostReport:
    seconds: float = 0.0
    flops: int = 0
    statements: List[StatementCost] = field(default_factory=list)

    def add(self, description: str, seconds: float, flops: int) -> None:
        self.statements.append(StatementCost(description, seconds, flops))
        self.seconds += seconds
        self.flops += flops

    @property
    def gflops(self) -> float:
        if self.seconds <= 0:
            return 0.0
        return self.flops / self.seconds / 1e9

    def merge(self, other: "CostReport") -> None:
        for stmt in other.statements:
            self.add(stmt.description, stmt.seconds, stmt.flops)


def approx_trip_count(loop: AffineForOp) -> int:
    """Trip count, handling the ``min(d0 + T, N)`` bounds of tiled code."""
    constant = loop.constant_trip_count()
    if constant is not None:
        return max(0, constant)
    lb_map = loop.lower_bound_map
    ub_map = loop.upper_bound_map
    lb_const: Optional[int] = None
    if all(e.is_constant() for e in lb_map.results):
        lb_const = max(e.evaluate((), ()) for e in lb_map.results)
    candidates: List[int] = []
    for expr in ub_map.results:
        linear = expr.as_linear()
        if linear is None:
            continue
        if linear.is_constant() and lb_const is not None:
            candidates.append(linear.constant - lb_const)
        elif not linear.symbol_coeffs and len(linear.dim_coeffs) == 1:
            ((pos, coeff),) = linear.dim_coeffs.items()
            if coeff == 1 and _lb_is_same_dim(lb_map, pos):
                candidates.append(linear.constant)
    if not candidates:
        raise CostModelError(
            "cannot approximate trip count of a symbolic loop"
        )
    trips = min(candidates)
    return max(0, -(-trips // loop.step))


def _lb_is_same_dim(lb_map, pos: int) -> bool:
    return (
        lb_map.num_results == 1
        and isinstance(lb_map.results[0], AffineDimExpr)
    )


class _Statement:
    """An innermost statement: straight-line ops at some nest depth."""

    def __init__(
        self,
        loops: List[AffineForOp],
        ops: List[Operation],
    ):
        self.loops = loops  # outermost first; last one holds the ops
        self.ops = ops
        self.accesses: List[MemoryAccess] = []
        for op in ops:
            access = access_function(op)
            if access is not None:
                self.accesses.append(access)
        self.flops = sum(op.FLOPS for op in ops)

    @property
    def innermost(self) -> AffineForOp:
        return self.loops[-1]


class CostModel:
    def __init__(self, machine: Machine):
        self.machine = machine

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def cost_function(self, func) -> CostReport:
        report = CostReport()
        for op in func.entry_block.operations:
            report.merge(self.cost_op(op))
        return report

    def cost_op(self, op: Operation) -> CostReport:
        report = CostReport()
        if isinstance(op, AffineForOp):
            self._cost_nest(op, report)
            return report
        seconds_flops = self._cost_leaf_op(op)
        if seconds_flops is not None:
            report.add(op.name, *seconds_flops)
        return report

    # ------------------------------------------------------------------
    # Leaf (non-loop) op costs
    # ------------------------------------------------------------------

    def _memref_bytes(self, value: Value) -> int:
        ty = value.type
        count = ty.num_elements()
        if count is None:
            raise CostModelError(f"dynamic memref in cost model: {ty}")
        return count * _ELEMENT_BYTES

    def _cost_leaf_op(self, op: Operation) -> Optional[Tuple[float, int]]:
        machine = self.machine
        call = isinstance(op, LibraryCall)
        if isinstance(op, AffineMatmulOp):
            flops = op.flops()
            return flops / (machine.blis_matmul_gflops * 1e9), flops
        if isinstance(op, linalg.TransposeOp):
            bytes_moved = 2 * self._memref_bytes(op.input)
            seconds = bytes_moved / (machine.memory_bandwidth_gbs * 1e9)
            if call:
                seconds += machine.library_call_overhead_s
            return (seconds, 0)
        if isinstance(op, linalg.ReshapeOp):
            # a contiguous-buffer reshape is a metadata-only view
            return (1e-7, 0)
        if isinstance(op, linalg.FillOp):
            bytes_moved = self._memref_bytes(op.output)
            return (bytes_moved / (machine.memory_bandwidth_gbs * 1e9), 0)
        if not isinstance(op, linalg.LinalgStructuredOp):
            return None
        flops = op.flops()
        if call:
            level = 2 if isinstance(op, linalg.MatvecOp) else 3
            gf = machine.library_gflops(op.library, level)
            return (
                flops / (gf * 1e9) + machine.library_call_overhead_s,
                flops,
            )
        # Un-lowered linalg ops: price at default Linalg codegen quality
        # (tiled but scalar loops) so the model is total at any level.
        if isinstance(op, linalg.MatvecOp):
            seconds = max(
                flops / (machine.scalar_gflops * 1e9),
                (self._memref_bytes(op.a))
                / (machine.memory_bandwidth_gbs * 1e9),
            )
        else:
            seconds = flops / (
                machine.scalar_gflops * machine.reduction_penalty * 1e9
            )
        return (seconds, flops)

    # ------------------------------------------------------------------
    # Loop-nest roofline
    # ------------------------------------------------------------------

    def _cost_nest(self, root: AffineForOp, report: CostReport) -> None:
        statements = self._collect_statements(root, [])
        for stmt in statements:
            seconds, flops = self._cost_statement(stmt)
            depth = len(stmt.loops)
            report.add(f"nest(depth={depth})", seconds, flops)

    def _collect_statements(
        self, loop: AffineForOp, enclosing: List[AffineForOp]
    ) -> List[_Statement]:
        chain = enclosing + [loop]
        direct_ops: List[Operation] = []
        nested: List[_Statement] = []
        for op in loop.ops_in_body():
            if isinstance(op, AffineForOp):
                nested.extend(self._collect_statements(op, chain))
            else:
                leaf = self._cost_leaf_op(op)
                if leaf is not None:
                    # library/linalg op inside a loop: scale by trips
                    trips = 1
                    for enclosing_loop in chain:
                        trips *= approx_trip_count(enclosing_loop)
                    scaled = _Statement(chain, [])
                    scaled.fixed_cost = (leaf[0] * trips, leaf[1] * trips)
                    nested.append(scaled)
                else:
                    direct_ops.append(op)
        out: List[_Statement] = []
        if any(
            access_function(op) is not None for op in direct_ops
        ) or any(op.dialect == "std" for op in direct_ops):
            out.append(_Statement(chain, direct_ops))
        out.extend(nested)
        return out

    def _cost_statement(self, stmt: _Statement) -> Tuple[float, int]:
        if hasattr(stmt, "fixed_cost"):
            return stmt.fixed_cost  # type: ignore[attr-defined]
        machine = self.machine
        trips = [approx_trip_count(loop) for loop in stmt.loops]
        total_iters = 1
        for t in trips:
            total_iters *= t
        if total_iters == 0:
            return (0.0, 0)
        inner_iv = stmt.innermost.induction_var
        inner_trip = max(1, trips[-1])

        flops_per_iter = stmt.flops
        vectorizable = True
        memory_ns_per_iter = 0.0
        is_reduction = False

        for access in stmt.accesses:
            stride_elems = self._innermost_stride(access, inner_iv)
            if access.is_write and stride_elems == 0:
                is_reduction = True
            if stride_elems not in (0, 1):
                vectorizable = False
            source = self._source_level(stmt, access, trips)
            if source.name == "L1":
                continue  # absorbed in the compute pipeline
            if stride_elems == 0:
                bytes_per_iter = _ELEMENT_BYTES / inner_trip
            elif stride_elems * _ELEMENT_BYTES >= _CACHE_LINE:
                bytes_per_iter = float(_CACHE_LINE)
            else:
                bytes_per_iter = float(stride_elems * _ELEMENT_BYTES)
            memory_ns_per_iter += bytes_per_iter / source.bandwidth_gbs

        if vectorizable:
            throughput = machine.vector_gflops
            if is_reduction:
                throughput *= 0.8  # reassociated vector reduction
            # Loop control amortizes over vector lanes and unrolling.
            overhead_ns_per_iter = machine.loop_overhead_cycles / (
                machine.frequency_ghz * machine.simd_width_f32 * 2
            )
        else:
            throughput = machine.scalar_gflops
            if is_reduction:
                throughput *= machine.reduction_penalty
            overhead_ns_per_iter = (
                machine.loop_overhead_cycles / machine.frequency_ghz
            )
        compute_ns_per_iter = (
            flops_per_iter / throughput if flops_per_iter else 0.0
        )
        # Outer-loop control overhead, amortized across inner iterations.
        outer_iters = total_iters // inner_trip
        outer_overhead_ns = outer_iters * 4.0 * machine.loop_overhead_cycles / (
            machine.frequency_ghz
        )

        per_iter_ns = max(
            compute_ns_per_iter + overhead_ns_per_iter, memory_ns_per_iter
        )
        seconds = (total_iters * per_iter_ns + outer_overhead_ns) * 1e-9
        return (seconds, flops_per_iter * total_iters)

    # -- reuse analysis ------------------------------------------------

    def _innermost_stride(self, access: MemoryAccess, inner_iv: Value) -> int:
        """Linear element stride of the access w.r.t. the innermost IV."""
        shape = access.memref.type.shape
        row_strides = [1] * len(shape)
        for d in range(len(shape) - 2, -1, -1):
            size = shape[d + 1]
            row_strides[d] = row_strides[d + 1] * (size if size > 0 else 1024)
        stride = 0
        for d, sub in enumerate(access.subscripts):
            stride += sub.coeff(inner_iv) * row_strides[d]
        return abs(stride)

    def _effective_used_levels(
        self, stmt: _Statement, access: MemoryAccess
    ) -> set:
        """Loop levels the access *effectively* depends on.

        A tiled point loop's IV encodes an absolute position whose range
        is set by the tile IV, so using the point IV means depending on
        the tile IV too (otherwise tiling would fake temporal reuse that
        does not exist).
        """
        ivs = [loop.induction_var for loop in stmt.loops]
        used = {
            level
            for level in range(len(ivs))
            if any(sub.coeff(ivs[level]) != 0 for sub in access.subscripts)
        }
        changed = True
        while changed:
            changed = False
            for level in list(used):
                loop = stmt.loops[level]
                for bound_operand in loop.operands:
                    for outer_level, outer_iv in enumerate(ivs):
                        if (
                            bound_operand is outer_iv
                            and outer_level not in used
                        ):
                            used.add(outer_level)
                            changed = True
        return used

    def _source_level(
        self,
        stmt: _Statement,
        access: MemoryAccess,
        trips: List[int],
    ) -> CacheLevel:
        """Cache level feeding this reference, from its temporal-reuse
        footprint."""
        machine = self.machine
        ivs = [loop.induction_var for loop in stmt.loops]
        used = self._effective_used_levels(stmt, access)
        # innermost loop level the access does NOT (effectively) use
        reuse_level: Optional[int] = None
        for level in range(len(ivs) - 1, -1, -1):
            if level not in used:
                reuse_level = level
                break
        if reuse_level is None:
            # No temporal reuse inside this nest: a cold stream, paid at
            # memory bandwidth (each element is touched exactly once).
            return CacheLevel("mem", 1 << 62, machine.memory_bandwidth_gbs)
        # Data touched by the whole statement during ONE iteration of the
        # reuse-carrying loop (i.e. across the loops inside it).
        footprint = 0.0
        for other in stmt.accesses:
            other_used = self._effective_used_levels(stmt, other)
            footprint += self._sub_nest_footprint(
                other,
                ivs[reuse_level + 1:],
                trips[reuse_level + 1:],
                {
                    level - reuse_level - 1
                    for level in other_used
                    if level > reuse_level
                },
            )
        return machine.cache_level_for(footprint)

    def _array_bytes(self, access: MemoryAccess) -> float:
        ty = access.memref.type
        count = ty.num_elements()
        if count is None:
            count = 1 << 30
        return count * _ELEMENT_BYTES

    def _sub_nest_footprint(
        self,
        access: MemoryAccess,
        ivs: Sequence[Value],
        trips: Sequence[int],
        used_positions: Optional[set] = None,
    ) -> float:
        """Distinct bytes ``access`` touches across the given sub-nest."""
        elements = 1.0
        uses_any = False
        innermost_used = False
        for pos, (iv, trip) in enumerate(zip(ivs, trips)):
            position_used = (
                pos in used_positions
                if used_positions is not None
                else any(sub.coeff(iv) != 0 for sub in access.subscripts)
            )
            if position_used:
                elements *= max(1, trip)
                uses_any = True
                if pos == len(ivs) - 1:
                    innermost_used = True
        if not uses_any:
            return _ELEMENT_BYTES
        bytes_touched = elements * _ELEMENT_BYTES
        # Non-unit innermost stride wastes the rest of each cache line.
        if innermost_used:
            stride = self._innermost_stride(access, ivs[-1])
            if stride > 1:
                bytes_touched *= min(
                    _CACHE_LINE / _ELEMENT_BYTES, float(stride)
                )
        # Never more than the whole array.
        return min(bytes_touched, self._array_bytes(access))

