"""Progressive lowering: linalg -> affine -> scf -> llvm.

This is the classic downward direction of the multi-level pipeline the
paper complements with raising.  Every step is a pass:

  * :class:`LinalgToAffinePass`   — structured ops to affine loop nests
    (``linalg.reshape`` is not one)
  * :class:`LinalgContractionsToTiledLoopsPass` — only the named
    multiply-accumulate ops, to tiled loop nests (the MLT-Linalg default
    lowering)
  * :class:`ExpandAffineMatmulPass` — ``affine.matmul`` to loops
  * :class:`AffineToSCFPass`      — affine loops/accesses to SCF + std
  * :class:`SCFToLLVMPass`        — structured loops to CFG with
    explicitly linearized memory accesses; it also lowers reshapes
  * :class:`LinalgToBlasPass`     — the MLT-BLAS alternative: each
    linalg op to the vendor library call that is its twin
  * :class:`LowerBlasToLLVMPass`  — library ops to ``llvm.call``

The first three passes share one structured-op lowering,
:func:`lower_linalg_op_to_affine`: a loop nest over the op's
``iteration_domain()``, accesses through its ``indexing_maps`` and one
body per payload kind (``mac``, ``copy``, ``fill``, or the generic's
cloned ``region``) — no case per named op.  Each access reads only the
loops its map names, so it is the op its printed text parses back to.

Each per-op lowering is a ``RewritePattern`` with a declared
``root_op_name``, and every pass applies its ``FrozenPatternSet`` as a
*conversion* (:func:`~repro.ir.rewrite.apply_conversion`): one walk,
each root expanded once, the expansion final — lowering is not a
fixpoint, so its cost stays proportional to the op count.  The
lowerings build everything through the rewriter they are handed, which
is what lets the conversion check that no created op is itself a root
of the same set.  (The CFG-peeling half of SCF→LLVM operates on blocks,
not single ops, and stays a structural loop — one forward scan over the
function's blocks.)

Reshapes are lowered where accesses become flat offsets, as in MLIR,
where a contiguous reshape is a view of the source's memory.  Once
``convert-scf-to-llvm`` has flattened every access, a contiguous
reshape changes no element's row-major offset, so the buffer plan
(:mod:`repro.analysis.buffers`, the one the engine's code generator
uses) decides it: a ``view`` reshape's destination is replaced by its
source, a rule-(c) copy-back is dropped, and any other reshape copies
its elements in one flat loop, which is then peeled like any other.

Every index constant ``lower-affine`` and ``convert-scf-to-llvm`` need
(affine constants, loop steps, ceildiv's ``1``, linearization sizes)
comes from one pool per function: one ``std.constant`` per value at the
top of the entry block, shared by every later request in the same
conversion run.  The pool is kept on the run's rewriter and rebuilt
from the entry block's leading index constants at the start of each
run, never kept on an op, so print → parse (or a pass-cache splice)
between the passes changes nothing.  Accesses linearize row-major from
the first subscript, ``(i0*size1 + i1)*size2 + ...``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.buffers import ELIDED, VIEW, plan_buffers
from ..dialects import blas as blas_d
from ..dialects import linalg as linalg_d
from ..dialects import llvm as llvm_d
from ..dialects import scf as scf_d
from ..dialects import std
from ..dialects.affine import (
    AffineForOp,
    AffineLoadOp,
    AffineStoreOp,
    build_loop_nest,
    perfect_nest,
)
from ..ir import (
    OP_REGISTRY,
    AffineMap,
    Block,
    Builder,
    Context,
    FrozenPatternSet,
    FuncOp,
    FunctionPass,
    IRError,
    IndexType,
    ModuleOp,
    Operation,
    PassManager,
    PatternRewriter,
    RewritePattern,
    Value,
    apply_conversion,
    index,
)
from ..ir import affine_expr as ae
from .canonicalize import CanonicalizePass
from .tiling import TileLoopNestPass, TilingError, tile_perfect_nest

class _ConversionPass(FunctionPass):
    """A lowering pass: one conversion walk of ``patterns`` per function."""

    patterns: FrozenPatternSet

    def run_on_function(self, func, context):
        result = apply_conversion(func, self.patterns)
        self.rewrite_results.append(result)
        return result.changed


# ----------------------------------------------------------------------
# Linalg -> Affine
# ----------------------------------------------------------------------


def _loop_nest_before(
    op: Operation, bounds, rewriter: PatternRewriter
) -> List[Value]:
    """Create a constant-bound loop nest before ``op``; return the IVs
    (outermost first).

    The rewriter is left positioned inside the innermost body, before
    its terminator, for the caller to emit the payload.
    """
    rewriter.set_insertion_point_before(op)
    loops, ivs = build_loop_nest(rewriter, [(0, ub) for ub in bounds])
    rewriter.set_insertion_point_before(loops[-1].body.terminator)
    return ivs


def lower_linalg_op_to_affine(op: Operation, rewriter: PatternRewriter) -> bool:
    """Lower one structured op in place to the loop nest over its
    iteration domain; returns False if ``op`` is not one.

    Each access goes through the operand's indexing map.  The payload
    kind decides the body: ``mac`` loads the output, then the inputs,
    and stores ``in0 * in1 + out``; ``copy`` stores ``in0``; ``fill``
    stores the scalar; ``region`` clones the generic's body.
    """
    if not isinstance(op, linalg_d.LinalgStructuredOp):
        return False
    ivs = _loop_nest_before(op, op.iteration_domain(), rewriter)
    maps = op.indexing_maps

    def access(position: int):
        order, map_ = _access_map(maps[position])
        return op.operand(position), [ivs[loop] for loop in order], map_

    def load(position: int) -> Value:
        return rewriter.insert(AffineLoadOp.create(*access(position))).result

    payload = op.PAYLOAD
    if payload == "region":
        body = op.body
        value_map: Dict = {
            arg: load(position) for position, arg in enumerate(body.arguments)
        }
        for inner in body.ops_without_terminator():
            rewriter.insert(inner.clone(value_map))
        values = [value_map.get(v, v) for v in body.terminator.operands]
    elif payload == "mac":
        acc, x, y = load(2), load(0), load(1)
        mul = rewriter.insert(std.MulFOp.create(x, y)).result
        values = [rewriter.insert(std.AddFOp.create(mul, acc)).result]
    elif payload == "copy":
        values = [load(0)]
    else:
        values = [op.operand(0)]
    for position, value in enumerate(values, op.num_inputs):
        rewriter.insert(AffineStoreOp.create(value, *access(position)))
    rewriter.erase_op(op)
    return True


@lru_cache(maxsize=256)
def _access_map(map_: AffineMap) -> Tuple[Tuple[int, ...], AffineMap]:
    """The loops an access through ``map_`` reads, in the order its
    printed subscripts name them, and the map over just those loops:
    the access its text parses back to, so the lowered IR carries no
    operand its print drops."""
    order: List[int] = []

    def visit(expr: ae.AffineExpr) -> None:
        if isinstance(expr, ae.AffineDimExpr):
            if expr.position not in order:
                order.append(expr.position)
        elif isinstance(expr, ae.AffineBinaryExpr):
            visit(expr.lhs)
            visit(expr.rhs)

    for expr in map_.results:
        visit(expr)
    renumber = {loop: ae.dim(i) for i, loop in enumerate(order)}
    results = [expr.substitute_dims(renumber) for expr in map_.results]
    return tuple(order), AffineMap(len(order), 0, results)


#: The structured ops ``lower_linalg_to_affine`` rewrites
#: (``affine.matmul`` is deliberately excluded — expanding it is
#: ExpandAffineMatmulPass's job; ``linalg.reshape`` is not a structured
#: op, and ``convert-scf-to-llvm`` lowers it once accesses are flat
#: offsets).
_STRUCTURED_OPS = (
    linalg_d.MatmulOp,
    linalg_d.MatvecOp,
    linalg_d.TransposeOp,
    linalg_d.Conv2DNchwOp,
    linalg_d.FillOp,
    linalg_d.GenericOp,
)


class LinalgToAffinePattern(RewritePattern):
    """Lower one linalg op (per root name) to affine loops."""

    def __init__(self, root_op_name: str):
        self.root_op_name = root_op_name

    @property
    def pattern_name(self) -> str:
        return f"to-affine<{self.root_op_name}>"

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        return lower_linalg_op_to_affine(op, rewriter)


def _to_affine_patterns(ops) -> FrozenPatternSet:
    return FrozenPatternSet([LinalgToAffinePattern(op.OP_NAME) for op in ops])


_LINALG_TO_AFFINE = _to_affine_patterns(_STRUCTURED_OPS)


def lower_linalg_to_affine(root: Operation) -> int:
    return apply_conversion(root, _LINALG_TO_AFFINE).num_rewrites


class LinalgToAffinePass(_ConversionPass):
    name = "convert-linalg-to-affine-loops"
    patterns = _LINALG_TO_AFFINE


class LinalgContractionsToTiledLoopsPass(TileLoopNestPass):
    """The default Linalg codegen path of Fig. 9's MLT-Linalg.

    The named multiply-accumulate ops (matmul, matvec, conv2d) become
    loop nests, and every new nest of depth >= 2 is tiled with
    ``affine-loop-tile``'s size rule; data-movement ops stay (priced as
    views / memory passes by the model).
    """

    name = "convert-linalg-contractions-to-tiled-loops"
    patterns = _to_affine_patterns(
        op for op in _STRUCTURED_OPS if op.PAYLOAD == "mac"
    )

    def run_on_function(self, func, context):
        def loops():
            return [op for op in func.walk() if isinstance(op, AffineForOp)]

        before = set(loops())
        result = apply_conversion(func, self.patterns)
        self.rewrite_results.append(result)
        fresh = [loop for loop in loops() if loop not in before]
        for root in [loop for loop in fresh if loop.parent_op not in fresh]:
            band = perfect_nest(root)
            if len(band) < 2:
                continue
            try:
                tile_perfect_nest(root, self.sizes_for(band))
            except TilingError:
                pass
        return result.changed


class ExpandAffineMatmulPattern(RewritePattern):
    root_op_name = "affine.matmul"

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        return lower_linalg_op_to_affine(op, rewriter)


class ExpandAffineMatmulPass(_ConversionPass):
    """Lower ``affine.matmul`` back to loops (naive schedule).

    The real system lowers it to OpenBLAS/BLIS-style tiled code; for
    execution semantics the naive loops are equivalent, and the cost
    model prices the op at BLIS efficiency before this pass runs.
    """

    name = "affine-expand-matmul"
    patterns = FrozenPatternSet([ExpandAffineMatmulPattern()])


# ----------------------------------------------------------------------
# Linalg -> BLAS (the MLT-BLAS path)
# ----------------------------------------------------------------------


class LinalgToBlasPattern(RewritePattern):
    """Replace one linalg op by the library call that is its twin."""

    def __init__(self, twin, library: str):
        self.root_op_name = twin.OP_NAME
        self.call = blas_d.TWINS[twin]
        self.library = library

    @property
    def pattern_name(self) -> str:
        return f"to-blas<{self.root_op_name}>"

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        rewriter.set_insertion_point_before(op)
        rewriter.insert(self.call.of(op, self.library))
        rewriter.erase_op(op)
        return True


class LinalgToBlasPass(_ConversionPass):
    """Replace linalg ops with vendor library calls (§V-B MLT-Blas)."""

    name = "convert-linalg-to-blas"

    def __init__(self, library: str = "mkl-dnn"):
        self.library = library
        self.patterns = FrozenPatternSet(
            [LinalgToBlasPattern(twin, library) for twin in blas_d.TWINS]
        )

    def cache_config(self) -> str:
        return f"library={self.library}"


# ----------------------------------------------------------------------
# Affine -> SCF
# ----------------------------------------------------------------------


_BINARY_EXPR_OPS = {
    ae.AffineExprKind.ADD: std.AddIOp,
    ae.AffineExprKind.MUL: std.MulIOp,
    ae.AffineExprKind.MOD: std.RemIOp,
    ae.AffineExprKind.FLOORDIV: std.DivIOp,
}


class _IndexConstantPool:
    """One ``std.constant : index`` per value, at the top of a
    function's entry block.

    Read from the IR when a conversion run first asks for a constant:
    the pool is the leading run of index constants of the entry block
    (the first of each value wins), which dominates every op of the
    function.  New constants are appended to that run, so a later run
    (or the same IR after print -> parse) reads back the same pool.
    """

    def __init__(self, func: FuncOp):
        self.block = func.entry_block
        self.values: Dict[int, Value] = {}
        self.end = 0
        for op in self.block.operations:
            if op.name != "std.constant" or not isinstance(
                op.result.type, IndexType
            ):
                break
            self.values.setdefault(op.value, op.result)
            self.end += 1

    def get(self, rewriter: PatternRewriter, value: int) -> Value:
        result = self.values.get(value)
        if result is None:
            op = std.ConstantOp.create(value, index)
            rewriter.insert_at(self.block, self.end, op)
            self.end += 1
            result = self.values[value] = op.result
        return result


def _index_constant(builder: Builder, value: int) -> Value:
    """An index constant: the pooled one when ``builder`` is the
    rewriter of a conversion run over a function, otherwise a new one
    at the insertion point."""
    if isinstance(builder, PatternRewriter) and isinstance(
        builder.root, FuncOp
    ):
        pool = builder.constant_pool
        if pool is None:
            pool = builder.constant_pool = _IndexConstantPool(builder.root)
        return pool.get(builder, value)
    return builder.insert(std.ConstantOp.create(value, index)).result


def expand_affine_expr(
    builder: Builder, expr: ae.AffineExpr, operands: Sequence[Value]
) -> Value:
    """Materialize an affine expression as std arithmetic over index
    values."""
    if isinstance(expr, ae.AffineConstantExpr):
        return _index_constant(builder, expr.value)
    if isinstance(expr, ae.AffineDimExpr):
        return operands[expr.position]
    if isinstance(expr, ae.AffineSymbolExpr):
        raise IRError("symbolic affine expressions need bound operands")
    assert isinstance(expr, ae.AffineBinaryExpr)
    lhs = expand_affine_expr(builder, expr.lhs, operands)
    rhs = expand_affine_expr(builder, expr.rhs, operands)
    op_class = _BINARY_EXPR_OPS.get(expr.kind)
    if op_class is not None:
        return builder.insert(op_class.create(lhs, rhs)).result
    # ceildiv(a, b) = (a + b - 1) floordiv b
    one = _index_constant(builder, 1)
    num = builder.insert(std.AddIOp.create(lhs, rhs)).result
    num = builder.insert(std.SubIOp.create(num, one)).result
    return builder.insert(std.DivIOp.create(num, rhs)).result


def _lower_affine_bound(
    builder: Builder,
    map_: AffineMap,
    operands: Sequence[Value],
    minimize: bool,
) -> Value:
    """Materialize a bound; multi-result maps become cmp+select chains
    (min for upper bounds, max for lower bounds)."""
    values = [
        expand_affine_expr(builder, expr, operands) for expr in map_.results
    ]
    result = values[0]
    predicate = "slt" if minimize else "sgt"
    for value in values[1:]:
        cmp = builder.insert(std.CmpIOp.create(predicate, result, value))
        result = builder.insert(
            std.SelectOp.create(cmp.result, result, value)
        ).result
    return result


def _lower_one_affine_for(op: AffineForOp, rewriter: PatternRewriter) -> None:
    rewriter.set_insertion_point_before(op)
    lb = _lower_affine_bound(
        rewriter, op.lower_bound_map, op.lb_operands, minimize=False
    )
    ub = _lower_affine_bound(
        rewriter, op.upper_bound_map, op.ub_operands, minimize=True
    )
    step = _index_constant(rewriter, op.step)
    scf_for = rewriter.insert(scf_d.ForOp.create(lb, ub, step))
    # Move body ops (except the affine terminator) into the scf body,
    # before its terminator.
    target = scf_for.body
    target.move_ops_from(
        op.body, 0, len(op.ops_in_body()), index=len(target.operations) - 1
    )
    op.induction_var.replace_all_uses_with(scf_for.induction_var)
    rewriter.erase_op(op)


def _lower_one_affine_access(op, rewriter: PatternRewriter) -> None:
    rewriter.set_insertion_point_before(op)
    indices = [
        expand_affine_expr(rewriter, expr, op.indices)
        for expr in op.map.results
    ]
    if isinstance(op, AffineLoadOp):
        new_op = rewriter.insert(std.LoadOp.create(op.memref, indices))
        rewriter.replace_op(op, [new_op.result])
    else:
        rewriter.insert(std.StoreOp.create(op.value, op.memref, indices))
        rewriter.erase_op(op)


class AffineForLoweringPattern(RewritePattern):
    root_op_name = "affine.for"

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        _lower_one_affine_for(op, rewriter)
        return True


class AffineAccessLoweringPattern(RewritePattern):
    def __init__(self, root_op_name: str):
        self.root_op_name = root_op_name

    @property
    def pattern_name(self) -> str:
        return f"lower<{self.root_op_name}>"

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        _lower_one_affine_access(op, rewriter)
        return True


class AffineApplyLoweringPattern(RewritePattern):
    root_op_name = "affine.apply"

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        rewriter.set_insertion_point_before(op)
        value = expand_affine_expr(rewriter, op.map.results[0], op.operands)
        rewriter.replace_op(op, [value])
        return True


_AFFINE_TO_SCF = FrozenPatternSet(
    [
        AffineForLoweringPattern(),
        AffineAccessLoweringPattern("affine.load"),
        AffineAccessLoweringPattern("affine.store"),
        AffineApplyLoweringPattern(),
    ]
)


def lower_affine_to_scf(func) -> int:
    """Rewrite all affine ops in a function into scf/std form."""
    return apply_conversion(func, _AFFINE_TO_SCF).num_rewrites


class AffineToSCFPass(_ConversionPass):
    name = "lower-affine"
    patterns = _AFFINE_TO_SCF


# ----------------------------------------------------------------------
# SCF -> LLVM (CFG construction)
# ----------------------------------------------------------------------


def _linearize_indices(
    builder: Builder, memref: Value, indices: Sequence[Value]
) -> Value:
    """Row-major offset ``(i0*size1 + i1)*size2 + ...``; a rank-0
    access is offset 0."""
    if not indices:
        return _index_constant(builder, 0)
    shape = memref.type.shape
    flat = indices[0]
    for size, idx in zip(shape[1:], indices[1:]):
        size_c = _index_constant(builder, size)
        flat = builder.insert(std.MulIOp.create(flat, size_c)).result
        flat = builder.insert(std.AddIOp.create(flat, idx)).result
    return flat


class MemAccessFlatteningPattern(RewritePattern):
    """std.load/std.store -> llvm.load/llvm.store with a linearized
    row-major index."""

    def __init__(self, root_op_name: str):
        self.root_op_name = root_op_name

    @property
    def pattern_name(self) -> str:
        return f"flatten<{self.root_op_name}>"

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        rewriter.set_insertion_point_before(op)
        flat = _linearize_indices(rewriter, op.memref, op.indices)
        if isinstance(op, std.LoadOp):
            new_op = rewriter.insert(llvm_d.LoadOp.create(op.memref, flat))
            rewriter.replace_op(op, [new_op.result])
        else:
            rewriter.insert(llvm_d.StoreOp.create(op.value, op.memref, flat))
            rewriter.erase_op(op)
        return True


_FLATTEN = FrozenPatternSet(
    [
        MemAccessFlatteningPattern("std.load"),
        MemAccessFlatteningPattern("std.store"),
    ]
)


def _peel_all_loops(func) -> int:
    """Peel scf.for ops into explicit CFG blocks, outermost-first.

    One forward scan: peeling the first loop of a block leaves that
    block loop-free and appends its three new blocks (the loop body and
    the block's tail among them) to the region, so the scan reaches
    them later and never needs to look back.
    """
    count = 0
    region = func.regions[0]
    blocks = region.blocks
    scanned = 0
    while scanned < len(blocks):
        block = blocks[scanned]
        scanned += 1
        for position, op in enumerate(block.operations):
            if isinstance(op, scf_d.ForOp):
                _peel_loop_into_cfg(region, block, position)
                count += 1
                break
    return count


#: Users of a view's buffer that address it by flat offset, or (a
#: reshape) are lowered here by flat offset: handing them the view's
#: source instead changes nothing they compute.
_FLAT_USERS = ("llvm.load", "llvm.store", "std.dealloc", "linalg.reshape")


def _lower_reshapes(func: FuncOp) -> int:
    """Lower every ``linalg.reshape`` of ``func``, whose accesses are
    flat offsets by now; returns how many there were.

    A contiguous reshape keeps each element's row-major offset, so
    where the buffer plan lets the destination share the source's
    memory (``VIEW``) the destination *is* the source: its alloc goes
    and every use reads the source.  A rule-(c) copy-back (``ELIDED``)
    is nothing.  Any other reshape copies its elements in one flat loop.
    If a view would be read at its own shape (an op that is not flat
    yet), nothing is aliased in the function.
    """
    reshapes = [op for op in func.walk() if op.name == "linalg.reshape"]
    if not reshapes:
        return 0
    actions = plan_buffers(func)
    if any(
        actions.get(id(op)) == VIEW
        and any(user.name not in _FLAT_USERS for user in op.output.users)
        for op in reshapes
    ):
        actions = {}
    rewriter = PatternRewriter(func)
    for op in reshapes:
        action = actions.get(id(op))
        if action == VIEW:
            buffer, source = op.output, op.input
            rewriter.erase_op(op)
            for user in buffer.users:
                if user.name == "std.dealloc":
                    rewriter.erase_op(user)
            buffer.replace_all_uses_with(source)
            rewriter.erase_op(buffer.defining_op)
        elif action == ELIDED:
            rewriter.erase_op(op)
        else:
            _flat_copy_loop(op, rewriter)
    return len(reshapes)


def _flat_copy_loop(op: linalg_d.ReshapeOp, rewriter: PatternRewriter) -> None:
    """``scf.for %f = 0 to N { dst[%f] = src[%f] }`` over flat offsets:
    the reshape's copy semantics in one loop."""
    size = op.output.type.num_elements()
    if size is None:
        raise IRError(f"{op.name} of a dynamic memref cannot be lowered")
    rewriter.set_insertion_point_before(op)
    bounds = [_index_constant(rewriter, value) for value in (0, size, 1)]
    loop = rewriter.insert(scf_d.ForOp.create(*bounds))
    rewriter.set_insertion_point_before(loop.body.terminator)
    offset = loop.induction_var
    value = rewriter.insert(llvm_d.LoadOp.create(op.input, offset)).result
    rewriter.insert(llvm_d.StoreOp.create(value, op.output, offset))
    rewriter.erase_op(op)


def lower_scf_to_llvm(func) -> int:
    """Convert structured loops to explicit CFG, flatten memory ops and
    lower reshapes."""
    flattened = apply_conversion(func, _FLATTEN).num_rewrites
    return flattened + _lower_reshapes(func) + _peel_all_loops(func)


def _peel_loop_into_cfg(region, block: Block, position: int) -> None:
    """Peel the scf.for at ``block.operations[position]``."""
    loop = block.operations[position]

    header = region.add_block(Block([index]))
    body_block = region.add_block(Block())
    exit_block = region.add_block(Block())

    # Entry edge.
    lb, ub, step = loop.lower_bound, loop.upper_bound, loop.step
    iv = loop.induction_var

    exit_block.move_ops_from(block, position + 1)
    block.append(llvm_d.BrOp.create(header, [lb]))

    # Header: compare and branch.
    header_iv = header.arguments[0]
    cmp = std.CmpIOp.create("slt", header_iv, ub)
    header.append(cmp)
    header.append(llvm_d.CondBrOp.create(cmp.result, body_block, exit_block))

    # Body: moved loop body, then increment and back edge.
    iv.replace_all_uses_with(header_iv)
    body_block.move_ops_from(loop.body, 0, len(loop.ops_in_body()))
    next_iv = std.AddIOp.create(header_iv, step)
    body_block.append(next_iv)
    body_block.append(llvm_d.BrOp.create(header, [next_iv.result]))

    loop.erase()


class SCFToLLVMPass(_ConversionPass):
    name = "convert-scf-to-llvm"
    patterns = _FLATTEN

    def run_on_function(self, func, context):
        flattened = super().run_on_function(func, context)
        reshaped = _lower_reshapes(func) > 0
        return _peel_all_loops(func) > 0 or flattened or reshaped


class LowerBlasToLLVMPattern(RewritePattern):
    def __init__(self, call):
        self.root_op_name = call.OP_NAME
        self.symbol = call.SYMBOL

    @property
    def pattern_name(self) -> str:
        return f"to-llvm-call<{self.root_op_name}>"

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        rewriter.set_insertion_point_before(op)
        parameters = {
            name: attr
            for name, attr in op.attributes.items()
            if name != "library"
        }
        rewriter.insert(
            llvm_d.CallOp.create(self.symbol, op.operands, attributes=parameters)
        )
        rewriter.erase_op(op)
        return True


class LowerBlasToLLVMPass(_ConversionPass):
    """Replace each registered library call (``blas.*``) by
    ``llvm.call @SYMBOL`` into the library ABI; the call keeps every
    attribute but ``library`` (``trans``, ``alpha``, ``permutation``,
    ...)."""

    name = "convert-blas-to-llvm"

    def __init__(self):
        self.patterns = FrozenPatternSet(
            [
                LowerBlasToLLVMPattern(OP_REGISTRY[name])
                for name in sorted(OP_REGISTRY)
                if issubclass(OP_REGISTRY[name], blas_d.LibraryCall)
            ]
        )


# ----------------------------------------------------------------------
# Pipelines
# ----------------------------------------------------------------------


def lowering_pipeline(
    context: Optional[Context] = None, verify_each: bool = False
) -> PassManager:
    """The full progressive-lowering pipeline to the LLVM dialect.

    ``verify_each`` defaults to off, matching a release-mode compiler
    (the compile-time study of §V-B measures the release pipeline).
    """
    pm = PassManager(context or Context(), verify_each=verify_each)
    pm.add(
        LinalgToAffinePass(),
        ExpandAffineMatmulPass(),
        CanonicalizePass(),
        AffineToSCFPass(),
        SCFToLLVMPass(),
        LowerBlasToLLVMPass(),
    )
    return pm


def lower_to_llvm(module: ModuleOp, context: Optional[Context] = None):
    """Lower a module all the way down; returns the pass timing."""
    pm = lowering_pipeline(context)
    return pm.run(module)
