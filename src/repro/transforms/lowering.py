"""Progressive lowering: linalg -> affine -> scf -> llvm.

This is the classic downward direction of the multi-level pipeline the
paper complements with raising.  Every step is a pass:

  * :class:`LinalgToAffinePass`   — structured ops to affine loop nests
  * :class:`LinalgContractionsToTiledLoopsPass` — only the contractions,
    to tiled loop nests (the MLT-Linalg default lowering)
  * :class:`ExpandAffineMatmulPass` — ``affine.matmul`` to loops
  * :class:`AffineToSCFPass`      — affine loops/accesses to SCF + std
  * :class:`SCFToLLVMPass`        — structured loops to CFG with
    explicitly linearized memory accesses
  * :class:`LinalgToBlasPass`     — the MLT-BLAS alternative: structured
    ops to vendor library calls
  * :class:`LowerBlasToLLVMPass`  — library ops to ``llvm.call``

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

from typing import Dict, List, Optional, Sequence

from ..dialects import blas as blas_d
from ..dialects import linalg as linalg_d
from ..dialects import llvm as llvm_d
from ..dialects import scf as scf_d
from ..dialects import std
from ..dialects.affine import (
    AffineForOp,
    AffineLoadOp,
    AffineMatmulOp,
    AffineStoreOp,
    build_loop_nest,
    perfect_nest,
)
from ..ir import (
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


def _lower_matmul_like(op, a, b, c, rewriter: PatternRewriter) -> None:
    """Emit the canonical triple loop ``C[i,j] += A[i,k] * B[k,j]``."""
    m, k = a.type.shape
    n = b.type.shape[1]
    i, j, kk = _loop_nest_before(op, [m, n, k], rewriter)
    c_val = rewriter.insert(AffineLoadOp.create(c, [i, j])).result
    a_val = rewriter.insert(AffineLoadOp.create(a, [i, kk])).result
    b_val = rewriter.insert(AffineLoadOp.create(b, [kk, j])).result
    mul = rewriter.insert(std.MulFOp.create(a_val, b_val)).result
    add = rewriter.insert(std.AddFOp.create(mul, c_val)).result
    rewriter.insert(AffineStoreOp.create(add, c, [i, j]))
    rewriter.erase_op(op)


def lower_linalg_op_to_affine(op: Operation, rewriter: PatternRewriter) -> bool:
    """Lower one linalg op in place; returns False if unrecognized."""
    if isinstance(op, linalg_d.MatmulOp):
        _lower_matmul_like(op, op.a, op.b, op.c, rewriter)
        return True
    if isinstance(op, AffineMatmulOp):
        _lower_matmul_like(op, op.a, op.b, op.c, rewriter)
        return True
    if isinstance(op, linalg_d.MatvecOp):
        a, x, y = op.a, op.x, op.y
        rows, cols = a.type.shape
        if op.trans:
            # y[j] += A[i, j] * x[i]: keep the matrix's contiguous
            # dimension innermost (row-major streaming), reduction outer.
            i, j = _loop_nest_before(op, [rows, cols], rewriter)
            y_val = rewriter.insert(AffineLoadOp.create(y, [j])).result
            a_val = rewriter.insert(AffineLoadOp.create(a, [i, j])).result
            x_val = rewriter.insert(AffineLoadOp.create(x, [i])).result
            mul = rewriter.insert(std.MulFOp.create(a_val, x_val)).result
            add = rewriter.insert(std.AddFOp.create(mul, y_val)).result
            rewriter.insert(AffineStoreOp.create(add, y, [j]))
        else:
            i, j = _loop_nest_before(op, [rows, cols], rewriter)
            y_val = rewriter.insert(AffineLoadOp.create(y, [i])).result
            a_val = rewriter.insert(AffineLoadOp.create(a, [i, j])).result
            x_val = rewriter.insert(AffineLoadOp.create(x, [j])).result
            mul = rewriter.insert(std.MulFOp.create(a_val, x_val)).result
            add = rewriter.insert(std.AddFOp.create(mul, y_val)).result
            rewriter.insert(AffineStoreOp.create(add, y, [i]))
        rewriter.erase_op(op)
        return True
    if isinstance(op, linalg_d.TransposeOp):
        perm = op.permutation
        out_shape = op.output.type.shape
        ivs = _loop_nest_before(op, list(out_shape), rewriter)
        # out[i0..in] = in[i_perm[0]], permuted by the permutation.
        in_ivs = [None] * len(perm)
        for out_dim, in_dim in enumerate(perm):
            in_ivs[in_dim] = ivs[out_dim]
        val = rewriter.insert(AffineLoadOp.create(op.input, in_ivs)).result
        rewriter.insert(AffineStoreOp.create(val, op.output, ivs))
        rewriter.erase_op(op)
        return True
    if isinstance(op, linalg_d.ReshapeOp):
        _lower_reshape(op, rewriter)
        return True
    if isinstance(op, linalg_d.Conv2DNchwOp):
        _lower_conv2d(op, rewriter)
        return True
    if isinstance(op, linalg_d.FillOp):
        shape = op.output.type.shape
        ivs = _loop_nest_before(op, list(shape), rewriter)
        rewriter.insert(AffineStoreOp.create(op.fill_value, op.output, ivs))
        rewriter.erase_op(op)
        return True
    if isinstance(op, linalg_d.CopyOp):
        shape = op.output.type.shape
        ivs = _loop_nest_before(op, list(shape), rewriter)
        val = rewriter.insert(AffineLoadOp.create(op.input, ivs)).result
        rewriter.insert(AffineStoreOp.create(val, op.output, ivs))
        rewriter.erase_op(op)
        return True
    if isinstance(op, linalg_d.GenericOp):
        _lower_generic(op, rewriter)
        return True
    return False


def _lower_reshape(op: linalg_d.ReshapeOp, rewriter: PatternRewriter) -> None:
    groups = op.reassociation
    if op.is_collapse():
        high, low = op.input, op.output
    else:
        high, low = op.output, op.input
    high_shape = high.type.shape
    ivs = _loop_nest_before(op, list(high_shape), rewriter)
    # Each low-rank subscript is the row-major linearization of its group.
    low_exprs: List[ae.AffineExpr] = []
    for group in groups:
        expr: ae.AffineExpr = ae.constant(0)
        for dim_pos in group:
            expr = expr * high_shape[dim_pos] + ae.dim(dim_pos)
        low_exprs.append(expr)
    low_map = AffineMap(len(high_shape), 0, low_exprs)
    if op.is_collapse():
        val = rewriter.insert(AffineLoadOp.create(high, ivs)).result
        rewriter.insert(AffineStoreOp.create(val, low, ivs, low_map))
    else:
        val = rewriter.insert(AffineLoadOp.create(low, ivs, low_map)).result
        rewriter.insert(AffineStoreOp.create(val, high, ivs))
    rewriter.erase_op(op)


def _lower_conv2d(
    op: linalg_d.Conv2DNchwOp, rewriter: PatternRewriter
) -> None:
    n, f, oh, ow = op.output.type.shape
    _, c, kh, kw = op.kernel.type.shape
    ivs = _loop_nest_before(op, [n, f, oh, ow, c, kh, kw], rewriter)
    i_n, i_f, i_oh, i_ow, i_c, i_kh, i_kw = ivs
    out_val = rewriter.insert(
        AffineLoadOp.create(op.output, [i_n, i_f, i_oh, i_ow])
    ).result
    # input[n, c, oh + kh, ow + kw]
    h_expr = ae.dim(2) + ae.dim(4)
    w_expr = ae.dim(3) + ae.dim(5)
    in_map = AffineMap(6, 0, [ae.dim(0), ae.dim(1), h_expr, w_expr])
    in_val = rewriter.insert(
        AffineLoadOp.create(
            op.input, [i_n, i_c, i_oh, i_ow, i_kh, i_kw], in_map
        )
    ).result
    k_val = rewriter.insert(
        AffineLoadOp.create(op.kernel, [i_f, i_c, i_kh, i_kw])
    ).result
    mul = rewriter.insert(std.MulFOp.create(in_val, k_val)).result
    add = rewriter.insert(std.AddFOp.create(mul, out_val)).result
    rewriter.insert(
        AffineStoreOp.create(add, op.output, [i_n, i_f, i_oh, i_ow])
    )
    rewriter.erase_op(op)


def _lower_generic(op: linalg_d.GenericOp, rewriter: PatternRewriter) -> None:
    extents = op.iteration_domain()
    ivs = _loop_nest_before(op, extents, rewriter)
    value_map: Dict = {}
    for operand, map_, block_arg in zip(
        op.operands, op.indexing_maps, op.body.arguments
    ):
        load = rewriter.insert(AffineLoadOp.create(operand, ivs, map_))
        value_map[block_arg] = load.result
    for inner in op.body.ops_without_terminator():
        rewriter.insert(inner.clone(value_map))
    term = op.body.terminator
    for out_idx, yielded_value in enumerate(term.operands):
        out = op.outputs[out_idx]
        out_map = op.indexing_maps[op.num_inputs + out_idx]
        rewriter.insert(
            AffineStoreOp.create(
                value_map.get(yielded_value, yielded_value), out, ivs, out_map
            )
        )
    rewriter.erase_op(op)


#: Op names ``lower_linalg_to_affine`` rewrites (``affine.matmul`` is
#: deliberately excluded — expanding it is ExpandAffineMatmulPass's job).
_LINALG_TO_AFFINE_ROOTS = (
    "linalg.matmul",
    "linalg.matvec",
    "linalg.transpose",
    "linalg.reshape",
    "linalg.conv2d_nchw",
    "linalg.fill",
    "linalg.copy",
    "linalg.generic",
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


_LINALG_TO_AFFINE = FrozenPatternSet(
    [LinalgToAffinePattern(name) for name in _LINALG_TO_AFFINE_ROOTS]
)


def lower_linalg_to_affine(root: Operation) -> int:
    return apply_conversion(root, _LINALG_TO_AFFINE).num_rewrites


class LinalgToAffinePass(_ConversionPass):
    name = "convert-linalg-to-affine-loops"
    patterns = _LINALG_TO_AFFINE


class LinalgContractionsToTiledLoopsPass(TileLoopNestPass):
    """The default Linalg codegen path of Fig. 9's MLT-Linalg.

    Named contraction-like ops (matmul, matvec, conv2d) become loop
    nests, and every new nest of depth >= 2 is tiled with
    ``affine-loop-tile``'s size rule; data-movement ops stay (priced as
    views / memory passes by the model).
    """

    name = "convert-linalg-contractions-to-tiled-loops"
    patterns = FrozenPatternSet(
        [
            LinalgToAffinePattern(name)
            for name in ("linalg.matmul", "linalg.matvec", "linalg.conv2d_nchw")
        ]
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
        _lower_matmul_like(op, op.a, op.b, op.c, rewriter)
        return True


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


def _convert_linalg_to_blas(op: Operation, library: str) -> Optional[Operation]:
    lib = library
    if isinstance(op, linalg_d.MatmulOp):
        return blas_d.SgemmOp.create(op.a, op.b, op.c, library=lib)
    if isinstance(op, linalg_d.MatvecOp):
        return blas_d.SgemvOp.create(
            op.a, op.x, op.y, library=lib, trans=op.trans
        )
    if isinstance(op, linalg_d.TransposeOp):
        return blas_d.TransposeOp.create(
            op.input, op.output, op.permutation, library=lib
        )
    if isinstance(op, linalg_d.ReshapeOp):
        return blas_d.ReshapeOp.create(
            op.input, op.output, op.reassociation, library=lib
        )
    if isinstance(op, linalg_d.Conv2DNchwOp):
        return blas_d.Conv2DOp.create(
            op.input, op.kernel, op.output, library=lib
        )
    return None


_LINALG_TO_BLAS_ROOTS = (
    "linalg.matmul",
    "linalg.matvec",
    "linalg.transpose",
    "linalg.reshape",
    "linalg.conv2d_nchw",
)


class LinalgToBlasPattern(RewritePattern):
    def __init__(self, root_op_name: str, library: str):
        self.root_op_name = root_op_name
        self.library = library

    @property
    def pattern_name(self) -> str:
        return f"to-blas<{self.root_op_name}>"

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        replacement = _convert_linalg_to_blas(op, self.library)
        if replacement is None:
            return False
        rewriter.set_insertion_point_before(op)
        rewriter.insert(replacement)
        rewriter.erase_op(op)
        return True


class LinalgToBlasPass(_ConversionPass):
    """Replace linalg ops with vendor library calls (§V-B MLT-Blas)."""

    name = "convert-linalg-to-blas"

    def __init__(self, library: str = "mkl-dnn"):
        self.library = library
        self.patterns = FrozenPatternSet(
            [
                LinalgToBlasPattern(name, library)
                for name in _LINALG_TO_BLAS_ROOTS
            ]
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


def lower_scf_to_llvm(func) -> int:
    """Convert structured loops to explicit CFG and flatten memory ops."""
    flattened = apply_conversion(func, _FLATTEN).num_rewrites
    return flattened + _peel_all_loops(func)


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
        return _peel_all_loops(func) > 0 or flattened


class LowerBlasToLLVMPattern(RewritePattern):
    def __init__(self, root_op_name: str, symbol: str):
        self.root_op_name = root_op_name
        self.symbol = symbol

    @property
    def pattern_name(self) -> str:
        return f"to-llvm-call<{self.root_op_name}>"

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        rewriter.set_insertion_point_before(op)
        rewriter.insert(llvm_d.CallOp.create(self.symbol, op.operands))
        rewriter.erase_op(op)
        return True


class LowerBlasToLLVMPass(_ConversionPass):
    """Replace blas dialect ops by llvm.call into the library ABI."""

    name = "convert-blas-to-llvm"

    _SYMBOLS = {
        "blas.sgemm": "cblas_sgemm",
        "blas.sgemv": "cblas_sgemv",
        "blas.transpose": "mkl_somatcopy",
        "blas.reshape": "mlt_reshape_view",
        "blas.conv2d": "mkldnn_convolution_forward",
    }

    patterns = FrozenPatternSet(
        [
            LowerBlasToLLVMPattern(name, symbol)
            for name, symbol in sorted(_SYMBOLS.items())
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
