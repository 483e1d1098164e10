"""Translate a module into compiled NumPy-backed Python source.

Every function in the module becomes one generated ``def``:

* structured bodies (``affine.for``/``scf.for``/``scf.if``) become
  Python loops, with innermost ``affine.for`` bodies handed to the
  vectorizer (see :mod:`.vectorize`) so contiguous access patterns run
  as NumPy slice arithmetic instead of per-element dispatch;
* ``blas.*`` / ``linalg.*`` / ``affine.matmul`` ops dispatch straight
  to the NumPy/BLAS helpers in :mod:`.runtime`;
* lowered multi-block CFG regions (``llvm.br``/``llvm.cond_br``) become
  a ``while``-driven block dispatcher with tuple-assignments standing
  in for block arguments.

The per-op logic lives in the :data:`EMITTERS` table, one row per op
kind (a subclass inherits its base's), the compiled analogue of the
interpreter's ``_PLANNERS`` — the coverage audit in
``tests/execution/test_engine_coverage.py`` keeps the two in lockstep.
An op without an emitter fails codegen with a one-line
:class:`EngineError` naming the op.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import CodeType
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...analysis.band import summarize_band
from ...analysis.buffers import ELIDED, VIEW, plan_buffers
from ...analysis.contraction import Contraction, generic_contraction_spec
from ...dialects import affine, blas, linalg, llvm, scf, std, transform
from ...dialects.affine import AffineForOp
from ...ir import (
    CallOp,
    FuncOp,
    ModuleOp,
    Operation,
    OpTable,
    ReturnOp,
    is_float,
)
from ...ir.affine_expr import AffineExpr, AffineExprKind
from ...ir.types import F64Type, IndexType, IntegerType
from . import runtime
from .licm import hoist_loop_invariants
from .runtime import EngineError

#: Hard bound on block transitions when executing a lowered CFG region;
#: compiled into the generated dispatcher as an infinite-loop backstop.
MAX_CFG_STEPS = 10_000_000

#: Vectorization modes: ``nest`` collapses whole perfect loop bands,
#: ``innermost`` restores the PR-2 innermost-only behavior (used by the
#: benchmarks as the comparison baseline), ``none`` disables the
#: vectorizer entirely (scalar loops; the ``vectorize-diff`` fuzz
#: oracle's reference).
VECTORIZE_MODES = ("nest", "innermost", "none")


def _np_dtype_literal(elem_type) -> str:
    if isinstance(elem_type, F64Type):
        return "float64"
    if isinstance(elem_type, (IndexType, IntegerType)):
        return "int64"
    return "float32"


def affine_expr_src(expr: AffineExpr, dim_names: Sequence[str]) -> str:
    """Render an affine expression as Python source over ``dim_names``."""
    if expr.is_constant():
        return str(expr.evaluate((), ()))
    kind = expr.kind
    if kind is AffineExprKind.DIM:
        return dim_names[expr.position]
    if kind is AffineExprKind.SYMBOL:
        raise EngineError("engine: symbolic affine operands are unsupported")
    lhs = affine_expr_src(expr.lhs, dim_names)
    rhs = affine_expr_src(expr.rhs, dim_names)
    if kind is AffineExprKind.ADD:
        return f"({lhs} + {rhs})"
    if kind is AffineExprKind.MUL:
        return f"({lhs} * {rhs})"
    if kind is AffineExprKind.MOD:
        return f"({lhs} % {rhs})"
    if kind is AffineExprKind.FLOORDIV:
        return f"({lhs} // {rhs})"
    return f"(-((-{lhs}) // {rhs}))"  # ceildiv


class _FuncContext:
    """Per-function codegen state: lines, indentation, value names."""

    def __init__(self, codegen: "CodeGenerator", func: FuncOp):
        self.codegen = codegen
        self.func = func
        self.lines: List[str] = []
        self.indent = 1
        self._names: Dict[int, str] = {}
        self._counter = 0
        #: depth of scalar-emitted affine.for loops around the current
        #: op — 0 means the next affine.for starts a fresh nest
        self.nest_depth = 0
        #: did any sub-band of the current nest root collapse?
        self.nest_collapsed_any = False
        #: induction variables of enclosing scalar loops (innermost
        #: last), used to split loop-invariant subscript arithmetic
        #: into hoistable statements
        self.loop_ivs: List = []
        #: buffer-plan action per op id (see
        #: :mod:`repro.analysis.buffers`); an op without one emits
        #: today's zero-filled alloc / copying helper
        self.buffer_actions: Dict[int, str] = {}

    # -- value naming ----------------------------------------------------

    def define(self, value) -> str:
        name = f"v{self._counter}"
        self._counter += 1
        self._names[id(value)] = name
        return name

    def name(self, value) -> str:
        try:
            return self._names[id(value)]
        except KeyError:
            raise EngineError(f"engine: unbound SSA value {value!r}")

    def fresh(self, prefix: str = "_t") -> str:
        name = f"{prefix}{self._counter}"
        self._counter += 1
        return name

    # -- emission --------------------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def emit_block(self, ops: Sequence[Operation]) -> None:
        """Emit a suite of ops, inserting ``pass`` for empty suites."""
        before = len(self.lines)
        for op in ops:
            self.codegen.emit_op(self, op)
        if len(self.lines) == before:
            self.emit("pass")

    # -- affine helpers --------------------------------------------------

    def operand_names(self, values) -> List[str]:
        return [self.name(v) for v in values]

    def bound_src(self, map_, operands, minimize: bool) -> str:
        names = self.operand_names(operands)
        exprs = [affine_expr_src(e, names) for e in map_.results]
        if len(exprs) == 1:
            return exprs[0]
        reducer = "min" if minimize else "max"
        return f"{reducer}({', '.join(exprs)})"


# ----------------------------------------------------------------------
# Scalar emitters
# ----------------------------------------------------------------------


def _emit_constant(ctx: _FuncContext, op) -> None:
    ty = op.results[0].type
    value = float(op.value) if is_float(ty) else int(op.value)
    ctx.emit(f"{ctx.define(op.results[0])} = {value!r}")


#: Scalar Python spelling of each float binary op, shared by the scalar
#: emitters and the vectorizer's band-invariant values.  ``maxf``
#: propagates a NaN from either operand, as ``np.maximum`` does.
FLOAT_BINARY_TEMPLATES = {
    "std.addf": "({a} + {b})",
    "std.subf": "({a} - {b})",
    "std.mulf": "({a} * {b})",
    "std.divf": "({a} / {b})",
    "std.maxf": "({a} if {a} >= {b} or {a} != {a} else {b})",
}


#: Scalar Python spelling of every binary arith op codegen spells.
_BINARY_TEMPLATES = {
    **FLOAT_BINARY_TEMPLATES,
    "std.addi": "({a} + {b})",
    "std.subi": "({a} - {b})",
    "std.muli": "({a} * {b})",
    "std.divi": "({a} // {b})",
    "std.remi": "({a} % {b})",
}


def _emit_binary(ctx: _FuncContext, op) -> None:
    """A binary arith op with no spelling calls its ``PYTHON_FUNC``."""
    template = _BINARY_TEMPLATES.get(
        op.name, f"_rt.scalar_op({op.name!r})({{a}}, {{b}})"
    )
    a, b = ctx.name(op.operand(0)), ctx.name(op.operand(1))
    result = ctx.define(op.results[0])
    body = template.format(a=a, b=b)
    if str(op.results[0].type) == "f32":
        ctx.emit(f"{result} = _f32({body})")
    else:
        ctx.emit(f"{result} = {body}")


def _emit_cmpi(ctx: _FuncContext, op) -> None:
    python_op = {
        "eq": "==", "ne": "!=", "slt": "<", "sle": "<=", "sgt": ">", "sge": ">=",
    }[op.predicate]
    a, b = ctx.name(op.operand(0)), ctx.name(op.operand(1))
    ctx.emit(f"{ctx.define(op.results[0])} = ({a} {python_op} {b})")


#: Python comparison per ordered ``std.cmpf`` predicate.
CMPF_PYTHON = {
    "oeq": "==", "one": "!=", "olt": "<", "ole": "<=", "ogt": ">", "oge": ">=",
}


def _emit_cmpf(ctx: _FuncContext, op) -> None:
    python_op = CMPF_PYTHON[op.predicate]
    a, b = ctx.name(op.operand(0)), ctx.name(op.operand(1))
    ctx.emit(f"{ctx.define(op.results[0])} = ({a} {python_op} {b})")


def _emit_negf(ctx: _FuncContext, op) -> None:
    # Negation is exact in binary floating point: no f32 re-rounding.
    ctx.emit(f"{ctx.define(op.results[0])} = (-{ctx.name(op.operand(0))})")


def _emit_select(ctx: _FuncContext, op) -> None:
    c, t, f = (ctx.name(op.operand(i)) for i in range(3))
    ctx.emit(f"{ctx.define(op.results[0])} = ({t} if {c} else {f})")


def _emit_index_cast(ctx: _FuncContext, op) -> None:
    ctx.emit(f"{ctx.define(op.results[0])} = int({ctx.name(op.operand(0))})")


def _emit_alloc(ctx: _FuncContext, op) -> None:
    if id(op) in ctx.buffer_actions:
        return  # its first writer defines the buffer
    ty = op.results[0].type
    if any(d < 0 for d in ty.shape):
        raise EngineError("engine: cannot allocate dynamic memref")
    shape = tuple(ty.shape)
    dtype = _np_dtype_literal(ty.element_type)
    ctx.emit(f"{ctx.define(op.results[0])} = _np.zeros({shape!r}, dtype={dtype!r})")


def _emit_noop(ctx: _FuncContext, op) -> None:
    pass


def _emit_std_load(ctx: _FuncContext, op) -> None:
    mem = ctx.name(op.memref)
    idx = ", ".join(ctx.operand_names(op.indices))
    ctx.emit(f"{ctx.define(op.results[0])} = {mem}[{idx}].item()")


def _emit_std_store(ctx: _FuncContext, op) -> None:
    mem = ctx.name(op.memref)
    idx = ", ".join(ctx.operand_names(op.indices))
    ctx.emit(f"{mem}[{idx}] = {ctx.name(op.value)}")


def _split_subscript_src(ctx: _FuncContext, expr, indices, names) -> str:
    """Subscript expression source with the part invariant in the
    innermost enclosing loop split into its own statement, so the
    textual LICM pass (:mod:`.licm`) can hoist it."""
    plain = affine_expr_src(expr, names)
    if not ctx.loop_ivs:
        return plain
    linear = expr.as_linear()
    if linear is None or linear.symbol_coeffs:
        return plain
    inner = ctx.loop_ivs[-1]
    var_terms, inv_terms = [], []
    for pos in sorted(linear.dim_coeffs):
        coeff = linear.dim_coeffs[pos]
        if coeff == 0:
            continue
        term = names[pos] if coeff == 1 else f"({coeff} * {names[pos]})"
        if indices[pos] is inner:
            var_terms.append(term)
        else:
            inv_terms.append(term)
    if linear.constant:
        inv_terms.append(str(linear.constant))
    if not inv_terms or (len(inv_terms) == 1 and not var_terms):
        return plain
    inv_src = inv_terms[0] if len(inv_terms) == 1 else f"({' + '.join(inv_terms)})"
    if not var_terms:
        temp = ctx.fresh("_i")
        ctx.emit(f"{temp} = {inv_src}")
        return temp
    temp = ctx.fresh("_i")
    ctx.emit(f"{temp} = {inv_src}")
    return f"({' + '.join([temp] + var_terms)})"


def _affine_access_src(ctx: _FuncContext, op) -> str:
    names = ctx.operand_names(op.indices)
    return ", ".join(
        _split_subscript_src(ctx, e, op.indices, names) for e in op.map.results
    )


def _emit_affine_load(ctx: _FuncContext, op) -> None:
    mem = ctx.name(op.memref)
    access = _affine_access_src(ctx, op)
    ctx.emit(f"{ctx.define(op.results[0])} = {mem}[{access}].item()")


def _emit_affine_store(ctx: _FuncContext, op) -> None:
    mem = ctx.name(op.memref)
    access = _affine_access_src(ctx, op)
    ctx.emit(f"{mem}[{access}] = {ctx.name(op.value)}")


def _emit_affine_apply(ctx: _FuncContext, op) -> None:
    names = ctx.operand_names(op.operands)
    expr = affine_expr_src(op.map.results[0], names)
    ctx.emit(f"{ctx.define(op.results[0])} = {expr}")


def _emit_affine_for(ctx: _FuncContext, op: AffineForOp) -> None:
    from .vectorize import try_vectorize_band

    codegen = ctx.codegen
    mode = codegen.vectorize
    stats = codegen.vec_stats
    is_root = ctx.nest_depth == 0
    if is_root:
        ctx.nest_collapsed_any = False
    # The tiling stages mark the loops they create ``no_vectorize``: a
    # tiled band was proven non-collapsible pre-tiling, so skip the
    # vectorize attempt rather than re-recording the same bail 2d times
    # — one ``tiled`` per nest says why it runs scalar.
    if op.no_vectorize:
        if is_root and mode != "none":
            stats.record_bail("tiled")
    elif mode != "none":
        band = summarize_band(op)
        if mode == "innermost" and band.depth > 1:
            band = None  # emulate the innermost-only vectorizer
        if band is not None and try_vectorize_band(
            ctx, band, stats, allow_contraction=(mode == "nest")
        ):
            if is_root:
                stats.nests_collapsed += 1
            else:
                ctx.nest_collapsed_any = True
            return
    lb = ctx.bound_src(op.lower_bound_map, op.lb_operands, minimize=False)
    ub = ctx.bound_src(op.upper_bound_map, op.ub_operands, minimize=True)
    iv = ctx.define(op.induction_var)
    ctx.emit(f"for {iv} in range({lb}, {ub}, {op.step}):")
    ctx.indent += 1
    ctx.nest_depth += 1
    ctx.loop_ivs.append(op.induction_var)
    ctx.emit_block(op.ops_in_body())
    ctx.loop_ivs.pop()
    ctx.nest_depth -= 1
    ctx.indent -= 1
    if is_root and mode != "none":
        if ctx.nest_collapsed_any:
            stats.nests_partial += 1
        else:
            stats.nests_bailed += 1


def _emit_scf_for(ctx: _FuncContext, op) -> None:
    lb, ub, step = (ctx.name(v) for v in (op.lower_bound, op.upper_bound, op.step))
    iv = ctx.define(op.induction_var)
    ctx.emit(f"for {iv} in range({lb}, {ub}, {step}):")
    ctx.indent += 1
    ctx.loop_ivs.append(op.induction_var)
    ctx.emit_block(op.ops_in_body())
    ctx.loop_ivs.pop()
    ctx.indent -= 1


def _emit_scf_if(ctx: _FuncContext, op) -> None:
    ctx.emit(f"if {ctx.name(op.condition)}:")
    ctx.indent += 1
    ctx.emit_block(op.then_block.ops_without_terminator())
    ctx.indent -= 1
    if len(op.regions) > 1:
        ctx.emit("else:")
        ctx.indent += 1
        ctx.emit_block(op.else_block.ops_without_terminator())
        ctx.indent -= 1


def _emit_return(ctx: _FuncContext, op) -> None:
    values = ", ".join(ctx.operand_names(op.operands))
    ctx.emit(f"return [{values}]" if values else "return []")


def _emit_func_call(ctx: _FuncContext, op) -> None:
    callee = ctx.codegen.module.lookup(op.callee)
    if callee is None:
        raise EngineError(f"engine: call to unknown function @{op.callee}")
    args = ", ".join(ctx.operand_names(op.operands))
    if op.results:
        tmp = ctx.fresh("_r")
        ctx.emit(f"{tmp} = _fn_{op.callee}({args})")
        for pos, result in enumerate(op.results):
            ctx.emit(f"{ctx.define(result)} = {tmp}[{pos}]")
    else:
        ctx.emit(f"_fn_{op.callee}({args})")


def _emit_llvm_call(ctx: _FuncContext, op) -> None:
    if op.callee not in runtime.LIBRARY_CALLS:
        raise EngineError(f"engine: unknown library symbol @{op.callee}")
    args = ", ".join(ctx.operand_names(op.operands))
    params = op.parameters
    extra = f", {params!r}" if params else ""
    ctx.emit(f"_rt.library_call({op.callee!r}, [{args}]{extra})")


def _emit_llvm_load(ctx: _FuncContext, op) -> None:
    mem, idx = ctx.name(op.memref), ctx.name(op.index)
    ctx.emit(
        f"{ctx.define(op.results[0])} = {mem}.reshape(-1)[{idx}].item()"
    )


def _emit_llvm_store(ctx: _FuncContext, op) -> None:
    mem, idx = ctx.name(op.memref), ctx.name(op.index)
    ctx.emit(f"{mem}.reshape(-1)[{idx}] = {ctx.name(op.value)}")


def _emit_cfg_terminator(ctx: _FuncContext, op) -> None:
    # Handled by the CFG block dispatcher; direct dispatch means a
    # branch sits in a single-block region, which is malformed IR.
    raise EngineError(f"engine: {op.name} outside a multi-block CFG region")


def _emit_unreachable(ctx: _FuncContext, op) -> None:
    ctx.emit(
        'raise EngineError("executed llvm.unreachable: '
        'control flow reached a point marked impossible")'
    )


# -- linear algebra ops -------------------------------------------------


def _emit_matmul(ctx: _FuncContext, op) -> None:
    a, b, c = ctx.operand_names(op.operands)
    ctx.emit(f"_rt.sgemm({a}, {b}, {c})")


def _emit_blas_sgemm(ctx: _FuncContext, op) -> None:
    a, b, c = ctx.operand_names(op.operands)
    ctx.emit(f"_rt.sgemm({a}, {b}, {c}, {op.alpha!r}, {op.beta!r})")


def _emit_matvec(ctx: _FuncContext, op) -> None:
    a, x, y = ctx.operand_names(op.operands)
    trans = bool(getattr(op, "trans", False))
    ctx.emit(f"_rt.sgemv({a}, {x}, {y}, trans={trans})")


def _output_layout(op) -> Tuple[str, str]:
    """Source of the ``shape`` and ``dtype`` a producer needs to define
    ``op``'s output itself (see :mod:`repro.analysis.buffers`) instead
    of writing into a zero-filled alloc."""
    ty = op.operands[-1].type
    return repr(tuple(ty.shape)), repr(_np_dtype_literal(ty.element_type))


def _emit_transpose(ctx: _FuncContext, op) -> None:
    src, perm = ctx.name(op.input), tuple(op.permutation)
    if id(op) in ctx.buffer_actions:
        _, dtype = _output_layout(op)
        dst = ctx.define(op.output)
        ctx.emit(f"{dst} = _rt.transposed({src}, {perm!r}, {dtype})")
    else:
        ctx.emit(f"_rt.transpose({src}, {ctx.name(op.output)}, {perm!r})")


def _emit_reshape(ctx: _FuncContext, op) -> None:
    action = ctx.buffer_actions.get(id(op))
    if action == ELIDED:
        return  # the output already holds it: the input is its view
    src = ctx.name(op.input)
    if action is None:
        ctx.emit(f"_rt.reshape({src}, {ctx.name(op.output)})")
        return
    helper = "reshape_view" if action == VIEW else "reshaped"
    shape, dtype = _output_layout(op)
    ctx.emit(f"{ctx.define(op.output)} = _rt.{helper}({src}, {shape}, {dtype})")


def _emit_conv2d(ctx: _FuncContext, op) -> None:
    src, kernel, out = ctx.operand_names(op.operands)
    ctx.emit(f"_rt.conv2d({src}, {kernel}, {out})")


def _emit_fill(ctx: _FuncContext, op) -> None:
    value = ctx.name(op.fill_value)
    if id(op) in ctx.buffer_actions:
        shape, dtype = _output_layout(op)
        ctx.emit(f"{ctx.define(op.output)} = _np.full({shape}, {value}, {dtype})")
    else:
        ctx.emit(f"{ctx.name(op.output)}[...] = {value}")


def contraction_src(
    out: str, inputs: Sequence[str], names: Sequence[str]
) -> str:
    """NumPy source of the product of the arrays ``names``, whose axes
    carry the labels ``inputs``, summed into the labels ``out``: planned
    once here so the kernel runs the call with nothing left to parse.

    Two inputs that make a pure :class:`Contraction` — the shared TTGT
    check passes, an operand without a free label allowed — are one
    BLAS call: ``@`` (with ``.T`` views) when one label is summed and no
    operand has more than two, ``np.tensordot`` with literal axes
    otherwise.  Everything else is ``np.einsum(..., optimize=True)``.
    Each form keeps the input dtype (f32 stays f32), so results match
    the scalar loop up to reassociation tolerance.
    """
    contraction = Contraction(out, *inputs) if len(inputs) == 2 else None
    if contraction is None or contraction.refusal(free_needed=False):
        spec = ",".join(inputs) + "->" + out
        return f"_np.einsum({spec!r}, {', '.join(names)}, optimize=True)"
    (a_spec, b_spec), (a, b) = inputs, names
    summed = contraction.summed
    free = contraction.a_free + contraction.b_free
    if len(summed) == 1 and len(a_spec) <= 2 and len(b_spec) <= 2:
        x = a if a_spec[-1] == summed else f"{a}.T"
        y = b if b_spec[0] == summed else f"{b}.T"
        return f"({x} @ {y})" + ("" if out == free else ".T")
    axes = (
        [a_spec.index(c) for c in summed],
        [b_spec.index(c) for c in summed],
    )
    src = f"_np.tensordot({a}, {b}, {axes!r})"
    perm = tuple(free.index(c) for c in out)
    if perm != tuple(range(len(perm))):
        src = f"{src}.transpose({perm})"
    return src


def _emit_generic(ctx: _FuncContext, op) -> None:
    recognized = generic_contraction_spec(op)
    if recognized is not None:
        contraction, subtract, scalar_out = recognized
        a, b, out = ctx.operand_names(op.operands)
        index = "..."
        if scalar_out:
            index = ", ".join("0" for _ in op.indexing_maps[2].results)
        sign = "-" if subtract else "+"
        src = contraction_src(
            contraction.out, (contraction.a, contraction.b), (a, b)
        )
        ctx.emit(f"{out}[{index}] {sign}= {src}")
        return
    extents = op.iteration_domain()
    maps = op.indexing_maps
    loop_vars = [ctx.fresh("_g") for _ in extents]
    for var, extent in zip(loop_vars, extents):
        ctx.emit(f"for {var} in range({extent}):")
        ctx.indent += 1
    for arg, operand, map_ in zip(op.body.arguments, op.operands, maps):
        idx = ", ".join(affine_expr_src(e, loop_vars) for e in map_.results)
        ctx.emit(f"{ctx.define(arg)} = {ctx.name(operand)}[{idx}].item()")
    for body_op in op.body.ops_without_terminator():
        ctx.codegen.emit_op(ctx, body_op)
    term = op.body.terminator
    for out_pos, yielded in enumerate(term.operands):
        out_map = maps[op.num_inputs + out_pos]
        idx = ", ".join(affine_expr_src(e, loop_vars) for e in out_map.results)
        out = ctx.name(op.operands[op.num_inputs + out_pos])
        ctx.emit(f"{out}[{idx}] = {ctx.name(yielded)}")
    for _ in extents:
        ctx.indent -= 1


def _emit_transform_op(ctx: "_FuncContext", op: Operation) -> None:
    # Schedule IR scripts transformations over payload modules; it has
    # no runtime semantics of its own.
    raise EngineError(
        f"engine: {op.name} is schedule IR, not payload: apply it with "
        "repro.scheduling.apply_schedule instead of compiling it"
    )


#: One emitter per op kind, resolved as the interpreter's ``_PLANNERS``
#: is; the engine coverage audit diffs the two.
EMITTERS = OpTable(
    {
        ReturnOp: _emit_return,
        CallOp: _emit_func_call,
        llvm.CallOp: _emit_llvm_call,
        std.ConstantOp: _emit_constant,
        std.BinaryArithOp: _emit_binary,
        std.NegFOp: _emit_negf,
        std.CmpFOp: _emit_cmpf,
        std.CmpIOp: _emit_cmpi,
        std.SelectOp: _emit_select,
        std.IndexCastOp: _emit_index_cast,
        std.AllocOp: _emit_alloc,
        std.DeallocOp: _emit_noop,
        std.LoadOp: _emit_std_load,
        std.StoreOp: _emit_std_store,
        affine.AffineForOp: _emit_affine_for,
        affine.AffineLoadOp: _emit_affine_load,
        affine.AffineStoreOp: _emit_affine_store,
        affine.AffineApplyOp: _emit_affine_apply,
        affine.AffineYieldOp: _emit_noop,
        scf.ForOp: _emit_scf_for,
        scf.IfOp: _emit_scf_if,
        scf.YieldOp: _emit_noop,
        llvm.LoadOp: _emit_llvm_load,
        llvm.StoreOp: _emit_llvm_store,
        llvm.BrOp: _emit_cfg_terminator,
        llvm.CondBrOp: _emit_cfg_terminator,
        llvm.UnreachableOp: _emit_unreachable,
        linalg.LinalgYieldOp: _emit_noop,
        linalg.MatmulOp: _emit_matmul,
        linalg.MatvecOp: _emit_matvec,
        linalg.TransposeOp: _emit_transpose,
        linalg.ReshapeOp: _emit_reshape,
        linalg.Conv2DNchwOp: _emit_conv2d,
        linalg.FillOp: _emit_fill,
        linalg.GenericOp: _emit_generic,
        blas.SgemmOp: _emit_blas_sgemm,
        transform.TransformOp: _emit_transform_op,
    }
)


# ----------------------------------------------------------------------
# Function / module generation
# ----------------------------------------------------------------------


class CodeGenerator:
    def __init__(self, module: ModuleOp, vectorize: str = "nest"):
        if vectorize not in VECTORIZE_MODES:
            raise EngineError(
                f"engine: unknown vectorize mode {vectorize!r}; "
                f"known: {VECTORIZE_MODES}"
            )
        from .vectorize import VectorizeStats

        self.module = module
        self.vectorize = vectorize
        self.vec_stats = VectorizeStats()

    def emit_op(self, ctx: _FuncContext, op: Operation) -> None:
        emitter = EMITTERS.lookup(type(op))
        if emitter is None:
            raise EngineError(f"engine: no emitter for op {op.name}")
        emitter(ctx, op)

    def generate_function(self, func: FuncOp) -> List[str]:
        ctx = _FuncContext(self, func)
        params = [ctx.define(arg) for arg in func.arguments]
        header = f"def _fn_{func.sym_name}({', '.join(params)}):"
        region = func.regions[0]
        ctx.buffer_actions = plan_buffers(func, self.vec_stats)
        if len(region.blocks) == 1:
            ctx.emit_block(region.entry_block.operations)
            ctx.lines, hoisted = hoist_loop_invariants(ctx.lines)
            self.vec_stats.licm_hoisted += hoisted
            if not _returns_on_all_paths(ctx.lines):
                ctx.emit("return []")
        else:
            self._generate_cfg(ctx, region)
        return [header] + ctx.lines

    # -- lowered CFG form ------------------------------------------------

    def _generate_cfg(self, ctx: _FuncContext, region) -> None:
        blocks = list(region.blocks)
        block_ids = {id(block): pos for pos, block in enumerate(blocks)}
        # Pre-assign names for every block argument so branches can
        # tuple-assign into them (entry args already name the params).
        for block in blocks[1:]:
            for arg in block.arguments:
                ctx.define(arg)
        ctx.emit("_b = 0")
        ctx.emit("_steps = 0")
        ctx.emit("while True:")
        ctx.indent += 1
        ctx.emit("_steps += 1")
        ctx.emit(f"if _steps > {MAX_CFG_STEPS}:")
        ctx.indent += 1
        ctx.emit(
            'raise EngineError("engine: exceeded CFG step budget '
            f'({MAX_CFG_STEPS} block transitions)")'
        )
        ctx.indent -= 1
        for pos, block in enumerate(blocks):
            ctx.emit(f"{'if' if pos == 0 else 'elif'} _b == {pos}:")
            ctx.indent += 1
            before = len(ctx.lines)
            for op in block.operations:
                if op.name == "llvm.br":
                    self._emit_branch_assign(ctx, op)
                    ctx.emit(f"_b = {block_ids[id(op.dest)]}")
                    ctx.emit("continue")
                elif op.name == "llvm.cond_br":
                    true_id = block_ids[id(op.true_dest)]
                    false_id = block_ids[id(op.false_dest)]
                    ctx.emit(
                        f"_b = {true_id} if {ctx.name(op.condition)} "
                        f"else {false_id}"
                    )
                    ctx.emit("continue")
                else:
                    self.emit_op(ctx, op)
            if len(ctx.lines) == before:
                ctx.emit("pass")
            ctx.indent -= 1
        ctx.emit("else:")
        ctx.indent += 1
        ctx.emit('raise EngineError("engine: jump to unknown CFG block")')
        ctx.indent -= 2

    def _emit_branch_assign(self, ctx: _FuncContext, op) -> None:
        if not op.operands:
            return
        targets = ", ".join(ctx.name(arg) for arg in op.dest.arguments)
        sources = ", ".join(ctx.operand_names(op.operands))
        ctx.emit(f"{targets} = {sources}")


def _returns_on_all_paths(lines: List[str]) -> bool:
    """Cheap check: did the body end in a top-level return?"""
    for line in reversed(lines):
        if line.startswith("    return"):
            return True
        if not line.startswith("        "):
            return False
    return False


def _module_chunks(generator: CodeGenerator) -> str:
    chunks = ["# generated by repro.execution.engine — do not edit"]
    for func in generator.module.functions:
        chunks.append("\n".join(generator.generate_function(func)))
    return "\n\n\n".join(chunks) + "\n"


def generate_module_source(module: ModuleOp, vectorize: str = "nest") -> str:
    """Generate the full Python source for a module's functions."""
    return _module_chunks(CodeGenerator(module, vectorize=vectorize))


@dataclass
class CompiledModule:
    """A compiled kernel: generated source plus callable entry points.

    ``code`` is the module code object ``source`` compiles to (what the
    disk tier persists as bytecode); ``vectorize_stats`` is the
    codegen-time :class:`~.vectorize.VectorizeStats` snapshot (``None``
    for kernels re-hydrated from a pre-stats disk artifact);
    ``opt_stats`` is the ``ScheduleResult.snapshot`` of the schedule
    that ran before codegen (``None`` when none ran).
    """

    key: str
    source: str
    functions: Dict[str, Callable]
    vectorize_stats: Optional[dict] = None
    opt_stats: Optional[dict] = None
    code: Optional[CodeType] = None


def load_compiled_source(
    source: str,
    key: str = "",
    vectorize_stats: Optional[dict] = None,
    opt_stats: Optional[dict] = None,
    code: Optional[CodeType] = None,
) -> CompiledModule:
    """``exec`` already-generated kernel source, ``compile()``-ing it
    first unless its code object is given.

    This is the one re-hydration path: no IR walk, no codegen — the
    entry points are recovered from the generated ``_fn_*`` defs.  The
    disk tier hands in the code object it unmarshalled, so a warm load
    compiles nothing.
    """
    namespace = {
        "_np": np,
        "_rt": runtime,
        "_f32": runtime.f32,
        "EngineError": EngineError,
    }
    if code is None:
        code = compile(source, f"<engine:{key[:12] or 'module'}>", "exec")
    exec(code, namespace)
    functions = {
        name[len("_fn_"):]: fn
        for name, fn in namespace.items()
        if name.startswith("_fn_") and callable(fn)
    }
    return CompiledModule(
        key=key,
        source=source,
        functions=functions,
        vectorize_stats=vectorize_stats,
        opt_stats=opt_stats,
        code=code,
    )


def compile_module(
    module: ModuleOp, key: str = "", vectorize: str = "nest"
) -> CompiledModule:
    """Codegen + ``compile()`` one module into callable kernels."""
    generator = CodeGenerator(module, vectorize=vectorize)
    return load_compiled_source(
        _module_chunks(generator),
        key,
        vectorize_stats=generator.vec_stats.snapshot(),
    )
