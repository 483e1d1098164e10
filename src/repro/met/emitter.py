"""C AST -> Affine dialect emission (the core of MET).

Each C function becomes a ``func.func`` whose array parameters are
memrefs.  ``for`` loops in the polyhedral subset become ``affine.for``;
array accesses become ``affine.load``/``affine.store`` with the access
function captured as an affine map; arithmetic becomes ``std`` ops.

Code outside the polyhedral subset (non-affine bounds or subscripts)
raises :class:`CNotAffineError` — mirroring MET, which only admits the
polyhedral fragment of C.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..dialects import affine as affine_d
from ..dialects import std
from ..ir import (
    AffineMap,
    Builder,
    Context,
    FuncOp,
    InsertionPoint,
    MemRefType,
    ModuleOp,
    ReturnOp,
    Value,
    f32,
    f64,
    index,
    verify,
)
from ..ir import affine_expr as ae
from .c_ast import (
    ArrayRef,
    Assign,
    BinOp,
    CSyntaxError,
    Decl,
    Expr,
    For,
    FunctionDef,
    Ident,
    Number,
    Stmt,
    UnaryOp,
)
from .c_parser import parse_c


class CNotAffineError(CSyntaxError):
    """The program leaves the polyhedral subset MET can translate."""


_SCALAR_TYPES = {"float": f32, "double": f64, "int": index}


class _FunctionEmitter:
    def __init__(self, func_ast: FunctionDef):
        self.ast = func_ast
        #: name -> memref Value for arrays (params and locals)
        self.buffers: Dict[str, Value] = {}
        #: name -> scalar Value (float params, int params)
        self.scalars: Dict[str, Value] = {}
        #: innermost-first stack of (iv name, iv Value)
        self.loop_ivs: List[Tuple[str, Value]] = []
        self.func: Optional[FuncOp] = None

    # ------------------------------------------------------------------

    def emit(self) -> FuncOp:
        arg_types = []
        for param in self.ast.params:
            if param.is_array:
                elem = _SCALAR_TYPES[param.ctype]
                if param.ctype == "int":
                    raise CNotAffineError(
                        f"integer array parameter {param.name!r} unsupported"
                    )
                arg_types.append(MemRefType(param.dims, elem))
            else:
                arg_types.append(_SCALAR_TYPES[param.ctype])
        func = FuncOp.create(self.ast.name, arg_types)
        self.func = func
        for param, arg in zip(self.ast.params, func.arguments):
            if param.is_array:
                self.buffers[param.name] = arg
            else:
                self.scalars[param.name] = arg
        builder = Builder(InsertionPoint.at_end(func.entry_block))
        for stmt in self.ast.body:
            self.emit_stmt(stmt, builder)
        builder.insert(ReturnOp.create())
        return func

    # -- statements -------------------------------------------------------

    def emit_stmt(self, stmt: Stmt, builder: Builder) -> None:
        if isinstance(stmt, For):
            self.emit_for(stmt, builder)
        elif isinstance(stmt, Assign):
            self.emit_assign(stmt, builder)
        elif isinstance(stmt, Decl):
            self.emit_decl(stmt, builder)
        else:
            raise CSyntaxError(f"unsupported statement {type(stmt).__name__}")

    def emit_decl(self, decl: Decl, builder: Builder) -> None:
        if decl.name in self.buffers or decl.name in self.scalars:
            raise CSyntaxError(f"redeclaration of {decl.name!r}")
        elem = _SCALAR_TYPES[decl.ctype]
        alloc = builder.insert(std.AllocOp.create(MemRefType(decl.dims, elem)))
        self.buffers[decl.name] = alloc.result

    def emit_for(self, stmt: For, builder: Builder) -> None:
        lb_map, lb_ops = self.bound_to_map(stmt.lower)
        ub_map, ub_ops = self.bound_to_map(stmt.upper)
        loop = affine_d.AffineForOp.create(
            lb_map, ub_map, stmt.step, lb_ops, ub_ops
        )
        builder.insert(loop)
        self.loop_ivs.append((stmt.iv, loop.induction_var))
        body_builder = Builder(
            InsertionPoint(loop.body, len(loop.body.operations) - 1)
        )
        for inner in stmt.body:
            self.emit_stmt(inner, body_builder)
        self.loop_ivs.pop()

    def emit_assign(self, stmt: Assign, builder: Builder) -> None:
        target = stmt.target
        if target.name not in self.buffers:
            raise CSyntaxError(f"assignment to unknown array {target.name!r}")
        memref = self.buffers[target.name]
        operands, access_map = self.access_to_map(target, memref)
        rhs = self.emit_expr(stmt.value, builder)
        if stmt.op != "=":
            current = builder.insert(
                affine_d.AffineLoadOp.create(memref, operands, access_map)
            ).result
            op_cls = {"+=": std.AddFOp, "-=": std.SubFOp, "*=": std.MulFOp}[
                stmt.op
            ]
            # current first: ``a -= b`` is ``a = a - b``, and subf is
            # not commutative.
            rhs = builder.insert(op_cls.create(current, rhs)).result
        builder.insert(
            affine_d.AffineStoreOp.create(rhs, memref, operands, access_map)
        )

    # -- expressions ------------------------------------------------------

    def emit_expr(self, expr: Expr, builder: Builder) -> Value:
        if isinstance(expr, Number):
            value = float(expr.value)
            return builder.insert(std.ConstantOp.create(value, f32)).result
        if isinstance(expr, Ident):
            if expr.name in self.scalars:
                return self.scalars[expr.name]
            raise CSyntaxError(f"unknown identifier {expr.name!r}")
        if isinstance(expr, ArrayRef):
            if expr.name not in self.buffers:
                raise CSyntaxError(f"unknown array {expr.name!r}")
            memref = self.buffers[expr.name]
            operands, access_map = self.access_to_map(expr, memref)
            return builder.insert(
                affine_d.AffineLoadOp.create(memref, operands, access_map)
            ).result
        if isinstance(expr, UnaryOp) and expr.op == "-":
            operand = self.emit_expr(expr.operand, builder)
            zero = builder.insert(std.ConstantOp.create(0.0, operand.type)).result
            return builder.insert(std.SubFOp.create(zero, operand)).result
        if isinstance(expr, BinOp):
            lhs = self.emit_expr(expr.lhs, builder)
            rhs = self.emit_expr(expr.rhs, builder)
            op_cls = {
                "+": std.AddFOp,
                "-": std.SubFOp,
                "*": std.MulFOp,
                "/": std.DivFOp,
            }.get(expr.op)
            if op_cls is None:
                raise CSyntaxError(f"unsupported operator {expr.op!r}")
            return builder.insert(op_cls.create(lhs, rhs)).result
        raise CSyntaxError(f"unsupported expression {type(expr).__name__}")

    # -- affine analysis --------------------------------------------------

    def bound_to_map(self, expr: Expr) -> Tuple[AffineMap, List[Value]]:
        """Convert a loop bound into an affine map + operands."""
        operands: List[Value] = []

        def convert(node: Expr) -> ae.AffineExpr:
            if isinstance(node, Number):
                if isinstance(node.value, float):
                    raise CNotAffineError("float loop bound")
                return ae.constant(node.value)
            if isinstance(node, Ident):
                value = self._index_value(node.name)
                if value is None:
                    raise CNotAffineError(
                        f"loop bound uses non-index identifier {node.name!r}"
                    )
                if value not in operands:
                    operands.append(value)
                return ae.dim(operands.index(value))
            if isinstance(node, BinOp) and node.op in ("+", "-", "*", "/"):
                lhs, rhs = convert(node.lhs), convert(node.rhs)
                if node.op == "+":
                    return lhs + rhs
                if node.op == "-":
                    return lhs - rhs
                if node.op == "*":
                    return lhs * rhs
                return lhs.floordiv(rhs)
            if isinstance(node, UnaryOp) and node.op == "-":
                return -convert(node.operand)
            raise CNotAffineError(
                f"non-affine loop bound ({type(node).__name__})"
            )

        result = convert(expr)
        if result.as_linear() is None:
            raise CNotAffineError(f"non-affine loop bound {expr!r}")
        return AffineMap(len(operands), 0, [result]), operands

    def _index_value(self, name: str) -> Optional[Value]:
        for iv_name, value in reversed(self.loop_ivs):
            if iv_name == name:
                return value
        scalar = self.scalars.get(name)
        if scalar is not None and scalar.type == index:
            return scalar
        return None

    def access_to_map(
        self, ref: ArrayRef, memref: Value
    ) -> Tuple[List[Value], AffineMap]:
        """Convert subscripts into (operands, access map).

        Subscripts must be affine in the enclosing induction variables
        with *constant* coefficients — ``A[i * lda + k]`` with a
        parametric stride is outside the polyhedral subset (this is
        exactly why MET misses nothing on Polybench but linearized
        accesses require constant leading dimensions).
        """
        memref_type = memref.type
        if len(ref.indices) != memref_type.rank:
            raise CNotAffineError(
                f"{ref.name}: {len(ref.indices)} subscripts for rank-"
                f"{memref_type.rank} array"
            )
        operands: List[Value] = []

        def convert(node: Expr) -> ae.AffineExpr:
            if isinstance(node, Number):
                if isinstance(node.value, float):
                    raise CNotAffineError("float array subscript")
                return ae.constant(node.value)
            if isinstance(node, Ident):
                for iv_name, value in reversed(self.loop_ivs):
                    if iv_name == node.name:
                        if value not in operands:
                            operands.append(value)
                        return ae.dim(operands.index(value))
                raise CNotAffineError(
                    f"subscript of {ref.name!r} uses {node.name!r}, which is "
                    "not an enclosing induction variable"
                )
            if isinstance(node, BinOp) and node.op in ("+", "-", "*"):
                lhs, rhs = convert(node.lhs), convert(node.rhs)
                if node.op == "+":
                    return lhs + rhs
                if node.op == "-":
                    return lhs - rhs
                return lhs * rhs
            if isinstance(node, UnaryOp) and node.op == "-":
                return -convert(node.operand)
            raise CNotAffineError(
                f"non-affine subscript in {ref.name!r} "
                f"({type(node).__name__})"
            )

        exprs = []
        for idx in ref.indices:
            converted = convert(idx)
            if converted.as_linear() is None:
                raise CNotAffineError(
                    f"non-affine subscript in {ref.name!r}"
                )
            exprs.append(converted)
        return operands, AffineMap(len(operands), 0, exprs)


def emit_module(unit, module_name: str = "") -> ModuleOp:
    """Emit a module from a parsed translation unit."""
    module = ModuleOp.create(module_name)
    for func_ast in unit.functions:
        module.append_function(_FunctionEmitter(func_ast).emit())
    return module


def compile_c(
    source: str,
    distribute: bool = True,
    do_verify: bool = True,
) -> ModuleOp:
    """Front door of MET: C source -> Affine-dialect module.

    ``distribute`` applies loop distribution (the canonicalization the
    paper performs to isolate computational motifs before matching).
    """
    module = emit_module(parse_c(source))
    if distribute:
        from ..transforms.distribution import distribute_loops

        for func in module.functions:
            distribute_loops(func)
    if do_verify:
        verify(module, Context())
    return module
