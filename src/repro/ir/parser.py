"""Textual IR parser.

Parses the syntax produced by :mod:`repro.ir.printer`, enabling
round-trip tests and concise IR literals in tests and examples::

    module = parse_module('''
      func @axpy(%arg0: memref<128xf32>, %arg1: memref<128xf32>) {
        affine.for %i = 0 to 128 {
          ...
        }
        return
      }
    ''')
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from .affine_map import AffineMap
from .attributes import (
    AffineMapAttr,
    ArrayAttr,
    Attribute,
    BoolAttr,
    FloatAttr,
    IntegerAttr,
    StringAttr,
    SymbolRefAttr,
    TypeAttr,
    UnitAttr,
)
from .builtin import FuncOp, ModuleOp, ReturnOp
from .core import (
    OP_REGISTRY,
    Block,
    IRError,
    Operation,
    OpTable,
    Region,
    create_operation,
)
from .types import (
    DYNAMIC,
    F32Type,
    F64Type,
    IndexType,
    IntegerType,
    MemRefType,
    NoneType,
    TensorType,
    Type,
    VectorType,
)
from .values import Value
from ..ir import affine_expr


class ParseError(IRError):
    def __init__(self, message: str, line: Optional[int] = None):
        suffix = f" (line {line})" if line is not None else ""
        super().__init__(message + suffix)


_TOKEN_SPEC = [
    ("WS", r"[ \t\r]+"),
    ("NEWLINE", r"\n"),
    ("COMMENT", r"//[^\n]*"),
    ("ARROW", r"->"),
    ("SSA", r"%[A-Za-z0-9_\.\#]+"),
    ("SYMBOL", r"@[A-Za-z0-9_\.\$]+"),
    ("BLOCKREF", r"\^[A-Za-z0-9_]+"),
    ("STRING", r'"(?:[^"\\]|\\.)*"'),
    ("FLOAT", r"-?\d+\.\d*(?:[eE][-+]?\d+)?|-?\d+[eE][-+]?\d+"),
    ("INT", r"-?\d+"),
    ("IDENT", r"[A-Za-z_][A-Za-z0-9_\.\$]*"),
    ("PUNCT", r"[(){}\[\]<>,:=*+\-?]"),
]

_MASTER_RE = re.compile("|".join(f"(?P<{n}>{p})" for n, p in _TOKEN_SPEC))


class Token:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind: str, text: str, line: int):
        self.kind = kind
        self.text = text
        self.line = line

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r})"


def _tokenize(source: str) -> List[Token]:
    tokens: List[Token] = []
    line = 1
    pos = 0
    while pos < len(source):
        match = _MASTER_RE.match(source, pos)
        if match is None:
            raise ParseError(f"unexpected character {source[pos]!r}", line)
        kind = match.lastgroup
        text = match.group()
        if kind == "NEWLINE":
            line += 1
        elif kind not in ("WS", "COMMENT"):
            tokens.append(Token(kind, text, line))
        pos = match.end()
    tokens.append(Token("EOF", "", line))
    return tokens


class Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.values: Dict[str, Value] = {}
        #: per-region block label environments (for CFG functions)
        self.blocks: Dict[str, Block] = {}

    # -- token helpers -----------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def next(self) -> Token:
        """Consume one token.  The EOF token can be consumed once (so
        ``expect`` reports what it wanted); a second attempt raises, so
        no token loop can spin on truncated input."""
        try:
            tok = self.tokens[self.pos]
        except IndexError:
            raise ParseError(
                "unexpected end of input", self.tokens[-1].line
            ) from None
        self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        return self.peek().text == text

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, got {tok.text!r}", tok.line)
        return tok

    def expect_kind(self, kind: str) -> Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind}, got {tok.text!r}", tok.line)
        return tok

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.peek().line)

    # -- values -------------------------------------------------------------

    def define_value(self, name: str, value: Value) -> None:
        self.values[name] = value

    def use_value(self, name: str) -> Value:
        if name not in self.values:
            raise self.error(f"use of undefined value {name}")
        return self.values[name]

    def parse_ssa_use(self) -> Value:
        return self.use_value(self.expect_kind("SSA").text)

    def parse_ssa_use_list(self) -> List[Value]:
        uses = [self.parse_ssa_use()]
        while self.accept(","):
            uses.append(self.parse_ssa_use())
        return uses

    # -- types ----------------------------------------------------------------

    def parse_type(self) -> Type:
        tok = self.next()
        text = tok.text
        if text == "f32":
            return F32Type()
        if text == "f64":
            return F64Type()
        if text == "index":
            return IndexType()
        if text == "none":
            return NoneType()
        if re.fullmatch(r"i\d+", text):
            return IntegerType(int(text[1:]))
        if text in ("memref", "tensor", "vector"):
            self.expect("<")
            shape, elem = self.parse_shape_and_element()
            self.expect(">")
            cls = {"memref": MemRefType, "tensor": TensorType, "vector": VectorType}
            return cls[text](shape, elem)
        raise ParseError(f"unknown type {text!r}", tok.line)

    def parse_shape_and_element(self) -> Tuple[List[int], Type]:
        # Shapes lex as IDENT/INT runs: 64x64xf32 may arrive as
        # INT(64) IDENT(x64xf32) etc.  Re-lex from raw text pieces.
        pieces: List[str] = []
        while not self.at(">"):
            pieces.append(self.next().text)
        flat = "".join(pieces)
        parts = flat.split("x")
        dims: List[int] = []
        for part in parts[:-1]:
            if part == "?":
                dims.append(DYNAMIC)
            else:
                dims.append(int(part))
        elem_text = parts[-1]
        elem = _scalar_type_from_text(elem_text)
        return dims, elem

    def parse_type_list_parens(self) -> List[Type]:
        self.expect("(")
        types: List[Type] = []
        if not self.at(")"):
            types.append(self.parse_type())
            while self.accept(","):
                types.append(self.parse_type())
        self.expect(")")
        return types

    # -- attributes --------------------------------------------------------------

    def parse_attr_dict(self) -> Dict[str, Attribute]:
        attrs: Dict[str, Attribute] = {}
        if not self.accept("{"):
            return attrs
        while not self.accept("}"):
            key = self.expect_kind("IDENT").text
            if self.accept("="):
                attrs[key] = self.parse_attribute()
            else:
                attrs[key] = UnitAttr()
            self.accept(",")
        return attrs

    def parse_attribute(self) -> Attribute:
        tok = self.peek()
        if tok.kind == "INT":
            return IntegerAttr(int(self.next().text))
        if tok.kind == "FLOAT":
            return FloatAttr(float(self.next().text))
        if tok.kind == "STRING":
            return StringAttr(_unquote(self.next().text))
        if tok.kind == "SYMBOL":
            return SymbolRefAttr(self.next().text[1:])
        if tok.text in ("true", "false"):
            return BoolAttr(self.next().text == "true")
        if tok.text == "[":
            self.next()
            elements: List[Attribute] = []
            while not self.accept("]"):
                elements.append(self.parse_attribute())
                self.accept(",")
            return ArrayAttr(elements)
        if tok.text == "affine_map":
            return AffineMapAttr(self.parse_affine_map_literal())
        if tok.text in ("f32", "f64", "index", "memref", "tensor", "vector") or re.fullmatch(
            r"i\d+", tok.text
        ):
            return TypeAttr(self.parse_type())
        raise ParseError(f"cannot parse attribute at {tok.text!r}", tok.line)

    def parse_affine_map_literal(self) -> AffineMap:
        self.expect("affine_map")
        self.expect("<")
        pieces: List[str] = []
        depth = 1
        while True:
            tok = self.next()
            if tok.text == "<":
                depth += 1
            elif tok.text == ">":
                depth -= 1
                if depth == 0:
                    break
            pieces.append(tok.text)
        return AffineMap.parse(" ".join(pieces))

    # -- top level ------------------------------------------------------------

    def parse_module(self) -> ModuleOp:
        module = ModuleOp.create()
        if self.accept("module"):
            self.expect("{")
            while not self.accept("}"):
                module.body.append(self._parse_module_item(module))
        else:
            while self.peek().kind != "EOF":
                module.body.append(self._parse_module_item(module))
        if self.peek().kind != "EOF":
            raise self.error("trailing input after module")
        return module

    def _parse_module_item(self, module: ModuleOp):
        """A top-level item: a function or a transform schedule."""
        if self.peek().text == "transform.sequence":
            return self.parse_operation(module.regions[0])
        return self.parse_func()

    def parse_func(self) -> FuncOp:
        self.expect("func")
        name = self.expect_kind("SYMBOL").text[1:]
        self.expect("(")
        arg_names: List[str] = []
        arg_types: List[Type] = []
        while not self.at(")"):
            arg_names.append(self.expect_kind("SSA").text)
            self.expect(":")
            arg_types.append(self.parse_type())
            self.accept(",")
        self.expect(")")
        result_types: List[Type] = []
        if self.accept("->"):
            result_types = self.parse_type_list_parens()
        func = FuncOp.create(name, arg_types, result_types)
        # The default entry block carries a placeholder terminator-less body.
        entry = func.entry_block
        entry.operations.clear()
        for arg_name, arg in zip(arg_names, entry.arguments):
            self.define_value(arg_name, arg)
        self.expect("{")
        self.parse_region_body(func.regions[0], entry)
        return func

    def parse_region_body(self, region, entry: Block) -> None:
        """Parse ops (and optional labeled blocks) until '}'."""
        current = entry
        saved_blocks = self.blocks
        self.blocks = {}
        try:
            while True:
                if self.accept("}"):
                    return
                if self.peek().kind == "BLOCKREF":
                    label = self.next().text
                    block = self._block_for_label(region, label)
                    # A forward branch reference may have created the
                    # block early; re-anchor it at its *definition*
                    # position so block order (and thus the printed
                    # form) round-trips exactly.
                    region.blocks.remove(block)
                    region.blocks.append(block)
                    if self.accept("("):
                        while not self.accept(")"):
                            arg_name = self.expect_kind("SSA").text
                            self.expect(":")
                            ty = self.parse_type()
                            self.define_value(arg_name, block.add_argument(ty))
                            self.accept(",")
                    self.expect(":")
                    current = block
                    continue
                op = self.parse_operation(region)
                current.append(op)
        finally:
            self.blocks = saved_blocks

    def _block_for_label(self, region, label: str) -> Block:
        if label not in self.blocks:
            block = Block()
            region.add_block(block)
            self.blocks[label] = block
        return self.blocks[label]

    # -- operations ---------------------------------------------------------------

    def parse_operation(self, region) -> Operation:
        result_names: List[str] = []
        if self.peek().kind == "SSA":
            result_names.append(self.next().text)
            while self.accept(","):
                result_names.append(self.expect_kind("SSA").text)
            self.expect("=")

        tok = self.peek()
        if tok.kind == "STRING":
            op = self.parse_generic_op(region)
        else:
            handler = (
                _parse_return
                if tok.text == "return"
                else _PARSERS.lookup(OP_REGISTRY.get(tok.text, Operation))
            )
            if handler is None:
                raise ParseError(f"unknown operation {tok.text!r}", tok.line)
            op = handler(self, region)

        if len(result_names) != len(op.results):
            raise ParseError(
                f"{op.name}: {len(result_names)} result names for "
                f"{len(op.results)} results",
                tok.line,
            )
        for name, result in zip(result_names, op.results):
            self.define_value(name, result)
        return op

    def parse_generic_op(self, region) -> Operation:
        name = _unquote(self.expect_kind("STRING").text)
        self.expect("(")
        operands: List[Value] = []
        while not self.at(")"):
            operands.append(self.parse_ssa_use())
            self.accept(",")
        self.expect(")")
        successors: List[Block] = []
        if self.accept("["):
            while not self.accept("]"):
                successors.append(
                    self._block_for_label(region, self.expect_kind("BLOCKREF").text)
                )
                self.accept(",")
        attrs = self.parse_attr_dict()
        self.expect(":")
        self.parse_type_list_parens()  # operand types (checked implicitly)
        self.expect("->")
        result_types = self.parse_type_list_parens()
        return create_operation(
            name,
            operands=operands,
            result_types=result_types,
            attributes=attrs,
            successors=successors,
        )

    # -- affine access forms ---------------------------------------------------

    def parse_access(self) -> Tuple[List[Value], AffineMap]:
        """Parse ``[%i * 2 + 1, %j]`` into (operands, access map)."""
        self.expect("[")
        operand_names: List[str] = []

        def dim_for(ssa_name: str) -> affine_expr.AffineExpr:
            if ssa_name not in operand_names:
                operand_names.append(ssa_name)
            return affine_expr.dim(operand_names.index(ssa_name))

        exprs: List[affine_expr.AffineExpr] = []
        if not self.at("]"):
            exprs.append(self._parse_access_expr(dim_for))
            while self.accept(","):
                exprs.append(self._parse_access_expr(dim_for))
        self.expect("]")
        operands = [self.use_value(n) for n in operand_names]
        return operands, AffineMap(len(operand_names), 0, exprs)

    def _parse_access_expr(self, dim_for) -> affine_expr.AffineExpr:
        expr = self._parse_access_term(dim_for)
        while self.peek().text in ("+", "-"):
            op = self.next().text
            rhs = self._parse_access_term(dim_for)
            expr = expr + rhs if op == "+" else expr - rhs
        return expr

    def _parse_access_term(self, dim_for) -> affine_expr.AffineExpr:
        expr = self._parse_access_factor(dim_for)
        while self.peek().text in ("*", "mod", "floordiv", "ceildiv"):
            op = self.next().text
            rhs = self._parse_access_factor(dim_for)
            if op == "*":
                expr = expr * rhs
            elif op == "mod":
                expr = expr % rhs
            elif op == "floordiv":
                expr = expr.floordiv(rhs)
            else:
                expr = expr.ceildiv(rhs)
        return expr

    def _parse_access_factor(self, dim_for) -> affine_expr.AffineExpr:
        tok = self.next()
        if tok.text == "(":
            expr = self._parse_access_expr(dim_for)
            self.expect(")")
            return expr
        if tok.kind == "SSA":
            return dim_for(tok.text)
        if tok.kind in ("INT", "FLOAT"):
            return affine_expr.constant(int(tok.text))
        if tok.text == "-":
            return -self._parse_access_factor(dim_for)
        raise ParseError(f"bad access expression at {tok.text!r}", tok.line)


def _scalar_type_from_text(text: str) -> Type:
    if text == "f32":
        return F32Type()
    if text == "f64":
        return F64Type()
    if text == "index":
        return IndexType()
    if re.fullmatch(r"i\d+", text):
        return IntegerType(int(text[1:]))
    raise IRError(f"unknown element type {text!r}")


def _unquote(text: str) -> str:
    return text[1:-1].encode().decode("unicode_escape")


# ----------------------------------------------------------------------
# Custom op parsers (mirror printer forms)
# ----------------------------------------------------------------------


def _parse_return(p: Parser, region) -> Operation:
    p.expect("return")
    operands: List[Value] = []
    if p.peek().kind == "SSA":
        operands = p.parse_ssa_use_list()
        p.expect(":")
        for _ in operands:
            p.parse_type()
            p.accept(",")
    return ReturnOp.create(operands)


def _parse_constant(p: Parser, region) -> Operation:
    from ..dialects.std import ConstantOp

    p.expect("std.constant")
    tok = p.next()
    if tok.kind == "INT":
        value: float = int(tok.text)
    elif tok.kind == "FLOAT":
        value = float(tok.text)
    else:
        raise ParseError(f"bad constant literal {tok.text!r}", tok.line)
    p.expect(":")
    ty = p.parse_type()
    return ConstantOp.create(value, ty)


def _parse_binary_arith(p: Parser, region) -> Operation:
    name = p.next().text
    lhs = p.parse_ssa_use()
    p.expect(",")
    rhs = p.parse_ssa_use()
    p.expect(":")
    ty = p.parse_type()
    return create_operation(name, operands=[lhs, rhs], result_types=[ty])


def _parse_cmpi(p: Parser, region) -> Operation:
    from ..dialects.std import CmpFOp, CmpIOp

    cls = CmpFOp if p.peek().text == "std.cmpf" else CmpIOp
    p.expect(cls.OP_NAME)
    pred = _unquote(p.expect_kind("STRING").text)
    p.expect(",")
    lhs = p.parse_ssa_use()
    p.expect(",")
    rhs = p.parse_ssa_use()
    p.expect(":")
    p.parse_type()
    return cls.create(pred, lhs, rhs)


def _parse_negf(p: Parser, region) -> Operation:
    from ..dialects.std import NegFOp

    p.expect("std.negf")
    value = p.parse_ssa_use()
    p.expect(":")
    p.parse_type()
    return NegFOp.create(value)


def _parse_affine_bound(p: Parser) -> Tuple:
    """Returns (map, operands)."""
    tok = p.peek()
    if tok.kind == "INT":
        return AffineMap.constant_map([int(p.next().text)]), []
    if tok.kind == "SSA":
        return AffineMap.identity(1), [p.parse_ssa_use()]
    if tok.text in ("min", "max"):
        p.next()
        tok = p.peek()
    if tok.text == "affine_map":
        map_ = p.parse_affine_map_literal()
        operands: List[Value] = []
        p.expect("(")
        while not p.accept(")"):
            operands.append(p.parse_ssa_use())
            p.accept(",")
        return map_, operands
    raise ParseError(f"bad affine bound at {tok.text!r}", tok.line)


def _parse_affine_for(p: Parser, region) -> Operation:
    from ..dialects.affine import AffineForOp

    p.expect("affine.for")
    iv_name = p.expect_kind("SSA").text
    p.expect("=")
    lb_map, lb_ops = _parse_affine_bound(p)
    p.expect("to")
    ub_map, ub_ops = _parse_affine_bound(p)
    step = 1
    if p.accept("step"):
        step = int(p.expect_kind("INT").text)
    op = AffineForOp.create(lb_map, ub_map, step, lb_ops, ub_ops)
    p.define_value(iv_name, op.induction_var)
    p.expect("{")
    body = op.body
    term = body.operations.pop()  # re-append after body ops
    term.parent_block = None
    p.parse_region_body(op.regions[0], body)
    if body.terminator is None:
        body.append(term)
    tok = p.peek()
    for key, attr in p.parse_attr_dict().items():
        if key in AffineForOp.STRUCTURAL_ATTRS:
            raise ParseError(
                f"affine.for attribute {key!r} is set by the loop header",
                tok.line,
            )
        op.attributes[key] = attr
    return op


def _parse_affine_load(p: Parser, region) -> Operation:
    from ..dialects.affine import AffineLoadOp

    p.expect("affine.load")
    memref = p.parse_ssa_use()
    operands, map_ = p.parse_access()
    p.expect(":")
    p.parse_type()
    return AffineLoadOp.create(memref, operands, map_)


def _parse_affine_store(p: Parser, region) -> Operation:
    from ..dialects.affine import AffineStoreOp

    p.expect("affine.store")
    value = p.parse_ssa_use()
    p.expect(",")
    memref = p.parse_ssa_use()
    operands, map_ = p.parse_access()
    p.expect(":")
    p.parse_type()
    return AffineStoreOp.create(value, memref, operands, map_)


def _parse_affine_apply(p: Parser, region) -> Operation:
    from ..dialects.affine import AffineApplyOp

    p.expect("affine.apply")
    map_ = p.parse_affine_map_literal()
    operands: List[Value] = []
    p.expect("(")
    while not p.accept(")"):
        operands.append(p.parse_ssa_use())
        p.accept(",")
    return AffineApplyOp.create(map_, operands)


def _parse_triple_form(p: Parser, region) -> Operation:
    """``name(%a, %b, %c) {attrs} : (types)``."""
    name = p.next().text
    p.expect("(")
    operands: List[Value] = []
    while not p.at(")"):
        operands.append(p.parse_ssa_use())
        p.accept(",")
    p.expect(")")
    attrs = p.parse_attr_dict()
    if p.accept(":"):
        p.parse_type_list_parens()
    return create_operation(name, operands=operands, attributes=attrs)


def _parse_scf_for(p: Parser, region) -> Operation:
    from ..dialects.scf import ForOp

    p.expect("scf.for")
    iv_name = p.expect_kind("SSA").text
    p.expect("=")
    lb = p.parse_ssa_use()
    p.expect("to")
    ub = p.parse_ssa_use()
    p.expect("step")
    step = p.parse_ssa_use()
    op = ForOp.create(lb, ub, step)
    p.define_value(iv_name, op.induction_var)
    p.expect("{")
    body = op.body
    term = body.operations.pop()
    term.parent_block = None
    p.parse_region_body(op.regions[0], body)
    if body.terminator is None:
        body.append(term)
    return op


def _parse_scf_if(p: Parser, region) -> Operation:
    from ..dialects.scf import IfOp, YieldOp

    p.expect("scf.if")
    cond = p.parse_ssa_use()
    op = IfOp.create(cond)
    p.expect("{")
    then = op.then_block
    term = then.operations.pop()
    term.parent_block = None
    p.parse_region_body(op.regions[0], then)
    if then.terminator is None:
        then.append(term)
    if p.accept("else"):
        else_region = Region(op)
        op.regions.append(else_region)
        els = else_region.add_block()
        p.expect("{")
        p.parse_region_body(else_region, els)
        if els.terminator is None:
            els.append(YieldOp.create())
    return op


def _parse_linalg_generic(p: Parser, region) -> Operation:
    from ..dialects.linalg import GenericOp, LinalgYieldOp

    p.expect("linalg.generic")
    attrs = p.parse_attr_dict()
    maps = [a.map for a in attrs["indexing_maps"]]
    iters = [a.value for a in attrs["iterator_types"]]
    p.expect("ins")
    p.expect("(")
    inputs: List[Value] = []
    while not p.accept(")"):
        inputs.append(p.parse_ssa_use())
        p.accept(",")
    p.expect("outs")
    p.expect("(")
    outputs: List[Value] = []
    while not p.accept(")"):
        outputs.append(p.parse_ssa_use())
        p.accept(",")
    op = GenericOp.create(inputs, outputs, maps, iters)
    p.expect("{")
    body = op.body
    # re-bind body block arguments by their printed names
    p.expect_kind("BLOCKREF")
    p.expect("(")
    idx = 0
    while not p.accept(")"):
        arg_name = p.expect_kind("SSA").text
        p.expect(":")
        p.parse_type()
        p.define_value(arg_name, body.arguments[idx])
        idx += 1
        p.accept(",")
    p.expect(":")
    while not p.accept("}"):
        body.append(p.parse_operation(op.regions[0]))
    return op


def _parse_linalg_yield(p: Parser, region) -> Operation:
    from ..dialects.linalg import LinalgYieldOp

    p.expect("linalg.yield")
    operands = p.parse_ssa_use_list()
    p.expect(":")
    for _ in operands:
        p.parse_type()
        p.accept(",")
    return LinalgYieldOp.create(operands)


def _parse_branch(p: Parser, region) -> Operation:
    from ..dialects.llvm import BrOp

    p.expect("llvm.br")
    dest = p._block_for_label(region, p.expect_kind("BLOCKREF").text)
    args: List[Value] = []
    if p.accept("("):
        while not p.accept(")"):
            args.append(p.parse_ssa_use())
            p.accept(",")
    return BrOp.create(dest, args)


def _parse_cond_branch(p: Parser, region) -> Operation:
    from ..dialects.llvm import CondBrOp

    p.expect("llvm.cond_br")
    cond = p.parse_ssa_use()
    p.expect(",")
    true_dest = p._block_for_label(region, p.expect_kind("BLOCKREF").text)
    p.expect(",")
    false_dest = p._block_for_label(region, p.expect_kind("BLOCKREF").text)
    return CondBrOp.create(cond, true_dest, false_dest)


def _parse_call(p: Parser, region) -> Operation:
    name = p.next().text  # func.call or llvm.call
    callee = p.expect_kind("SYMBOL").text[1:]
    p.expect("(")
    operands: List[Value] = []
    while not p.at(")"):
        operands.append(p.parse_ssa_use())
        p.accept(",")
    p.expect(")")
    attrs = p.parse_attr_dict() if name == "llvm.call" else {}
    p.expect(":")
    p.parse_type_list_parens()
    p.expect("->")
    result_types = p.parse_type_list_parens()
    if name == "func.call":
        from .builtin import CallOp

        return CallOp.create(callee, operands, result_types)
    from ..dialects.llvm import CallOp as LLVMCallOp

    return LLVMCallOp.create(callee, operands, result_types, attrs)


def _parse_transform_sequence(p: Parser, region) -> Operation:
    from ..dialects.transform import SequenceOp

    p.expect("transform.sequence")
    p.expect("{")
    op = SequenceOp.create()
    # Steps go before the implicit transform.yield terminator.
    while not p.accept("}"):
        op.append_step(p.parse_operation(op.regions[0]))
    return op


def _parse_transform_match(p: Parser, region) -> Operation:
    from ..dialects.transform import MatchOp

    p.expect("transform.match")
    return MatchOp.create()


def _parse_transform_step(p: Parser, region) -> Operation:
    from ..dialects.transform import TransformHandleType

    name = p.next().text
    handle = p.parse_ssa_use()
    attrs = p.parse_attr_dict()
    return create_operation(
        name,
        operands=[handle],
        result_types=[TransformHandleType()],
        attributes=attrs,
    )


def _parser_rows():
    from ..dialects import affine, linalg, llvm, scf, std, transform
    from .builtin import CallOp

    return {
        std.ConstantOp: _parse_constant,
        std.BinaryArithOp: _parse_binary_arith,
        std.CmpIOp: _parse_cmpi,
        std.CmpFOp: _parse_cmpi,
        std.NegFOp: _parse_negf,
        affine.AffineForOp: _parse_affine_for,
        affine.AffineLoadOp: _parse_affine_load,
        affine.AffineStoreOp: _parse_affine_store,
        affine.AffineApplyOp: _parse_affine_apply,
        scf.ForOp: _parse_scf_for,
        scf.IfOp: _parse_scf_if,
        linalg.LinalgStructuredOp: _parse_triple_form,
        linalg.ReshapeOp: _parse_triple_form,
        linalg.GenericOp: _parse_linalg_generic,
        linalg.LinalgYieldOp: _parse_linalg_yield,
        llvm.BrOp: _parse_branch,
        llvm.CondBrOp: _parse_cond_branch,
        CallOp: _parse_call,
        llvm.CallOp: _parse_call,
        transform.SequenceOp: _parse_transform_sequence,
        transform.MatchOp: _parse_transform_match,
        transform.TransformStepOp: _parse_transform_step,
    }


#: The custom forms of :mod:`repro.ir.printer`, one row per op kind; an
#: op's token names its class in ``OP_REGISTRY``.  ``return`` is the
#: one form spelt other than its op's name.
_PARSERS = OpTable(_parser_rows)


def parse_module(source: str) -> ModuleOp:
    """Parse textual IR into a module."""
    return Parser(source).parse_module()


def parse_func(source: str) -> FuncOp:
    """Parse a single function (without a module wrapper)."""
    module = parse_module(source)
    funcs = module.functions
    if len(funcs) != 1:
        raise IRError(f"expected exactly one function, got {len(funcs)}")
    return funcs[0]
