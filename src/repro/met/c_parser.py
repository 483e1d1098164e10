"""Recursive-descent parser for the polyhedral C subset.

Accepted grammar (informally)::

    unit      := function*
    function  := ('void'|'float'|'int') ID '(' params ')' block
    param     := type ID ('[' INT ']')*
    block     := '{' stmt* '}'
    stmt      := for | assign ';' | decl ';' | block
    for       := 'for' '(' ['int'] ID '=' expr ';' ID ('<'|'<=') expr ';'
                 step ')' (block | stmt)
    step      := ID '++' | '++' ID | ID '+=' INT | ID '=' ID '+' INT
    decl      := ('float'|'double'|'int') ID ('[' INT ']')+
    assign    := arrayref ('='|'+='|'-='|'*=') expr
    expr      := standard precedence over + - * / with unary minus,
                 operands: literals, identifiers, array references
"""

from __future__ import annotations

from typing import List

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
    Param,
    Stmt,
    TranslationUnit,
    UnaryOp,
)
from .c_lexer import CToken, tokenize

_TYPE_KEYWORDS = ("void", "float", "double", "int")


class CParser:
    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0

    # -- helpers -----------------------------------------------------------

    def peek(self, offset: int = 0) -> CToken:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def next(self) -> CToken:
        tok = self.peek()
        self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        return self.peek().text == text

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> CToken:
        tok = self.next()
        if tok.text != text:
            raise CSyntaxError(f"expected {text!r}, got {tok.text!r}", tok.line)
        return tok

    def expect_id(self) -> CToken:
        tok = self.next()
        if tok.kind != "ID":
            raise CSyntaxError(f"expected identifier, got {tok.text!r}", tok.line)
        return tok

    def expect_int(self) -> int:
        tok = self.next()
        if tok.kind != "INTLIT":
            raise CSyntaxError(f"expected integer, got {tok.text!r}", tok.line)
        return int(tok.text)

    # -- top level -----------------------------------------------------------

    def parse_unit(self) -> TranslationUnit:
        functions = []
        while self.peek().kind != "EOF":
            functions.append(self.parse_function())
        return TranslationUnit(functions)

    def parse_function(self) -> FunctionDef:
        self.accept("static")
        tok = self.next()
        if tok.text not in _TYPE_KEYWORDS:
            raise CSyntaxError(f"expected return type, got {tok.text!r}", tok.line)
        name = self.expect_id().text
        self.expect("(")
        params: List[Param] = []
        while not self.at(")"):
            params.append(self.parse_param())
            self.accept(",")
        self.expect(")")
        body = self.parse_block()
        return FunctionDef(name, params, body)

    def parse_param(self) -> Param:
        self.accept("const")
        tok = self.next()
        if tok.text not in ("float", "double", "int"):
            raise CSyntaxError(f"bad parameter type {tok.text!r}", tok.line)
        ctype = tok.text
        # Pointer-style array params (float *A) are accepted; the array
        # extent then comes from the linearized index expressions.
        is_pointer = self.accept("*")
        name = self.expect_id().text
        dims: List[int] = []
        while self.accept("["):
            dims.append(self.expect_int())
            self.expect("]")
        if is_pointer and not dims:
            dims = [-1]  # dynamic 1-d buffer
        return Param(ctype, name, dims)

    # -- statements ------------------------------------------------------------

    def parse_block(self) -> List[Stmt]:
        self.expect("{")
        stmts: List[Stmt] = []
        while not self.accept("}"):
            stmts.append(self.parse_stmt())
        return stmts

    def parse_stmt(self) -> Stmt:
        tok = self.peek()
        if tok.text == "for":
            return self.parse_for()
        if tok.text in ("float", "double", "int"):
            return self.parse_decl()
        if tok.text == "{":
            # Flatten nested bare blocks into a single statement list by
            # re-wrapping them in a zero-trip marker-free structure.
            raise CSyntaxError("bare nested blocks are not supported", tok.line)
        return self.parse_assign()

    def parse_decl(self) -> Decl:
        ctype = self.next().text
        name = self.expect_id().text
        dims: List[int] = []
        while self.accept("["):
            dims.append(self.expect_int())
            self.expect("]")
        if not dims:
            raise CSyntaxError(
                f"scalar locals are not supported (declare {name!r} as an array)",
                self.peek().line,
            )
        self.expect(";")
        return Decl(ctype, name, dims)

    def parse_for(self) -> For:
        self.expect("for")
        self.expect("(")
        self.accept("int")
        iv = self.expect_id().text
        self.expect("=")
        lower = self.parse_expr()
        self.expect(";")
        cond_var = self.expect_id().text
        if cond_var != iv:
            raise CSyntaxError(
                f"loop condition tests {cond_var!r}, expected {iv!r}",
                self.peek().line,
            )
        cmp = self.next().text
        if cmp not in ("<", "<="):
            raise CSyntaxError(f"unsupported loop comparison {cmp!r}")
        upper = self.parse_expr()
        if cmp == "<=":
            upper = BinOp("+", upper, Number(1))
        self.expect(";")
        step = self.parse_step(iv)
        self.expect(")")
        if self.at("{"):
            body = self.parse_block()
        else:
            body = [self.parse_stmt()]
        return For(iv, lower, upper, step, body)

    def parse_step(self, iv: str) -> int:
        tok = self.next()
        if tok.text == "++":
            self.expect(iv)
            return 1
        if tok.text == iv:
            op = self.next()
            if op.text == "++":
                return 1
            if op.text == "+=":
                return self.expect_int()
            if op.text == "=":
                self.expect(iv)
                self.expect("+")
                return self.expect_int()
        raise CSyntaxError(f"unsupported loop step near {tok.text!r}", tok.line)

    def parse_assign(self) -> Assign:
        target = self.parse_primary()
        if not isinstance(target, ArrayRef):
            raise CSyntaxError("assignment target must be an array reference")
        op = self.next()
        if op.text not in ("=", "+=", "-=", "*="):
            raise CSyntaxError(f"unsupported assignment {op.text!r}", op.line)
        value = self.parse_expr()
        self.expect(";")
        return Assign(target, op.text, value)

    # -- expressions -------------------------------------------------------------

    def parse_expr(self) -> Expr:
        expr = self.parse_term()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            expr = BinOp(op, expr, self.parse_term())
        return expr

    def parse_term(self) -> Expr:
        expr = self.parse_factor()
        while self.peek().text in ("*", "/"):
            op = self.next().text
            expr = BinOp(op, expr, self.parse_factor())
        return expr

    def parse_factor(self) -> Expr:
        if self.accept("-"):
            return UnaryOp("-", self.parse_factor())
        if self.accept("+"):
            return self.parse_factor()
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        tok = self.next()
        if tok.text == "(":
            expr = self.parse_expr()
            self.expect(")")
            return expr
        if tok.kind == "INTLIT":
            return Number(int(tok.text))
        if tok.kind == "FLOATLIT":
            return Number(float(tok.text.rstrip("fF")))
        if tok.kind == "ID":
            if self.at("["):
                indices: List[Expr] = []
                while self.accept("["):
                    indices.append(self.parse_expr())
                    self.expect("]")
                return ArrayRef(tok.text, indices)
            return Ident(tok.text)
        raise CSyntaxError(f"unexpected token {tok.text!r}", tok.line)


def parse_c(source: str) -> TranslationUnit:
    """Parse C source into the MET AST."""
    return CParser(source).parse_unit()
