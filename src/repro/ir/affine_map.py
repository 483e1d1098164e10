"""Affine maps: multi-result affine functions over dims and symbols."""

from __future__ import annotations

import re
from typing import List, Optional, Sequence, Tuple

from .affine_expr import (
    AffineDimExpr,
    AffineExpr,
    constant,
    dim,
    symbol,
)


class AffineMap:
    """``(d0, ..., dn)[s0, ..., sm] -> (e0, ..., ek)``."""

    def __init__(
        self,
        num_dims: int,
        num_symbols: int,
        results: Sequence[AffineExpr],
    ):
        self.num_dims = num_dims
        self.num_symbols = num_symbols
        self.results: Tuple[AffineExpr, ...] = tuple(results)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @staticmethod
    def identity(rank: int) -> "AffineMap":
        return AffineMap(rank, 0, [dim(i) for i in range(rank)])

    @staticmethod
    def constant_map(values: Sequence[int]) -> "AffineMap":
        return AffineMap(0, 0, [constant(v) for v in values])

    @staticmethod
    def permutation(perm: Sequence[int]) -> "AffineMap":
        if sorted(perm) != list(range(len(perm))):
            raise ValueError(f"not a permutation: {perm}")
        return AffineMap(len(perm), 0, [dim(p) for p in perm])

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def num_results(self) -> int:
        return len(self.results)

    def is_identity(self) -> bool:
        if self.num_results != self.num_dims:
            return False
        return all(
            isinstance(e, AffineDimExpr) and e.position == i
            for i, e in enumerate(self.results)
        )

    def is_permutation(self) -> bool:
        if self.num_results != self.num_dims:
            return False
        positions = []
        for e in self.results:
            if not isinstance(e, AffineDimExpr):
                return False
            positions.append(e.position)
        return sorted(positions) == list(range(self.num_dims))

    def permutation_vector(self) -> Optional[List[int]]:
        if not self.is_permutation():
            return None
        return [e.position for e in self.results]  # type: ignore[union-attr]

    def evaluate(
        self, dims: Sequence[int], symbols: Sequence[int] = ()
    ) -> List[int]:
        if len(dims) != self.num_dims:
            raise ValueError(
                f"map expects {self.num_dims} dims, got {len(dims)}"
            )
        if len(symbols) != self.num_symbols:
            raise ValueError(
                f"map expects {self.num_symbols} symbols, got {len(symbols)}"
            )
        return [e.evaluate(dims, symbols) for e in self.results]

    def compose(self, other: "AffineMap") -> "AffineMap":
        """``self.compose(other)`` applies ``other`` first: d -> self(other(d))."""
        if other.num_results != self.num_dims:
            raise ValueError(
                "composition mismatch: "
                f"{self.num_dims} dims vs {other.num_results} results"
            )
        if self.num_symbols or other.num_symbols:
            raise ValueError("symbolic map composition is not supported")
        mapping = {i: expr for i, expr in enumerate(other.results)}
        new_results = [e.substitute_dims(mapping) for e in self.results]
        return AffineMap(other.num_dims, 0, new_results)

    def sub_map(self, result_positions: Sequence[int]) -> "AffineMap":
        return AffineMap(
            self.num_dims,
            self.num_symbols,
            [self.results[i] for i in result_positions],
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AffineMap)
            and self.num_dims == other.num_dims
            and self.num_symbols == other.num_symbols
            and self.results == other.results
        )

    def __hash__(self) -> int:
        return hash((self.num_dims, self.num_symbols, self.results))

    # ------------------------------------------------------------------
    # Text form
    # ------------------------------------------------------------------

    def __str__(self) -> str:
        dims = ", ".join(f"d{i}" for i in range(self.num_dims))
        syms = ", ".join(f"s{i}" for i in range(self.num_symbols))
        sym_part = f"[{syms}]" if self.num_symbols else ""
        body = ", ".join(_pretty_expr(e) for e in self.results)
        return f"({dims}){sym_part} -> ({body})"

    def __repr__(self) -> str:
        return f"affine_map<{self}>"

    @staticmethod
    def parse(text: str) -> "AffineMap":
        return _parse_affine_map(text)


def _pretty_expr(expr: AffineExpr) -> str:
    """Print without redundant outer parentheses."""
    text = str(expr)
    if text.startswith("(") and text.endswith(")"):
        # Strip only if the parens wrap the whole expression.
        depth = 0
        for i, ch in enumerate(text):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0 and i != len(text) - 1:
                    return text
        return text[1:-1]
    return text


# ----------------------------------------------------------------------
# A small recursive-descent parser for the textual affine map form.
# ----------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<id>[a-zA-Z_][a-zA-Z_0-9]*)|(?P<num>-?\d+)|(?P<sym>[()\[\],+*-]))"
)


def _tokenize_map(text: str) -> List[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"bad affine map syntax near {text[pos:]!r}")
        tokens.append(match.group(match.lastgroup))
        pos = match.end()
    return tokens


class _MapParser:
    def __init__(self, tokens: List[str], dims: dict, syms: dict):
        self.tokens = tokens
        self.pos = 0
        self.dims = dims
        self.syms = syms

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of affine map")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise ValueError(f"expected {tok!r} in affine map, got {got!r}")

    def parse_expr(self) -> AffineExpr:
        expr = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.next()
            rhs = self.parse_term()
            expr = expr + rhs if op == "+" else expr - rhs
        return expr

    def parse_term(self) -> AffineExpr:
        expr = self.parse_factor()
        while self.peek() in ("*", "mod", "floordiv", "ceildiv"):
            op = self.next()
            rhs = self.parse_factor()
            if op == "*":
                expr = expr * rhs
            elif op == "mod":
                expr = expr % rhs
            elif op == "floordiv":
                expr = expr.floordiv(rhs)
            else:
                expr = expr.ceildiv(rhs)
        return expr

    def parse_factor(self) -> AffineExpr:
        tok = self.next()
        if tok == "(":
            expr = self.parse_expr()
            self.expect(")")
            return expr
        if tok == "-":
            return -self.parse_factor()
        if re.fullmatch(r"-?\d+", tok):
            return constant(int(tok))
        if tok in self.dims:
            return dim(self.dims[tok])
        if tok in self.syms:
            return symbol(self.syms[tok])
        raise ValueError(f"unknown identifier {tok!r} in affine map")


def _parse_affine_map(text: str) -> AffineMap:
    text = text.strip()
    if text.startswith("affine_map<") and text.endswith(">"):
        text = text[len("affine_map<"):-1]
    head, _, body = text.partition("->")
    if not body:
        raise ValueError(f"affine map missing '->': {text!r}")
    head = head.strip()
    dims: dict = {}
    syms: dict = {}
    dim_part, sym_part = head, ""
    if "[" in head:
        dim_part, _, rest = head.partition("[")
        sym_part = rest.rstrip("]").rstrip()
    dim_part = dim_part.strip()
    if not (dim_part.startswith("(") and dim_part.endswith(")")):
        raise ValueError(f"bad affine map dim list: {dim_part!r}")
    for name in filter(None, (s.strip() for s in dim_part[1:-1].split(","))):
        dims[name] = len(dims)
    for name in filter(None, (s.strip() for s in sym_part.split(","))):
        syms[name] = len(syms)

    body = body.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError(f"bad affine map result list: {body!r}")
    parser = _MapParser(_tokenize_map(body[1:-1]), dims, syms)
    results = []
    if parser.peek() is not None:
        results.append(parser.parse_expr())
        while parser.peek() == ",":
            parser.next()
            results.append(parser.parse_expr())
    if parser.peek() is not None:
        raise ValueError("trailing tokens in affine map")
    return AffineMap(len(dims), len(syms), results)
