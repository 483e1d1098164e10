"""Delta-debugging reducer for failing C kernels.

Given a kernel source and a *predicate* ("this source still exhibits
the failure"), the reducer greedily applies structural shrink steps on
the MET AST until no step preserves the failure:

* drop a whole statement (init nests, redundant updates);
* unwrap a loop, substituting its induction variable with the lower
  bound (drops one loop dimension);
* shrink a loop's constant extent toward 1;
* simplify an assignment's RHS (a ``BinOp`` collapses to either side);
* downgrade ``+=``/``-=``/``*=`` accumulation to plain ``=``.

Array parameter declarations are left untouched so every candidate
stays type-correct; the predicate re-runs the full pipeline, so any
candidate that stops compiling or stops failing is simply rejected.
The result is the smallest source (by line count, then length) along
the greedy path — in practice a handful of lines.
"""

from __future__ import annotations

import copy
from typing import Callable, Iterator, List

from ..met import parse_c
from ..met.c_ast import (
    Assign,
    BinOp,
    Expr,
    For,
    FunctionDef,
    Ident,
    Number,
    Stmt,
    TranslationUnit,
)
from .generators import unparse_unit


# ----------------------------------------------------------------------
# AST surgery helpers
# ----------------------------------------------------------------------


def _substitute_ident(expr: Expr, name: str, replacement: Expr) -> Expr:
    if isinstance(expr, Ident) and expr.name == name:
        return copy.deepcopy(replacement)
    if isinstance(expr, BinOp):
        expr.lhs = _substitute_ident(expr.lhs, name, replacement)
        expr.rhs = _substitute_ident(expr.rhs, name, replacement)
        return expr
    if hasattr(expr, "indices"):  # ArrayRef
        expr.indices = [
            _substitute_ident(i, name, replacement) for i in expr.indices
        ]
        return expr
    return expr


def _substitute_in_stmt(stmt: Stmt, name: str, replacement: Expr) -> None:
    if isinstance(stmt, Assign):
        stmt.target = _substitute_ident(stmt.target, name, replacement)
        stmt.value = _substitute_ident(stmt.value, name, replacement)
    elif isinstance(stmt, For):
        stmt.lower = _substitute_ident(stmt.lower, name, replacement)
        stmt.upper = _substitute_ident(stmt.upper, name, replacement)
        for inner in stmt.body:
            _substitute_in_stmt(inner, name, replacement)


def _bodies(func: FunctionDef) -> Iterator[List[Stmt]]:
    """Every statement list in the function, outermost first."""

    def walk(body: List[Stmt]) -> Iterator[List[Stmt]]:
        yield body
        for stmt in body:
            if isinstance(stmt, For):
                yield from walk(stmt.body)

    yield from walk(func.body)


def _assignments(func: FunctionDef) -> Iterator[Assign]:
    for body in _bodies(func):
        for stmt in body:
            if isinstance(stmt, Assign):
                yield stmt


# ----------------------------------------------------------------------
# Candidate generation
# ----------------------------------------------------------------------


def reduction_candidates(unit: TranslationUnit) -> Iterator[TranslationUnit]:
    """Yield progressively smaller copies of ``unit``, one shrink step
    each.  Ordered most-aggressive first so the greedy loop converges
    quickly: statement drops, then loop unwrapping, then extent
    shrinking, then body simplification."""
    func = unit.functions[0]

    # 1. Drop one statement anywhere (never the last remaining one).
    total = sum(len(body) for body in _bodies(func))
    if total > 1:
        for body_index, body in enumerate(_bodies(func)):
            for stmt_index in range(len(body)):
                clone = copy.deepcopy(unit)
                bodies = list(_bodies(clone.functions[0]))
                del bodies[body_index][stmt_index]
                if any(bodies):
                    yield clone

    # 2. Unwrap one loop: replace the For by its body with iv := lower.
    for body_index, body in enumerate(_bodies(func)):
        for stmt_index, stmt in enumerate(body):
            if not isinstance(stmt, For):
                continue
            clone = copy.deepcopy(unit)
            target_body = list(_bodies(clone.functions[0]))[body_index]
            loop = target_body[stmt_index]
            lower = loop.lower if isinstance(loop.lower, Number) else Number(0)
            for inner in loop.body:
                _substitute_in_stmt(inner, loop.iv, lower)
            target_body[stmt_index : stmt_index + 1] = loop.body
            yield clone

    # 3. Shrink one loop extent (halve toward 1).
    for body_index, body in enumerate(_bodies(func)):
        for stmt_index, stmt in enumerate(body):
            if not isinstance(stmt, For) or not isinstance(stmt.upper, Number):
                continue
            extent = stmt.upper.value
            if not isinstance(extent, int) or extent <= 1:
                continue
            for smaller in {1, extent // 2}:
                if smaller < 1 or smaller >= extent:
                    continue
                clone = copy.deepcopy(unit)
                target_body = list(_bodies(clone.functions[0]))[body_index]
                target_body[stmt_index].upper = Number(smaller)
                yield clone

    # 4. Simplify one assignment RHS: BinOp -> lhs or rhs.
    for assign_index, assign in enumerate(_assignments(func)):
        if not isinstance(assign.value, BinOp):
            continue
        for side in ("lhs", "rhs"):
            clone = copy.deepcopy(unit)
            target = list(_assignments(clone.functions[0]))[assign_index]
            target.value = getattr(target.value, side)
            yield clone

    # 5. Downgrade accumulation to plain assignment.
    for assign_index, assign in enumerate(_assignments(func)):
        if assign.op == "=":
            continue
        clone = copy.deepcopy(unit)
        list(_assignments(clone.functions[0]))[assign_index].op = "="
        yield clone


# ----------------------------------------------------------------------
# Greedy reduction loop
# ----------------------------------------------------------------------


def _size(source: str) -> tuple:
    return (len(source.splitlines()), len(source))


def reduce_source(
    source: str,
    predicate: Callable[[str], bool],
    max_rounds: int = 64,
) -> str:
    """Shrink ``source`` while ``predicate`` holds.

    The predicate receives candidate C sources and must return True
    when the candidate still exhibits the original failure; it should
    return False (not raise) for candidates that no longer compile.
    Returns the smallest failing source found.
    """
    try:
        unit = parse_c(source)
    except Exception:
        return source  # unparseable input: nothing structural to do
    best_unit = unit
    best_source = unparse_unit(unit)
    if not predicate(best_source):
        # Normalized unparse changed behaviour (shouldn't happen) —
        # keep the original text untouched.
        return source

    for _ in range(max_rounds):
        improved = False
        for candidate in reduction_candidates(best_unit):
            try:
                text = unparse_unit(candidate)
            except TypeError:
                continue
            if _size(text) >= _size(best_source):
                continue
            try:
                still_failing = predicate(text)
            except Exception:
                still_failing = False
            if still_failing:
                best_unit = candidate
                best_source = text
                improved = True
                break
        if not improved:
            return best_source
    return best_source
