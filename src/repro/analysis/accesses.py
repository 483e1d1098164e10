"""Memory-access analysis for affine IR.

Represents each ``affine.load``/``affine.store`` as an affine function
*of the enclosing induction variables* (by SSA identity, not by map dim
position), which makes accesses from different statements directly
comparable — the basis for dependence tests, matcher access patterns
and the locality model.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..dialects.affine import (
    AffineForOp,
    AffineLoadOp,
    AffineStoreOp,
)
from ..ir import AffineExpr, Operation, Value


class AccessFunction:
    """One subscript as ``sum(coeff_v * v) + constant`` over IV values."""

    __slots__ = ("coeffs", "constant")

    def __init__(self, coeffs: Dict[Value, int], constant: int):
        self.coeffs = {v: c for v, c in coeffs.items() if c != 0}
        self.constant = constant

    def coeff(self, iv: Value) -> int:
        return self.coeffs.get(iv, 0)

    def is_constant(self) -> bool:
        return not self.coeffs

    def same_function(self, other: "AccessFunction") -> bool:
        return self.coeffs == other.coeffs and self.constant == other.constant

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AccessFunction) and self.same_function(other)

    def __hash__(self) -> int:
        return hash(
            (frozenset((id(v), c) for v, c in self.coeffs.items()), self.constant)
        )

    def __repr__(self) -> str:
        terms = [f"{c}*iv@{id(v) % 1000}" for v, c in self.coeffs.items()]
        terms.append(str(self.constant))
        return "+".join(terms)


class MemoryAccess:
    """An affine load or store, decomposed per subscript."""

    def __init__(
        self,
        op: Operation,
        memref: Value,
        is_write: bool,
        subscripts: List[AccessFunction],
    ):
        self.op = op
        self.memref = memref
        self.is_write = is_write
        self.subscripts = subscripts

    @property
    def rank(self) -> int:
        return len(self.subscripts)

    def same_element(self, other: "MemoryAccess") -> bool:
        """True when both accesses always touch the same element in any
        common iteration (identical access functions)."""
        if self.memref is not other.memref or self.rank != other.rank:
            return False
        return all(
            a.same_function(b) for a, b in zip(self.subscripts, other.subscripts)
        )

    def ivs_used(self) -> List[Value]:
        ivs: List[Value] = []
        for sub in self.subscripts:
            for iv in sub.coeffs:
                if iv not in ivs:
                    ivs.append(iv)
        return ivs

    def __repr__(self) -> str:
        kind = "W" if self.is_write else "R"
        return f"<{kind} {self.subscripts}>"


def access_function(op: Operation) -> Optional[MemoryAccess]:
    """Decompose an affine access op; ``None`` for non-access ops or
    non-linear (mod/div) access maps."""
    if isinstance(op, AffineLoadOp):
        is_write = False
    elif isinstance(op, AffineStoreOp):
        is_write = True
    else:
        return None
    operands = op.indices
    subscripts: List[AccessFunction] = []
    for expr in op.map.results:
        subscript = subscript_function(expr, operands)
        if subscript is None:
            return None
        subscripts.append(subscript)
    return MemoryAccess(op, op.memref, is_write, subscripts)


def subscript_function(
    expr: AffineExpr, operands: List[Value]
) -> Optional[AccessFunction]:
    """One access-map result over the op's index ``operands`` (dim
    ``d_p`` is ``operands[p]``); ``None`` when it is non-linear."""
    linear = expr.as_linear()
    if linear is None:
        return None
    coeffs: Dict[Value, int] = {}
    for pos, coeff in linear.dim_coeffs.items():
        value = operands[pos]
        coeffs[value] = coeffs.get(value, 0) + coeff
    return AccessFunction(coeffs, linear.constant)


def collect_accesses(root: Operation) -> List[MemoryAccess]:
    """All affine accesses under ``root`` (pre-order)."""
    accesses = []
    for op in root.walk():
        access = access_function(op)
        if access is not None:
            accesses.append(access)
    return accesses


#: The ops besides pure ones whose memory effects
#: :func:`collect_accesses` enumerates: affine loops, affine accesses
#: and local buffers.
_ENUMERATED_OPS = frozenset(
    {
        "affine.for",
        "affine.yield",
        "affine.load",
        "affine.store",
        "std.alloc",
        "std.dealloc",
    }
)


def effects_known(op: Operation) -> bool:
    """Are all memory effects of ``op`` itself (not of ops nested in
    it) known to the affine analyses?  A pure op has none; anything
    else (a call, a structured op, a non-affine access) may touch
    memory the analyses cannot see."""
    return op.PURE or op.name in _ENUMERATED_OPS


def enclosing_loops(op: Operation) -> List[AffineForOp]:
    """Affine loops surrounding ``op``, outermost first."""
    loops: List[AffineForOp] = []
    parent = op.parent_op
    while parent is not None:
        if isinstance(parent, AffineForOp):
            loops.append(parent)
        parent = parent.parent_op
    loops.reverse()
    return loops
