"""SCF -> Affine promotion.

Footnote 1 of the paper: "Multi-Level Tactics can also lift from SCF."
The mechanism is this pass: ``scf.for`` loops whose bounds and steps are
compile-time constants — and whose memory accesses use affine index
arithmetic — are promoted into the Affine dialect, after which the
ordinary tactics apply.  This raises the *entry point* for frontends
that produce unstructured SCF instead of affine loops.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..dialects import scf as scf_d
from ..dialects import std
from ..dialects.affine import AffineForOp, AffineLoadOp, AffineStoreOp
from ..ir import (
    AffineMap,
    FunctionPass,
    Value,
)
from ..ir import affine_expr as ae



def _constant_value(value: Value) -> Optional[int]:
    def_op = value.defining_op
    if isinstance(def_op, std.ConstantOp):
        return int(def_op.value)
    return None


def _as_affine_index(
    value: Value, iv_env: Dict[int, int], operands: List[Value]
) -> Optional[ae.AffineExpr]:
    """Rebuild an affine expression from std arithmetic over IVs."""
    constant = _constant_value(value)
    if constant is not None:
        return ae.constant(constant)
    if id(value) in iv_env or not value.defining_op:
        if value not in operands:
            operands.append(value)
        return ae.dim(operands.index(value))
    def_op = value.defining_op
    if isinstance(def_op, (std.AddIOp, std.SubIOp, std.MulIOp)):
        lhs = _as_affine_index(def_op.operand(0), iv_env, operands)
        rhs = _as_affine_index(def_op.operand(1), iv_env, operands)
        if lhs is None or rhs is None:
            return None
        if isinstance(def_op, std.AddIOp):
            return lhs + rhs
        if isinstance(def_op, std.SubIOp):
            return lhs - rhs
        result = lhs * rhs if (lhs.is_constant() or rhs.is_constant()) else None
        return result
    return None


def promote_scf_to_affine(func) -> int:
    """Promote every eligible scf.for (innermost-out) to affine.for.

    Returns the number of promoted loops.
    """
    return _promote(func)[0]


def _promote(func) -> Tuple[int, int]:
    """``(loops promoted, changes)``: the changes add the promoted
    accesses and the cleanups, the dirty indicator
    :class:`SCFToAffinePass` reports."""
    promoted = 0
    changed = True
    while changed:
        changed = False
        for op in list(func.walk()):
            if isinstance(op, scf_d.ForOp) and _promote_one(op):
                promoted += 1
                changed = True
                break
    # Promote std-level accesses that now sit inside affine loops.
    accesses = 0
    for op in list(func.walk()):
        if isinstance(op, (std.LoadOp, std.StoreOp)):
            accesses += 1 if _promote_access(op) else 0
    from .canonicalize import canonicalize

    cleaned = canonicalize(func)
    return promoted, promoted + accesses + cleaned


def _promote_one(loop: scf_d.ForOp) -> bool:
    lb = _constant_value(loop.lower_bound)
    ub = _constant_value(loop.upper_bound)
    step = _constant_value(loop.step)
    if lb is None or ub is None or step is None or step <= 0:
        return False
    affine_loop = AffineForOp.create(lb, ub, step)
    block = loop.parent_block
    block.insert(block.operations.index(loop), affine_loop)
    target = affine_loop.body
    insert_at = len(target.operations) - 1
    for body_op in loop.ops_in_body():
        loop.body.remove(body_op)
        target.insert(insert_at, body_op)
        insert_at += 1
    loop.induction_var.replace_all_uses_with(affine_loop.induction_var)
    loop.erase()
    return True


def _promote_access(op) -> bool:
    """std.load/store with affine indices -> affine.load/store."""
    from ..analysis.accesses import enclosing_loops
    from ..ir import Builder, InsertionPoint

    iv_env = {
        id(loop.induction_var): i
        for i, loop in enumerate(enclosing_loops(op))
    }
    operands: List[Value] = []
    exprs: List[ae.AffineExpr] = []
    for index_value in op.indices:
        expr = _as_affine_index(index_value, iv_env, operands)
        if expr is None or expr.as_linear() is None:
            return False
        exprs.append(expr)
    map_ = AffineMap(len(operands), 0, exprs)
    builder = Builder(InsertionPoint.before(op))
    if isinstance(op, std.LoadOp):
        new_op = builder.insert(
            AffineLoadOp.create(op.memref, operands, map_)
        )
        op.replace_all_uses_with([new_op.result])
        op.erase()
    else:
        builder.insert(
            AffineStoreOp.create(op.value, op.memref, operands, map_)
        )
        op.erase()
    return True


class SCFToAffinePass(FunctionPass):
    name = "raise-scf-to-affine"

    def run_on_function(self, func, context):
        return _promote(func)[1]
