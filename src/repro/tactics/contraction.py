"""Tensor-contraction tactics: the TTGT rewriting (§III-A).

A contraction spec follows the paper's naming convention
``out-A-B``, e.g. ``abc-acd-db`` for::

    C(a,b,c) += A(a,c,d) * B(d,b)

A Transpose-Transpose-GEMM-Transpose plan flattens the tensors into
matrices D[M,N] += E[M,K] * F[K,N] through transpositions and reshapes,
runs GEMM, and folds the result back.  :func:`ttgt_plans` enumerates
the group orders that can make an operand a reshape view,
:func:`ttgt_plan` picks the one with the fewest transposing copies, and
:func:`contraction_tactic_tdl` renders a plan as TDL text, which then
goes through the ordinary TDL -> TDS -> matchers pipeline.
"""

from __future__ import annotations

import itertools
from typing import List, NamedTuple, Optional, Tuple

from .tdl.ast import TdlSyntaxError


class TTGTPlan(NamedTuple):
    out_indices: List[str]
    a_indices: List[str]
    b_indices: List[str]
    m_group: List[str]  # A-free indices (GEMM rows), in A or output order
    n_group: List[str]  # B-free indices (GEMM cols), in B or output order
    k_group: List[str]  # contracted indices, in A or B order


def parse_contraction_spec(spec: str) -> Tuple[List[str], List[str], List[str]]:
    parts = spec.split("-")
    if len(parts) != 3:
        raise TdlSyntaxError(f"bad contraction spec {spec!r} (want out-A-B)")
    return [list(part) for part in parts]


def ttgt_plans(spec: str) -> List[TTGTPlan]:
    """The eight TTGT plans of a contraction spec (equal ones included:
    a group's two orders may coincide).

    Only two orders of each group can make an operand a copy-free
    view: M in output or A order, N in output or B order, K in A or B
    order.  The first plan is the operand-order one (M in A order, N in
    B order, K in A order)."""
    out_idx, a_idx, b_idx = parse_contraction_spec(spec)
    out_set, a_set, b_set = set(out_idx), set(a_idx), set(b_idx)
    if len(a_set) != len(a_idx) or len(b_set) != len(b_idx):
        raise TdlSyntaxError(f"{spec}: repeated index within a tensor")
    k_group = [v for v in a_idx if v in b_set and v not in out_set]
    m_group = [v for v in a_idx if v in out_set]
    n_group = [v for v in b_idx if v in out_set]
    if not k_group:
        raise TdlSyntaxError(f"{spec}: no contracted index")
    if not m_group or not n_group:
        raise TdlSyntaxError(f"{spec}: an operand has no free index")
    if sorted(m_group + n_group) != sorted(out_idx):
        raise TdlSyntaxError(
            f"{spec}: output indices are not the union of free indices"
        )
    if sorted(a_idx) != sorted(m_group + k_group):
        raise TdlSyntaxError(f"{spec}: A has indices outside M+K")
    if sorted(b_idx) != sorted(k_group + n_group):
        raise TdlSyntaxError(f"{spec}: B has indices outside K+N")
    m_orders = (m_group, [v for v in out_idx if v in a_set])
    n_orders = (n_group, [v for v in out_idx if v in b_set])
    k_orders = (k_group, [v for v in b_idx if v in a_set])
    return [
        TTGTPlan(out_idx, a_idx, b_idx, m, n, k)
        for m, n, k in itertools.product(m_orders, n_orders, k_orders)
    ]


def transposing_copies(plan: TTGTPlan) -> int:
    """Transposing copies a plan needs.  An operand is a reshape view
    exactly when its index list is its groups concatenated; C counts
    twice, since it is copied in and copied back out."""
    m, n, k = plan.m_group, plan.n_group, plan.k_group
    return (
        2 * (plan.out_indices != m + n)
        + (plan.a_indices != m + k)
        + (plan.b_indices != k + n)
    )


def ttgt_plan(spec: str) -> TTGTPlan:
    """The plan of ``spec`` with the fewest transposing copies; on a tie
    the operand-order plan."""
    return min(ttgt_plans(spec), key=transposing_copies)


def contraction_tactic_tdl(
    spec: str, name: Optional[str] = None, plan: Optional[TTGTPlan] = None
) -> str:
    """Render a TTGT plan of a contraction spec (by default
    :func:`ttgt_plan`'s) as TDL text."""
    if plan is None:
        plan = ttgt_plan(spec)
    tactic_name = name or "TTGT_" + spec.replace("-", "_")
    groups = {"m0": plan.m_group, "n0": plan.n_group, "k0": plan.k_group}
    # A group of one index is named by it; a longer one by a where-var.
    ref = {var: group[0] if len(group) == 1 else var
           for var, group in groups.items()}

    def flattening(tensor: str, indices: List[str], rows: str, cols: str):
        """``(matrix, tensor access, where-clause)`` of the statement
        flattening ``tensor`` to a (rows, cols) matrix; None when it
        already is that matrix."""
        grouped = [var for var in (rows, cols) if len(groups[var]) > 1]
        if indices == groups[rows] + groups[cols] and not grouped:
            return None
        where = ", ".join(
            f"{var} = {' * '.join(groups[var])}" for var in grouped
        )
        return (
            f"({ref[rows]}, {ref[cols]})",
            f"{tensor}({', '.join(indices)})",
            f" where {where}" if where else "",
        )

    lines = [f"def {tactic_name} {{", "  pattern",
             f"    C({', '.join(plan.out_indices)}) += "
             f"A({', '.join(plan.a_indices)}) * B({', '.join(plan.b_indices)})",
             "  builder"]

    # D = flatten(C), E = flatten(A), F = flatten(B) — omitting
    # flattenings that would be identities.
    flat = {
        "D": flattening("C", plan.out_indices, "m0", "n0"),
        "E": flattening("A", plan.a_indices, "m0", "k0"),
        "F": flattening("B", plan.b_indices, "k0", "n0"),
    }
    for temp, stmt in flat.items():
        if stmt is not None:
            matrix, access, where = stmt
            lines.append(f"    {temp}{matrix} = {access}{where}")
    d, e, f = (temp if flat[temp] else tensor
               for temp, tensor in zip("DEF", "CAB"))
    m, n, k = ref["m0"], ref["n0"], ref["k0"]
    lines.append(f"    {d}({m}, {n}) += {e}({m}, {k}) * {f}({k}, {n})")
    if flat["D"] is not None:
        matrix, access, where = flat["D"]
        lines.append(f"    {access} = D{matrix}{where}")
    lines.append("}")
    return "\n".join(lines)


#: The seven contractions evaluated in Figure 9, from coupled-cluster
#: methods and chemistry kernels (refs [19]-[21] of the paper).
PAPER_CONTRACTIONS = [
    "ab-acd-dbc",
    "abc-acd-db",
    "abc-ad-bdc",
    "ab-cad-dcb",
    "abc-bda-dc",
    "abcd-aebf-dfce",
    "abcd-aebf-fdec",
]
