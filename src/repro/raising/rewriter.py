"""Materialize synthesis candidates as IR and apply them as rewrites.

Two entry points:

* :func:`materialize_candidate` — build the candidate op over a given
  list of array SSA values (parallel to ``summary.arrays``).  Used both
  by the equivalence checker (over fresh function arguments) and the
  rewrite (over the original memrefs).
* :func:`apply_candidate` — replace the original nest with the
  validated candidate via a :class:`~..ir.PatternRewriter`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..dialects import linalg as linalg_d
from ..dialects.affine import AffineLoadOp, AffineStoreOp
from ..ir import Operation, PatternRewriter, Value
from ..ir import affine_expr as ae
from ..ir.affine_map import AffineMap
from .enumerator import Candidate
from .nest import NestSummary


def candidate_maps(
    candidate: Candidate, summary: NestSummary
) -> List[AffineMap]:
    """Indexing maps (inputs then output) for a generic candidate."""
    assert candidate.assignments is not None
    num_dims = summary.depth
    maps = []
    for assignment in candidate.assignments:
        exprs = [
            ae.constant(0) if sub is None else ae.dim(sub)
            for sub in assignment
        ]
        maps.append(AffineMap(num_dims, 0, exprs))
    return maps


def candidate_iterator_types(
    candidate: Candidate, summary: NestSummary
) -> List[str]:
    assert candidate.assignments is not None
    out_dims = {
        sub for sub in candidate.assignments[-1] if sub is not None
    }
    return [
        "parallel" if d in out_dims else "reduction"
        for d in range(summary.depth)
    ]


def _fill_clone_body(
    op: linalg_d.GenericOp, candidate: Candidate, summary: NestSummary
) -> None:
    """Replay the payload's scalar ops inside the generic body: input
    loads become input block args, accumulator loads become the output
    block arg, and the stored value is yielded."""
    block = op.body
    value_map: Dict[Value, Value] = {}
    for pos, load_index in enumerate(candidate.input_loads):
        value_map[summary.loads[load_index].result] = block.arguments[pos]
    out_arg = block.arguments[len(candidate.input_loads)]
    for load in summary.accumulator_loads():
        value_map[load.result] = out_arg
    for payload_op in summary.payload:
        if isinstance(payload_op, (AffineLoadOp, AffineStoreOp)):
            continue
        block.append(payload_op.clone(value_map))
    store = summary.store
    assert store is not None
    yielded = value_map.get(store.value, store.value)
    block.append(linalg_d.LinalgYieldOp.create([yielded]))


def materialize_candidate(
    candidate: Candidate,
    summary: NestSummary,
    arrays: Sequence[Value],
) -> Operation:
    """Build the candidate op over ``arrays`` (parallel to
    ``summary.arrays``)."""
    out = arrays[candidate.output]
    ins = [arrays[i] for i in candidate.inputs]
    if candidate.op_name == "linalg.matmul":
        return linalg_d.MatmulOp.create(ins[0], ins[1], out)
    if candidate.op_name == "linalg.matvec":
        return linalg_d.MatvecOp.create(
            ins[0], ins[1], out, trans=candidate.trans
        )
    maps = candidate_maps(candidate, summary)
    if candidate.body in ("mac-add", "mac-sub"):
        return linalg_d.GenericOp.create_contraction(
            ins[0], ins[1], out, maps, subtract=candidate.body == "mac-sub"
        )
    iterator_types = candidate_iterator_types(candidate, summary)
    op = linalg_d.GenericOp.create(ins, [out], maps, iterator_types)
    _fill_clone_body(op, candidate, summary)
    return op


def apply_candidate(
    candidate: Candidate,
    summary: NestSummary,
    rewriter: PatternRewriter,
) -> Operation:
    """Replace the summarized nest with the candidate op in place."""
    rewriter.set_insertion_point_before(summary.root)
    op = rewriter.insert(
        materialize_candidate(candidate, summary, summary.arrays)
    )
    rewriter.erase_nest(summary.root)
    return op
