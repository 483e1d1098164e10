"""Bottom-up candidate enumeration over a nest's live-in/live-out arrays.

The enumerator never inspects *how* the payload wires its loads
together beyond a coarse multiply-accumulate classification — that is
the TDL matchers' job, and exactly what makes them brittle.  Instead it
proposes every linalg/blas op whose operand shapes, ranks, and abstract
access patterns are consistent with the nest (via :mod:`.pruner`), in a
fixed preference order:

1. named ops (``linalg.matmul``, ``linalg.matvec``) — these reach the
   engine's ``sgemm``/``sgemv`` runtime directly;
2. generic contractions (multiply-accumulate bodies over enumerated
   permutation indexing maps, add or subtract accumulation) — these
   reach the engine's ``np.tensordot`` contraction fast path;
3. clone-body generics (the payload's scalar ops replayed inside a
   ``linalg.generic`` body) for elementwise maps and reductions.

Candidates are *descriptions*; :mod:`.rewriter` materializes them and
:mod:`.equivalence` decides which (if any) is actually equivalent.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from ..analysis.band import BandSummary
from .nest import NestSummary
from .pruner import (
    Assignment,
    covers_all_dims,
    enumerate_assignments,
    reduction_dims,
)


#: Hard cap on survivors; exceeding it bails "too-many-candidates"
#: rather than spending unbounded oracle time.
MAX_CANDIDATES = 128


@dataclass
class Candidate:
    """One proposed high-level op, as data (not yet IR)."""

    kind: str       # "matmul" | "matvec" | "contraction" | "map"
    op_name: str    # "linalg.matmul" | "linalg.matvec" | "linalg.generic"
    #: Operand positions as indices into ``summary.arrays``
    #: (inputs then the single output).
    inputs: Tuple[int, ...]
    output: int
    #: For generics: one dim assignment per operand, inputs first,
    #: output last.  ``None`` entries are constant-0 subscripts.
    assignments: Optional[Tuple[Assignment, ...]] = None
    #: Generic body: "mac-add" | "mac-sub" | "clone".
    body: str = ""
    #: For clone bodies: index into ``summary.loads`` per input operand.
    input_loads: Tuple[int, ...] = field(default_factory=tuple)
    trans: bool = False  # linalg.matvec transpose flag

    def describe(self) -> str:
        if self.op_name != "linalg.generic":
            suffix = " (trans)" if self.trans else ""
            return f"{self.op_name}{suffix}"

        def fmt(assignment: Assignment) -> str:
            return (
                "("
                + ", ".join(
                    "0" if s is None else f"d{s}" for s in assignment
                )
                + ")"
            )

        maps = ", ".join(fmt(a) for a in self.assignments or ())
        return f"linalg.generic[{self.body}] {maps}"


def classify_mac(summary: BandSummary) -> Optional[str]:
    """``"+"``/``"-"`` if the payload is a single multiply-accumulate
    (``acc = acc ± a*b`` with three loads), else ``None``.

    This is the only structural peek the enumerator takes, and it only
    selects *which body* to propose — operand order, loop order, and
    indexing all stay enumerated, so re-associated or permuted variants
    the TDL matchers reject still land here.
    """
    counts = Counter(op.name for op in summary.payload)
    if counts.get("std.mulf") != 1 or len(summary.loads) != 3:
        return None
    adds = counts.get("std.addf", 0)
    subs = counts.get("std.subf", 0)
    if adds + subs != 1:
        return None
    if set(counts) - {
        "affine.load",
        "affine.store",
        "std.mulf",
        "std.addf",
        "std.subf",
    }:
        return None
    if len(summary.accumulator_loads()) != 1:
        return None
    return "+" if adds else "-"


def _multiset_eq(a, b) -> bool:
    return Counter(a) == Counter(b)


def _named_candidates(summary: NestSummary, sign: str) -> List[Candidate]:
    """matmul/matvec candidates (accumulating adds only — the named ops
    have fixed ``+=`` semantics)."""
    if sign != "+":
        return []
    out = summary.live_out[0]
    out_idx = summary.arrays.index(out)
    out_shape = summary.array_shape(out)
    candidates: List[Candidate] = []
    ins = [a for a in summary.live_in if a is not out]

    if summary.depth == 3 and len(out_shape) == 2:
        m, n = out_shape
        for a in ins:
            for b in ins:
                a_shape = summary.array_shape(a)
                b_shape = summary.array_shape(b)
                if len(a_shape) != 2 or len(b_shape) != 2:
                    continue
                if a_shape[0] != m or b_shape[1] != n:
                    continue
                if a_shape[1] != b_shape[0]:
                    continue
                if not _multiset_eq(
                    summary.extents, [m, n, a_shape[1]]
                ):
                    continue
                candidates.append(
                    Candidate(
                        kind="matmul",
                        op_name="linalg.matmul",
                        inputs=(
                            summary.arrays.index(a),
                            summary.arrays.index(b),
                        ),
                        output=out_idx,
                    )
                )

    if summary.depth == 2 and len(out_shape) == 1:
        (m,) = out_shape
        for a in ins:
            for x in ins:
                a_shape = summary.array_shape(a)
                x_shape = summary.array_shape(x)
                if len(a_shape) != 2 or len(x_shape) != 1:
                    continue
                for trans in (False, True):
                    rows, cols = a_shape
                    if trans:
                        rows, cols = cols, rows
                    if rows != m or cols != x_shape[0]:
                        continue
                    if not _multiset_eq(summary.extents, [m, cols]):
                        continue
                    candidates.append(
                        Candidate(
                            kind="matvec",
                            op_name="linalg.matvec",
                            inputs=(
                                summary.arrays.index(a),
                                summary.arrays.index(x),
                            ),
                            output=out_idx,
                            trans=trans,
                        )
                    )
    return candidates


def _contraction_candidates(
    summary: NestSummary, sign: str
) -> Tuple[List[Candidate], int]:
    """Generic mac-body contractions over enumerated permutation maps.

    Returns ``(candidates, pruned)`` where ``pruned`` counts fully
    assembled map combinations discarded by coverage / reduction-dim
    checks.
    """
    out = summary.live_out[0]
    out_idx = summary.arrays.index(out)
    num_dims = summary.depth
    body = "mac-add" if sign == "+" else "mac-sub"

    out_assignments = list(
        enumerate_assignments(
            summary.array_shape(out),
            summary.extents,
            summary.observed_dims(out),
        )
    )
    candidates: List[Candidate] = []
    pruned = 0
    ins = [a for a in summary.live_in if a is not out]
    for a in ins:
        a_assignments = list(
            enumerate_assignments(
                summary.array_shape(a),
                summary.extents,
                summary.observed_dims(a),
            )
        )
        for b in ins:
            b_assignments = list(
                enumerate_assignments(
                    summary.array_shape(b),
                    summary.extents,
                    summary.observed_dims(b),
                )
            )
            for out_asg in out_assignments:
                if not reduction_dims(out_asg, num_dims):
                    pruned += 1  # no reduction dim -> not a contraction
                    continue
                for a_asg in a_assignments:
                    for b_asg in b_assignments:
                        combo = (a_asg, b_asg, out_asg)
                        if not covers_all_dims(combo, num_dims):
                            pruned += 1
                            continue
                        candidates.append(
                            Candidate(
                                kind="contraction",
                                op_name="linalg.generic",
                                inputs=(
                                    summary.arrays.index(a),
                                    summary.arrays.index(b),
                                ),
                                output=out_idx,
                                assignments=combo,
                                body=body,
                            )
                        )
    return candidates, pruned


def _map_candidates(summary: NestSummary) -> Tuple[List[Candidate], int]:
    """Clone-body generics: one input operand per non-accumulator load,
    maps enumerated per load's array, original scalar ops replayed in
    the body."""
    out = summary.live_out[0]
    out_idx = summary.arrays.index(out)
    num_dims = summary.depth
    acc_ids = {id(load) for load in summary.accumulator_loads()}
    in_loads = [
        i for i, load in enumerate(summary.loads) if id(load) not in acc_ids
    ]

    per_operand: List[List[Assignment]] = []
    for li in in_loads:
        array = summary.accesses[id(summary.loads[li])].memref
        per_operand.append(
            list(
                enumerate_assignments(
                    summary.array_shape(array),
                    summary.extents,
                    summary.observed_dims(array),
                )
            )
        )
    out_assignments = list(
        enumerate_assignments(
            summary.array_shape(out),
            summary.extents,
            summary.observed_dims(out),
        )
    )

    candidates: List[Candidate] = []
    pruned = 0

    def recurse(pos: int, acc: Tuple[Assignment, ...]):
        nonlocal pruned
        if pos == len(per_operand):
            for out_asg in out_assignments:
                combo = acc + (out_asg,)
                if not covers_all_dims(combo, num_dims):
                    pruned += 1
                    continue
                candidates.append(
                    Candidate(
                        kind="map",
                        op_name="linalg.generic",
                        inputs=tuple(
                            summary.arrays.index(
                                summary.accesses[
                                    id(summary.loads[li])
                                ].memref
                            )
                            for li in in_loads
                        ),
                        output=out_idx,
                        assignments=combo,
                        body="clone",
                        input_loads=tuple(in_loads),
                    )
                )
            return
        for assignment in per_operand[pos]:
            recurse(pos + 1, acc + (assignment,))

    recurse(0, ())
    return candidates, pruned


def enumerate_candidates(
    summary: NestSummary, max_candidates: int = MAX_CANDIDATES
) -> Tuple[Union[List[Candidate], str], int]:
    """Propose candidates for ``summary`` in preference order.

    Returns ``(candidates_or_bail_reason, pruned_count)``; the bail
    reason is ``"no-candidate"`` or ``"too-many-candidates"``.
    """
    sign = classify_mac(summary)
    if sign is not None:
        candidates = _named_candidates(summary, sign)
        more, pruned = _contraction_candidates(summary, sign)
        candidates.extend(more)
    else:
        # Non-mac payloads: elementwise maps / general reductions with
        # the original scalar body replayed.
        candidates, pruned = _map_candidates(summary)
    if not candidates:
        return "no-candidate", pruned
    if len(candidates) > max_candidates:
        return "too-many-candidates", pruned
    return candidates, pruned
