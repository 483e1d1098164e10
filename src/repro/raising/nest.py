"""Nest summarization for synthesis-based raising.

Before any candidate is proposed, the band under consideration
(:func:`~..analysis.band.summarize_band`) is checked and extended into a
:class:`NestSummary`: the band's constant extents and the arrays it
touches (live-in/live-out).  A nest the synthesizer cannot reason about
is rejected *here*, with a stable bail reason from
:data:`~..tactics.stats.SYNTH_BAIL_REASONS` — the enumerator and oracle
only ever see well-formed summaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple, Union

from ..analysis.band import PAYLOAD_OPS, BandSummary, summarize_band
from ..dialects.affine import AffineForOp, AffineStoreOp
from ..ir import Value


@dataclass
class NestSummary(BandSummary):
    """Everything the enumerator needs to know about one affine band."""

    extents: List[int] = field(default_factory=list)
    #: Distinct memrefs in first-touch order (reads and writes).
    arrays: List[Value] = field(default_factory=list)
    #: Arrays read (in ``arrays`` order).
    live_in: List[Value] = field(default_factory=list)
    #: Arrays written (in ``arrays`` order); exactly one store op, so
    #: exactly one element today.
    live_out: List[Value] = field(default_factory=list)

    @property
    def store(self) -> AffineStoreOp:
        return self.stores[0]

    def array_shape(self, array: Value) -> Tuple[int, ...]:
        return tuple(array.type.shape)

    def observed_dims(self, array: Value) -> frozenset:
        """Band-dim positions this array's accesses actually use — the
        abstract access pattern the pruner compares candidates against.
        """
        ivs = [loop.induction_var for loop in self.band]
        return frozenset(
            pos
            for access in self.accesses.values()
            if access.memref is array
            for sub in access.subscripts
            for pos, iv in enumerate(ivs)
            if iv in sub.coeffs
        )


def summarize_nest(root: AffineForOp) -> Union[NestSummary, str]:
    """Summarize the band rooted at ``root``; a ``str`` is a bail
    reason (:data:`~..tactics.stats.SYNTH_BAIL_REASONS` key)."""
    summary = NestSummary(**vars(summarize_band(root)))
    payload = summary.payload
    # perfect_nest stops at the first block with more than one op; a
    # loop in *that* block means the nest is imperfect, not scalar.
    if any(isinstance(op, AffineForOp) for op in payload):
        return "imperfect-nest"

    for loop in summary.band:
        trip = loop.constant_trip_count()
        if trip is None:
            return "unsupported-bounds"
        if loop.constant_lower_bound() != 0 or loop.step != 1:
            return "unsupported-bounds"
        summary.extents.append(trip)

    defined = {id(loop.induction_var) for loop in summary.band}
    for op in payload:
        # Anything outside the payload set (calls, integer arithmetic,
        # raw pointers) could not be faithfully replayed on a
        # candidate's body.
        if op.name not in PAYLOAD_OPS:
            return "unsupported-payload"
        if id(op) in summary.accesses and summary.accesses[id(op)] is None:
            return "non-affine-access"
        # Every non-memref scalar operand must come from the payload or
        # a band IV; a value flowing in from outside the nest cannot be
        # replayed inside a candidate op's body.
        for operand in op.operands:
            if operand is getattr(op, "memref", None):
                continue
            if id(operand) in defined:
                continue
            owner = operand.defining_op
            if owner is None or owner not in payload:
                return "external-value"
        for result in op.results:
            defined.add(id(result))

    if len(summary.stores) != 1:
        return "store-count"

    for op in [*summary.loads, summary.store]:
        if op.memref not in summary.arrays:
            summary.arrays.append(op.memref)
    read = {id(load.memref) for load in summary.loads}
    summary.live_in = [a for a in summary.arrays if id(a) in read]
    summary.live_out = [summary.store.memref]
    return summary
