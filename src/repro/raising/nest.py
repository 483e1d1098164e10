"""Nest summarization for synthesis-based raising.

Before any candidate is proposed, the nest under consideration is
distilled into a :class:`NestSummary`: the perfect band, its extents,
the arrays it touches (live-in/live-out), and its scalar payload.  A
nest the synthesizer cannot reason about is rejected *here*, with a
stable bail reason from :data:`~..tactics.stats.SYNTH_BAIL_REASONS` — the
enumerator and oracle only ever see well-formed summaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..analysis.accesses import MemoryAccess, access_function
from ..dialects.affine import (
    AffineForOp,
    AffineLoadOp,
    AffineStoreOp,
    perfect_nest,
)
from ..ir import Operation, Value

#: Scalar payload ops the synthesizer understands.  Anything else in
#: the innermost block (calls, integer arithmetic, raw pointers) makes
#: the nest ineligible — the oracle could not faithfully replay it on
#: a candidate's body.
SAFE_PAYLOAD_OPS = frozenset(
    {
        "affine.load",
        "affine.store",
        "std.constant",
        "std.addf",
        "std.subf",
        "std.mulf",
        "std.divf",
        "std.maxf",
        "std.negf",
        "std.cmpf",
        "std.select",
    }
)


@dataclass
class NestSummary:
    """Everything the enumerator needs to know about one affine band."""

    band: List[AffineForOp]
    extents: List[int]
    #: Distinct memrefs in first-touch order (reads and writes).
    arrays: List[Value]
    #: Arrays read (in ``arrays`` order).
    live_in: List[Value]
    #: Arrays written (in ``arrays`` order); exactly one store op, so
    #: exactly one element today.
    live_out: List[Value]
    #: Innermost-block operations, in program order.
    payload: List[Operation]
    loads: List[AffineLoadOp] = field(default_factory=list)
    store: Optional[AffineStoreOp] = None
    #: Decomposed access per load/store op id.
    accesses: Dict[int, MemoryAccess] = field(default_factory=dict)

    @property
    def depth(self) -> int:
        return len(self.band)

    @property
    def root(self) -> AffineForOp:
        return self.band[0]

    def array_shape(self, array: Value) -> Tuple[int, ...]:
        return tuple(array.type.shape)

    def iv_position(self, iv: Value) -> Optional[int]:
        for pos, loop in enumerate(self.band):
            if loop.induction_var is iv:
                return pos
        return None

    def observed_dims(self, array: Value) -> frozenset:
        """Band-dim positions this array's accesses actually use — the
        abstract access pattern the pruner compares candidates against.
        """
        dims = set()
        for access in self.accesses.values():
            if access.memref is not array:
                continue
            for sub in access.subscripts:
                for iv in sub.coeffs:
                    pos = self.iv_position(iv)
                    if pos is not None:
                        dims.add(pos)
        return frozenset(dims)

    def store_access(self) -> MemoryAccess:
        return self.accesses[id(self.store)]

    def accumulator_loads(self) -> List[AffineLoadOp]:
        """Loads that read exactly the element the store writes."""
        store_access = self.store_access()
        return [
            load
            for load in self.loads
            if self.accesses[id(load)].same_element(store_access)
        ]


def summarize_nest(root: AffineForOp) -> Union[NestSummary, str]:
    """Summarize the band rooted at ``root``; a ``str`` is a bail
    reason (:data:`~..tactics.stats.SYNTH_BAIL_REASONS` key)."""
    band = perfect_nest(root)
    payload = band[-1].ops_in_body()
    # perfect_nest stops at the first block with more than one op; a
    # loop in *that* block means the nest is imperfect, not scalar.
    if any(isinstance(op, AffineForOp) for op in payload):
        return "imperfect-nest"

    extents: List[int] = []
    for loop in band:
        trip = loop.constant_trip_count()
        if trip is None:
            return "unsupported-bounds"
        if loop.constant_lower_bound() != 0 or loop.step != 1:
            return "unsupported-bounds"
        extents.append(trip)

    loads: List[AffineLoadOp] = []
    stores: List[AffineStoreOp] = []
    accesses: Dict[int, MemoryAccess] = {}
    band_ids = {id(loop.induction_var) for loop in band}
    defined = set(band_ids)
    for op in payload:
        if op.name not in SAFE_PAYLOAD_OPS:
            return "unsupported-payload"
        if isinstance(op, (AffineLoadOp, AffineStoreOp)):
            access = access_function(op)
            if access is None:
                return "non-affine-access"
            accesses[id(op)] = access
            (loads if isinstance(op, AffineLoadOp) else stores).append(op)
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

    if len(stores) != 1:
        return "store-count"
    store = stores[0]

    arrays: List[Value] = []
    for op in [*loads, store]:
        memref = accesses[id(op)].memref
        if memref not in arrays:
            arrays.append(memref)
    live_in = [
        a
        for a in arrays
        if any(
            accesses[id(load)].memref is a for load in loads
        )
    ]
    live_out = [a for a in arrays if accesses[id(store)].memref is a]

    return NestSummary(
        band=band,
        extents=extents,
        arrays=arrays,
        live_in=live_in,
        live_out=live_out,
        payload=payload,
        loads=loads,
        store=store,
        accesses=accesses,
    )
