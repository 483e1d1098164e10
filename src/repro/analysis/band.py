"""The perfect ``affine.for`` band and its scalar payload, read once.

Raising, the vectorizer and the optimizer all work on the same object
(the paper's ``For(For(cb))``, §III-A): a maximal perfect band, the
straight-line payload of its innermost loop, and that payload's loads
and stores.  :func:`summarize_band` reads it once per root into a
:class:`BandSummary`; each consumer applies its own checks on top and
keeps its own bail taxonomy.  :data:`PAYLOAD_OPS` is the one set of
scalar ops a payload may hold for the vectorizer to collapse it or the
synthesizer to replay it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional

from ..dialects.affine import (
    AffineForOp,
    AffineLoadOp,
    AffineStoreOp,
    perfect_nest,
)
from ..ir import Operation
from .accesses import MemoryAccess, access_function

#: Ops a band payload may contain: affine accesses, float constants and
#: element-wise float arithmetic.  Each has a scalar emitter, a
#: vectorized spelling, an interpreter handler and a clone-body replay;
#: anything else (nested loops, integer/index arithmetic, calls) makes
#: the vectorizer bail ``unsafe-op`` and synthesis ``unsupported-payload``.
PAYLOAD_OPS = frozenset(
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
class BandSummary:
    """One perfect band: its loops, payload, loads and stores."""

    #: The maximal perfect nest, outermost first (``perfect_nest``).
    band: List[AffineForOp]
    #: Innermost-block operations, in program order.
    payload: List[Operation]
    #: The payload's ``affine.load``/``affine.store`` ops, in order.
    loads: List[AffineLoadOp]
    stores: List[AffineStoreOp]

    @property
    def root(self) -> AffineForOp:
        return self.band[0]

    @property
    def depth(self) -> int:
        return len(self.band)

    @cached_property
    def accesses(self) -> Dict[int, Optional[MemoryAccess]]:
        """Decomposed access per load/store op id, ``None`` for a
        non-linear access map.  Computed on first read: the vectorizer
        compares accesses structurally and never reads it."""
        return {
            id(op): access_function(op)
            for op in self.payload
            if isinstance(op, (AffineLoadOp, AffineStoreOp))
        }

    def accumulator_loads(self) -> List[AffineLoadOp]:
        """Loads that read exactly the element the single store writes."""
        (store,) = self.stores
        written = self.accesses[id(store)]
        return [
            load
            for load in self.loads
            if self.accesses[id(load)].same_element(written)
        ]


def summarize_band(root: AffineForOp) -> BandSummary:
    """The band rooted at ``root`` (a suffix of a perfect band is the
    band of its own root)."""
    band = perfect_nest(root)
    payload = band[-1].ops_in_body()
    return BandSummary(
        band=band,
        payload=payload,
        loads=[op for op in payload if isinstance(op, AffineLoadOp)],
        stores=[op for op in payload if isinstance(op, AffineStoreOp)],
    )
