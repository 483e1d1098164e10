"""Lightweight affine dependence analysis.

Full polyhedral dependence analysis (ISL-style) is not needed for the
kernel classes the paper evaluates; the property the transforms rely on
— *full permutability* of a loop band (legal to tile and interchange)
— is decided by a conservative sufficient condition: every pair of
conflicting accesses (at least one write) to the same buffer within the
band must use the identical access function, i.e. every dependence has
distance 0 in all band dimensions.  That holds for reductions of the
GEMM/contraction family and for element-wise updates, and fails (as it
should) for loop-carried recurrences like ``A[i] = A[i-1]``.
"""

from __future__ import annotations

from typing import Sequence

from ..analysis.accesses import MemoryAccess, collect_accesses
from ..dialects.affine import AffineForOp


def _conflicts(a: MemoryAccess, b: MemoryAccess) -> bool:
    return a.memref is b.memref and (a.is_write or b.is_write)


def band_is_fully_permutable(band: Sequence[AffineForOp]) -> bool:
    """True when every dependence carried by the band has distance 0."""
    accesses = collect_accesses(band[0])
    for i, a in enumerate(accesses):
        for b in accesses[i:]:
            if not _conflicts(a, b):
                continue
            if not a.same_element(b):
                return False
    return True


def has_uniform_writes(root: AffineForOp) -> bool:
    """Every written buffer is written through a single access
    function (sufficient for distribution/fusion reasoning)."""
    accesses = collect_accesses(root)
    by_memref = {}
    for access in accesses:
        if access.is_write:
            by_memref.setdefault(id(access.memref), []).append(access)
    for group in by_memref.values():
        first = group[0]
        if any(not first.same_element(other) for other in group[1:]):
            return False
    return True
