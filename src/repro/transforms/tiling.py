"""Rectangular loop tiling of perfect affine loop bands.

Tiling ``for i in [0, N)`` by ``T`` produces::

    affine.for %it = 0 to N step T
      affine.for %i = %it to min(%it + T, N)

All loops of the band are tiled jointly (strip-mine + interchange), so
a depth-d band becomes 2d loops: d tile loops followed by d point
loops.  This is the core transformation of both the Linalg default
lowering ("Linalg primarily performs tiling", §V-B footnote) and our
Pluto baseline.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..analysis.accesses import collect_accesses
from ..dialects.affine import AffineForOp, outermost_loops, perfect_nest
from ..ir import AffineMap, IRError, Operation
from ..ir import affine_expr as ae
from ..ir.pass_manager import FunctionPass


class TilingError(IRError):
    pass


def _check_band(band: Sequence[AffineForOp]) -> None:
    for loop in band:
        if not loop.has_constant_bounds():
            raise TilingError("tiling requires constant loop bounds")
        if loop.step != 1:
            raise TilingError("tiling requires unit-step loops")


def tile_perfect_nest(
    root: AffineForOp, tile_sizes: Sequence[int]
) -> List[AffineForOp]:
    """Tile the perfect band rooted at ``root``.

    ``tile_sizes`` gives one tile size per band loop, outermost first;
    a size of 0 or 1 leaves that loop untiled (but it still moves into
    the point-loop band to keep the tile/point structure).  Returns the
    new loops, tile loops first.
    """
    band = perfect_nest(root)
    if len(tile_sizes) > len(band):
        raise TilingError(
            f"{len(tile_sizes)} tile sizes for a depth-{len(band)} band"
        )
    band = band[: len(tile_sizes)]
    _check_band(band)

    innermost = band[-1]
    payload = innermost.ops_in_body()
    parent_block = root.parent_block
    position = parent_block.operations.index(root)

    sizes = [max(1, int(t)) for t in tile_sizes]
    bounds = [
        (loop.constant_lower_bound(), loop.constant_upper_bound())
        for loop in band
    ]

    # Tile loops.
    new_loops: List[AffineForOp] = []
    for (lb, ub), size in zip(bounds, sizes):
        loop = AffineForOp.create(lb, ub, size if size > 1 else 1)
        new_loops.append(loop)
    # Point loops.
    for i, ((lb, ub), size) in enumerate(zip(bounds, sizes)):
        if size == 1:
            # degenerate: single iteration driven by the tile loop
            tile_iv = new_loops[i].induction_var
            point = AffineForOp.create(
                AffineMap(1, 0, [ae.dim(0)]),
                AffineMap(1, 0, [ae.dim(0) + 1]),
                1,
                [tile_iv],
                [tile_iv],
            )
        else:
            tile_iv = new_loops[i].induction_var
            lb_map = AffineMap(1, 0, [ae.dim(0)])
            if ub % size == 0 and lb % size == 0:
                ub_map = AffineMap(1, 0, [ae.dim(0) + size])
            else:
                ub_map = AffineMap(1, 0, [ae.dim(0) + size, ae.constant(ub)])
            point = AffineForOp.create(lb_map, ub_map, 1, [tile_iv], [tile_iv])
        new_loops.append(point)

    # Nest them.
    for outer, inner in zip(new_loops, new_loops[1:]):
        outer.body.insert(len(outer.body.operations) - 1, inner)

    # Move the payload into the innermost point loop, remapping IVs.
    inner_body = new_loops[-1].body
    insert_at = len(inner_body.operations) - 1
    iv_map: Dict = {
        band[i].induction_var: new_loops[len(band) + i].induction_var
        for i in range(len(band))
    }
    for op in payload:
        innermost.body.remove(op)
        inner_body.insert(insert_at, op)
        insert_at += 1
    for old_iv, new_iv in iv_map.items():
        old_iv.replace_all_uses_with(new_iv)

    parent_block.insert(position, new_loops[0])
    root.erase()
    return new_loops


def tiling_is_legal(root: AffineForOp, band: List[AffineForOp]) -> bool:
    """Blocked execution is safe (and bit-exact) when every conflicting
    access pair touches identical elements per iteration (all
    dependences are distance 0, so the band is fully permutable) and
    any read/write pair leaves at most one band IV free — the blocked
    schedule preserves the relative order of iterations that differ in
    a single unused IV, keeping f32 reduction order intact."""
    band_ivs = {id(loop.induction_var) for loop in band}
    accesses = collect_accesses(root)
    for i, a in enumerate(accesses):
        for b in accesses[i + 1 :]:
            if a.memref is not b.memref or not (a.is_write or b.is_write):
                continue
            if not a.same_element(b):
                return False
            if not (a.is_write and b.is_write):
                for acc in (a, b):
                    used = {
                        id(iv)
                        for sub in acc.subscripts
                        for iv in sub.coeffs
                        if id(iv) in band_ivs
                    }
                    if len(band_ivs) - len(used) > 1:
                        return False
    return True


def tile_nests(
    func: Operation,
    sizes_for: Callable[[List[AffineForOp]], Optional[Sequence[int]]],
    mark_no_vectorize: bool = False,
) -> int:
    """Tile every outermost constant-bound unit-step band for which
    ``sizes_for(band)`` returns sizes and blocking is legal; returns how
    many were tiled.  ``mark_no_vectorize`` gives the new loops the
    printed ``no_vectorize`` attribute."""
    tiled = 0
    for root in list(outermost_loops(func)):
        if root.parent_block is None:
            continue
        band = perfect_nest(root)
        if any(
            not loop.has_constant_bounds() or loop.step != 1 for loop in band
        ):
            continue
        sizes = sizes_for(band)
        if sizes is None or not tiling_is_legal(root, band):
            continue
        try:
            new_loops = tile_perfect_nest(root, list(sizes))
        except TilingError:
            continue
        if mark_no_vectorize:
            for loop in new_loops:
                loop.mark_no_vectorize()
        tiled += 1
    return tiled


class TileLoopNestPass(FunctionPass):
    """Tile every outermost perfect band whose blocking is legal
    (:func:`tile_nests`).

    The size rule is the one thing that varies.  Here ``tile_size`` is
    one edge applied at every depth, or a per-depth size list (the last
    entry repeats for deeper bands) — the form ``mlt-opt --tile-sizes``
    drives.  A subclass overrides :meth:`sizes_for` and
    :meth:`cache_config`, and may mark what it tiles.  Counts
    ``nests_tiled``.
    """

    name = "affine-loop-tile"

    #: Whether tiled loops carry ``no_vectorize``.
    mark_no_vectorize = False

    def __init__(self, tile_size=32):
        self.tile_size = tile_size

    def cache_config(self) -> str:
        if isinstance(self.tile_size, int):
            return f"tile={self.tile_size}"
        return "tile=" + ",".join(str(s) for s in self.tile_size)

    def sizes_for(self, band: List[AffineForOp]) -> Optional[List[int]]:
        """Tile sizes for ``band``; None leaves it untiled."""
        depth = len(band)
        if isinstance(self.tile_size, int):
            return [self.tile_size] * depth
        sizes = list(self.tile_size) or [32]
        while len(sizes) < depth:
            sizes.append(sizes[-1])
        return sizes[:depth]

    def run_on_function(self, func, context):
        tiled = tile_nests(func, self.sizes_for, self.mark_no_vectorize)
        self.count(nests_tiled=tiled)
        return tiled
