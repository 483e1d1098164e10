"""The Pluto baseline: polyhedral tiling + fusion + interchange.

Models the source-to-source optimizer the paper compares against:

  * ``Pluto-default`` — tiling factor 32 on each dimension with the
    ``smartfuse`` heuristic (§V-B).
  * ``Pluto-best``    — an autotuning sweep over tile sizes, the three
    fusion heuristics (maxfuse / smartfuse / nofuse), and the innermost
    loop choice, selecting the configuration the machine model rates
    fastest (the paper's version sweeps >3000 configurations for days;
    the sweep here is the same search over a coarser grid).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..dialects.affine import AffineForOp, outermost_loops, perfect_nest
from ..execution.cost_model import CostModel
from ..execution.machines import Machine
from ..ir import ModuleOp
from ..transforms.fusion import greedy_fuse
from ..transforms.tiling import TilingError, tile_perfect_nest
from .dependences import band_is_fully_permutable

FUSION_HEURISTICS = ("smartfuse", "maxfuse", "nofuse")


@dataclass
class PlutoOptions:
    tile_size: int = 32
    fusion: str = "smartfuse"
    #: rotate the band so this (band-relative) loop becomes innermost;
    #: None keeps the program order.
    innermost: Optional[int] = None

    def describe(self) -> str:
        inner = "orig" if self.innermost is None else f"inner={self.innermost}"
        return f"tile={self.tile_size},{self.fusion},{inner}"


def permute_band(root: AffineForOp, perm: Sequence[int]) -> AffineForOp:
    """Interchange a fully-permutable perfect band.

    ``perm[i]`` gives the old position of the loop placed at new
    position ``i``.  Returns the new outermost loop.
    """
    band = perfect_nest(root)
    if sorted(perm) != list(range(len(band))):
        raise TilingError(f"bad permutation {perm}")
    if len(band) != len(perm):
        raise TilingError("permutation length does not match band depth")
    innermost = band[-1]
    payload = innermost.ops_in_body()
    parent_block = root.parent_block
    position = parent_block.operations.index(root)

    new_loops: List[AffineForOp] = []
    for new_pos, old_pos in enumerate(perm):
        old = band[old_pos]
        loop = AffineForOp.create(
            old.lower_bound_map,
            old.upper_bound_map,
            old.step,
            old.lb_operands,
            old.ub_operands,
        )
        new_loops.append(loop)
    for outer, inner in zip(new_loops, new_loops[1:]):
        outer.body.insert(len(outer.body.operations) - 1, inner)
    inner_body = new_loops[-1].body
    insert_at = len(inner_body.operations) - 1
    for op in payload:
        innermost.body.remove(op)
        inner_body.insert(insert_at, op)
        insert_at += 1
    for new_pos, old_pos in enumerate(perm):
        band[old_pos].induction_var.replace_all_uses_with(
            new_loops[new_pos].induction_var
        )
    parent_block.insert(position, new_loops[0])
    root.erase()
    return new_loops[0]


def _rotation(depth: int, innermost: int) -> List[int]:
    """Order keeping relative order but making ``innermost`` last."""
    order = [i for i in range(depth) if i != innermost]
    order.append(innermost)
    return order


def pluto_optimize(
    module: ModuleOp, options: Optional[PlutoOptions] = None
) -> ModuleOp:
    """Apply the Pluto schedule in place and return the module."""
    options = options or PlutoOptions()
    for func in module.functions:
        if options.fusion in ("smartfuse", "maxfuse"):
            # smartfuse ~ maxfuse on our kernels: fuse whenever legal,
            # which merges same-shape sibling nests.
            greedy_fuse(func)
        for root in _band_roots(func):
            _schedule_band(root, options)
    return module


def _band_roots(func) -> List[AffineForOp]:
    """Roots of maximal perfect bands, found recursively: if a loop's
    band is trivial (depth 1) but contains nested loops, descend."""
    roots: List[AffineForOp] = []

    def visit(loop: AffineForOp) -> None:
        band = perfect_nest(loop)
        if len(band) >= 2:
            roots.append(loop)
            return
        for op in band[-1].ops_in_body():
            if isinstance(op, AffineForOp):
                visit(op)

    for loop in outermost_loops(func):
        visit(loop)
    return roots


def _schedule_band(root: AffineForOp, options: PlutoOptions) -> None:
    band = perfect_nest(root)
    if not band_is_fully_permutable(band):
        return
    if options.innermost is not None and len(band) > 1:
        inner = min(options.innermost, len(band) - 1)
        order = _rotation(len(band), inner)
        if order != list(range(len(band))):
            root = permute_band(root, order)
            band = perfect_nest(root)
    if options.tile_size > 1 and len(band) > 1:
        try:
            tile_perfect_nest(root, [options.tile_size] * len(band))
        except TilingError:
            pass


def pluto_best(
    module_factory: Callable[[], ModuleOp],
    machine: Machine,
    tile_sizes: Sequence[int] = (1, 8, 16, 32, 64, 128, 256),
    max_innermost: int = 7,
) -> Tuple[PlutoOptions, float]:
    """Autotune Pluto options against the machine model.

    ``module_factory`` must produce a fresh module per configuration
    (transforms are destructive).  Returns the best options and the
    predicted seconds.
    """
    model = CostModel(machine)
    best: Optional[Tuple[PlutoOptions, float]] = None
    for fusion in FUSION_HEURISTICS:
        for tile in tile_sizes:
            for innermost in [None, *range(max_innermost)]:
                options = PlutoOptions(tile, fusion, innermost)
                module = pluto_optimize(module_factory(), options)
                seconds = sum(
                    model.cost_function(f).seconds for f in module.functions
                )
                if best is None or seconds < best[1]:
                    best = (options, seconds)
    assert best is not None
    return best
