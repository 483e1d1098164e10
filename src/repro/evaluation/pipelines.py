"""The five evaluation configurations of Figure 9.

Each pipeline takes a kernel's C source, pushes it through the real
compilation flow (MET -> Affine -> transforms), and prices the result
with the machine model:

  * ``Clang -O3``      — the MET output as-is (a general-purpose
    compiler's naive schedule; the model still vectorizes stride-1
    innermost loops, as clang does).
  * ``Pluto-default``  — tiling 32 + smartfuse.
  * ``Pluto-best``     — the autotuning sweep.
  * ``MLT-Linalg``     — Multi-Level Tactics raising to Linalg, then
    the default Linalg lowering (tiled loops).
  * ``MLT-BLAS``       — raising to Linalg, then the BLAS substitution
    (library calls with dispatch overhead).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..dialects import linalg as linalg_d
from ..dialects.affine import outermost_loops, perfect_nest
from ..execution.cost_model import CostModel, CostReport
from ..execution.machines import Machine
from ..ir import Context, ModuleOp, PatternRewriter
from ..met import compile_c
from ..polyhedral.pluto import PlutoOptions, pluto_best, pluto_optimize
from ..tactics.raising import raise_affine_to_linalg
from ..transforms.lowering import LinalgToBlasPass, lower_linalg_op_to_affine
from ..transforms.tiling import TilingError, tile_perfect_nest


@dataclass
class PipelineResult:
    config: str
    seconds: float
    flops: int
    detail: str = ""

    @property
    def gflops(self) -> float:
        if self.seconds <= 0:
            return 0.0
        return self.flops / self.seconds / 1e9


def _cost(module: ModuleOp, machine: Machine) -> CostReport:
    model = CostModel(machine)
    report = CostReport()
    for func in module.functions:
        report.merge(model.cost_function(func))
    return report


def run_clang(source: str, machine: Machine) -> PipelineResult:
    module = compile_c(source)
    report = _cost(module, machine)
    return PipelineResult("Clang -O3", report.seconds, report.flops)


def run_pluto_default(source: str, machine: Machine) -> PipelineResult:
    module = pluto_optimize(compile_c(source), PlutoOptions())
    report = _cost(module, machine)
    return PipelineResult("Pluto-default", report.seconds, report.flops)


def run_pluto_best(source: str, machine: Machine) -> PipelineResult:
    options, seconds = pluto_best(lambda: compile_c(source), machine)
    module = pluto_optimize(compile_c(source), options)
    report = _cost(module, machine)
    return PipelineResult(
        "Pluto-best", report.seconds, report.flops, options.describe()
    )


def _default_linalg_lowering(module: ModuleOp, tile: int = 32) -> None:
    """The default Linalg codegen path: named contraction-like ops
    become tiled loop nests; data-movement ops stay (priced as views /
    memory passes by the model)."""
    rewriter = PatternRewriter()
    for func in module.functions:
        for op in list(func.walk()):
            if isinstance(
                op,
                (linalg_d.MatmulOp, linalg_d.MatvecOp, linalg_d.Conv2DNchwOp),
            ):
                block = op.parent_block
                before = list(block.operations)
                lower_linalg_op_to_affine(op, rewriter)
                new_roots = [
                    o for o in block.operations if o not in before
                ]
                for root in new_roots:
                    band = perfect_nest(root)
                    if len(band) < 2:
                        continue
                    try:
                        tile_perfect_nest(root, [tile] * len(band))
                    except TilingError:
                        pass


def run_mlt_linalg(source: str, machine: Machine) -> PipelineResult:
    module = compile_c(source)
    stats = raise_affine_to_linalg(module)
    _default_linalg_lowering(module)
    report = _cost(module, machine)
    return PipelineResult(
        "MLT-Linalg", report.seconds, report.flops, f"raised={stats.total}"
    )


def run_mlt_blas(
    source: str, machine: Machine, library: str = "mkl-dnn"
) -> PipelineResult:
    module = compile_c(source)
    stats = raise_affine_to_linalg(module)
    LinalgToBlasPass(library).run(module, Context())
    report = _cost(module, machine)
    return PipelineResult(
        "MLT-BLAS", report.seconds, report.flops, f"raised={stats.total}"
    )


ALL_PIPELINES: Dict[str, Callable] = {
    "Clang -O3": run_clang,
    "Pluto-default": run_pluto_default,
    "Pluto-best": run_pluto_best,
    "MLT-Linalg": run_mlt_linalg,
    "MLT-BLAS": run_mlt_blas,
}


def run_all_pipelines(
    source: str, machine: Machine, configs: Optional[List[str]] = None
) -> List[PipelineResult]:
    names = configs or list(ALL_PIPELINES)
    return [ALL_PIPELINES[name](source, machine) for name in names]


# ----------------------------------------------------------------------
# Module builders (measured execution)
#
# The pipelines above price transformed modules with the machine model;
# these builders return the transformed *module itself*, so the
# benchmark harness can execute it — interpreted or compiled — and
# measure wall-clock time instead.
# ----------------------------------------------------------------------


def build_baseline(source: str, tile: int = 32) -> ModuleOp:
    """The MET output as-is: naive affine loop nests (no raising)."""
    return compile_c(source)


def build_mlt_linalg(source: str, tile: int = 32) -> ModuleOp:
    """Raise to Linalg, then the default tiled-loop lowering."""
    module = compile_c(source)
    raise_affine_to_linalg(module)
    _default_linalg_lowering(module, tile=tile)
    return module


def build_mlt_blas(
    source: str, tile: int = 32, library: str = "mkl-dnn"
) -> ModuleOp:
    """Raise to Linalg, then substitute BLAS library calls."""
    module = compile_c(source)
    raise_affine_to_linalg(module)
    LinalgToBlasPass(library).run(module, Context())
    return module


MODULE_BUILDERS: Dict[str, Callable[..., ModuleOp]] = {
    "baseline": build_baseline,
    "mlt-linalg": build_mlt_linalg,
    "mlt-blas": build_mlt_blas,
}


def build_module(source: str, pipeline: str, tile: int = 32) -> ModuleOp:
    """Build the executable module for one named pipeline."""
    try:
        builder = MODULE_BUILDERS[pipeline]
    except KeyError:
        raise ValueError(
            f"unknown pipeline {pipeline!r}; known: {sorted(MODULE_BUILDERS)}"
        )
    return builder(source, tile=tile)
