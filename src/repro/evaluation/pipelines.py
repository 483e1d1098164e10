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

The two MLT configurations price the module their list in
:data:`NAMED_PIPELINES` builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..execution.cost_model import CostModel, CostReport
from ..execution.machines import Machine
from ..ir import ModuleOp, PassManager
from ..met import compile_c
from ..polyhedral.pluto import PlutoOptions, pluto_best, pluto_optimize
from ..tactics.stats import merge_pass_stats


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


def _run_named(config: str, pipeline: str, source: str, machine: Machine):
    module = compile_c(source, distribute=False)
    pm = named_pipeline(pipeline)
    pm.run(module)
    report = _cost(module, machine)
    raised = merge_pass_stats(pm.passes).total
    return PipelineResult(
        config, report.seconds, report.flops, f"raised={raised}"
    )


def run_mlt_linalg(source: str, machine: Machine) -> PipelineResult:
    return _run_named("MLT-Linalg", "mlt-linalg", source, machine)


def run_mlt_blas(source: str, machine: Machine) -> PipelineResult:
    return _run_named("MLT-BLAS", "mlt-blas", source, machine)


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
# Named pipelines (measured execution)
#
# The pricing above and every driver that executes, serves or tunes a
# corpus kernel build the module through one of these pass lists.
# ----------------------------------------------------------------------


#: Every named pipeline as a pass list in ``mlt-opt``'s pass-name
#: vocabulary (``tool._pass_registry``), run by one ``PassManager`` over
#: ``compile_c(source, distribute=False)``: MET's loop distribution is
#: the first pass of each.  The fuzz oracle stages exactly these lists.
NAMED_PIPELINES: Dict[str, Tuple[str, ...]] = {
    "baseline": ("affine-loop-distribution",),
    "mlt-linalg": (
        "affine-loop-distribution",
        "raise-affine-to-linalg",
        "linalg-contraction-ttgt",
        "convert-linalg-contractions-to-tiled-loops",
    ),
    "mlt-blas": (
        "affine-loop-distribution",
        "raise-affine-to-linalg",
        "linalg-contraction-ttgt",
        "convert-linalg-to-blas",
    ),
    "mlt-synth": (
        "affine-loop-distribution",
        "canonicalize",
        "raise-affine-to-linalg",
        "raise-affine-synth",
        "convert-linalg-to-affine-loops",
    ),
    "mlt-affine": (
        "affine-loop-distribution",
        "canonicalize",
        "raise-affine-to-affine",
        "affine-expand-matmul",
        "lower-affine",
        "convert-scf-to-llvm",
    ),
}


def named_pipeline(name: str, tile: int = 32) -> PassManager:
    """The pass manager of one named pipeline; ``tile`` drives its
    tiling passes."""
    from ..tool import build_pipeline

    if name not in NAMED_PIPELINES:
        raise ValueError(
            f"unknown pipeline {name!r}; known: {sorted(NAMED_PIPELINES)}"
        )
    return build_pipeline(list(NAMED_PIPELINES[name]), [tile])


def build_module(source: str, pipeline: str, tile: int = 32) -> ModuleOp:
    """Build the executable module for one named pipeline."""
    module = compile_c(source, distribute=False)
    named_pipeline(pipeline, tile).run(module)
    return module
