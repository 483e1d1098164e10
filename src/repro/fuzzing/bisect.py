"""Pass bisection: name the first pass that breaks a kernel.

The oracle reports failures at *stage* granularity (a stage may bundle
several passes, e.g. ``lower-affine`` + ``convert-scf-to-llvm``).  The
bisector replays the pipeline from the pristine frontend output one
pass at a time, re-running the full snapshot check (verify, round-trip,
differential execution) after each, and reports the first pass whose
application breaks any of them.  Deterministic replay makes the linear
scan exact: the culprit is the pass itself, not an interaction with the
checking order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..ir import Context, ModuleOp
from ..met import compile_c
from .oracle import (
    CHECKS,
    Pipeline,
    check_module,
    check_snapshot,
    make_args,
    module_arg_shapes,
)


@dataclass
class BisectionResult:
    #: Name of the first semantics- or verifier-breaking pass, or None
    #: when the replay could not reproduce the failure (flaky oracle /
    #: frontend failure).
    culprit_pass: Optional[str]
    #: Stage the culprit pass belongs to.
    stage: Optional[str] = None
    #: 0-based position of the culprit in the flattened pass list.
    index: Optional[int] = None
    #: Failure kind: one of :data:`~.oracle.FAILURE_KINDS`.
    kind: str = ""
    detail: str = ""

    @property
    def reproduced(self) -> bool:
        return self.culprit_pass is not None

    def summary(self) -> str:
        if not self.reproduced:
            return "bisection: failure did not reproduce under replay"
        return (
            f"bisection: first breaking pass is '{self.culprit_pass}' "
            f"(stage '{self.stage}', position {self.index}) "
            f"[{self.kind}] {self.detail}"
        )


def bisect_pipeline(
    source_or_module,
    pipeline: Pipeline,
    func_name: str,
    seed: int = 0,
    rtol: float = 2e-3,
    max_steps: int = 20_000_000,
    checks: Sequence[str] = CHECKS,
) -> BisectionResult:
    """Replay ``pipeline`` pass-by-pass over a C source (str) or a
    pristine module (ModuleOp) and locate the first breaking pass."""
    if isinstance(source_or_module, ModuleOp):
        module = source_or_module.clone()
    else:
        try:
            module = compile_c(source_or_module, distribute=False)
        except Exception as exc:
            return BisectionResult(
                culprit_pass="<met-frontend>",
                stage="met",
                index=-1,
                kind="crash",
                detail=str(exc),
            )

    base_args = make_args(module_arg_shapes(module, func_name), seed)

    # Establish the reference from the untransformed module; if the
    # pristine snapshot itself fails, the frontend (not a pass) is the
    # culprit.
    result, reference = check_module(
        module, func_name, base_args, None, "met", rtol=rtol, max_steps=max_steps
    )
    if not result.ok:
        return BisectionResult(
            culprit_pass="<met-frontend>",
            stage="met",
            index=-1,
            kind=result.kind,
            detail=result.detail,
        )

    for position, (stage_name, pass_name, factory) in enumerate(
        pipeline.flat_passes()
    ):
        try:
            factory().run(module, Context())
        except Exception as exc:
            return BisectionResult(
                culprit_pass=pass_name,
                stage=stage_name,
                index=position,
                kind="crash",
                detail=str(exc),
            )
        results, _ = check_snapshot(
            module,
            func_name,
            base_args,
            reference,
            stage_name,
            pipeline.name,
            checks,
            seed,
            rtol,
            max_steps,
        )
        if not results[-1].ok:
            return BisectionResult(
                culprit_pass=pass_name,
                stage=stage_name,
                index=position,
                kind=results[-1].kind,
                detail=results[-1].detail,
            )
    return BisectionResult(culprit_pass=None)
