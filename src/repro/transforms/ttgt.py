"""``-linalg-contraction-ttgt``: a raised contraction takes the GEMM
layout only where a backend needs one.

Raising leaves every tensor contraction one ``linalg.generic`` (the
TDL ``contractionBuilder``, or synthesis's multiply-accumulate body).
The loop path lowers that generic as one nest.  A BLAS call or a tiled
GEMM needs the operands as matrices instead.  This pass rewrites each
generic that :func:`~repro.analysis.contraction.generic_contraction_spec`
reads as an additive contraction into the Transpose-Transpose-GEMM-
Transpose builder list of :func:`~repro.tactics.contraction.ttgt_plan`.
That is the list :func:`~repro.tactics.contraction.contraction_tactic_tdl`
renders, so raising plus this pass prints what the TTGT tactic raised
directly.  ``NAMED_PIPELINES`` runs it right after raising in
``mlt-linalg`` and ``mlt-blas``.

Each generic visited is counted under ``ttgt``: ``planned``, or why it
stays a generic — ``not-a-contraction`` (the reader does not recognise
it), ``not-additive`` (``acc - a * b``) or a
:data:`~repro.analysis.contraction.TTGT_REFUSALS` key.
"""

from __future__ import annotations

import functools

from ..analysis.contraction import CONTRACTION_LABELS, generic_contraction_spec
from ..ir import (
    FrozenPatternSet,
    FunctionPass,
    Operation,
    PatternRewriter,
    RewritePattern,
    apply_conversion,
)
from ..tactics.builders import emit_builders
from ..tactics.contraction import contraction_tactic_tdl
from ..tactics.tdl.frontend import tdl_to_tds
from ..tactics.tdl.parser import parse_tdl
from ..tactics.tds import TacticRecord


@functools.lru_cache(maxsize=None)
def ttgt_record(spec: str) -> TacticRecord:
    """The TDS record of ``spec``'s TTGT tactic, built once per spec.
    Only its builder list runs here: no matcher is compiled."""
    (tactic,) = parse_tdl(contraction_tactic_tdl(spec))
    return tdl_to_tds(tactic)


class _TTGTPattern(RewritePattern):
    root_op_name = "linalg.generic"

    def __init__(self, count):
        self.count = count

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        read = generic_contraction_spec(op)
        if read is None:
            outcome = "not-a-contraction"
        elif read.subtract:
            outcome = "not-additive"
        else:
            outcome = read.contraction.refusal() or "planned"
        self.count(ttgt={outcome: 1})
        if outcome != "planned":
            return False
        a, b, c = op.operands
        labels = CONTRACTION_LABELS[: op.num_loops]
        rewriter.set_insertion_point_before(op)
        emit_builders(
            ttgt_record(read.contraction.spec),
            rewriter,
            {"A": a, "B": b, "C": c},
            dict(zip(labels, op.iteration_domain())),
            labels,
        )
        rewriter.erase_op(op)
        return True


class LinalgContractionTTGTPass(FunctionPass):
    """-linalg-contraction-ttgt: contraction generics -> transpose /
    reshape / ``linalg.matmul`` (the TTGT layout)."""

    name = "linalg-contraction-ttgt"
    _patterns = None

    def prepare(self, module, context) -> None:
        if self._patterns is None:
            self._patterns = FrozenPatternSet([_TTGTPattern(self.count)])

    def run_on_function(self, func, context):
        result = apply_conversion(func, self._patterns)
        self.rewrite_results.append(result)
        return result.changed
