"""The synthesis raising pass: the fallback tier behind the TDL
matchers.

Per affine band left in a function, :func:`synthesize_nest` runs the
full enumerate -> prune -> validate -> rewrite loop; the first candidate
(in the enumerator's preference order: named op, then contraction
generic, then clone-body generic) that survives I/O-equivalence
validation replaces the nest.  Every outcome — raise or bail — is
counted through the pass's ``count`` (read back as a
:class:`~..tactics.stats.RaiseStats`).

``SynthRaisingPass`` (``-raise-affine-synth``) applies this to a whole
module; the pass list composes it after the TDL tier
(``-raise-affine-to-linalg -raise-affine-synth``).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Union

from ..dialects.affine import AffineForOp, perfect_nest
from ..ir import Context, ModuleOp, PatternRewriter
from ..tactics.stats import RaiseStats, RaisingPass
from .enumerator import MAX_CANDIDATES, Candidate, enumerate_candidates
from .equivalence import MAX_STEPS, EquivalenceChecker, OracleError
from .nest import summarize_nest
from .rewriter import apply_candidate


def synthesize_nest(
    root: AffineForOp,
    count: Callable[..., None],
    rewriter: Optional[PatternRewriter] = None,
    max_candidates: int = MAX_CANDIDATES,
    max_steps: int = MAX_STEPS,
) -> Union[Candidate, str]:
    """Try to raise the band rooted at ``root``; returns the applied
    candidate or a :data:`~..tactics.stats.SYNTH_BAIL_REASONS` key.
    What happened goes to ``count`` (a ``SynthRaisingPass.count``)."""
    summary = summarize_nest(root)
    if isinstance(summary, str):
        count(bail_reasons={summary: 1})
        return summary

    result, pruned = enumerate_candidates(summary, max_candidates)
    count(candidates_pruned=pruned)
    if isinstance(result, str):
        count(bail_reasons={result: 1})
        return result
    count(candidates_enumerated=len(result))

    try:
        checker = EquivalenceChecker(summary, count, max_steps)
    except OracleError:
        count(bail_reasons={"oracle-error": 1})
        return "oracle-error"

    for candidate in result:
        if checker.check(candidate):
            apply_candidate(candidate, summary, rewriter or PatternRewriter())
            count(raised_ops={candidate.op_name: 1})
            return candidate
    count(bail_reasons={"validation-failed": 1})
    return "validation-failed"


def synthesize_function(func, count: Callable[..., None], **limits) -> int:
    """Raise every eligible band in ``func``; returns the raise count.

    Bands are visited outermost-first; an imperfect outer band bails
    but its inner loops are retried as roots of their own, so the
    subsystem still recovers e.g. the compute nest of an
    init-then-compute pair under one outer loop.
    """
    rewriter = PatternRewriter()
    worklist: List[AffineForOp] = [
        op
        for op in func.walk()
        if isinstance(op, AffineForOp)
        and not isinstance(op.parent_op, AffineForOp)
    ]
    raised = 0
    while worklist:
        root = worklist.pop(0)
        outcome = synthesize_nest(root, count, rewriter, **limits)
        if isinstance(outcome, Candidate):
            raised += 1
        elif outcome == "imperfect-nest":
            band = perfect_nest(root)
            worklist.extend(
                op
                for op in band[-1].ops_in_body()
                if isinstance(op, AffineForOp)
            )
    return raised


class SynthRaisingPass(RaisingPass):
    """``-raise-affine-synth``: enumerative raising for every affine
    band still standing (typically run after the TDL tier)."""

    name = "raise-affine-synth"
    tier = "synth"

    def __init__(
        self,
        max_candidates: int = MAX_CANDIDATES,
        max_steps: int = MAX_STEPS,
    ):
        self.limits = {
            "max_candidates": max_candidates,
            "max_steps": max_steps,
        }

    def cache_config(self) -> str:
        return repr(self.limits)

    def run_on_function(self, func, context: Context):
        return synthesize_function(func, self.count, **self.limits) > 0


def raise_with_synthesis(module: ModuleOp, **limits) -> RaiseStats:
    """Convenience wrapper mirroring ``raise_affine_to_linalg``."""
    pass_ = SynthRaisingPass(**limits)
    pass_.run(module, Context())
    return pass_.stats
