"""Raising observability: the ``RaiseStats`` taxonomy.

Mirrors the engine's ``VectorizeStats``: every raising attempt — TDL
matcher or synthesis — is accounted for with a *stable* bail-reason
key, so synth-vs-TDL coverage is measurable across runs and the fuzz
corpus ("which nests fall off the raise path, and why") instead of
silently disappearing.

Two taxonomies:

* :data:`TDL_BAIL_REASONS` — why a compiled TDL tactic rejected a
  candidate root (per pattern, attempted/matched/bailed).
* :data:`SYNTH_BAIL_REASONS` — why the enumerative synthesizer gave up
  on a nest (or rejected every candidate).

Keys are part of the observable surface (tests and ``BENCH_raise.json``
key on them); add new ones, never rename.

The raising passes record into their ``FunctionPass`` counters, the
channel the pass cache stores and replays; :class:`RaiseStats` only
reads them.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..ir.pass_manager import FunctionPass
from ..telemetry import add

#: Why a compiled TDL tactic's matcher bailed on an ``affine.for`` root.
TDL_BAIL_REASONS = (
    "inner-loop-root",      # root is an inner loop of a larger perfect band
    "depth-mismatch",       # band depth != pattern loop count
    "body-shape",           # innermost block has the wrong operation mix
    "structure-mismatch",   # structural/access matchers rejected the body
    "iv-binding",           # placeholder bound to a non-band IV
    "non-constant-trip",    # a matched loop has no constant trip count
    "partial-range",        # band starts off 0, steps, or misses part of a tensor
    "pattern-mismatch",     # coarse reason for hand-written patterns
)

#: Why the synthesizer bailed on a nest (nest-level) or raised nothing.
SYNTH_BAIL_REASONS = (
    "imperfect-nest",        # band is not a perfect rectangular nest
    "unsupported-bounds",    # non-constant bounds, lb != 0, or step != 1
    "store-count",           # zero or more than one affine.store
    "unsupported-payload",   # payload op outside the safe scalar set
    "non-affine-access",     # an access map is non-linear (mod/div)
    "external-value",        # payload reads an SSA value defined outside
    "no-candidate",          # enumerator produced nothing after pruning
    "too-many-candidates",   # enumeration exceeded the candidate cap
    "validation-failed",     # every candidate was rejected by the oracle
    "oracle-error",          # interpreter/engine crashed during trials
)


#: The synthesis tier's plain counters, in report order.  Its nest
#: counts are derived: raised from ``raised_ops``, bailed from
#: ``bail_reasons``.
SYNTH_COUNTERS = (
    "candidates_enumerated",  # proposed and not pruned
    "candidates_pruned",      # never validated
    "candidates_validated",   # accepted by the oracle
    "candidates_rejected",    # refused by the oracle
    "trials_run",             # interpreter executions spent
)


class RaiseStats:
    """Read-only view over raising-pass counters: one pass's
    (``pass_.stats``) or several merged (:func:`merge_pass_stats`).

    ``tdl`` holds the TDL tier's counters, ``{tactic: {outcome: n}}``
    with one count per matcher *invocation* (the greedy driver may try
    one root several times, so ``attempted`` is an upper bound on
    distinct nests); ``outcome`` is ``"matched"`` or a
    :data:`TDL_BAIL_REASONS` key.  ``synth`` holds the synthesis tier's:
    ``raised_ops`` (emitted op name -> nests), ``bail_reasons``
    (:data:`SYNTH_BAIL_REASONS` key -> nests) and the
    :data:`SYNTH_COUNTERS`.  Attempted and bailed counts, and Figure 8's
    ``callsites`` and ``total``, are derived here.
    """

    __slots__ = ("_tdl", "_synth")

    def __init__(
        self, tdl: Optional[Dict] = None, synth: Optional[Dict] = None
    ) -> None:
        self._tdl = {} if tdl is None else tdl
        self._synth = {} if synth is None else synth

    @property
    def callsites(self) -> Dict[str, int]:
        """Raised callsites per tactic — the tactics that matched."""
        return {
            name: outcomes["matched"]
            for name, outcomes in self._tdl.items()
            if outcomes.get("matched")
        }

    @property
    def total(self) -> int:
        return sum(outcomes.get("matched", 0) for outcomes in self._tdl.values())

    def snapshot(self) -> dict:
        """JSON-ready report: every counter present, deterministic key
        order."""
        synth = self._synth
        raised_ops = dict(sorted(synth.get("raised_ops", {}).items()))
        bail_reasons = dict(sorted(synth.get("bail_reasons", {}).items()))
        raised, bailed = sum(raised_ops.values()), sum(bail_reasons.values())
        return {
            "tdl": {
                name: _tdl_entry(outcomes)
                for name, outcomes in sorted(self._tdl.items())
            },
            "synth": {
                "nests_attempted": raised + bailed,
                "nests_raised": raised,
                "nests_bailed": bailed,
                **{name: synth.get(name, 0) for name in SYNTH_COUNTERS},
                "raised_ops": raised_ops,
                "bail_reasons": bail_reasons,
            },
        }


def _tdl_entry(outcomes: Dict[str, int]) -> dict:
    reasons = {
        reason: n for reason, n in sorted(outcomes.items()) if reason != "matched"
    }
    matched, bailed = outcomes.get("matched", 0), sum(reasons.values())
    return {
        "attempted": matched + bailed,
        "matched": matched,
        "bailed": bailed,
        "bail_reasons": reasons,
    }


class RaisingPass(FunctionPass):
    """A raising tier.  It counts through :meth:`count` like every
    function pass (so a pass-cache hit replays its counts); ``tier``
    names the :class:`RaiseStats` section its counters fill."""

    tier: str

    @property
    def stats(self) -> RaiseStats:
        return RaiseStats(**{self.tier: self.counters})


def merge_pass_stats(passes: Iterable) -> Optional[RaiseStats]:
    """The counters of every raising pass among ``passes``, merged —
    the tiers of one pipeline read as one report.  ``None`` when no
    pass is a raising pass."""
    tiers = None
    for pass_ in passes:
        if isinstance(pass_, RaisingPass):
            tiers = tiers or {"tdl": {}, "synth": {}}
            add(tiers[pass_.tier], pass_.counters)
    return None if tiers is None else RaiseStats(**tiers)
