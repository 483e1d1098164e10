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
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..telemetry import add

#: Why a compiled TDL tactic's matcher bailed on an ``affine.for`` root.
TDL_BAIL_REASONS = (
    "inner-loop-root",      # root is an inner loop of a larger perfect band
    "depth-mismatch",       # band depth != pattern loop count
    "body-shape",           # innermost block has the wrong operation mix
    "structure-mismatch",   # structural/access matchers rejected the body
    "iv-binding",           # placeholder bound to a non-band IV
    "non-constant-trip",    # a matched loop has no constant trip count
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


class RaiseStats:
    """Aggregated raising observability for one pass run.

    ``patterns`` tracks the TDL tier per compiled tactic:
    ``{name: {"attempted": n, "matched": n, "bailed": n,
    "bail_reasons": {reason: n}}}``.  ``attempted`` counts matcher
    *invocations* (the greedy driver may try one root several times),
    so it is an upper bound on distinct nests.  ``callsites`` and
    ``total`` (Figure 8's metric) are views over ``matched``.

    The synthesis tier counts nests and candidates:
    ``nests_attempted``/``nests_raised``/``nests_bailed``,
    ``candidates_enumerated``/``candidates_pruned`` (never validated),
    ``candidates_validated``/``candidates_rejected`` (oracle verdicts),
    ``trials_run`` (interpreter executions spent), ``raised_ops``
    (emitted op name -> count), and ``bail_reasons`` keyed by
    :data:`SYNTH_BAIL_REASONS`.
    """

    def __init__(self) -> None:
        self.patterns: Dict[str, Dict] = {}
        self.synth_nests_attempted = 0
        self.synth_nests_raised = 0
        self.synth_nests_bailed = 0
        self.candidates_enumerated = 0
        self.candidates_pruned = 0
        self.candidates_validated = 0
        self.candidates_rejected = 0
        self.trials_run = 0
        self.raised_ops: Dict[str, int] = {}
        self.bail_reasons: Dict[str, int] = {}

    # -- TDL tier ------------------------------------------------------

    def _pattern(self, name: str) -> Dict:
        entry = self.patterns.get(name)
        if entry is None:
            entry = {
                "attempted": 0,
                "matched": 0,
                "bailed": 0,
                "bail_reasons": {},
            }
            self.patterns[name] = entry
        return entry

    def record_tdl(self, pattern_name: str, reason: str) -> None:
        """One matcher invocation; ``reason`` is ``"matched"`` or a
        :data:`TDL_BAIL_REASONS` key."""
        entry = self._pattern(pattern_name)
        entry["attempted"] += 1
        if reason == "matched":
            entry["matched"] += 1
        else:
            entry["bailed"] += 1
            reasons = entry["bail_reasons"]
            reasons[reason] = reasons.get(reason, 0) + 1

    @property
    def callsites(self) -> Dict[str, int]:
        """Raised callsites per tactic — the tactics that matched."""
        return {
            name: entry["matched"]
            for name, entry in self.patterns.items()
            if entry["matched"]
        }

    @property
    def total(self) -> int:
        return sum(entry["matched"] for entry in self.patterns.values())

    # -- synthesis tier ------------------------------------------------

    def record_synth_bail(self, reason: str) -> None:
        self.synth_nests_attempted += 1
        self.synth_nests_bailed += 1
        self.bail_reasons[reason] = self.bail_reasons.get(reason, 0) + 1

    def record_synth_raise(self, op_name: str) -> None:
        self.synth_nests_attempted += 1
        self.synth_nests_raised += 1
        self.raised_ops[op_name] = self.raised_ops.get(op_name, 0) + 1

    # -- reporting -----------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready view with deterministic key order."""
        return {
            "tdl": {
                name: {
                    "attempted": entry["attempted"],
                    "matched": entry["matched"],
                    "bailed": entry["bailed"],
                    "bail_reasons": dict(
                        sorted(entry["bail_reasons"].items())
                    ),
                }
                for name, entry in sorted(self.patterns.items())
            },
            "synth": {
                "nests_attempted": self.synth_nests_attempted,
                "nests_raised": self.synth_nests_raised,
                "nests_bailed": self.synth_nests_bailed,
                "candidates_enumerated": self.candidates_enumerated,
                "candidates_pruned": self.candidates_pruned,
                "candidates_validated": self.candidates_validated,
                "candidates_rejected": self.candidates_rejected,
                "trials_run": self.trials_run,
                "raised_ops": dict(sorted(self.raised_ops.items())),
                "bail_reasons": dict(sorted(self.bail_reasons.items())),
            },
        }

    def merge(self, other: "RaiseStats") -> "RaiseStats":
        """Fold ``other`` into this instance (for multi-pass reports)."""
        add(self.patterns, other.patterns)
        add(self.raised_ops, other.raised_ops)
        add(self.bail_reasons, other.bail_reasons)
        for field in (
            "synth_nests_attempted",
            "synth_nests_raised",
            "synth_nests_bailed",
            "candidates_enumerated",
            "candidates_pruned",
            "candidates_validated",
            "candidates_rejected",
            "trials_run",
        ):
            setattr(self, field, getattr(self, field) + getattr(other, field))
        return self

    def __repr__(self) -> str:
        return (
            f"RaiseStats(tdl_patterns={len(self.patterns)}, "
            f"synth_raised={self.synth_nests_raised}/"
            f"{self.synth_nests_attempted})"
        )


def merge_pass_stats(passes: Iterable) -> Optional[RaiseStats]:
    """The ``stats`` of every raising pass among ``passes``, merged —
    the tiers of one pipeline read as one report.  ``None`` when no
    pass is a raising pass."""
    found = [
        pass_.stats
        for pass_ in passes
        if isinstance(getattr(pass_, "stats", None), RaiseStats)
    ]
    if not found:
        return None
    merged = RaiseStats()
    for stats in found:
        merged.merge(stats)
    return merged
