"""Synthesis-based raising: the enumerative fallback tier.

Where the TDL matchers (``repro.tactics``) recognize loop nests
*structurally*, this package recovers linalg/blas ops the matchers
miss by bottom-up enumeration over the nest's live-in/live-out arrays,
cheap shape/access-pattern pruning, and I/O-equivalence validation
against the interpreter (with the compiled engine as cross-check) —
the mlirSynth recipe applied to this repo's oracle machinery.

See ``docs/raising.md`` for the candidate space and the validation
protocol.
"""

from ..tactics.stats import (  # noqa: F401
    RaiseStats,
    SYNTH_BAIL_REASONS,
    TDL_BAIL_REASONS,
)
from .enumerator import (  # noqa: F401
    Candidate,
    classify_mac,
    enumerate_candidates,
)
from .equivalence import (  # noqa: F401
    EquivalenceChecker,
    OracleError,
    build_candidate_module,
    build_nest_module,
)
from .nest import NestSummary, summarize_nest  # noqa: F401
from .rewriter import (  # noqa: F401
    apply_candidate,
    candidate_maps,
    materialize_candidate,
)
from .synthesize import (  # noqa: F401
    SynthRaisingPass,
    raise_with_synthesis,
    synthesize_function,
    synthesize_nest,
)
