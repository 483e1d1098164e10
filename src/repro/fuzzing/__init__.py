"""Differential fuzzing for the progressive-raising pipelines.

The subsystem closes the loop the paper leaves open: raising and
lowering must be *semantics-preserving*, and the reference interpreter
can execute a module at every abstraction level, so we can check the
claim mechanically.  Four parts:

* :mod:`.generators` — random polyhedral C kernels (entering through
  the real MET frontend) and random Affine modules built directly with
  the builder API, including near-miss variants that must *not* match
  the raising tactics.
* :mod:`.oracle` — runs the interpreter on the module snapshot after
  every stage of each Figure-9 pipeline and demands numerically
  identical output buffers, plus verifier and print->parse round-trip
  checks per snapshot, then cross-checks every selected configuration
  of the oracle matrix (:data:`ENGINE_ROWS`, :data:`CHECKS`) against
  the interpreter.
* :mod:`.bisect` — on a mismatch, replays the pipeline pass-by-pass to
  name the first semantics- or verifier-breaking pass.
* :mod:`.reduce` — delta-debugs a failing C kernel (drop loops, shrink
  extents, simplify bodies) down to a minimal reproducer.

:mod:`.campaign` ties them together into the budgeted ``mlt-fuzz``
driver that dumps reduced artifacts into ``fuzz-failures/``.
"""

from .generators import (  # noqa: F401
    GeneratedKernel,
    GeneratedModule,
    KERNEL_FAMILIES,
    generate_affine_module,
    generate_kernel,
    unparse_function,
    unparse_unit,
)
from .oracle import (  # noqa: F401
    CHECKS,
    DEFAULT_PIPELINES,
    ENGINE_ROWS,
    FAILURE_KINDS,
    PIPELINE_CHECKS,
    EngineRow,
    OracleReport,
    Pipeline,
    PipelineStage,
    StageResult,
    build_pipelines,
    check_engine_rows,
    check_module,
    check_snapshot,
    run_oracle,
    run_oracle_on_module,
)
from .bisect import BisectionResult, bisect_pipeline  # noqa: F401
from .reduce import reduce_source, reduction_candidates  # noqa: F401
from .campaign import CampaignStats, FuzzCampaign, FuzzFailure  # noqa: F401
