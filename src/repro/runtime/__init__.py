"""Parallel compilation runtime.

Shards independent work units — fuzz seeds, per-file pass-pipeline
runs — across a ``multiprocessing`` worker pool
with deterministic, input-ordered result merging, and shares compiled
artifacts between workers through the persistent disk tier of the
kernel cache (see :mod:`repro.execution.engine.disk_cache`).

Layout:

* :mod:`.pool` — the generic pool driver (``parallel_map``) and the
  deterministic seed-derivation helper shared by every surface;
* :mod:`.fuzz` — the ``campaign.json`` a failing ``mlt-fuzz`` run writes;
* :mod:`.batch` — multi-file ``mlt-opt`` batch compilation, which
  ``benchmarks.harness.run_corpus`` drives for the determinism tests.
"""

from .pool import (  # noqa: F401
    PersistentPool,
    WorkerCrashError,
    effective_cpus,
    get_pool,
    parallel_map,
    plan_batches,
    pool_stats,
    resolve_jobs,
    seed_for_unit,
    shutdown_pools,
)
