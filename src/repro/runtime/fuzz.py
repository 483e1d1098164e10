"""Seed-sharded fuzz campaigns: ``mlt-fuzz --jobs N``.

A campaign's seed range is a list of independent work units — seed
``i`` deterministically generates its own kernels and input buffers
(see :func:`repro.runtime.pool.seed_for_unit`), so units can run on
any worker in any order.  Results are merged back **in seed order**,
which makes a parallel campaign's per-seed verdicts, failure ordering,
and ``fuzz-failures/`` artifacts byte-identical to a serial run's.

Workers build their own :class:`~repro.fuzzing.campaign.FuzzCampaign`
from a plain config dict (the campaign object itself holds unpicklable
pass factories) — once per worker process, via the pool initializer.
"""

from __future__ import annotations

import json
import os
import time
from typing import List, Optional, Tuple

from .pool import parallel_map, resolve_jobs, seed_for_unit

#: Per-worker campaign, installed by :func:`_init_worker`.
_WORKER_CAMPAIGN = None

#: Seeds dispatched per pool wave, as a multiple of the worker count.
#: Waves give the driver a chance to enforce ``--time-limit`` between
#: batches without sacrificing in-order merging inside a batch.
WAVE_FACTOR = 4


def _init_worker(config: dict) -> None:
    global _WORKER_CAMPAIGN
    from ..fuzzing import FuzzCampaign

    _WORKER_CAMPAIGN = FuzzCampaign(**config)


def _run_unit(seed: int) -> Tuple[int, int, int, list, dict, dict]:
    """Run one seed on this worker's campaign.

    Returns ``(seed, checks, stages_checked, failures, bail_none,
    bail_full)`` — all plain picklable data (failure reports are
    string/int dataclasses, bail taxonomies are str->int dicts).
    """
    from ..fuzzing.campaign import CampaignStats

    local = CampaignStats()
    failures = _WORKER_CAMPAIGN.run_seed(seed, local)
    return (
        seed,
        local.checks,
        local.stages_checked,
        failures,
        local.bail_none,
        local.bail_full,
    )


def run_campaign_parallel(
    config: dict,
    num_seeds: int,
    start_seed: int = 0,
    jobs: int = 1,
    time_limit: Optional[float] = None,
):
    """Parallel counterpart of ``FuzzCampaign.run``.

    ``config`` is the keyword dict a worker passes to
    ``FuzzCampaign(...)``.  Failures come back merged in ascending
    seed order; stats are summed across workers.
    """
    from ..fuzzing.campaign import CampaignStats

    jobs = resolve_jobs(jobs)
    stats = CampaignStats()
    started = time.perf_counter()
    seeds: List[int] = [
        seed_for_unit(start_seed, index) for index in range(num_seeds)
    ]
    wave = max(jobs * WAVE_FACTOR, 1)
    for offset in range(0, len(seeds), wave):
        if (
            time_limit is not None
            and time.perf_counter() - started > time_limit
        ):
            stats.hit_time_limit = True
            break
        batch = seeds[offset : offset + wave]
        results = parallel_map(
            _run_unit,
            batch,
            jobs=jobs,
            initializer=_init_worker,
            initargs=(config,),
        )
        for seed, checks, stages_checked, failures, bail_none, bail_full in (
            results
        ):
            stats.seeds_run += 1
            stats.checks += checks
            stats.stages_checked += stages_checked
            stats.failures.extend(failures)
            stats.merge_bails({"opt=none": bail_none, "opt=full": bail_full})
    stats.elapsed = time.perf_counter() - started
    return stats


def write_campaign_metadata(
    out_dir: str,
    jobs: int,
    num_seeds: int,
    start_seed: int,
    stats,
) -> Optional[str]:
    """Record campaign-level metadata in ``fuzz-failures/campaign.json``.

    Written only when at least one failure was dumped, so green runs
    leave no trace (the near-miss corpus export creates ``out_dir`` on
    every run, so its existence says nothing); the per-seed artifact
    directories themselves stay byte-identical across ``--jobs`` values
    — invocation-specific facts (worker count, wall clock) live here
    and only here.
    """
    dumped = [
        os.path.basename(f.artifact_dir)
        for f in stats.failures
        if f.artifact_dir
    ]
    if not dumped:
        return None
    payload = {
        "jobs": jobs,
        "start_seed": start_seed,
        "num_seeds": num_seeds,
        "seeds_run": stats.seeds_run,
        "checks": stats.checks,
        "stages_checked": stats.stages_checked,
        "elapsed_s": stats.elapsed,
        "hit_time_limit": stats.hit_time_limit,
        "failures": dumped,
    }
    path = os.path.join(out_dir, "campaign.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return path
