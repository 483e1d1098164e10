"""Campaign metadata for ``mlt-fuzz``.

The per-seed artifact directories a campaign writes are the same for
every ``--jobs`` value (:meth:`repro.fuzzing.FuzzCampaign.run` merges
seeds in order); the invocation-specific facts go to one file beside
them, written here.
"""

from __future__ import annotations

import json
import os
from typing import Optional


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
