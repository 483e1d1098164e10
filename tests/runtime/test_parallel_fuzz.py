"""Parallel fuzz campaigns must be byte-identical to serial ones.

Failures are planted deterministically by monkeypatching the
raise-expectation predicate at class level — ``fork`` workers inherit
the patched class, so serial and parallel runs see the same (broken)
tactic and must report the same failures with the same artifacts.
"""

import multiprocessing
import os

import pytest

from repro.fuzzing import FuzzCampaign
from repro.runtime.fuzz import (
    run_campaign_parallel,
    write_campaign_metadata,
)
from repro.runtime.pool import fresh_pools

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

#: Cheapest meaningful campaign: one pipeline, no builder modules, and
#: a non-default check selection (no engine, no driver) that every
#: worker has to rebuild from the config dict.
FAST_CHECKS = {
    "pipelines": ["mlt-linalg"],
    "check_modules": False,
    "checks": ["vectorize", "opt", "schedule", "incremental", "synth"],
}


def _campaign_config(out_dir, write_artifacts=True):
    config = dict(FAST_CHECKS)
    config["out_dir"] = str(out_dir)
    config["write_artifacts"] = write_artifacts
    return config


def _tree_bytes(root):
    """{relative path: bytes} for every file under ``root``."""
    snapshot = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            full = os.path.join(dirpath, name)
            with open(full, "rb") as handle:
                snapshot[os.path.relpath(full, root)] = handle.read()
    return snapshot


class TestSerialParallelEquivalence:
    def test_green_campaign_stats_match(self, tmp_path):
        config = _campaign_config(tmp_path / "s", write_artifacts=False)
        serial = run_campaign_parallel(config, num_seeds=4, jobs=1)
        if not HAVE_FORK:
            pytest.skip("requires fork start method")
        parallel = run_campaign_parallel(config, num_seeds=4, jobs=2)
        assert serial.seeds_run == parallel.seeds_run == 4
        # raise + synth expectation, one staged oracle, one
        # incremental-diff per seed: the workers honoured ``checks``.
        assert serial.checks == parallel.checks == 4 * 4
        assert serial.stages_checked == parallel.stages_checked
        assert [f.seed for f in serial.failures] == [
            f.seed for f in parallel.failures
        ]

    @pytest.mark.skipif(not HAVE_FORK, reason="requires fork start method")
    def test_planted_failures_produce_identical_artifacts(
        self, tmp_path, monkeypatch
    ):
        # Break the raising tactic for every worker: positive kernels
        # now all fail their raise expectation.
        monkeypatch.setattr(
            FuzzCampaign,
            "_raises_to_named_op",
            staticmethod(lambda source: False),
        )
        serial_dir = tmp_path / "serial" / "fuzz-failures"
        parallel_dir = tmp_path / "parallel" / "fuzz-failures"

        serial = run_campaign_parallel(
            _campaign_config(serial_dir), num_seeds=6, jobs=1
        )
        # Persistent workers snapshot the parent at fork time: fork
        # fresh ones so they observe the monkeypatched tactic, and tear
        # them down after so the broken tactic never leaks into pools
        # used by later tests.
        with fresh_pools():
            parallel = run_campaign_parallel(
                _campaign_config(parallel_dir), num_seeds=6, jobs=2
            )

        assert len(serial.failures) > 0
        assert [f.seed for f in serial.failures] == [
            f.seed for f in parallel.failures
        ]
        # The artifact trees — kernel sources, reduced cases, failure
        # reports — must be byte-identical across --jobs values.
        assert _tree_bytes(serial_dir) == _tree_bytes(parallel_dir)

    def test_seed_offset_respected(self, tmp_path):
        config = _campaign_config(tmp_path, write_artifacts=False)
        stats = run_campaign_parallel(
            config, num_seeds=2, start_seed=7, jobs=1
        )
        assert stats.seeds_run == 2


class TestCampaignMetadata:
    def test_no_artifact_dir_means_no_metadata(self, tmp_path):
        config = _campaign_config(tmp_path / "none", write_artifacts=False)
        stats = run_campaign_parallel(config, num_seeds=1, jobs=1)
        path = write_campaign_metadata(
            str(tmp_path / "none"), jobs=1, num_seeds=1, start_seed=0,
            stats=stats,
        )
        assert path is None
        # The near-miss corpus export creates out_dir on every default
        # run; a directory is not a failure, so still no metadata.
        out_dir = tmp_path / "fuzz-failures"
        stats = run_campaign_parallel(
            _campaign_config(out_dir), num_seeds=8, jobs=1
        )
        assert stats.ok
        assert os.path.isdir(out_dir / "near-miss")
        path = write_campaign_metadata(
            str(out_dir), jobs=1, num_seeds=8, start_seed=0, stats=stats
        )
        assert path is None
        assert os.listdir(out_dir) == ["near-miss"]

    def test_metadata_records_invocation_facts(self, tmp_path, monkeypatch):
        import json

        monkeypatch.setattr(
            FuzzCampaign,
            "_raises_to_named_op",
            staticmethod(lambda source: False),
        )
        out_dir = tmp_path / "fuzz-failures"
        stats = run_campaign_parallel(
            _campaign_config(out_dir), num_seeds=3, jobs=1
        )
        assert len(stats.failures) > 0
        path = write_campaign_metadata(
            str(out_dir), jobs=2, num_seeds=3, start_seed=0, stats=stats
        )
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["jobs"] == 2
        assert payload["seeds_run"] == 3
        assert payload["failures"] == [
            os.path.basename(f.artifact_dir) for f in stats.failures
        ]
        # Per-seed artifact directories hold nothing invocation-specific:
        # the worker count lives only in campaign.json.
        for name in payload["failures"]:
            for artifact in os.listdir(out_dir / name):
                with open(out_dir / name / artifact, "rb") as handle:
                    assert b'"jobs"' not in handle.read()
