"""Autotuner driver: search, persistence, warm replay."""

import json
import os

import pytest

import repro.scheduling.autotune as autotune_module
from repro.runtime.pool import fresh_pools
from repro.scheduling.autotune import (
    DEFAULT_TUNE_KERNELS,
    autotune,
    autotune_kernel,
    default_params,
    enumerate_space,
)
from repro.store import ArtifactStore, schedule_key


def test_space_enumerates_default_point_first():
    points = enumerate_space()
    assert points[0] == default_params()
    # no duplicates: a wasted evaluation is a wasted budget slot
    seen = [json.dumps(p, sort_keys=True) for p in points]
    assert len(seen) == len(set(seen))


def test_tune_cold_then_warm_replay(tmp_path):
    cache_dir = str(tmp_path / "tune")
    cold = autotune_kernel(
        "atax", budget=3, jobs=1, repeats=1, cache_dir=cache_dir
    )
    assert cold["cached"] is False
    assert cold["evaluations"] == 3
    # default point is in-budget, so tuned can never lose
    assert cold["tuned_wall_s"] <= cold["default_wall_s"]
    assert os.path.isdir(os.path.join(cache_dir, "schedules"))

    warm = autotune_kernel(
        "atax", budget=3, jobs=1, repeats=1, cache_dir=cache_dir
    )
    assert warm["cached"] is True
    assert warm["evaluations"] == 0
    assert warm["best_params"] == cold["best_params"]
    # warm speedup is the persisted search-time measurement pair
    assert warm["speedup"] == pytest.approx(cold["speedup"])
    assert warm["replay_wall_s"] > 0


def test_schedule_cache_rejects_garbage(tmp_path):
    store = ArtifactStore(str(tmp_path))
    store.schedules.store_text(schedule_key("fp"), "not json")
    assert store.load_schedule("fp") is None


def test_autotune_summary_shape(tmp_path):
    results = autotune(
        kernels=("atax",),
        budget=2,
        jobs=1,
        repeats=1,
        cache_dir=str(tmp_path / "tune"),
    )
    assert [row["kernel"] for row in results["rows"]] == ["atax"]
    summary = results["summary"]
    assert summary["evaluations"] == 2
    assert summary["best_speedup"] >= 1.0
    assert set(DEFAULT_TUNE_KERNELS) >= {"gemm", "atax"}


# ----------------------------------------------------------------------
# Content-addressed search: one compile + one measurement per distinct
# post-schedule kernel, exact ties, default point wins them.
# ----------------------------------------------------------------------


@pytest.fixture
def merged(monkeypatch):
    """The per-candidate rows of every search run in the test, as
    ``_merge_by_kernel`` left them (one list per search)."""
    searches = []
    real = autotune_module._merge_by_kernel

    def recording(results):
        distinct = real(results)
        searches.append(results)
        return distinct

    monkeypatch.setattr(autotune_module, "_merge_by_kernel", recording)
    return searches


def _partition(candidates):
    """Candidate indices grouped by kernel, as a canonical set."""
    groups = {}
    for candidate in candidates:
        groups.setdefault(candidate["kernel_key"], []).append(
            candidate["index"]
        )
    return sorted(groups.values())


def test_degenerate_space_is_one_kernel_and_default_wins():
    # mlt-linalg lowers gemm to a form no schedule step transforms:
    # all 24 parameter points leave the same payload behind.
    row = autotune_kernel("gemm", budget=24, repeats=1)
    assert row["evaluations"] == 24
    assert row["distinct_kernels"] == 1
    assert row["best_params"] == default_params()
    assert row["speedup"] == 1.0
    assert autotune_module.vacuous_search_note(row).startswith(
        "24 candidates, 1 distinct kernel"
    )


def test_duplicate_candidates_share_one_measurement(merged):
    row = autotune_kernel("2mm", budget=24, repeats=1, pipeline="baseline")
    assert 1 < row["distinct_kernels"] < row["evaluations"]
    assert autotune_module.vacuous_search_note(row) is None
    measurements = {}
    for candidate in merged[0]:
        measurements.setdefault(candidate["kernel_key"], set()).add(
            (candidate["wall_time_s"], candidate["checksum"])
        )
    assert len(measurements) == row["distinct_kernels"]
    assert all(len(pairs) == 1 for pairs in measurements.values())


def test_jobs_do_not_change_partition_or_winner(monkeypatch, merged):
    # Two separately timed searches can crown different winners, so the
    # clock is replaced by a wall derived from the kernel key (the
    # checksum stays real).  The pools are forked after the patch, so
    # the workers time kernels with it too.
    import hashlib

    real = autotune_module._time_kernel

    def wall_of(kernel_key):
        digest = hashlib.sha256(kernel_key.encode()).hexdigest()
        return 1e-3 + int(digest[:8], 16) * 1e-12

    def keyed(engine, func_name, repeats, seed):
        _, checksum = real(engine, func_name, repeats, seed)
        return wall_of(engine.compiled.key), checksum

    monkeypatch.setattr(autotune_module, "_time_kernel", keyed)
    with fresh_pools():
        serial = autotune_kernel(
            "2mm", budget=24, repeats=1, pipeline="baseline", jobs=1
        )
        sharded = autotune_kernel(
            "2mm", budget=24, repeats=1, pipeline="baseline", jobs=2
        )
    assert _partition(merged[0]) == _partition(merged[1])
    assert serial["distinct_kernels"] == sharded["distinct_kernels"]
    assert serial["best_params"] == sharded["best_params"]
    # across shards the lowest-index row of a kernel is its measurement,
    # and every worker timed with the stub
    for candidates in merged:
        by_key = {}
        for candidate in candidates:
            first = by_key.setdefault(candidate["kernel_key"], candidate)
            assert candidate["wall_time_s"] == first["wall_time_s"]
            assert candidate["wall_time_s"] == wall_of(candidate["kernel_key"])


def test_checksum_mismatch_still_rejected(monkeypatch, merged):
    real = autotune_module._time_kernel
    calls = []

    def corrupting(engine, func_name, repeats, seed):
        wall, digest = real(engine, func_name, repeats, seed)
        calls.append(engine.compiled.key)
        if len(calls) > 1:  # every kernel but the default row's
            return 0.0, digest + 1e6  # "fastest", but wrong
        return wall, digest

    monkeypatch.setattr(autotune_module, "_time_kernel", corrupting)
    row = autotune_kernel("2mm", budget=24, repeats=1, pipeline="baseline")
    assert len(calls) == row["distinct_kernels"] > 1
    default_key = merged[0][0]["kernel_key"]
    wrong = sum(1 for c in merged[0] if c["kernel_key"] != default_key)
    assert row["rejected_candidates"] == wrong > 0
    assert row["best_params"] == default_params()


def test_a_repeat_candidate_touches_no_ir(monkeypatch, merged):
    # Under the unraised pipeline 2mm has several kernels; a candidate
    # is built (one payload clone) only when a step missed the pass
    # cache or its outcome is new, and compiled only when its outcome is
    # new.  Every other candidate is answered from its outcome's key.
    from repro.execution.engine.engine import ExecutionEngine
    from repro.ir import ModuleOp

    clones, engines = [], []
    real_clone, real_init = ModuleOp.clone, ExecutionEngine.__init__

    def counting_clone(self, *args, **kwargs):
        clones.append(self)
        return real_clone(self, *args, **kwargs)

    def counting_init(self, *args, **kwargs):
        engines.append(args[0])
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(ModuleOp, "clone", counting_clone)
    monkeypatch.setattr(ExecutionEngine, "__init__", counting_init)
    row = autotune_kernel("2mm", budget=24, repeats=1, pipeline="baseline")
    (candidates,) = merged
    missed = [c for c in candidates if c["pass_cache"].get("misses")]
    assert row["distinct_kernels"] > 1
    assert len(engines) == row["distinct_kernels"]
    assert len(missed) <= len(clones) < row["evaluations"]


def test_no_memo_survives_a_search(monkeypatch):
    import repro.execution.engine.engine as engine_module

    compiles = []
    real = engine_module.compile_module

    def counting(module, key="", **kwargs):
        compiles.append(key)
        return real(module, key, **kwargs)

    monkeypatch.setattr(engine_module, "compile_module", counting)
    first = autotune_kernel("gemm", budget=6, repeats=1, cache_dir=None)
    after_first = list(compiles)
    second = autotune_kernel("gemm", budget=6, repeats=1, cache_dir=None)
    # one compile per distinct kernel, per search: the second search is
    # as cold as the first
    assert len(after_first) == first["distinct_kernels"]
    assert compiles[len(after_first):] == after_first
    assert second["distinct_kernels"] == first["distinct_kernels"]
    assert autotune_module._WORKER_STATE is None
