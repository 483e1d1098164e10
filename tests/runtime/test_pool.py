"""Tests for the deterministic parallel-map driver."""

import multiprocessing
import os

import pytest

from repro.runtime import parallel_map, resolve_jobs, seed_for_unit

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

_INIT_VALUE = None


def _square(x):
    return x * x


def _tag_with_init(x):
    return (x, _INIT_VALUE)


def _set_init(value):
    global _INIT_VALUE
    _INIT_VALUE = value


def _pid_of(_):
    return os.getpid()


class TestSerialPath:
    def test_jobs_one_is_inline(self):
        # The serial path runs in-process: the unit function sees the
        # calling process's globals and no child is ever forked.
        assert parallel_map(_pid_of, [0, 1], jobs=1) == [
            os.getpid(),
            os.getpid(),
        ]

    def test_initializer_runs_inline(self):
        global _INIT_VALUE
        _INIT_VALUE = None
        out = parallel_map(
            _tag_with_init,
            [1, 2],
            jobs=1,
            initializer=_set_init,
            initargs=("marker",),
        )
        assert out == [(1, "marker"), (2, "marker")]

    def test_jobs_clamped_to_item_count(self):
        # One item never builds a pool, whatever --jobs says.
        assert parallel_map(_pid_of, [0], jobs=8) == [os.getpid()]

    def test_empty_input(self):
        assert parallel_map(_square, [], jobs=4) == []


@pytest.mark.skipif(not HAVE_FORK, reason="requires fork start method")
class TestParallelPath:
    def test_results_in_input_order(self):
        items = list(range(20))
        assert parallel_map(_square, items, jobs=2) == [
            x * x for x in items
        ]

    def test_initializer_reaches_workers(self):
        out = parallel_map(
            _tag_with_init,
            [1, 2, 3, 4],
            jobs=2,
            initializer=_set_init,
            initargs=("worker",),
        )
        assert out == [(x, "worker") for x in (1, 2, 3, 4)]

    def test_serial_and_parallel_agree(self):
        items = list(range(9))
        assert parallel_map(_square, items, jobs=1) == parallel_map(
            _square, items, jobs=3
        )


class TestHelpers:
    def test_resolve_jobs(self):
        assert resolve_jobs(5) == 5
        assert resolve_jobs(1) == 1
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) == resolve_jobs(None)
        assert resolve_jobs(-1) == resolve_jobs(None)

    def test_seed_for_unit_is_stable_and_disjoint(self):
        seeds = [seed_for_unit(100, i) for i in range(10)]
        assert seeds == list(range(100, 110))
        # Same (campaign, index) always maps to the same seed — the
        # property that lets --jobs N replay serial failures.
        assert seed_for_unit(100, 3) == seeds[3]


def _crash_on_negative(x):
    if x < 0:
        os._exit(3)
    return x * x


def _raise_on_seven(x):
    if x == 7:
        raise ValueError("seven is right out")
    return x


@pytest.mark.skipif(not HAVE_FORK, reason="requires fork start method")
class TestPersistentPool:
    """The pool forks once and survives across map calls."""

    def test_workers_persist_across_maps(self):
        from repro.runtime.pool import PersistentPool

        pool = PersistentPool(2)
        try:
            for _ in range(4):
                assert pool.map(_square, list(range(12))) == [
                    x * x for x in range(12)
                ]
            stats = pool.stats
            assert stats["maps"] == 4
            assert stats["respawns"] == 0
            assert pool.alive_workers() == 2
        finally:
            pool.shutdown()

    def test_order_preserved_with_tiny_batches(self):
        from repro.runtime.pool import PersistentPool

        pool = PersistentPool(2)
        try:
            items = list(range(37))
            assert (
                pool.map(_square, items, batch_size=1)
                == [x * x for x in items]
            )
        finally:
            pool.shutdown()

    def test_worker_exception_propagates(self):
        from repro.runtime.pool import PersistentPool

        pool = PersistentPool(2)
        try:
            with pytest.raises(ValueError, match="seven"):
                pool.map(_raise_on_seven, list(range(10)))
            # The pool stays usable after a unit-level error.
            assert pool.map(_square, [3]) == [9]
        finally:
            pool.shutdown()

    def test_worker_crash_raises_and_respawns(self):
        from repro.runtime.pool import PersistentPool, WorkerCrashError

        pool = PersistentPool(2)
        try:
            with pytest.raises(WorkerCrashError) as excinfo:
                pool.map(_crash_on_negative, [1, 2, -1, 4])
            assert -1 in list(excinfo.value.items)
            # Crash containment: the pool respawned the dead worker
            # and later calls succeed instead of hanging.
            assert pool.map(_square, list(range(6))) == [
                x * x for x in range(6)
            ]
            assert pool.stats["respawns"] >= 1
        finally:
            pool.shutdown()

    def test_initializer_reapplied_per_generation(self):
        from repro.runtime.pool import PersistentPool

        pool = PersistentPool(2)
        try:
            first = pool.map(
                _tag_with_init,
                [1, 2, 3, 4],
                initializer=_set_init,
                initargs=("gen-one",),
            )
            second = pool.map(
                _tag_with_init,
                [1, 2, 3, 4],
                initializer=_set_init,
                initargs=("gen-two",),
            )
            assert [tag for _, tag in first] == ["gen-one"] * 4
            assert [tag for _, tag in second] == ["gen-two"] * 4
        finally:
            pool.shutdown()


@pytest.mark.skipif(not HAVE_FORK, reason="requires fork start method")
class TestSerialPoolDeterminism:
    """Serial and persistent-pool runs must be byte-identical."""

    def test_corpus_checksums_identical(self, tmp_path):
        from benchmarks.harness import run_corpus, write_corpus
        from repro.runtime.pool import fresh_pools

        inputs = write_corpus(
            ["gemm", "atax", "bicg", "mvt"], str(tmp_path / "inputs")
        )

        def outputs(jobs, tag, cache="cache"):
            # (kernel, pipeline) -> (--out-dir text, kernels/ source)
            return run_corpus(
                inputs,
                ("baseline", "mlt-blas"),
                jobs,
                str(tmp_path / cache),
                str(tmp_path / tag),
            )["outputs"]

        serial = outputs(1, "serial", cache="serial-cache")
        with fresh_pools():
            pooled = outputs(2, "pooled")
            pooled_again = outputs(2, "pooled-warm")
        assert pooled == serial
        # Warm pooled rerun (same pool, disk cache warm) stays
        # byte-identical too: cache replay is not a second codegen.
        assert pooled_again == serial


class TestTenantIsolation:
    """Two servers on one cache dir, different tenants: namespaces
    never cross-serve kernels (the serving layer's isolation claim)."""

    def test_servers_with_distinct_tenants_never_cross_serve(
        self, tmp_path
    ):
        import asyncio

        from repro.serving import (
            CompileServer,
            ServeClient,
            ServerConfig,
            reset_serving_state,
            tenant_dir,
        )

        cache_root = str(tmp_path / "shared-cache")

        async def scenario():
            server_a = CompileServer(ServerConfig(cache_dir=cache_root))
            server_b = CompileServer(ServerConfig(cache_dir=cache_root))
            await server_a.start_tcp()
            await server_b.start_tcp()
            client_a = await ServeClient.connect_tcp(
                "127.0.0.1", server_a.port()
            )
            client_b = await ServeClient.connect_tcp(
                "127.0.0.1", server_b.port()
            )
            request = {"kernel": "atax", "pipeline": "baseline"}
            first = client_a.check(
                await client_a.compile(tenant="alpha", **request)
            )
            # Same kernel through the second server: its tenant must
            # codegen for itself — a cross-tenant cache hit here would
            # mean one tenant observes another's artifacts.
            second = client_b.check(
                await client_b.compile(tenant="beta", **request)
            )
            await client_a.close()
            await client_b.close()
            await server_a.shutdown()
            await server_b.shutdown()
            return first, second

        try:
            first, second = asyncio.run(scenario())
        finally:
            reset_serving_state()
        assert first["cached"] == "codegen"
        assert second["cached"] == "codegen"
        # Identical content produces identical keys — isolation comes
        # from the namespace, not from key divergence.
        assert first["key"] == second["key"]
        alpha_dir = tenant_dir(cache_root, "alpha")
        beta_dir = tenant_dir(cache_root, "beta")
        for base in (alpha_dir, beta_dir):
            kernels = os.path.join(base, "kernels")
            assert os.path.isdir(kernels), f"missing namespace {kernels}"
            assert any(
                name.endswith(".artifact.json")
                for name in os.listdir(kernels)
            )
