"""Cache counters must count exactly under concurrent engine use.

Before the serving front-end, caches were only touched from one thread
and the bare ``stats.hits += 1`` increments could never race.  The
server's executor threads and the pool bridge now bump the same
counters concurrently, so every cache's counter block is a
:class:`repro.telemetry.Counters` that bumps under a lock — these tests
hammer one block from many threads and assert the *exact* totals,
which lost increments would shave.
"""

import sys
import threading

import pytest

from repro.execution.engine.cache import KernelCache
from repro.execution.engine.disk_cache import DiskKernelCache
from repro.ir.pass_cache import PassResultCache
from repro.telemetry import Counters


class FakeKernel:
    def __init__(self, source="x = 1\n"):
        self.source = source
        self.functions = {}


def _hammer(threads, target):
    workers = [threading.Thread(target=target, args=(i,)) for i in range(threads)]
    for t in workers:
        t.start()
    for t in workers:
        t.join()


#: Every cache's counter block, with one counter beyond hits/misses.
CACHES = {
    "kernel": (lambda tmp: KernelCache().stats, "codegen_count"),
    "disk": (lambda tmp: DiskKernelCache(str(tmp)).stats, "bytes_read"),
    "pass": (lambda tmp: PassResultCache().stats, "executions"),
}


class TestCacheStatsBump:
    THREADS = 8
    OPS = 2_000

    @pytest.mark.parametrize("cache", sorted(CACHES))
    def test_concurrent_bumps_are_exact(self, cache, tmp_path):
        make, extra = CACHES[cache]
        stats = make(tmp_path)

        def spin(_):
            for _ in range(self.OPS):
                stats.bump(hits=1, **{extra: 3})
                stats.bump(misses=1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [
                threading.Thread(target=spin, args=(i,))
                for i in range(self.THREADS)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        snap = stats.snapshot()
        assert snap["hits"] == self.THREADS * self.OPS
        assert snap["misses"] == self.THREADS * self.OPS
        assert snap[extra] == 3 * self.THREADS * self.OPS

    def test_negative_deltas(self):
        stats = Counters("hits")
        stats.bump(hits=5)
        stats.bump(hits=-2)
        assert stats.hits == 3

    def test_snapshot_is_consistent_under_writers(self):
        stats = Counters("hits", "misses")
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                # hits and misses move in lockstep: every consistent
                # snapshot must observe them equal.
                stats.bump(hits=1, misses=1)

        w = threading.Thread(target=writer)
        w.start()
        try:
            for _ in range(500):
                snap = stats.snapshot()
                assert snap["hits"] == snap["misses"]
        finally:
            stop.set()
            w.join()


class TestKernelCacheThreaded:
    THREADS = 8
    OPS = 400

    def test_hit_counts_exact_on_prepopulated_keys(self):
        cache = KernelCache(max_entries=64)
        keys = [f"key-{i}" for i in range(8)]
        kernel = FakeKernel(source="abc")
        for key in keys:
            cache.put(key, kernel)

        def spin(tid):
            for i in range(self.OPS):
                got = cache.get_or_compile_key(
                    keys[(tid + i) % len(keys)],
                    lambda k: (_ for _ in ()).throw(
                        AssertionError("prepopulated key missed")
                    ),
                )
                assert got is kernel

        _hammer(self.THREADS, spin)
        snap = cache.stats.snapshot()
        total = self.THREADS * self.OPS
        assert snap["hits"] == total
        assert snap["misses"] == 0
        assert snap["codegen_count"] == 0
        assert snap["bytes_read"] == len("abc") * total

    def test_concurrent_puts_keep_lru_invariants(self):
        cache = KernelCache(max_entries=16)

        def spin(tid):
            for i in range(self.OPS):
                cache.put(f"k-{tid}-{i}", FakeKernel())

        _hammer(self.THREADS, spin)
        inserted = self.THREADS * self.OPS
        assert len(cache) == 16
        assert cache.stats.snapshot()["evictions"] == inserted - 16

    def test_distinct_key_compiles_count_exactly(self):
        cache = KernelCache(max_entries=4 * self.THREADS * self.OPS)

        def spin(tid):
            for i in range(self.OPS):
                cache.get_or_compile_key(
                    f"k-{tid}-{i}", lambda k: FakeKernel()
                )

        _hammer(self.THREADS, spin)
        snap = cache.stats.snapshot()
        total = self.THREADS * self.OPS
        assert snap["misses"] == total
        assert snap["codegen_count"] == total
        assert snap["hits"] == 0


class TestDiskCacheThreaded:
    THREADS = 6
    OPS = 40

    def test_text_tier_counts_exactly(self, tmp_path):
        disk = DiskKernelCache(str(tmp_path / "cache"))
        disk.store_text("warm", "payload")

        def spin(tid):
            for i in range(self.OPS):
                assert disk.load_text("warm") == "payload"
                assert disk.load_text(f"absent-{tid}-{i}") is None

        _hammer(self.THREADS, spin)
        snap = disk.stats.snapshot()
        total = self.THREADS * self.OPS
        assert snap["hits"] == total
        assert snap["misses"] == total

    def test_one_bounded_store_shared_by_writer_threads(self, tmp_path):
        """A tenant's store is one handle written by several executor
        threads: the written-since-scan tally is shared, and a lost
        update would let the directory outgrow its bound unnoticed."""
        import sys

        from repro.execution.engine.disk_cache import SCAN_HEADROOM_SHARE

        probe = DiskKernelCache(str(tmp_path / "probe"))
        probe.store_text("0" * 64, "x" * 100)
        size = probe.total_bytes()
        max_bytes = 50 * size
        disk = DiskKernelCache(str(tmp_path / "cache"), max_bytes)
        # Between two scans the handle publishes at most an eighth of
        # its headroom, plus the puts already past the tally check.
        bound = (
            max_bytes
            + max_bytes // SCAN_HEADROOM_SHARE
            + self.THREADS * (size + 8)
        )
        over = []

        def spin(tid):
            for i in range(self.OPS):
                disk.store_text(f"{tid:032x}{i:032x}", "x" * 100)
                total = disk.total_bytes()
                if total > bound:
                    over.append(total)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [
                threading.Thread(target=spin, args=(tid,))
                for tid in range(self.THREADS)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert not over
        snap = disk.stats.snapshot()
        assert snap["evictions"] > 0
        assert snap["write_errors"] == 0
        assert snap["bytes_written"] >= self.THREADS * self.OPS * (size - 8)
