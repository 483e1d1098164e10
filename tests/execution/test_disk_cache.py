"""Tests for the persistent cache tier and the tiered KernelCache.

Covers the disk artifact format (atomic writes, corrupt-file handling,
size-bounded pruning, sealed envelopes and the bytecode tier), the
memory tier's LRU discipline and traffic
stats, fingerprint memoization, and — the critical property for the
parallel driver — many processes racing ``get_or_compile`` on the same
key without corruption.
"""

import base64
import errno
import json
import multiprocessing
import os
import time

import pytest

from repro.execution import ExecutionEngine, KernelCache
from repro.execution.engine import compile_module, fingerprint_module
from repro.execution.engine.disk_cache import (
    ARTIFACT_SUFFIX,
    BYTECODE_MAGIC,
    LOW_WATER_FRACTION,
    SCAN_HEADROOM_SHARE,
    STALE_TEMP_SECONDS,
    DiskKernelCache,
)
from repro.fuzzing.oracle import make_args, module_arg_shapes
from repro.met import compile_c
from repro.store import ArtifactStore, CompileConfig

GEMM = """
void gemm(float A[8][6], float B[6][7], float C[8][7]) {
  for (int i = 0; i < 8; i++)
    for (int j = 0; j < 7; j++)
      for (int k = 0; k < 6; k++)
        C[i][j] += A[i][k] * B[k][j];
}
"""

STENCIL = """
void stencil(float A[10], float B[10]) {
  for (int i = 1; i < 9; i++)
    B[i] = A[i - 1] + A[i] + A[i + 1];
}
"""

SAXPY = """
void saxpy(float x[16], float y[16]) {
  for (int i = 0; i < 16; i++)
    y[i] = y[i] + 2.0f * x[i];
}
"""


def _compiled_gemm():
    module = compile_c(GEMM)
    key = CompileConfig(label="p").kernel_key(fingerprint_module(module))
    return key, compile_module(module, key)


class TestDiskRoundTrip:
    def test_store_load_roundtrip(self, tmp_path):
        disk = DiskKernelCache(str(tmp_path))
        key, compiled = _compiled_gemm()
        disk.store(key, compiled)
        loaded = disk.load(key)
        assert loaded is not None
        assert loaded.source == compiled.source
        assert set(loaded.functions) == set(compiled.functions)

    def test_loaded_kernel_is_runnable(self, tmp_path):
        import numpy as np

        disk = DiskKernelCache(str(tmp_path))
        key, compiled = _compiled_gemm()
        disk.store(key, compiled)
        loaded = disk.load(key)
        a = np.ones((8, 6), dtype=np.float32)
        b = np.ones((6, 7), dtype=np.float32)
        c = np.zeros((8, 7), dtype=np.float32)
        loaded.functions["gemm"](a, b, c)
        np.testing.assert_allclose(c, 6.0)

    def test_missing_key_is_miss(self, tmp_path):
        disk = DiskKernelCache(str(tmp_path))
        assert disk.load("0" * 64) is None
        assert disk.stats.misses == 1
        assert disk.stats.hits == 0

    def test_text_roundtrip(self, tmp_path):
        disk = DiskKernelCache(str(tmp_path))
        disk.store_text("a" * 64, "module {\n}\n")
        assert disk.load_text("a" * 64) == "module {\n}\n"
        assert disk.load_text("b" * 64) is None

    def test_kernel_and_text_payloads_do_not_cross(self, tmp_path):
        disk = DiskKernelCache(str(tmp_path))
        disk.store_text("c" * 64, "not a kernel")
        assert disk.load("c" * 64) is None

    def test_no_temp_files_left_behind(self, tmp_path):
        disk = DiskKernelCache(str(tmp_path))
        key, compiled = _compiled_gemm()
        for _ in range(5):
            disk.store(key, compiled)
        names = os.listdir(tmp_path)
        assert names == [key + ARTIFACT_SUFFIX]


class TestCorruptArtifacts:
    def test_truncated_artifact_is_miss(self, tmp_path):
        disk = DiskKernelCache(str(tmp_path))
        key, compiled = _compiled_gemm()
        disk.store(key, compiled)
        path = disk.artifact_path(key)
        with open(path, "rb") as handle:
            raw = handle.read()
        with open(path, "wb") as handle:
            handle.write(raw[: len(raw) // 2])
        assert disk.load(key) is None

    def test_wrong_key_in_payload_is_miss(self, tmp_path):
        disk = DiskKernelCache(str(tmp_path))
        key, compiled = _compiled_gemm()
        disk.store(key, compiled)
        other = "f" * 64
        os.rename(disk.artifact_path(key), disk.artifact_path(other))
        assert disk.load(other) is None

    def test_unexecutable_source_is_miss(self, tmp_path):
        disk = DiskKernelCache(str(tmp_path))
        key = "d" * 64
        payload = {
            "key": key,
            "kind": "kernel",
            "source": "def _fn_x(:\n",  # syntax error
            "functions": ["x"],
        }
        disk._write_payload(key, payload)  # sealed, but no bytecode
        assert disk.load(key) is None
        assert disk.stats.hits == 0
        assert disk.stats.misses == 1


class TestBytecodeTier:
    """``kernels/`` artifacts carry the marshalled code object next to
    the source, sealed by the envelope digest: a warm load under the
    same interpreter ``exec``-s it and compiles nothing."""

    @staticmethod
    def _sealed(disk, key, edit):
        """Rewrite the artifact under ``key`` through ``edit`` and seal
        it again, as a writer with different fields would have."""
        with open(disk.artifact_path(key)) as handle:
            payload = json.load(handle)
        edit(payload)
        disk._write_payload(key, payload)

    @pytest.mark.parametrize(
        "pipeline", ["baseline", "mlt-linalg", "mlt-blas"]
    )
    def test_corpus_round_trip_compiles_nothing(self, tmp_path, pipeline):
        import numpy as np

        from repro.evaluation import PAPER_BENCHMARKS, get_kernel
        from repro.evaluation.pipelines import build_module

        writer = DiskKernelCache(str(tmp_path))
        fresh = {}
        for name in sorted(PAPER_BENCHMARKS):
            kernel = get_kernel(name)
            module = build_module(kernel.small(), pipeline)
            key = CompileConfig(label=pipeline).kernel_key(
                fingerprint_module(module)
            )
            compiled = compile_module(module, key)
            fresh[key] = (kernel.func_name, module, compiled)
            writer.store(key, compiled)
        assert len(fresh) == len(PAPER_BENCHMARKS) == 16

        reader = DiskKernelCache(str(tmp_path))
        for key, (func, module, compiled) in fresh.items():
            loaded = reader.load(key)
            assert loaded.source == compiled.source
            assert loaded.code.co_code == compiled.code.co_code
            outputs = []
            for kernel in (compiled, loaded):
                args = make_args(module_arg_shapes(module, func), 3)
                kernel.functions[func](*args)
                outputs.append(args)
            for want, got in zip(*outputs):
                assert np.array_equal(want, got)
        snap = reader.stats.snapshot()
        assert snap["hits"] == 16 and snap["misses"] == 0

    def test_foreign_magic_is_a_miss_and_rewritten(self, tmp_path):
        """Bytecode another interpreter wrote is not ``compile()``-d
        around: one codegen, and the put re-seals it with ours."""
        key, compiled = _compiled_gemm()
        disk = DiskKernelCache(str(tmp_path))
        disk.store(key, compiled)
        self._sealed(disk, key, lambda p: p.update(magic="00000000"))

        cache = KernelCache(disk=DiskKernelCache(str(tmp_path)))
        cache.get_or_compile_key(key, lambda k: compiled)
        assert cache.stats.codegen_count == 1
        assert (cache.disk.stats.hits, cache.disk.stats.misses) == (0, 1)
        with open(disk.artifact_path(key)) as handle:
            assert json.load(handle)["magic"] == BYTECODE_MAGIC
        reader = DiskKernelCache(str(tmp_path))
        assert reader.load(key).source == compiled.source
        assert (reader.stats.hits, reader.stats.misses) == (1, 0)

    def test_artifact_without_digest_is_a_miss_and_rewritten(self, tmp_path):
        key, compiled = _compiled_gemm()
        disk = DiskKernelCache(str(tmp_path))
        disk.store(key, compiled)
        path = disk.artifact_path(key)
        with open(path) as handle:
            payload = json.load(handle)
        del payload["digest"]  # as written before envelopes were sealed
        with open(path, "w") as handle:
            json.dump(payload, handle)

        cache = KernelCache(disk=DiskKernelCache(str(tmp_path)))
        cache.get_or_compile_key(key, lambda k: compiled)
        assert cache.stats.codegen_count == 1
        assert cache.disk.stats.misses == 1
        with open(path) as handle:
            assert "digest" in json.load(handle)
        assert DiskKernelCache(str(tmp_path)).load(key) is not None

    @pytest.mark.parametrize("sealed", [False, True], ids=["torn", "resealed"])
    @pytest.mark.parametrize("damage", ["truncated", "bit-flipped"])
    def test_damaged_bytecode_is_a_miss(self, tmp_path, damage, sealed):
        """Damage the digest catches, and — had a writer sealed the
        damaged bytes — damage that ``marshal`` refuses: either way a
        miss, never an exception.  (A resealed flip is only tried where
        it keeps ``marshal`` from reading a code object at all: the
        type byte.)"""
        key, compiled = _compiled_gemm()
        disk = DiskKernelCache(str(tmp_path))
        disk.store(key, compiled)

        def edit(payload):
            raw = base64.b64decode(payload["bytecode"])
            if damage == "truncated":
                raw = raw[: len(raw) // 2]
            else:
                raw = bytes([raw[0] ^ 0x40]) + raw[1:]
            payload["bytecode"] = base64.b64encode(raw).decode("ascii")

        if sealed:
            self._sealed(disk, key, edit)
        else:
            path = disk.artifact_path(key)
            with open(path) as handle:
                payload = json.load(handle)
            edit(payload)
            with open(path, "w") as handle:
                json.dump(payload, handle)
        reader = DiskKernelCache(str(tmp_path))
        assert reader.load(key) is None
        assert (reader.stats.hits, reader.stats.misses) == (0, 1)


class TestPruning:
    def test_prunes_oldest_to_stay_under_max_bytes(self, tmp_path):
        disk = DiskKernelCache(str(tmp_path))
        disk.store_text("a" * 64, "x" * 100)
        # Bound the cache to one and a half artifacts: a second,
        # same-size write overflows it, and the low-water mark
        # (0.75 * 1.5 = 1.125 artifacts) still has room for the newer
        # one.  The margins absorb the few-byte size jitter from the
        # float repr of the ``created`` timestamp in the artifact JSON.
        disk.max_bytes = disk.total_bytes() * 3 // 2
        os.utime(disk.artifact_path("a" * 64), (1, 1))
        disk.store_text("b" * 64, "y" * 100)
        assert disk.load_text("a" * 64) is None
        assert disk.load_text("b" * 64) == "y" * 100
        assert disk.stats.evictions >= 1

    def test_read_refreshes_recency(self, tmp_path):
        disk = DiskKernelCache(str(tmp_path))
        disk.store_text("a" * 64, "x" * 100)
        disk.store_text("b" * 64, "y" * 100)
        # Room for 2.8 artifacts: the third write overflows, and the
        # low-water mark (0.75 * 2.8 = 2.1 artifacts) is reached by
        # evicting exactly one.
        disk.max_bytes = disk.total_bytes() * 7 // 5
        os.utime(disk.artifact_path("a" * 64), (1, 1))
        os.utime(disk.artifact_path("b" * 64), (2, 2))
        # Touch "a": its mtime refresh must protect it from pruning —
        # FIFO order would keep "b" instead.
        assert disk.load_text("a" * 64) == "x" * 100
        disk.store_text("c" * 64, "z" * 100)
        assert disk.load_text("a" * 64) == "x" * 100
        assert disk.load_text("b" * 64) is None
        assert disk.load_text("c" * 64) == "z" * 100

    def test_total_bytes_counts_artifacts(self, tmp_path):
        disk = DiskKernelCache(str(tmp_path))
        assert disk.total_bytes() == 0
        disk.store_text("a" * 64, "hello")
        assert disk.total_bytes() > 0
        assert len(disk) == 1


def _key(index: int) -> str:
    return f"{index:064x}"


def _count_scans(monkeypatch, path) -> list:
    """Record every ``os.scandir``/``os.listdir`` of ``path`` (the
    store has no scan counter of its own, on purpose)."""
    path = str(path)
    scans = []
    for name in ("scandir", "listdir"):

        def counted(target=".", _real=getattr(os, name)):
            if os.fspath(target) == path:
                scans.append(target)
            return _real(target)

        monkeypatch.setattr(os, name, counted)
    return scans


class TestAmortisedPruning:
    @pytest.fixture
    def size(self, tmp_path_factory):
        """Bytes of one ``store_text(key, "x" * 100)`` artifact (give
        or take the ``created`` float repr)."""
        probe = DiskKernelCache(str(tmp_path_factory.mktemp("probe")))
        probe.store_text(_key(0), "x" * 100)
        return probe.total_bytes()

    def test_under_budget_scans_do_not_grow_with_puts(
        self, tmp_path, monkeypatch
    ):
        counts = []
        for puts in (20, 200):
            root = tmp_path / str(puts)
            disk = DiskKernelCache(str(root))
            scans = _count_scans(monkeypatch, root)
            for index in range(puts):
                disk.store_text(_key(index), "x" * 100)
            counts.append(len(scans))
            assert len(disk) == puts
        assert counts[0] == counts[1] == 1

    def test_two_writers_stay_within_documented_overshoot(
        self, tmp_path, size
    ):
        max_bytes = 40 * size
        writers = [
            DiskKernelCache(str(tmp_path), max_bytes) for _ in range(2)
        ]
        bound = max_bytes + len(writers) * (
            max_bytes // SCAN_HEADROOM_SHARE + size + 8
        )
        for index in range(300):
            writers[index % 2].store_text(_key(index), "x" * 100)
            # Deterministic recency: artifact i has mtime i + 1.
            os.utime(
                writers[0].artifact_path(_key(index)), (index + 1, index + 1)
            )
            assert writers[0].total_bytes() <= bound
        assert all(w.stats.evictions > 0 for w in writers)
        survivors = {
            index
            for index in range(300)
            if os.path.exists(writers[0].artifact_path(_key(index)))
        }
        # mtime order: whatever is left is the newest run of writes.
        assert survivors == set(range(300 - len(survivors), 300))
        assert len(survivors) * size >= LOW_WATER_FRACTION * max_bytes - size

    def test_full_store_does_not_scan_per_put(
        self, tmp_path, monkeypatch, size
    ):
        disk = DiskKernelCache(str(tmp_path), 1000 * size)
        index = 0
        while not disk.stats.evictions:  # fill to the first prune
            disk.store_text(_key(index), "x" * 100)
            index += 1
        assert index >= 990
        scans = _count_scans(monkeypatch, tmp_path)
        puts = 300  # more than the headroom a prune leaves (250)
        for _ in range(puts):
            disk.store_text(_key(index), "x" * 100)
            index += 1
        assert len(scans) * 4 <= puts
        assert disk.total_bytes() <= disk.max_bytes

    def test_lowered_max_bytes_binds_on_the_next_put(
        self, tmp_path, monkeypatch, size
    ):
        disk = DiskKernelCache(str(tmp_path))
        for index in range(10):
            disk.store_text(_key(index), "x" * 100)
            os.utime(disk.artifact_path(_key(index)), (index + 1, index + 1))
        scans = _count_scans(monkeypatch, tmp_path)
        disk.store_text(_key(10), "x" * 100)
        assert not scans  # 256 MiB of headroom: nothing to look for
        disk.max_bytes = 4 * size
        disk.store_text(_key(11), "x" * 100)
        assert len(scans) == 1
        assert disk.total_bytes() <= disk.max_bytes
        assert disk.load_text(_key(11)) == "x" * 100
        assert disk.load_text(_key(0)) is None


class TestOrphanTempFiles:
    def test_scan_reaps_stale_and_counts_fresh(self, tmp_path):
        stale = tmp_path / ".tmp-deadbeefdead-stale"
        fresh = tmp_path / ".tmp-livewriter00-fresh"
        stale.write_bytes(b"s" * 50)
        fresh.write_bytes(b"f" * 70)
        long_ago = time.time() - 2 * STALE_TEMP_SECONDS
        os.utime(stale, (long_ago, long_ago))

        disk = DiskKernelCache(str(tmp_path))
        disk.store_text(_key(1), "x" * 100)  # first put of a handle scans
        assert not stale.exists()
        assert fresh.exists()
        artifact = os.path.getsize(disk.artifact_path(_key(1)))
        assert disk.total_bytes() == artifact + 70
        assert len(disk) == 1


class TestFailedPublish:
    @pytest.fixture
    def full_disk(self, monkeypatch):
        def no_space(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        # The suite runs as root, so permissions cannot make a write
        # fail; the rename is the last step of a publish.
        monkeypatch.setattr(os, "replace", no_space)

    def test_put_is_dropped_counted_and_leaves_no_temp_file(
        self, tmp_path, full_disk
    ):
        disk = DiskKernelCache(str(tmp_path))
        disk.store_text(_key(1), "x" * 100)
        assert os.listdir(tmp_path) == []
        snap = disk.stats.snapshot()
        assert snap["write_errors"] == 1
        assert snap["bytes_written"] == 0
        assert disk.load_text(_key(1)) is None

    def test_caller_proceeds_uncached(self, tmp_path, full_disk):
        cache = KernelCache(disk=DiskKernelCache(str(tmp_path)))
        engine = ExecutionEngine(compile_c(SAXPY), pipeline="p", cache=cache)
        assert engine.source
        assert cache.stats.codegen_count == 1
        assert len(cache) == 1  # the memory tier still has it
        assert cache.disk.stats.write_errors == 1


class TestTieredCache:
    def test_memory_miss_falls_through_to_disk(self, tmp_path):
        first = KernelCache(disk=DiskKernelCache(str(tmp_path)))
        module = compile_c(GEMM)
        ExecutionEngine(module, pipeline="p", cache=first)
        assert first.stats.codegen_count == 1

        # Fresh memory tier, same directory: warm start, zero codegen.
        second = KernelCache(disk=DiskKernelCache(str(tmp_path)))
        ExecutionEngine(compile_c(GEMM), pipeline="p", cache=second)
        assert second.stats.codegen_count == 0
        assert second.disk.stats.hits == 1

    def test_full_miss_populates_both_tiers(self, tmp_path):
        cache = KernelCache(disk=DiskKernelCache(str(tmp_path)))
        module = compile_c(STENCIL)
        ExecutionEngine(module, pipeline="p", cache=cache)
        assert len(cache) == 1
        assert len(cache.disk) == 1
        assert cache.stats.bytes_written > 0
        assert cache.disk.stats.bytes_written > 0

    def test_snapshot_reports_both_tiers(self, tmp_path):
        cache = KernelCache(disk=DiskKernelCache(str(tmp_path)))
        ExecutionEngine(compile_c(GEMM), cache=cache)
        snap = cache.snapshot()
        assert snap["memory"]["codegen_count"] == 1
        assert snap["disk"]["bytes_written"] > 0
        assert set(snap["memory"]) == {
            "hits",
            "misses",
            "codegen_count",
            "evictions",
            "bytes_written",
            "bytes_read",
            "write_errors",
        }

    def test_snapshot_without_disk_tier(self):
        assert KernelCache().snapshot()["disk"] is None

    def test_default_disk_cache_from_env(self, tmp_path, monkeypatch):
        """``MLT_CACHE_DIR`` is a cache *root*: the process-default
        kernel cache is its ``kernels/`` namespace, the directory
        ``mlt-opt --cache-dir`` fills."""
        from repro.execution.engine.cache import _default_cache

        monkeypatch.setenv("MLT_CACHE_DIR", str(tmp_path / "env-cache"))
        disk = _default_cache().disk
        assert disk.path == str(tmp_path / "env-cache" / "kernels")
        assert disk.path == ArtifactStore(
            str(tmp_path / "env-cache")
        ).kernels.disk.path
        monkeypatch.setenv("MLT_CACHE_DIR", "")
        assert _default_cache().disk is None


class TestMemoryLRU:
    def test_get_refreshes_recency_not_fifo(self):
        """FIFO would evict A (oldest insert); LRU must evict B."""
        cache = KernelCache(max_entries=2)
        cache.put("A", object())
        cache.put("B", object())
        assert cache.get("A") is not None  # A is now most recent
        cache.put("C", object())
        assert cache.get("A") is not None
        assert cache.get("B") is None
        assert cache.stats.evictions == 1

    def test_traffic_stats(self):
        cache = KernelCache()
        module = compile_c(SAXPY)
        ExecutionEngine(module, pipeline="p", cache=cache)
        written = cache.stats.bytes_written
        assert written > 0
        assert cache.stats.bytes_read == 0
        ExecutionEngine(module, pipeline="p", cache=cache)
        assert cache.stats.bytes_read == written
        assert cache.stats.bytes_written == written


class TestFingerprintMemo:
    def test_memoized_on_version(self, monkeypatch):
        import repro.execution.engine.cache as cache_mod

        module = compile_c(GEMM)
        module.bump_version()
        calls = []
        real_print = cache_mod.print_module

        def counting_print(m):
            calls.append(m)
            return real_print(m)

        monkeypatch.setattr(cache_mod, "print_module", counting_print)
        first = fingerprint_module(module)
        second = fingerprint_module(module)
        assert first == second
        assert len(calls) == 1

    def test_bump_version_invalidates(self):
        module = compile_c(GEMM)
        module.bump_version()
        first = fingerprint_module(module)
        module.bump_version()
        # Memo discarded: same bytes, same digest, but re-computed.
        assert module._fingerprint_memo[0] == module.version - 1
        assert fingerprint_module(module) == first
        assert module._fingerprint_memo[0] == module.version

    def test_unversioned_module_always_reprints(self, monkeypatch):
        import repro.execution.engine.cache as cache_mod

        module = compile_c(GEMM)
        assert getattr(module, "version", None) is None
        calls = []
        real_print = cache_mod.print_module

        def counting_print(m):
            calls.append(m)
            return real_print(m)

        monkeypatch.setattr(cache_mod, "print_module", counting_print)
        fingerprint_module(module)
        fingerprint_module(module)
        assert len(calls) == 2

    def test_pass_manager_bumps_version(self):
        from repro.ir import Context, PassManager

        from ..conftest import LambdaPass

        module = compile_c(GEMM)
        pm = PassManager(Context())
        pm.add(LambdaPass("noop", lambda m, c: None))
        pm.run(module)
        assert getattr(module, "version", 0) >= 1


# ----------------------------------------------------------------------
# Cross-process race: N workers, one key, one artifact
# ----------------------------------------------------------------------


def _race_worker(args):
    """Runs in a separate process: compile GEMM through a shared disk
    cache directory and report what happened."""
    cache_dir, worker_id = args
    from repro.execution import KernelCache
    from repro.execution.engine import compile_module
    from repro.met import compile_c

    cache = KernelCache(disk=DiskKernelCache(cache_dir))
    module = compile_c(GEMM)
    key = CompileConfig(label="race").kernel_key(fingerprint_module(module))
    compiled = cache.get_or_compile_key(
        key, lambda k: compile_module(module, k)
    )
    import hashlib

    return (
        worker_id,
        key,
        hashlib.sha256(compiled.source.encode("utf-8")).hexdigest(),
    )


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="requires fork start method",
)
def test_concurrent_get_or_compile_single_artifact(tmp_path):
    """N processes racing the same key: exactly one artifact file on
    disk afterwards, every process got a byte-identical kernel, and a
    subsequent cold-memory load sees a valid (uncorrupted) artifact."""
    jobs = 4
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(jobs) as pool:
        results = pool.map(
            _race_worker, [(str(tmp_path), i) for i in range(jobs)]
        )
    keys = {key for _, key, _ in results}
    digests = {digest for _, _, digest in results}
    assert len(keys) == 1
    assert len(digests) == 1

    (key,) = keys
    artifacts = [
        n for n in os.listdir(tmp_path) if n.endswith(ARTIFACT_SUFFIX)
    ]
    assert artifacts == [key + ARTIFACT_SUFFIX]
    assert not [n for n in os.listdir(tmp_path) if n.startswith(".tmp-")]

    # The published artifact is valid: a fresh process-like cold load
    # re-hydrates without codegen.
    cold = KernelCache(disk=DiskKernelCache(str(tmp_path)))
    loaded = cold.get_or_compile_key(
        key, lambda k: pytest.fail("warm load must not invoke codegen")
    )
    assert loaded.source is not None
    assert cold.stats.codegen_count == 0
