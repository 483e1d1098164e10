"""Content-addressed kernel cache (in-memory tier + optional disk tier).

A compiled kernel is keyed by the SHA-256 of the module's printed form
plus the pipeline name, so any IR mutation — a different kernel, a
different transform schedule, even a changed constant — produces a new
key, while re-running the same benchmark or replaying the same fuzz
seed hits the cache and skips codegen entirely.  The in-memory store
is bounded with **LRU eviction** (a ``get`` refreshes recency, so hot
kernels survive long fuzz campaigns while one-shot kernels age out).

Layered underneath, an optional :class:`~.disk_cache.DiskKernelCache`
persists artifacts across processes and sessions: a memory miss falls
through to a disk read (re-``exec`` of the stored kernel source — no
codegen), and a full miss compiles once and populates both tiers.
Worker processes of the parallel driver point at the same directory
and share compiled kernels without any coordination.

Cache-key hot path: printing a large module to hash it is the dominant
cost of a cache *hit*, so the printed-IR fingerprint is memoized on
the module's ``version`` counter (stamped by the PassManager's
incremental-verification machinery) — an unchanged module never
re-prints to hash.  Modules mutated outside any PassManager carry no
version and are conservatively re-printed every time; code that
mutates IR directly after a PassManager run must call
``module.bump_version()`` to invalidate the memo.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Optional

from ...ir import ModuleOp, print_module


@dataclass
class CacheStats:
    """Counter block shared by both cache tiers.

    Engines, the serving front-end and its executor threads all bump
    the same instance concurrently, so every mutation goes through
    :meth:`bump` under a lock — a bare ``stats.hits += 1`` from two
    threads can lose increments, and the serve benchmarks assert
    *exact* counts.
    """

    hits: int = 0
    misses: int = 0
    #: Number of full codegen+compile invocations (== full misses unless
    #: a builder raised); benchmarks assert this stays flat on re-runs
    #: and drops to zero on warm disk-cache runs.
    codegen_count: int = 0
    evictions: int = 0
    #: Payload traffic: bytes of kernel source (or artifact files, for
    #: the disk tier) written into and read out of this tier.
    bytes_written: int = 0
    bytes_read: int = 0
    #: Disk tier only: puts that could not be published (disk full,
    #: read-only mount...) and were dropped; the caller went on
    #: uncached.
    write_errors: int = 0
    _lock: threading.Lock = field(
        init=False, repr=False, compare=False, default_factory=threading.Lock
    )

    def bump(self, **deltas: int) -> None:
        """Atomically add ``deltas`` to the named counters."""
        with self._lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "codegen_count": self.codegen_count,
                "evictions": self.evictions,
                "bytes_written": self.bytes_written,
                "bytes_read": self.bytes_read,
                "write_errors": self.write_errors,
            }


def kernel_key(text_fingerprint: str, tag: str = "") -> str:
    """Key of the kernel compiled from the module text with that
    fingerprint under configuration ``tag``.  Every producer of
    ``kernels/`` artifacts keys through here, and this is the one place
    ``CODEGEN_VERSION`` is folded in — a code-generator upgrade can
    never re-serve a kernel written by an older one."""
    from .codegen import CODEGEN_VERSION

    return KernelCache.key_for_text(
        text_fingerprint, f"{tag}#cg={CODEGEN_VERSION}"
    )


def fingerprint_module(module: ModuleOp) -> str:
    """SHA-256 hex digest of the module's printed form, memoized on the
    module's ``version`` counter when one is present."""
    version = getattr(module, "version", None)
    if version is not None:
        memo = getattr(module, "_fingerprint_memo", None)
        if memo is not None and memo[0] == version:
            return memo[1]
    digest = hashlib.sha256(
        print_module(module).encode("utf-8")
    ).hexdigest()
    if version is not None:
        module._fingerprint_memo = (version, digest)
    return digest


class KernelCache:
    """Maps (module print hash, pipeline name) -> compiled kernel.

    ``disk`` attaches a persistent second tier shared across processes;
    see :mod:`.disk_cache`.
    """

    def __init__(self, max_entries: int = 256, disk=None):
        if max_entries <= 0:
            raise ValueError("kernel cache needs at least one slot")
        self.max_entries = max_entries
        self._store: "OrderedDict[str, object]" = OrderedDict()
        # The store is mutated from engine calls, serving executor
        # threads and the pool bridge concurrently; every structural
        # operation holds this lock (stats have their own).
        self._store_lock = threading.RLock()
        self.stats = CacheStats()
        self.disk = disk

    def attach_disk(self, path: str, max_bytes: Optional[int] = None):
        """Attach (or replace) the persistent tier at ``path``."""
        from .disk_cache import DEFAULT_MAX_BYTES, DiskKernelCache

        self.disk = DiskKernelCache(
            path, DEFAULT_MAX_BYTES if max_bytes is None else max_bytes
        )
        return self.disk

    @staticmethod
    def key_for_text(fingerprint: str, pipeline: str = "") -> str:
        """Raw ``(fingerprint, tag)`` digest — for kernels use
        :func:`kernel_key`, which also folds the codegen version."""
        digest = hashlib.sha256()
        digest.update(fingerprint.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(pipeline.encode("utf-8"))
        return digest.hexdigest()

    @staticmethod
    def key_for(module: ModuleOp, pipeline: str = "") -> str:
        return kernel_key(fingerprint_module(module), pipeline)

    def get(self, key: str) -> Optional[object]:
        """LRU read: a hit moves the entry to most-recently-used."""
        with self._store_lock:
            entry = self._store.get(key)
            if entry is not None:
                self._store.move_to_end(key)
            return entry

    def put(self, key: str, compiled: object) -> None:
        evicted = 0
        with self._store_lock:
            self._store[key] = compiled
            self._store.move_to_end(key)
            while len(self._store) > self.max_entries:
                self._store.popitem(last=False)
                evicted += 1
        if evicted:
            self.stats.bump(evictions=evicted)

    def get_or_compile(
        self,
        module: ModuleOp,
        pipeline: str,
        builder: Callable[[str], object],
    ) -> object:
        return self.get_or_compile_key(
            self.key_for(module, pipeline), builder
        )

    def get_or_compile_key(
        self, key: str, builder: Callable[[str], object]
    ) -> object:
        """Like :meth:`get_or_compile` for an already-computed key.

        Lets callers that hold the printed module text (batch driver,
        scale bench) hash it directly — a warm hit then needs neither
        a reparse nor a reprint of the module.
        """
        cached = self.get(key)
        if cached is not None:
            self.stats.bump(
                hits=1, bytes_read=len(getattr(cached, "source", ""))
            )
            return cached
        self.stats.bump(misses=1)
        if self.disk is not None:
            compiled = self.disk.load(key)
            if compiled is not None:
                self.put(key, compiled)
                self.stats.bump(
                    bytes_written=len(getattr(compiled, "source", ""))
                )
                return compiled
        compiled = builder(key)
        self.stats.bump(
            codegen_count=1,
            bytes_written=len(getattr(compiled, "source", "")),
        )
        self.put(key, compiled)
        if self.disk is not None:
            self.disk.store(key, compiled)
        return compiled

    def snapshot(self) -> dict:
        """Combined statistics for both tiers (``disk`` is ``None``
        when no persistent tier is attached)."""
        return {
            "memory": self.stats.snapshot(),
            "disk": self.disk.stats.snapshot()
            if self.disk is not None
            else None,
        }

    def clear(self) -> None:
        with self._store_lock:
            self._store.clear()
            self.stats = CacheStats()

    def __len__(self) -> int:
        with self._store_lock:
            return len(self._store)


def _default_cache() -> KernelCache:
    from .disk_cache import default_disk_cache

    return KernelCache(disk=default_disk_cache())


#: Process-wide default cache shared by all engines (override per
#: engine with ``ExecutionEngine(..., cache=KernelCache())``).  Gains
#: a persistent disk tier when ``MLT_CACHE_DIR`` is set — the parallel
#: drivers rely on this to share artifacts across worker processes.
KERNEL_CACHE = _default_cache()
