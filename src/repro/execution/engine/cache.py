"""Content-addressed kernel cache (in-memory tier + optional disk tier).

A compiled kernel is keyed by the SHA-256 of the module's printed form
plus the compile configuration (:class:`repro.store.CompileConfig`), so
any IR mutation — a different kernel, a different transform schedule,
even a changed constant — produces a new key, while re-running the same
benchmark or replaying the same fuzz seed hits the cache and skips
codegen entirely.  The in-memory store
is bounded with **LRU eviction** (a ``get`` refreshes recency, so hot
kernels survive long fuzz campaigns while one-shot kernels age out).

Layered underneath, an optional :class:`~.disk_cache.DiskKernelCache`
persists artifacts across processes and sessions: a memory miss falls
through to a disk read (``exec`` of the stored kernel bytecode — no
codegen, no ``compile()``), and a full miss compiles once and populates
both tiers.
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

import os
from typing import Callable, Optional

from ...ir import ModuleOp, print_module
from ...store import ArtifactStore, LruMemo, text_fingerprint
from ...telemetry import Counters

#: The counters of both kernel-cache tiers.  ``codegen_count`` is the
#: number of full codegen+compile invocations (benchmarks assert it
#: stays flat on re-runs and drops to zero on warm disk-cache runs);
#: ``bytes_written``/``bytes_read`` are payload traffic (kernel source,
#: or artifact files for the disk tier); ``write_errors`` (disk tier
#: only) counts puts that could not be published and were dropped.
CACHE_COUNTERS = (
    "hits",
    "misses",
    "codegen_count",
    "evictions",
    "bytes_written",
    "bytes_read",
    "write_errors",
)


def fingerprint_module(module: ModuleOp) -> str:
    """SHA-256 hex digest of the module's printed form, memoized on the
    module's ``version`` counter when one is present."""
    version = getattr(module, "version", None)
    if version is not None:
        memo = getattr(module, "_fingerprint_memo", None)
        if memo is not None and memo[0] == version:
            return memo[1]
    digest = text_fingerprint(print_module(module))
    if version is not None:
        module._fingerprint_memo = (version, digest)
    return digest


class KernelCache:
    """Maps kernel key -> compiled kernel (keys come from
    :meth:`repro.store.CompileConfig.kernel_key`).

    ``disk`` is the persistent second tier shared across processes;
    see :mod:`.disk_cache`.
    """

    def __init__(self, max_entries: int = 256, disk=None):
        # Mutated from engine calls, serving executor threads and the
        # pool bridge concurrently (stats have their own lock).
        self._store = LruMemo(max_entries)
        self.stats = Counters(*CACHE_COUNTERS)
        self.disk = disk

    def get(self, key: str) -> Optional[object]:
        """LRU read: a hit moves the entry to most-recently-used."""
        return self._store.get(key)

    def put(self, key: str, compiled: object) -> None:
        evicted = self._store.put(key, compiled)
        if evicted:
            self.stats.bump(evictions=evicted)

    def get_or_compile_key(
        self, key: str, builder: Callable[[str], object]
    ) -> object:
        """The kernel under ``key``: memory tier, else disk tier (an
        ``exec`` of stored bytecode), else ``builder(key)`` — whose
        result populates both tiers."""
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
        self._store.clear()
        self.stats = Counters(*CACHE_COUNTERS)

    def __len__(self) -> int:
        return len(self._store)


def _default_cache() -> KernelCache:
    try:
        return ArtifactStore(os.environ.get("MLT_CACHE_DIR") or None).kernels
    except OSError:  # an unusable directory means no disk tier
        return ArtifactStore(None).kernels


#: Process-wide default cache shared by all engines (override per
#: engine with ``ExecutionEngine(..., cache=KernelCache())``).  With
#: ``MLT_CACHE_DIR`` set it is the ``kernels/`` namespace of the store
#: rooted there — the directory ``mlt-opt --cache-dir`` fills.
KERNEL_CACHE = _default_cache()
