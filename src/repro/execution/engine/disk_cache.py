"""Disk-backed, content-addressed artifact cache (the persistent tier).

The in-memory :class:`~.cache.KernelCache` dies with the process; this
tier keys artifacts by the same SHA-256 content hash but stores them as
files, so compiled kernels are shared across worker processes of the
parallel driver and survive across sessions.

Concurrency model (many processes, one directory, no daemon):

* **Atomic writes** — artifacts are written to a private temp file in
  the cache directory and published with :func:`os.replace`, so a
  reader never observes a half-written artifact.  Racing writers for
  the same key each publish a byte-identical artifact; last rename
  wins and both are valid.
* **Lock-free reads** — a read is a single ``open``; a missing or
  corrupt file (truncated by a crashed writer on a non-POSIX
  filesystem, pruned concurrently, …) is treated as a miss, never an
  error.
* **Bounded size with LRU pruning, O(1) amortised per write** — each
  read best-effort touches the artifact's mtime, and a writer that
  finds the directory over ``max_bytes`` evicts oldest-mtime artifacts
  down to ``LOW_WATER_FRACTION * max_bytes``.  Finding out takes a
  directory scan, so a writer does not look after every put: it keeps
  the total its last scan found and the bytes it has published since,
  and scans again only once those could have used up
  ``1 / SCAN_HEADROOM_SHARE`` of the headroom that scan left.  With P
  writers that cannot see each other's puts the directory therefore
  stays under ``max_bytes + P * (max_bytes / SCAN_HEADROOM_SHARE + one
  artifact)``.  Pruning races (two writers deleting the same file) are
  benign.
* **Failed writes are misses-to-be, not errors** — a put that cannot
  publish (disk full, read-only or vanished mount) removes its temp
  file, bumps ``stats.write_errors`` and returns; the caller keeps the
  value it just built and the next process simply recompiles.  Temp
  files orphaned by a killed writer count toward the size bound and
  are reaped by the next scan once ``STALE_TEMP_SECONDS`` old.
* **Sealed envelopes** — every artifact carries a ``digest`` over the
  fields a reader uses (:data:`SEALED_FIELDS`); one that lacks it or
  does not match is a miss, so damage that still parses or ``exec``-s
  is never believed and the next put overwrites it.  The digest
  catches damage, not an attacker: whoever can write the directory can
  already have code run through ``source``.

Two payload flavors share the machinery.  *Kernel* artifacts hold the
generated Python source of a compiled module next to its marshalled
code object (``bytecode``, valid for the interpreter whose
``importlib.util.MAGIC_NUMBER`` is ``magic``): a load ``exec``-s the
bytecode, skipping codegen and ``compile()`` both.  An artifact whose
bytecode another interpreter wrote is a miss like any other, so a
Python upgrade costs one codegen per kernel, after which the put
overwrites it.  *Text* artifacts hold arbitrary strings —
the evaluation/batch drivers use them to persist printed post-pipeline
IR so warm runs skip the C frontend and the raising pipeline too.
"""

from __future__ import annotations

import binascii
import json
import marshal
import os
import tempfile
import threading
import time
from importlib.util import MAGIC_NUMBER
from typing import TYPE_CHECKING, Optional

from ...store import digest
from ...telemetry import Counters
from .cache import CACHE_COUNTERS

if TYPE_CHECKING:  # pragma: no cover
    from .codegen import CompiledModule

ARTIFACT_SUFFIX = ".artifact.json"

#: The envelope fields a reader uses, in the order ``digest`` seals
#: them (``created`` and ``functions`` are informational).
SEALED_FIELDS = (
    "key",
    "kind",
    "text",
    "source",
    "bytecode",
    "magic",
    "vectorize_stats",
    "opt_stats",
)

#: ``magic`` of the bytecode this interpreter can ``exec``.
BYTECODE_MAGIC = MAGIC_NUMBER.hex()

#: Default size bound: plenty for thousands of kernels (artifacts are a
#: few KiB of generated source each) while keeping runaway fuzz
#: campaigns from filling the disk.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

TEMP_PREFIX = ".tmp-"

#: A store rescans its directory once its own puts since the last scan
#: exceed this share (1/8) of the headroom that scan found.  Larger
#: means more scans; smaller lets concurrent writers, who cannot see
#: each other's puts, overshoot ``max_bytes`` further before one looks.
SCAN_HEADROOM_SHARE = 8

#: A prune evicts down to this fraction of ``max_bytes``, not to
#: ``max_bytes`` itself, so that a full store regains real headroom and
#: does not scan on every put from then on.
LOW_WATER_FRACTION = 0.75

#: Temp files older than this belong to a writer that died between
#: ``mkstemp`` and ``os.replace`` (a live one holds its file for
#: milliseconds); a scan unlinks them.
STALE_TEMP_SECONDS = 3600.0


def payload_digest(payload: dict) -> str:
    """The seal of an envelope: :func:`repro.store.digest` over a
    ``name, value`` pair per present :data:`SEALED_FIELDS` entry
    (strings as they are, the stats dicts as sorted-key JSON)."""
    parts = []
    for name in SEALED_FIELDS:
        value = payload.get(name)
        if value is not None:
            if not isinstance(value, str):
                value = json.dumps(value, sort_keys=True)
            parts += (name, value)
    return digest(*parts)


class DiskKernelCache:
    """Content-addressed artifact files under one directory.

    ``load``/``store`` move :class:`~.codegen.CompiledModule` payloads
    (kernel source and bytecode, ``exec``-ed on load);
    ``load_text``/``store_text`` move plain strings.  Both are safe to
    call concurrently from any number of processes pointed at the same
    directory.
    """

    def __init__(self, path: str, max_bytes: int = DEFAULT_MAX_BYTES):
        if not path:
            raise ValueError("disk cache needs a directory path")
        self.path = os.path.abspath(path)
        self.max_bytes = max_bytes
        self.stats = Counters(*CACHE_COUNTERS)
        # Amortised pruning: the directory total the last prune scan
        # left behind (None: this handle has not looked yet) and the
        # bytes this handle has published since that scan began.
        self._scan_lock = threading.Lock()
        self._last_total: Optional[int] = None
        self._written_since_scan = 0
        os.makedirs(self.path, exist_ok=True)

    # -- paths ----------------------------------------------------------

    def artifact_path(self, key: str) -> str:
        return os.path.join(self.path, key + ARTIFACT_SUFFIX)

    # -- generic payload I/O -------------------------------------------

    def _read_payload(self, key: str) -> Optional[dict]:
        try:
            with open(self.artifact_path(key), "rb") as handle:
                raw = handle.read()
            payload = json.loads(raw.decode("utf-8"))
        except (OSError, ValueError):
            self.stats.bump(misses=1)
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("key") != key
            or payload.get("digest") != payload_digest(payload)
        ):
            self.stats.bump(misses=1)
            return None
        self.stats.bump(hits=1, bytes_read=len(raw))
        try:  # recency signal for LRU pruning; best-effort only
            os.utime(self.artifact_path(key))
        except OSError:
            pass
        return payload

    def _write_payload(self, key: str, payload: dict) -> None:
        payload["digest"] = payload_digest(payload)
        raw = json.dumps(payload, sort_keys=True).encode("utf-8")
        try:
            self._publish(key, raw)
        except OSError:
            # ENOSPC / EROFS / EACCES: the value exists in memory and
            # the caller goes on without a persisted copy, exactly as
            # a reader treats an unreadable artifact as a miss.
            self.stats.bump(write_errors=1)
            return
        self.stats.bump(bytes_written=len(raw))
        with self._scan_lock:
            self._written_since_scan += len(raw)
            scan_due = (
                self._last_total is None
                or self._written_since_scan * SCAN_HEADROOM_SHARE
                > self.max_bytes - self._last_total
            )
        if scan_due:
            self._prune()

    def _publish(self, key: str, raw: bytes) -> None:
        """Write ``raw`` to a private temp file and rename it into
        place; on failure the temp file is removed and the ``OSError``
        propagates."""
        prefix = TEMP_PREFIX + key[:12] + "-"
        try:
            fd, tmp = tempfile.mkstemp(prefix=prefix, dir=self.path)
        except FileNotFoundError:
            # The directory was wiped out from under a long-lived
            # handle (cache reset on a running server): recreate it.
            os.makedirs(self.path, exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix=prefix, dir=self.path)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(raw)
            os.replace(tmp, self.artifact_path(key))
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- kernel artifacts ----------------------------------------------

    def load(self, key: str) -> Optional["CompiledModule"]:
        """Re-hydrate a compiled kernel, or ``None`` on a miss."""
        from .codegen import load_compiled_source

        payload = self._read_payload(key)
        if payload is None or "source" not in payload:
            return None
        try:
            if payload.get("magic") != BYTECODE_MAGIC:
                raise ValueError("bytecode of another interpreter")
            return load_compiled_source(
                payload["source"],
                key,
                vectorize_stats=payload.get("vectorize_stats"),
                opt_stats=payload.get("opt_stats"),
                code=marshal.loads(binascii.a2b_base64(payload["bytecode"])),
            )
        except Exception:
            # An artifact that no longer loads (another interpreter's
            # bytecode, an incompatible engine version) is a miss, not
            # a crash; the put after the rebuild overwrites it.
            self.stats.bump(hits=-1, misses=1)
            return None

    def store(self, key: str, compiled: "CompiledModule") -> None:
        payload = {
            "key": key,
            "kind": "kernel",
            "source": compiled.source,
            "functions": sorted(compiled.functions),
            "created": time.time(),
        }
        code = getattr(compiled, "code", None)
        if code is not None:
            payload["bytecode"] = binascii.b2a_base64(
                marshal.dumps(code), newline=False
            ).decode("ascii")
            payload["magic"] = BYTECODE_MAGIC
        stats = getattr(compiled, "vectorize_stats", None)
        if stats is not None:
            payload["vectorize_stats"] = stats
        opt_stats = getattr(compiled, "opt_stats", None)
        if opt_stats is not None:
            payload["opt_stats"] = opt_stats
        self._write_payload(key, payload)

    # -- text artifacts (printed IR, batch outputs) --------------------

    def load_text(self, key: str) -> Optional[str]:
        payload = self._read_payload(key)
        if payload is None or "text" not in payload:
            return None
        return payload["text"]

    def store_text(self, key: str, text: str) -> None:
        self._write_payload(
            key,
            {"key": key, "kind": "text", "text": text, "created": time.time()},
        )

    # -- maintenance ----------------------------------------------------

    def _scan(self):
        """One pass over the directory: ``(entries, total)``.

        ``entries`` is ``(mtime, size, path)`` per artifact; ``total``
        also counts the temp files of writers still in flight.  Temp
        files older than ``STALE_TEMP_SECONDS`` are unlinked instead.
        Files that vanish mid-scan (racing prunes, renames) are
        skipped.
        """
        entries = []
        total = 0
        stale_before = time.time() - STALE_TEMP_SECONDS
        try:
            with os.scandir(self.path) as listing:
                for entry in listing:
                    is_artifact = entry.name.endswith(ARTIFACT_SUFFIX)
                    if not is_artifact and not entry.name.startswith(
                        TEMP_PREFIX
                    ):
                        continue
                    try:
                        info = entry.stat()
                        if not is_artifact and info.st_mtime < stale_before:
                            os.unlink(entry.path)
                            continue
                    except OSError:
                        continue
                    if is_artifact:
                        entries.append(
                            (info.st_mtime, info.st_size, entry.path)
                        )
                    total += info.st_size
        except OSError:
            pass
        return entries, total

    def total_bytes(self) -> int:
        return self._scan()[1]

    def _prune(self) -> None:
        with self._scan_lock:
            self._written_since_scan = 0
        entries, total = self._scan()
        if total > self.max_bytes:
            low_water = self.max_bytes * LOW_WATER_FRACTION
            for mtime, size, full in sorted(entries):
                try:
                    os.unlink(full)
                except OSError:
                    continue
                self.stats.bump(evictions=1)
                total -= size
                if total <= low_water:
                    break
        with self._scan_lock:
            self._last_total = total

    def __len__(self) -> int:
        return len(self._scan()[0])

