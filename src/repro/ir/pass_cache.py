"""Function-granular pass-result cache (the "compilation firewall").

Progressive raising re-runs the same passes over mostly-unchanged IR:
the serve and batch cold paths pay full pipeline cost per unit, and
schedule search re-lowers one payload dozens of times with only the
schedule suffix varying.  This module memoizes *pass results at
function granularity* so unchanged functions skip ``run_on_function``
entirely — in-process through an LRU memo, and across processes
through a ``passes/`` namespace in the shared disk cache.

Key anatomy (all SHA-256 hex):

* **Per-pass entry** — ``(function fingerprint, pass name, pass
  config, pattern driver, PASS_CACHE_VERSION)``.  The value records
  whether the pass left the function byte-identical (``clean``) or
  rewrote it (``rewrite`` + the printed result IR and its
  fingerprint), plus an optional ``meta`` dict of counter deltas so
  observability survives a hit.
* **Prefix entry** — ``(function fingerprint at module entry,
  pipeline-prefix hash, driver, PASS_CACHE_VERSION)`` where the prefix
  hash chains every ``(pass name, pass config)`` pair of the pipeline
  prefix.  A cold process looks up the *longest* matching prefix,
  splices the cached post-prefix function into the module, and runs
  only the residual passes — multi-function units compile only their
  genuinely new functions.

Invalidation is purely content-addressed: any IR change produces a new
function fingerprint, any pass-config or driver change a new key, and
``PASS_CACHE_VERSION`` is bumped whenever pass semantics change.
Correctness is enforced (not assumed) by the ``incremental-diff`` fuzz
oracle stage, which byte-diffs incremental-vs-scratch printed IR at
every pipeline snapshot.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple

from .builtin import FuncOp, ModuleOp
from .core import Operation
from .printer import print_module
from .rewrite import get_default_driver

#: Folded into every key: bump whenever any pass's semantics change in
#: a way its ``cache_config()`` does not capture.
PASS_CACHE_VERSION = "pass-cache-v4"

#: Default in-memory memo bound (entries, not bytes).
DEFAULT_MEMO_ENTRIES = 4096


class PassCacheStats:
    """Counters for one :class:`PassResultCache`.

    Serving executor threads and the engine may share one instance per
    tenant, so mutation goes through :meth:`bump` under a lock.

    * ``hits`` / ``misses`` — per-pass memo lookups.
    * ``disk_hits`` — memo misses satisfied by the disk tier.
    * ``executions`` — ``run_on_function`` (or stage-runner) calls that
      actually ran; a fully warm recompile has zero.
    * ``spliced`` — cached *rewrite* results parsed back into the
      module in place of running the pass.
    * ``skipped_verifies`` — per-function re-verifies skipped because
      the result came from the cache.
    * ``prefix_restores`` — functions fast-forwarded past a whole
      pipeline prefix from the disk tier.
    * ``stores`` — new entries written (memory, and disk when attached).
    """

    _COUNTERS = (
        "hits",
        "misses",
        "disk_hits",
        "executions",
        "spliced",
        "skipped_verifies",
        "prefix_restores",
        "stores",
    )

    def __init__(self):
        self._lock = threading.Lock()
        for name in self._COUNTERS:
            setattr(self, name, 0)

    def bump(self, **deltas: int) -> None:
        with self._lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {name: getattr(self, name) for name in self._COUNTERS}


def fingerprint_and_text(func: Operation) -> Tuple[str, str]:
    """``(SHA-256 hex digest of the printed form, the printed form)`` —
    for callers that store the text under its fingerprint and must not
    print twice."""
    text = print_module(func)
    return hashlib.sha256(text.encode("utf-8")).hexdigest(), text


def fingerprint_function(func: Operation) -> str:
    """SHA-256 hex digest of the function's printed form."""
    return fingerprint_and_text(func)[0]


def enclosing_module(op: Operation) -> Optional[ModuleOp]:
    """The ModuleOp ``op`` lives under, if attached to one."""
    node: Optional[Operation] = op
    while node is not None:
        if isinstance(node, ModuleOp):
            return node
        node = node.parent_op
    return None


def splice_function(module: ModuleOp, old_func: FuncOp, text: str) -> FuncOp:
    """Replace ``old_func`` with the function parsed from ``text``,
    preserving its position in the module body (printed-module output
    must be byte-identical to a from-scratch run)."""
    return _replace_function(module, old_func, _parse_detached(text))


def _parse_detached(text: str) -> FuncOp:
    from .parser import parse_func

    func = parse_func(text)
    if func.parent_block is not None:
        func.parent_block.remove(func)
    return func


def _replace_function(
    module: ModuleOp, old_func: FuncOp, new_func: FuncOp
) -> FuncOp:
    block = module.body
    index = block.operations.index(old_func)
    block.remove(old_func)
    block.insert(index, new_func)
    module.bump_version()
    return new_func


class PassResultCache:
    """Two-tier (memory LRU + optional disk) pass-result store.

    The disk tier reuses :class:`~repro.execution.engine.disk_cache.
    DiskKernelCache` text payloads under a ``passes/`` namespace beside
    ``kernels/`` / ``modules/`` / ``schedules/`` — same atomic-write,
    corrupt-tolerant, size-pruned artifact store, shared without
    coordination by the persistent worker pool.
    """

    def __init__(self, disk=None, max_entries: int = DEFAULT_MEMO_ENTRIES):
        if max_entries <= 0:
            raise ValueError("pass cache needs at least one memo slot")
        self.max_entries = max_entries
        self._memo: "OrderedDict[str, dict]" = OrderedDict()
        self._lock = threading.RLock()
        self.stats = PassCacheStats()
        self.disk = disk

    def attach_disk(self, root: str, max_bytes: Optional[int] = None):
        """Attach the persistent tier at ``<root>/passes``."""
        import os

        from ..execution.engine.disk_cache import (
            DEFAULT_MAX_BYTES,
            DiskKernelCache,
        )

        self.disk = DiskKernelCache(
            os.path.join(root, "passes"),
            DEFAULT_MAX_BYTES if max_bytes is None else max_bytes,
        )
        return self.disk

    # -- keys -----------------------------------------------------------

    @staticmethod
    def _digest(*parts: str) -> str:
        digest = hashlib.sha256()
        for part in parts:
            digest.update(part.encode("utf-8"))
            digest.update(b"\x00")
        return digest.hexdigest()

    def key(self, func_fp: str, pass_name: str, config: str = "") -> str:
        """Per-pass entry key; the pattern driver is folded in so the
        worklist/snapshot oracle pair never share entries."""
        return self._digest(
            "pass", PASS_CACHE_VERSION, get_default_driver(),
            func_fp, pass_name, config,
        )

    def prefix_key(self, entry_fp: str, prefix_hash: str) -> str:
        """Pipeline-prefix entry key (see module docstring)."""
        return self._digest(
            "prefix", PASS_CACHE_VERSION, get_default_driver(),
            entry_fp, prefix_hash,
        )

    # -- lookup / store -------------------------------------------------

    def get(self, key: str) -> Optional[dict]:
        """Memo-then-disk lookup; a disk hit repopulates the memo."""
        with self._lock:
            entry = self._memo.get(key)
            if entry is not None:
                self._memo.move_to_end(key)
        if entry is not None:
            self.stats.bump(hits=1)
            return entry
        if self.disk is not None:
            text = self.disk.load_text(key)
            if text is not None:
                try:
                    entry = json.loads(text)
                except ValueError:
                    entry = None
                if isinstance(entry, dict) and entry.get("kind") in (
                    "clean",
                    "rewrite",
                ):
                    self._remember(key, entry)
                    self.stats.bump(hits=1, disk_hits=1)
                    return entry
        self.stats.bump(misses=1)
        return None

    def _remember(self, key: str, entry: dict) -> None:
        with self._lock:
            self._memo[key] = entry
            self._memo.move_to_end(key)
            while len(self._memo) > self.max_entries:
                self._memo.popitem(last=False)

    def contains(self, key: str) -> bool:
        with self._lock:
            return key in self._memo

    def put(self, key: str, entry: dict) -> None:
        self._remember(key, entry)
        self.stats.bump(stores=1)
        if self.disk is not None:
            self.disk.store_text(key, json.dumps(entry, sort_keys=True))

    def clear(self) -> None:
        with self._lock:
            self._memo.clear()
        self.stats = PassCacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._memo)

    def snapshot(self) -> dict:
        """Combined statistics for both tiers."""
        return {
            "memory": self.stats.snapshot(),
            "entries": len(self),
            "disk": self.disk.stats.snapshot()
            if self.disk is not None
            else None,
        }


def _entry_function(entry: dict) -> FuncOp:
    """A private copy of a ``rewrite`` entry's function.  The text is
    parsed on the entry's first hit and the parsed op kept beside it in
    the memo (never on disk), so a schedule search that lands on one
    result from many candidates pays a clone per hit, not a parse."""
    template = entry.get("parsed")
    if template is None:
        template = entry["parsed"] = _parse_detached(entry["text"])
    return template.clone()


def cached_stage(
    cache: Optional[PassResultCache],
    func: FuncOp,
    stage_name: str,
    config: str,
    runner: Callable[[FuncOp], Optional[dict]],
    fp: Optional[str] = None,
) -> Tuple[FuncOp, dict, Optional[str]]:
    """Memoize an arbitrary function-local transform through ``cache``.

    ``runner(func)`` mutates ``func`` in place and returns a JSON-safe
    ``meta`` dict of counter deltas (or None).  On a hit the runner is
    skipped: a ``rewrite`` entry splices the cached result text into
    the enclosing module, and the stored ``meta`` is replayed so
    stats-based observability (``OptStats`` stages, schedule reports)
    stays identical to an uncached run.

    ``fp``, when given, is the caller-known fingerprint of ``func`` —
    stage drivers thread the returned fingerprint into the next stage
    so a chain of cache hits prints each function once, not once per
    stage.  Pass it only when nothing can have mutated ``func`` since
    the fingerprint was taken.

    Returns ``(func, meta, fp)`` — ``func`` may be a fresh op after a
    splice, and ``fp`` is the post-stage fingerprint (``None`` when the
    stage bypassed the cache, i.e. the result is unknown).
    """
    if cache is None:
        return func, dict(runner(func) or {}), None
    if fp is None:
        fp = fingerprint_function(func)
    key = cache.key(fp, stage_name, config)
    entry = cache.get(key)
    if entry is not None:
        if entry["kind"] == "rewrite":
            module = enclosing_module(func)
            if module is not None:
                func = _replace_function(
                    module, func, _entry_function(entry)
                )
                cache.stats.bump(spliced=1)
        return func, dict(entry.get("meta") or {}), entry["fp"]
    meta = dict(runner(func) or {})
    cache.stats.bump(executions=1)
    new_fp, text = fingerprint_and_text(func)
    if new_fp != fp:
        cache.put(
            key,
            {"kind": "rewrite", "text": text, "fp": new_fp, "meta": meta},
        )
        module = enclosing_module(func)
        if module is not None:
            module.bump_version()
    else:
        cache.put(key, {"kind": "clean", "fp": fp, "meta": meta})
    return func, meta, new_fp
