"""Function-granular pass-result cache (the "compilation firewall").

Progressive raising re-runs the same passes over mostly-unchanged IR:
the serve and batch cold paths pay full pipeline cost per unit, and
schedule search re-lowers one payload dozens of times with only the
schedule suffix varying.  This module memoizes *pass results at
function granularity* so unchanged functions skip ``run_on_function``
entirely — in-process through an LRU memo, and across processes
through a ``passes/`` namespace in the shared disk cache.

Key anatomy (SHA-256 hex): one entry per ``(function fingerprint, pass
name, pass config, pattern driver, repro.store.CODE_DIGEST)``.  The value
records whether the transform left the function byte-identical
(``clean``) or rewrote it (``rewrite`` + the printed result IR), the
result's fingerprint ``fp``, and an optional ``meta`` dict of what the
pass counted on the function, added back on a hit.

There is one memo path, :class:`FunctionCursor`, and it is the only
code that looks an entry up (:meth:`~FunctionCursor.replay`), records
one (:meth:`~FunctionCursor.execute`) or turns one back into IR
(:meth:`~FunctionCursor.settle`).  ``PassManager`` is its one caller,
for passes and schedule steps alike (a step is a pass).  Consecutive
hits only advance the cursor's fingerprint along the entries' ``fp``
chain; the last ``rewrite`` entry of the chain is parsed and spliced
once, when something has to look at the function.  A chain of per-pass
hits *is* the pipeline prefix, so a cold process re-compiling an
unchanged function pays one parse, not one per rewriting pass.  And
the fingerprint a chain reaches names the function before any splice:
a schedule search keys a candidate on it and builds nothing for one
whose fingerprints an earlier candidate already reached.

Invalidation is purely content-addressed: any IR change produces a new
function fingerprint, any pass-config or driver change a new key, and
any edit to the code a new ``repro.store.CODE_DIGEST``.
Correctness is enforced (not assumed) by the ``incremental`` fuzz
check, which byte-diffs incremental-vs-scratch printed IR at every
pipeline snapshot.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..store import (
    LruMemo,
    load_record,
    pass_key,
    store_record,
    text_fingerprint,
)
from ..telemetry import Counters
from .builtin import FuncOp, ModuleOp
from .core import Operation
from .printer import print_module
from .rewrite import get_default_driver

#: Default in-memory memo bound (entries, not bytes).
DEFAULT_MEMO_ENTRIES = 4096

#: The counters of one :class:`PassResultCache`:
#:
#: * ``hits`` / ``misses`` — per-pass memo lookups.
#: * ``disk_hits`` — memo misses satisfied by the disk tier.
#: * ``executions`` — ``run_on_function`` calls that actually ran; a
#:   fully warm recompile has zero.
#: * ``spliced`` — cached *rewrite* results put back into the module in
#:   place of running the transform (one per chain of hits).
#: * ``skipped_verifies`` — per-function re-verifies skipped because the
#:   result came from the cache.
#: * ``stores`` — new entries written (memory, and disk when attached).
#: * ``prefix_restores`` — never bumped: the tier it counted is gone,
#:   and ``benchmarks/e2e`` still reads the key.
PASS_CACHE_COUNTERS = (
    "hits",
    "misses",
    "disk_hits",
    "executions",
    "spliced",
    "skipped_verifies",
    "stores",
    "prefix_restores",
)


def fingerprint_and_text(func: Operation) -> Tuple[str, str]:
    """``(SHA-256 hex digest of the printed form, the printed form)`` —
    for callers that store the text under its fingerprint and must not
    print twice."""
    text = print_module(func)
    return text_fingerprint(text), text


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


def _entry_function(entry: dict) -> Optional[FuncOp]:
    """A private copy of a ``rewrite`` entry's function — None when its
    text no longer parses.  The text is parsed on the entry's first use
    and the parsed op kept beside it in the memo (never on disk), so a
    schedule search that lands on one result from many candidates pays
    a clone per hit, not a parse."""
    template = entry.get("parsed")
    if template is None:
        from . import parser  # deferred: most processes never parse

        try:
            template = parser.parse_func(entry["text"])
        except parser.ParseError:
            return None
        if template.parent_block is not None:
            template.parent_block.remove(template)
        entry["parsed"] = template
    return template.clone()


def _replace_function(old_func: FuncOp, new_func: FuncOp) -> FuncOp:
    """Put ``new_func`` where ``old_func`` sits in its module body
    (printed-module output must be byte-identical to a from-scratch
    run); a detached function is simply superseded."""
    module = enclosing_module(old_func)
    if module is not None:
        block = module.body
        index = block.operations.index(old_func)
        block.remove(old_func)
        block.insert(index, new_func)
        module.bump_version()
    return new_func


def _valid_entry(entry) -> bool:
    """Shape check for what the disk tier hands back: anything else is
    a miss, never a ``KeyError`` three frames later."""
    if not isinstance(entry, dict) or not isinstance(entry.get("fp"), str):
        return False
    if not isinstance(entry.get("meta", {}), dict):
        return False
    kind = entry.get("kind")
    return kind == "clean" or (
        kind == "rewrite" and isinstance(entry.get("text"), str)
    )


class PassResultCache:
    """Two-tier (memory LRU + optional disk) pass-result store.

    ``disk`` is the ``passes/`` namespace of an
    :class:`~repro.store.ArtifactStore` — the same atomic-write,
    corrupt-tolerant, size-pruned artifact files as ``kernels/`` /
    ``modules/`` / ``schedules/``, shared without coordination by the
    persistent worker pool.
    """

    def __init__(self, disk=None, max_entries: int = DEFAULT_MEMO_ENTRIES):
        self._memo = LruMemo(max_entries)
        self.stats = Counters(*PASS_CACHE_COUNTERS)
        self.disk = disk

    def key(self, func_fp: str, pass_name: str, config: str = "") -> str:
        """Per-pass entry key; the pattern driver is folded in so the
        worklist/snapshot oracle pair never share entries."""
        return pass_key(get_default_driver(), func_fp, pass_name, config)

    # -- lookup / store -------------------------------------------------

    def get(self, key: str) -> Optional[dict]:
        """Memo-then-disk lookup; a well-formed disk entry repopulates
        the memo, a damaged one is a miss."""
        entry = self._memo.get(key)
        if entry is not None:
            self.stats.bump(hits=1)
            return entry
        entry = load_record(self.disk, key)
        if _valid_entry(entry):
            self._memo.put(key, entry)
            self.stats.bump(hits=1, disk_hits=1)
            return entry
        self.stats.bump(misses=1)
        return None

    def put(self, key: str, entry: dict) -> None:
        self._memo.put(key, entry)
        self.stats.bump(stores=1)
        store_record(self.disk, key, entry)

    def __len__(self) -> int:
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


class FunctionCursor:
    """One function's place in a run of memoized transforms.

    ``fp`` is the fingerprint the function has *logically* reached;
    ``func`` is the op the module holds.  The two agree except while
    consecutive :meth:`replay` hits are outstanding: those only advance
    ``fp``, and :meth:`settle` applies them to ``func`` in one splice.

    A transform is ``run(func) -> (change report, meta)``: it mutates
    the function in place; a falsy report claims "untouched" (``None``
    = unknown); ``meta`` is a JSON-safe dict stored with the entry, or
    ``None`` for no such field.
    """

    __slots__ = ("cache", "func", "fp", "_chain", "_pending")

    def __init__(
        self, cache: PassResultCache, func: FuncOp, fp: Optional[str] = None
    ):
        self.cache = cache
        self.func = func
        self.fp = fingerprint_function(func) if fp is None else fp
        #: The hits since ``func`` was last real, as ``(fp before,
        #: name, config, run)``, and the last ``rewrite`` entry among
        #: them — what ``func`` is to become.
        self._chain: List[Tuple[str, str, str, Callable]] = []
        self._pending: Optional[dict] = None

    def replay(self, name: str, config: str, run: Callable) -> Optional[dict]:
        """Look ``(fp, name, config)`` up.  A hit advances the cursor
        past the transform and returns the entry; a miss returns None.
        ``run`` is kept only to recover from a damaged entry."""
        entry = self.cache.get(self.cache.key(self.fp, name, config))
        if entry is not None:
            self._chain.append((self.fp, name, config, run))
            if entry["kind"] == "rewrite":
                self._pending = entry
            self.fp = entry["fp"]
        return entry

    def settle(self) -> bool:
        """Make ``func`` the function ``fp`` names.  Returns True when
        that took re-running transforms: the pending entry's text did
        not parse, so the chain's transforms run on the function still
        held (they are function-local, so this is the uncached result)
        and their entries are overwritten."""
        entry, chain = self._pending, self._chain
        self._pending, self._chain = None, []
        if entry is None:
            return False
        result = _entry_function(entry)
        if result is None:
            self.fp = chain[0][0]
            for _, name, config, run in chain:
                self.cache.stats.bump(misses=1)
                self.execute(name, config, run)
            return True
        self.func = _replace_function(self.func, result)
        self.cache.stats.bump(spliced=1)
        return False

    def execute(
        self, name: str, config: str, run: Callable
    ) -> Tuple[bool, Optional[dict]]:
        """Run the transform on the (settled) function and record the
        result.  Returns ``(really changed, meta)``."""
        cache, func, fp = self.cache, self.func, self.fp
        module = enclosing_module(func)
        version = getattr(module, "version", None)
        reported, meta = run(func)
        cache.stats.bump(executions=1)
        # A falsy report is believed only while the module version
        # stands still: PatternRewriter mutations bump it, so a pass
        # under-reporting its changes still invalidates correctly.
        if (
            reported is None
            or reported
            or getattr(module, "version", None) != version
        ):
            self.fp, text = fingerprint_and_text(func)
        if self.fp != fp:
            entry = {"kind": "rewrite", "text": text, "fp": self.fp}
            if module is not None:
                module.bump_version()
        else:
            entry = {"kind": "clean", "fp": fp}
        if meta is not None:
            entry["meta"] = meta
        cache.put(cache.key(fp, name, config), entry)
        return self.fp != fp, meta
