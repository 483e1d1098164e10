"""The artifact store: one cache layout, one key format, one compile ladder.

Progressive raising is a chain of cheap, re-runnable stages, and every
link is memoized.  This module owns the three decisions all of those
memos share (``docs/execution.md``, "Cache layout and keys"):

* the **layout** — :class:`ArtifactStore` opens the four namespaces
  ``kernels/ modules/ passes/ schedules/`` under one root (or, with no
  root, the in-memory tiers alone);
* the **key format** — every key is one :func:`digest` of a namespace
  tag, the version constants of the code that produced the payload, a
  content fingerprint and, for ``modules/`` and ``kernels/``, the whole
  frozen :class:`CompileConfig`;
* the **ladder** — :func:`compile_unit`: source → printed module text
  (``modules/``) → compiled kernel (``kernels/``), each rung answered
  by its cache when it can be.

Nothing else under ``src/`` joins a namespace name onto a path, reads
or writes a text artifact, or knows a version constant.
The cache classes wired here import :class:`LruMemo` and the key
functions from this module, so it imports them only inside functions.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Tuple

#: Sub-directories of a cache root, one per artifact family.
NAMESPACES = ("kernels", "modules", "passes", "schedules")

#: Folded into every ``passes/``, ``modules/`` and ``kernels/`` key:
#: bump whenever any pass's semantics change in a way its
#: ``cache_config()`` does not capture (v6 -> v7: canonicalize folds
#: ``std.maxf`` of a NaN constant to NaN), or what an entry's ``meta``
#: carries (v7 -> v8: raising passes store their counts, which a v7
#: entry would replay as zero), or what a tactic of one name rewrites
#: to (v8 -> v9: ``-raise-affine-to-linalg`` keys on tactic names, and
#: the TTGT tactics now raise with the plan of fewest transposing
#: copies, which a v8 entry would replay as the old plan), or what a
#: lowering pass emits (v9 -> v10: ``convert-linalg-to-affine-loops``
#: leaves reshapes alone and ``convert-scf-to-llvm`` lowers them as
#: views or flat copies, so a v9 entry would replay a copy loop nest;
#: and ``convert-blas-to-llvm`` keeps each op's attributes on its call),
#: or which nests a raising pass rewrites (v10 -> v11: a TDL tactic no
#: longer raises a band that covers only part of its tensors, which a
#: v10 entry would replay as the whole-tensor op).
PASS_CACHE_VERSION = "pass-cache-v11"

#: Codegen schema version, folded into every ``kernels/`` key.  Bump on
#: any change to generated-source semantics (vectorizer strategy,
#: emitter output, runtime helper contracts) so persistent disk caches
#: written by an older code generator are never re-served.  Engine keys
#: hash the *pre*-optimizer module text, so a wrong-code fix in an
#: optimizer stage bumps it too (4 -> 5: fusion's ``conflict-carried``),
#: and so does a change in what a stage emits (5 -> 6: fusion's
#: ``would-lose-collapse``, window loads, lazy canonical views), and so
#: does the buffer plan (6 -> 7: view/fresh allocs, see
#: :mod:`repro.analysis.buffers`), and so does an op's scalar
#: spelling (7 -> 8: ``std.maxf`` propagates NaN), and so does where a
#: contraction is planned (8 -> 9: codegen emits the ``@``/tensordot/
#: einsum call itself and reductions accumulate in place).
CODEGEN_VERSION = 9

#: Folded into every ``schedules/`` key: bump when the schedule space
#: or the record layout changes so stale tunings never replay.
SCHEDULE_CACHE_VERSION = "schedules-v2"



def digest(*parts: str) -> str:
    """SHA-256 over NUL-terminated parts — the one key format."""
    sha = hashlib.sha256()
    for part in parts:
        sha.update(part.encode("utf-8"))
        sha.update(b"\x00")
    return sha.hexdigest()


def text_fingerprint(text: str) -> str:
    """SHA-256 of a text; for printed IR, the ``fingerprint_module`` of
    the module that prints as ``text``."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def pass_key(driver: str, func_fp: str, pass_name: str, config: str) -> str:
    """``passes/`` key of one transform applied to one function."""
    return digest(
        "pass", PASS_CACHE_VERSION, driver, func_fp, pass_name, config
    )


def schedule_key(payload_fp: str) -> str:
    """``schedules/`` key of the best schedule found for a payload."""
    return digest("schedule", SCHEDULE_CACHE_VERSION, payload_fp)


@dataclass(frozen=True)
class CompileConfig:
    """Everything besides the source that decides what a compile emits.

    Both cache keys fold *every* field (through the generated ``repr``,
    so a field added later is keyed without touching this class): two
    compiles that differ in any knob can never share an artifact.
    """

    #: How the source is read: ``"c"``, ``"ir"``, or ``"auto"`` (by
    #: file name or content).
    frontend: str = "ir"
    #: Pass names, or the one corpus pipeline name.
    pipeline: Tuple[str, ...] = ()
    #: Key space of the producing driver (``"mlt-opt"``, ``"serve"``,
    #: ``"bench"``, or an engine's ``pipeline`` label).
    label: str = ""
    #: Greedy pattern-rewrite driver the passes run under.
    driver: str = "worklist"
    #: Tile edge of the corpus pipelines and the optimizer's tiling.
    tile: int = 32
    #: Code generator's vectorize mode (``VECTORIZE_MODES``).
    vectorize: str = "nest"
    #: Fingerprint of the transform schedule that runs before codegen
    #: ("" = none); an ``opt_mode`` keys as the canned schedule it
    #: names, and serving's ``tuned`` as ``"tuned"`` until the unit
    #: resolves it.
    schedule: str = ""

    def module_key(self, source: str) -> str:
        """``modules/`` key of the text this config prints for ``source``."""
        return digest("module", PASS_CACHE_VERSION, repr(self), source)

    def kernel_key(self, text_fp: str) -> str:
        """``kernels/`` key of the kernel compiled from the module text
        with fingerprint ``text_fp``.  Passes run on the way to a kernel
        too (``schedule``), so both versions fold in: an upgrade of
        either never re-serves an older kernel."""
        return digest(
            "kernel", PASS_CACHE_VERSION, str(CODEGEN_VERSION),
            repr(self), text_fp,
        )



class LruMemo:
    """Bounded, thread-safe, least-recently-used map — the memory tier
    of the kernel cache, the pass cache and the serving hot map."""

    def __init__(self, max_entries: int):
        if max_entries <= 0:
            raise ValueError("a memo needs at least one slot")
        self.max_entries = max_entries
        self._entries: "OrderedDict[object, object]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key):
        """The entry, refreshed to most-recently-used, or None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key, entry) -> int:
        """Insert as most-recently-used; returns how many entries the
        bound evicted."""
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            evicted = len(self._entries) - self.max_entries
            for _ in range(evicted):
                self._entries.popitem(last=False)
        return max(evicted, 0)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def values(self) -> list:
        """A snapshot of the entries, least recently used first."""
        with self._lock:
            return list(self._entries.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)



def load_record(disk, key: str) -> Optional[dict]:
    """The JSON object stored under ``key``; a missing, unreadable or
    differently shaped artifact is a miss."""
    text = disk.load_text(key) if disk is not None else None
    if text is None:
        return None
    try:
        record = json.loads(text)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


def store_record(disk, key: str, record: dict) -> None:
    if disk is not None:
        disk.store_text(key, json.dumps(record, sort_keys=True))



class ArtifactStore:
    """The cache tiers of one root directory.

    ``kernels`` is a :class:`~repro.execution.engine.cache.KernelCache`
    and ``passes`` a :class:`~repro.ir.pass_cache.PassResultCache`
    (memory tier + disk tier); ``modules`` and ``schedules`` are bare
    :class:`~repro.execution.engine.disk_cache.DiskKernelCache`
    namespaces.  With ``root=None`` the disk tiers are ``None`` and only
    the two memory tiers exist.
    """

    def __init__(self, root: Optional[str]):
        from .execution.engine.cache import KernelCache
        from .execution.engine.disk_cache import DiskKernelCache
        from .ir.pass_cache import PassResultCache

        kernels, modules, passes, schedules = (
            DiskKernelCache(os.path.join(root, namespace)) if root else None
            for namespace in NAMESPACES
        )
        self.kernels = KernelCache(disk=kernels)
        self.modules = modules
        self.passes = PassResultCache(disk=passes)
        self.schedules = schedules

    def load_schedule(self, payload_fp: str):
        """``(record, parsed schedule module)`` persisted for a payload,
        or None.  A record that lost a field, or whose schedule text no
        longer parses, is a miss: the tuner searches again and
        overwrites it, serving falls back to the default schedule."""
        from .ir.parser import ParseError, parse_module

        record = load_record(self.schedules, schedule_key(payload_fp))
        if (
            record is None
            or not isinstance(record.get("schedule"), str)
            or not isinstance(record.get("params"), dict)
        ):
            return None
        try:
            return record, parse_module(record["schedule"])
        except ParseError:
            return None

    def store_schedule(self, payload_fp: str, record: dict) -> None:
        store_record(self.schedules, schedule_key(payload_fp), record)



class CompiledUnit(NamedTuple):
    """What :func:`compile_unit` hands back: the printed module, the IR
    behind it (None when no rung needed IR objects), the kernel (None
    when none was asked for), and which caches answered — ``modules/``
    (no frontend, no passes ran), the kernel cache (no codegen ran)."""

    text: str
    module: object
    compiled: object
    module_hit: bool
    kernel_hit: bool


def compile_unit(
    store: ArtifactStore,
    source: str,
    config: CompileConfig,
    build: Callable[[], object],
    kernel: bool = True,
    want_module: bool = False,
) -> CompiledUnit:
    """Source → module text → compiled kernel through ``store``.

    ``build()`` produces the post-pipeline module of ``source`` under
    ``config``; it runs only when ``modules/`` cannot answer.  The
    kernel is keyed off the printed text, so a fully warm unit parses
    and prints nothing (``want_module`` asks for the IR regardless).

    Cached text is trusted until something has to parse it: text that
    no longer parses is a miss — the unit is rebuilt and the artifact
    overwritten — never a failure.
    """
    from .ir.parser import ParseError

    mkey = config.module_key(source)
    text = store.modules.load_text(mkey) if store.modules is not None else None
    try:
        return _climb(store, mkey, config, build, text, kernel, want_module)
    except ParseError:
        if text is None:
            raise  # the source itself does not parse
        return _climb(store, mkey, config, build, None, kernel, want_module)


def _climb(store, mkey, config, build, text, kernel, want_module):
    from .execution.engine.codegen import compile_module
    from .ir.parser import parse_module
    from .ir.printer import print_module

    module_hit = text is not None
    module = None
    if text is None:
        module = build()
        text = print_module(module)
        if store.modules is not None:
            store.modules.store_text(mkey, text)

    def materialize():
        nonlocal module
        if module is None:
            module = parse_module(text)
        return module

    compiled = None
    codegen_ran = []
    if kernel:

        def build_kernel(key: str):
            codegen_ran.append(key)
            return compile_module(
                materialize(), key, vectorize=config.vectorize
            )

        compiled = store.kernels.get_or_compile_key(
            config.kernel_key(text_fingerprint(text)), build_kernel
        )
    if want_module:
        materialize()
    return CompiledUnit(
        text, module, compiled, module_hit, kernel and not codegen_ran
    )
