"""Pass infrastructure with per-pass (and per-pattern) timing.

Timing matters here: §V-B of the paper reports the compile-time overhead
of raising (+12% over the plain lowering pipeline), which
``benchmarks/bench_sec5b_compile_time.py`` re-measures through this
module's instrumentation.

Two compile-time optimizations live here:

* **Nested timing** — passes that run the pattern driver expose their
  :class:`~repro.ir.rewrite.RewriteResult` objects via a
  ``rewrite_results`` attribute; :class:`PassTiming` folds them into a
  pass→pattern tree (trials/rewrites/misses/time per pattern) printed
  by ``mlt-opt --timing``, in the spirit of MLIR's ``-mlir-timing``.
* **Incremental verification** — with ``verify_each``, a
  :class:`FunctionPass` reports which functions it actually changed
  (``run_on_function``'s return value) and only those are re-verified;
  module passes (or a ``None`` report) still trigger a full module
  verify.
"""

from __future__ import annotations

import hashlib
import time
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .builtin import ModuleOp
from .context import Context
from .verifier import verify


class Pass:
    """A module-level transformation."""

    #: Short pipeline name, e.g. "raise-affine-to-linalg".
    name = "unnamed-pass"

    #: Pattern-driver statistics from the most recent :meth:`run`.
    #: Passes built on a pattern driver (``apply_patterns_greedily``,
    #: ``apply_conversion``) append their
    #: ``RewriteResult`` objects here so PassTiming can report a nested
    #: pass→pattern tree.
    rewrite_results: Sequence = ()

    #: Whether results may be memoized per function by the pass cache.
    #: Only meaningful for :class:`FunctionPass` subclasses, whose
    #: ``run_on_function`` must then be a *deterministic, function-
    #: local* transform (no cross-function or ambient state beyond what
    #: :meth:`cache_config` captures).  Module-level passes are never
    #: cacheable.
    cacheable = False

    def cache_config(self) -> str:
        """Configuration folded into the pass-cache key.

        Passes whose behavior depends on constructor parameters (tile
        sizes, raise mode, target library...) must return a string that
        distinguishes every observable configuration; the default
        (``""``) is correct only for parameterless passes.
        """
        return ""

    def run(self, module: ModuleOp, context: Context) -> None:
        raise NotImplementedError

    def touched_functions(self, module: ModuleOp):
        """Functions the last :meth:`run` may have modified.

        ``None`` (the default) means "unknown — assume the whole module
        is dirty"; the PassManager then falls back to a full verify.
        :class:`FunctionPass` tracks this per function.
        """
        return None

    def __repr__(self) -> str:
        return f"<Pass {self.name}>"


class FunctionPass(Pass):
    """Convenience base running once per function in the module.

    ``run_on_function`` may return a change indicator (bool or count).
    A falsy return marks the function clean — ``verify_each`` skips
    re-verifying it.  Returning ``None`` (legacy) conservatively marks
    the function dirty.

    Subclasses needing per-run setup (building a pattern set, resolving
    default tactics) override :meth:`prepare` instead of :meth:`run`:
    the pass-cache execution path calls ``prepare`` once and then
    drives ``run_on_function`` per function itself, skipping functions
    whose result is already cached.
    """

    cacheable = True

    def prepare(self, module: ModuleOp, context: Context) -> None:
        """One-time setup before a batch of ``run_on_function`` calls."""

    def run(self, module: ModuleOp, context: Context) -> None:
        self.rewrite_results = []
        self._touched = []
        self.prepare(module, context)
        for func in module.functions:
            changed = self.run_on_function(func, context)
            if changed is None or changed:
                self._touched.append(func)

    def touched_functions(self, module: ModuleOp):
        return list(getattr(self, "_touched", []))

    def run_on_function(self, func, context: Context):
        raise NotImplementedError


class LambdaPass(Pass):
    """Wraps a plain callable as a pass."""

    def __init__(self, name: str, fn: Callable[[ModuleOp, Context], None]):
        self.name = name
        self._fn = fn

    def run(self, module: ModuleOp, context: Context) -> None:
        self._fn(module, context)


class PassTiming:
    """Per-pass wall-clock, plus a nested per-pattern breakdown."""

    def __init__(self):
        self.seconds: Dict[str, float] = {}
        self.order: List[str] = []
        #: pass name -> pattern name -> {seconds, trials, rewrites}.
        self.pattern_stats: Dict[str, Dict[str, Dict[str, float]]] = {}
        #: pass name -> pass-cache counter deltas (hits/misses/...),
        #: populated only when the owning PassManager runs with a
        #: :class:`~repro.ir.pass_cache.PassResultCache` attached.
        self.pass_cache: Dict[str, Dict[str, int]] = {}

    def record(self, name: str, elapsed: float) -> None:
        if name not in self.seconds:
            self.order.append(name)
            self.seconds[name] = 0.0
        self.seconds[name] += elapsed

    def record_patterns(self, pass_name: str, rewrite_results) -> None:
        """Fold a pass's ``RewriteResult`` list into the nested stats."""
        if not rewrite_results:
            return
        stats = self.pattern_stats.setdefault(pass_name, {})
        for result in rewrite_results:
            for pattern, trials in result.pattern_attempts.items():
                entry = stats.setdefault(
                    pattern, {"seconds": 0.0, "trials": 0, "rewrites": 0}
                )
                entry["trials"] += trials
                entry["seconds"] += result.pattern_seconds.get(pattern, 0.0)
                entry["rewrites"] += result.pattern_hits.get(pattern, 0)

    def record_pass_cache(self, pass_name: str, deltas: Dict[str, int]) -> None:
        """Fold one pass's cache-counter deltas into the timing tree."""
        deltas = {key: value for key, value in deltas.items() if value}
        if not deltas:
            return
        entry = self.pass_cache.setdefault(pass_name, {})
        for key, value in deltas.items():
            entry[key] = entry.get(key, 0) + value

    @property
    def total(self) -> float:
        return sum(self.seconds.values())

    def report(self) -> str:
        lines = ["===- Pass execution timing -==="]
        for name in self.order:
            cache_note = ""
            cached = self.pass_cache.get(name)
            if cached:
                cache_note = (
                    f"  [cache hits={cached.get('hits', 0)} "
                    f"misses={cached.get('misses', 0)} "
                    f"spliced={cached.get('spliced', 0)}]"
                )
            lines.append(
                f"  {self.seconds[name] * 1e3:9.3f} ms  {name}{cache_note}"
            )
            patterns = self.pattern_stats.get(name, {})
            for pattern, entry in sorted(
                patterns.items(),
                key=lambda item: (-item[1]["seconds"], item[0]),
            ):
                misses = entry["trials"] - entry["rewrites"]
                lines.append(
                    f"  {entry['seconds'] * 1e3:9.3f} ms    "
                    f"`- {pattern} (trials={entry['trials']}, "
                    f"rewrites={entry['rewrites']}, misses={misses})"
                )
        lines.append(f"  {self.total * 1e3:9.3f} ms  TOTAL")
        return "\n".join(lines)


class PassManager:
    """Runs a linear pipeline of passes over a module."""

    def __init__(
        self,
        context: Optional[Context] = None,
        verify_each: bool = True,
        pass_cache=None,
    ):
        self.context = context or Context()
        self.passes: List[Pass] = []
        self.verify_each = verify_each
        #: Optional :class:`~repro.ir.pass_cache.PassResultCache`.
        #: When set, cacheable :class:`FunctionPass` results are
        #: memoized per (function fingerprint, pass name, pass config)
        #: and unchanged functions skip ``run_on_function`` entirely;
        #: with a disk tier attached, whole pipeline prefixes are
        #: restored across processes.
        self.pass_cache = pass_cache
        self.timing = PassTiming()
        #: Bumped whenever a pass reports (or may have made) changes.
        self.module_version = 0
        #: Incremental-verification counters: full module verifies,
        #: individual function verifies, and function verifies *saved*
        #: by the dirty tracking.
        self.verify_stats = {
            "full_verifies": 0,
            "function_verifies": 0,
            "skipped_functions": 0,
        }

    def add(self, *passes: Pass) -> "PassManager":
        self.passes.extend(passes)
        return self

    def _verify_after(self, pass_, module: ModuleOp) -> None:
        touched = pass_.touched_functions(module)
        if touched is None:
            verify(module, self.context)
            self.verify_stats["full_verifies"] += 1
            self.module_version += 1
            module.bump_version()
            return
        for func in touched:
            verify(func, self.context)
        self.verify_stats["function_verifies"] += len(touched)
        self.verify_stats["skipped_functions"] += max(
            0, len(module.functions) - len(touched)
        )
        if touched:
            self.module_version += 1
            module.bump_version()

    def run(self, module: ModuleOp) -> PassTiming:
        if self.pass_cache is not None:
            return self._run_cached(module)
        if self.verify_each:
            verify(module, self.context)
            self.verify_stats["full_verifies"] += 1
        for pass_ in self.passes:
            start = time.perf_counter()
            pass_.run(module, self.context)
            self.timing.record(pass_.name, time.perf_counter() - start)
            self.timing.record_patterns(
                pass_.name, getattr(pass_, "rewrite_results", ())
            )
            if self.verify_each:
                self._verify_after(pass_, module)
            else:
                self.module_version += 1
                module.bump_version()
        return self.timing

    # ------------------------------------------------------------------
    # Incremental (pass-cache) execution path
    # ------------------------------------------------------------------

    def _prefix_hashes(self) -> List[Optional[str]]:
        """Chained hash of (pass name, pass config) per pipeline prefix.

        ``None`` past the first non-cacheable pass: a module pass can
        rewrite anything, so function-granular prefix artifacts are
        only sound for the leading all-cacheable prefix.
        """
        digest = hashlib.sha256()
        hashes: List[Optional[str]] = []
        sound = True
        for pass_ in self.passes:
            if sound and isinstance(pass_, FunctionPass) and pass_.cacheable:
                digest.update(
                    f"{pass_.name}\x00{pass_.cache_config()}\x01".encode(
                        "utf-8"
                    )
                )
                hashes.append(digest.hexdigest())
            else:
                sound = False
                hashes.append(None)
        return hashes

    def _run_cached(self, module: ModuleOp) -> PassTiming:
        from .pass_cache import fingerprint_and_text, splice_function

        cache = self.pass_cache
        if self.verify_each:
            verify(module, self.context)
            self.verify_stats["full_verifies"] += 1

        #: Current (fingerprint, printed text) per function (keyed by
        #: symbol name — splices replace the op object but keep the
        #: symbol), dropped whenever a pass may have changed the
        #: function.  The text rides along so that cache entries store
        #: exactly the bytes that were hashed, without a second print.
        states: Dict[str, Tuple[str, str]] = {}

        def state_of(func) -> Tuple[str, str]:
            name = func.sym_name
            got = states.get(name)
            if got is None:
                got = states[name] = fingerprint_and_text(func)
            return got

        prefix_hashes = self._prefix_hashes()
        last_prefix = -1
        for index, prefix in enumerate(prefix_hashes):
            if prefix is not None:
                last_prefix = index

        #: Per function symbol: index of the first pass still to run
        #: (everything before it was restored from a disk prefix).
        resume: Dict[str, int] = {}
        entry_fps: Dict[str, str] = {}
        if cache.disk is not None and last_prefix >= 0:
            for func in list(module.functions):
                entry_fps[func.sym_name] = state_of(func)[0]
            for func in list(module.functions):
                name = func.sym_name
                for index in range(last_prefix, -1, -1):
                    prefix = prefix_hashes[index]
                    if prefix is None:
                        continue
                    entry = cache.get(
                        cache.prefix_key(entry_fps[name], prefix)
                    )
                    if entry is None:
                        continue
                    if entry["kind"] == "rewrite":
                        splice_function(module, func, entry["text"])
                        states[name] = (entry["fp"], entry["text"])
                        self.module_version += 1
                        cache.stats.bump(spliced=1)
                    resume[name] = index + 1
                    cache.stats.bump(prefix_restores=1)
                    break

        for index, pass_ in enumerate(self.passes):
            start = time.perf_counter()
            stats_before = cache.stats.snapshot()
            if isinstance(pass_, FunctionPass) and pass_.cacheable:
                changed_any, changed_names = self._run_function_pass_cached(
                    pass_, module, index, states, resume, state_of
                )
                if self.verify_each:
                    touched = list(getattr(pass_, "_touched", []))
                    for func in touched:
                        verify(func, self.context)
                    self.verify_stats["function_verifies"] += len(touched)
                    self.verify_stats["skipped_functions"] += max(
                        0, len(module.functions) - len(touched)
                    )
                if changed_any:
                    self.module_version += 1
                    module.bump_version()
                # Functions that changed at this prefix depth get an
                # intermediate prefix artifact, so pipelines sharing
                # this prefix restore from here even when their
                # suffixes differ.
                if (
                    cache.disk is not None
                    and prefix_hashes[index] is not None
                    and changed_names
                ):
                    self._store_prefix(
                        module,
                        prefix_hashes[index],
                        {
                            name: fp
                            for name, fp in entry_fps.items()
                            if name in changed_names
                        },
                        state_of,
                    )
            else:
                pass_.run(module, self.context)
                # A module pass can rewrite anything: every memoized
                # fingerprint is stale, and prefix bookkeeping stops
                # here by construction (prefix hash is None).
                states.clear()
                if self.verify_each:
                    self._verify_after(pass_, module)
                else:
                    self.module_version += 1
                    module.bump_version()
            self.timing.record(pass_.name, time.perf_counter() - start)
            self.timing.record_patterns(
                pass_.name, getattr(pass_, "rewrite_results", ())
            )
            stats_after = cache.stats.snapshot()
            self.timing.record_pass_cache(
                pass_.name,
                {
                    key: stats_after[key] - stats_before[key]
                    for key in stats_after
                },
            )
            if (
                cache.disk is not None
                and index == last_prefix
                and prefix_hashes[index] is not None
            ):
                self._store_prefix(
                    module, prefix_hashes[index], entry_fps, state_of
                )
        return self.timing

    def _store_prefix(self, module, prefix_hash, entry_fps, state_of) -> None:
        """Persist every function's post-prefix state to the disk tier."""
        cache = self.pass_cache
        for func in list(module.functions):
            name = func.sym_name
            entry_fp = entry_fps.get(name)
            if entry_fp is None:
                continue
            key = cache.prefix_key(entry_fp, prefix_hash)
            if cache.contains(key):
                continue
            current, text = state_of(func)
            if current == entry_fp:
                cache.put(key, {"kind": "clean", "fp": current})
            else:
                cache.put(
                    key, {"kind": "rewrite", "text": text, "fp": current}
                )

    def _run_function_pass_cached(
        self, pass_, module, index, states, resume, state_of
    ) -> Tuple[bool, Set[str]]:
        from .pass_cache import splice_function

        cache = self.pass_cache
        pass_.rewrite_results = []
        pass_._touched = []
        config = pass_.cache_config()
        prepared = False
        changed_any = False
        changed_names = set()
        for func in list(module.functions):
            name = func.sym_name
            if resume.get(name, 0) > index:
                continue  # a disk prefix already covers this pass
            fp = state_of(func)[0]
            key = cache.key(fp, pass_.name, config)
            entry = cache.get(key)
            if entry is not None:
                if entry["kind"] == "rewrite":
                    splice_function(module, func, entry["text"])
                    states[name] = (entry["fp"], entry["text"])
                    changed_any = True
                    changed_names.add(name)
                    cache.stats.bump(spliced=1)
                if self.verify_each:
                    cache.stats.bump(skipped_verifies=1)
                continue
            if not prepared:
                pass_.prepare(module, self.context)
                prepared = True
            version_before = getattr(module, "version", 0)
            changed = pass_.run_on_function(func, self.context)
            cache.stats.bump(executions=1)
            if changed is None:
                changed = True
            # Belt and braces: PatternRewriter mutations bump the
            # module version, so a pass under-reporting its changes
            # still invalidates correctly.
            if getattr(module, "version", 0) != version_before:
                changed = True
            if changed:
                states.pop(name, None)
                new_fp, new_text = state_of(func)
                changed = new_fp != fp
            if changed:
                pass_._touched.append(func)
                changed_any = True
                changed_names.add(name)
                cache.put(
                    key, {"kind": "rewrite", "text": new_text, "fp": new_fp}
                )
            else:
                cache.put(key, {"kind": "clean", "fp": fp})
        return changed_any, changed_names

    def pipeline_string(self) -> str:
        return ",".join(p.name for p in self.passes)
