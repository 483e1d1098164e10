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

import time
from typing import Callable, Dict, List, Optional, Sequence

from ..telemetry import add, delta
from .builtin import ModuleOp
from .context import Context
from .pass_cache import FunctionCursor
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
        #: and unchanged functions skip ``run_on_function`` entirely
        #: (across processes too, with a disk tier attached).
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

    def _after_pass(
        self, pass_, module: ModuleOp, changed: Optional[bool] = None
    ) -> None:
        """Re-verify what ``pass_`` touched (under ``verify_each``) and
        stamp the module if it changed.  ``changed`` is the cached
        path's exact answer; None derives it from what was touched
        (without ``verify_each``: assume changed)."""
        dirty = True
        if self.verify_each:
            touched = pass_.touched_functions(module)
            if touched is None:
                verify(module, self.context)
                self.verify_stats["full_verifies"] += 1
            else:
                for func in touched:
                    verify(func, self.context)
                self.verify_stats["function_verifies"] += len(touched)
                self.verify_stats["skipped_functions"] += max(
                    0, len(module.functions) - len(touched)
                )
                dirty = bool(touched)
        if changed is None:
            changed = dirty
        if changed:
            self.module_version += 1
            module.bump_version()

    def run(self, module: ModuleOp) -> PassTiming:
        cache = self.pass_cache
        if self.verify_each:
            verify(module, self.context)
            self.verify_stats["full_verifies"] += 1
        #: Per function symbol (splices replace the op, not the symbol):
        #: where the current run of memoized passes has got to.
        cursors: Dict[str, FunctionCursor] = {}
        try:
            for pass_ in self.passes:
                start = time.perf_counter()
                changed = None
                if (
                    cache is not None
                    and isinstance(pass_, FunctionPass)
                    and pass_.cacheable
                ):
                    before = cache.stats.snapshot()
                    changed = self._run_cached(pass_, module, cursors)
                    add(
                        self.timing.pass_cache,
                        {pass_.name: delta(cache.stats.snapshot(), before)},
                    )
                else:
                    # A module pass can read and rewrite anything: it
                    # gets the real functions, and no fingerprint
                    # survives it.
                    self._settle(cursors.values())
                    cursors.clear()
                    pass_.run(module, self.context)
                self.timing.record(pass_.name, time.perf_counter() - start)
                self.timing.record_patterns(
                    pass_.name, getattr(pass_, "rewrite_results", ())
                )
                self._after_pass(pass_, module, changed)
        finally:
            # Also when a pass raised: the module then still holds
            # every result that was reached.
            self._settle(cursors.values())
        return self.timing

    # ------------------------------------------------------------------
    # Incremental (pass-cache) execution of one function pass
    # ------------------------------------------------------------------

    def _settle(self, cursors) -> None:
        """Apply the cursors' outstanding chains of hits to the module
        (re-verifying a function that had to be re-run to get there)."""
        for cursor in cursors:
            if cursor.settle() and self.verify_each:
                verify(cursor.func, self.context)

    def _run_cached(self, pass_, module: ModuleOp, cursors) -> bool:
        """``pass_`` over every function through the pass cache: a hit
        only advances that function's cursor, a miss settles it and
        runs the pass.  Returns whether any function changed."""
        cache = self.pass_cache
        pass_.rewrite_results = []
        pass_._touched = []
        config = pass_.cache_config()
        prepared = False

        def run(func):
            nonlocal prepared
            if not prepared:
                pass_.prepare(module, self.context)
                prepared = True
            return pass_.run_on_function(func, self.context), None

        changed_any = False
        for func in module.functions:
            cursor = cursors.get(func.sym_name)
            if cursor is None:
                cursor = cursors[func.sym_name] = FunctionCursor(cache, func)
            entry = cursor.replay(pass_.name, config, run)
            if entry is not None:
                changed_any |= entry["kind"] == "rewrite"
                if self.verify_each:
                    cache.stats.bump(skipped_verifies=1)
                continue
            self._settle([cursor])
            if cursor.execute(pass_.name, config, run)[0]:
                pass_._touched.append(cursor.func)
                changed_any = True
        return changed_any

    def pipeline_string(self) -> str:
        return ",".join(p.name for p in self.passes)
