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

It is also the one transformation driver: a schedule's steps
(``scheduling.interpreter.apply_schedule``) are passes run here, with
``transform.match`` as a :class:`FunctionFilter`, and a
:class:`KeyedSearch` keeps the payload read-only until a pass has to
touch IR.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..telemetry import add, delta
from .builtin import FuncOp, ModuleOp
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

    What a pass did goes through :meth:`count` into :attr:`counters`.
    The pass cache stores each function's share in its entry (``meta``)
    and adds it back on a hit, so the counters read the same however
    much was cached.  The raising passes count here too: their
    ``RaiseStats`` is a view over these counters.
    """

    cacheable = True

    @property
    def counters(self) -> Dict:
        """Everything :meth:`count` recorded so far, as a snapshot
        (``str -> int``, nested dicts allowed)."""
        return self.__dict__.setdefault("_counters", {})

    def count(self, **amounts) -> None:
        """Add ``amounts`` to :attr:`counters`; zeros and empty dicts
        are dropped."""
        add(self.counters, {name: n for name, n in amounts.items() if n})

    def run_counted(self, func, context: Context):
        """``(run_on_function's report, what it counted or None)``, the
        counts kept out of :attr:`counters`: the caller adds them (a
        re-run that only repairs a damaged cache entry must not)."""
        total, self._counters = self.counters, {}
        try:
            reported = self.run_on_function(func, context)
            counted = self._counters
        finally:
            self._counters = total
        return reported, counted or None

    def prepare(self, module: ModuleOp, context: Context) -> None:
        """One-time setup before a batch of ``run_on_function`` calls."""

    def run(
        self,
        module: ModuleOp,
        context: Context,
        functions: Optional[Sequence[FuncOp]] = None,
    ) -> None:
        """Run over ``functions`` (default: all of ``module``'s)."""
        self.rewrite_results = []
        self._touched = []
        self.prepare(module, context)
        for func in module.functions if functions is None else functions:
            changed = self.run_on_function(func, context)
            if changed is None or changed:
                self._touched.append(func)

    def touched_functions(self, module: ModuleOp):
        return list(getattr(self, "_touched", []))

    def run_on_function(self, func, context: Context):
        raise NotImplementedError


class FunctionFilter(Pass):
    """Narrows the function passes after it to the functions ``gate``
    admits: a schedule's ``transform.match``.  It must be the first
    pass.  Module passes still see every function.

    Counts ``functions_seen`` (every function looked at) and
    ``functions_skipped`` (refused by the gate).
    """

    name = "function-filter"

    def __init__(self, gate: Callable[[FuncOp], bool]):
        self.gate = gate
        self.counters = {"functions_seen": 0, "functions_skipped": 0}


class KeyedSearch:
    """Many pipelines run over one payload, each keyed before it is
    built.

    Passed to :meth:`PassManager.run` as ``keyed``, it leaves the
    payload untouched, and every cached pass is first a lookup that
    only advances the fingerprints, so the run's ``outcome`` is known
    before any IR is.  A run whose outcome is in ``known`` (the tuner
    maps each to its kernel key) clones, parses, splices and prints
    nothing; any other clones the payload when a pass first has to
    touch IR.  Keep one per payload and gate: ``functions`` remembers
    per symbol whether the gate admits the function, and its
    fingerprint.
    """

    def __init__(self) -> None:
        self.known: Dict[tuple, object] = {}
        self.functions: Dict[str, Tuple[bool, Optional[str]]] = {}


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
        #: What the last :meth:`run` rewrote and reached (see there).
        self.payload: Optional[ModuleOp] = None
        self.outcome: Optional[tuple] = None
        self._source: Optional[ModuleOp] = None
        #: Per function symbol (splices replace the op, not the symbol):
        #: where the current run of memoized passes has got to.
        self._cursors: Dict[str, FunctionCursor] = {}

    def add(self, *passes: Pass) -> "PassManager":
        self.passes.extend(passes)
        return self

    def _after_pass(self, pass_, changed: Optional[bool] = None) -> None:
        """Re-verify what ``pass_`` touched (under ``verify_each``) and
        stamp the module if it changed.  ``changed`` is the cached
        path's exact answer; None derives it from what was touched
        (without ``verify_each``: assume changed)."""
        module = self.payload
        if module is None:  # a keyed run that has built nothing yet
            return
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

    def run(
        self, module: ModuleOp, keyed: Optional[KeyedSearch] = None
    ) -> PassTiming:
        """Run every pass over ``module``; returns :attr:`timing`.

        :attr:`payload` is then the module the passes rewrote: ``module``
        itself, or with ``keyed`` (a :class:`KeyedSearch`) its clone or
        None.  With a pass cache :attr:`outcome` is the fingerprint each
        cursor ended at: on one payload, equal outcomes are equal
        modules.  It is None after a module pass, which sees more than
        the fingerprints say.
        """
        cache = self.pass_cache
        if self.verify_each:
            verify(module, self.context)
            self.verify_stats["full_verifies"] += 1
        self._source = module
        # A keyed payload is read-only.  Passes write to its clone, made
        # when one first has to touch IR: at once without a pass cache,
        # where every pass does.
        self.payload = module
        if keyed is not None:
            self.payload = None if cache is not None else module.clone()
        self.outcome = None
        #: Symbols the function passes run on; None: every function.
        selected = None
        exact = cache is not None
        try:
            for index, pass_ in enumerate(self.passes):
                start = time.perf_counter()
                changed = None
                if isinstance(pass_, FunctionFilter):
                    if index:
                        raise ValueError(
                            f"{pass_.name} must be the first pass"
                        )
                    selected = self._select(pass_, keyed)
                    changed = False
                elif (
                    cache is not None
                    and isinstance(pass_, FunctionPass)
                    and pass_.cacheable
                ):
                    changed = self._run_cached(pass_, selected)
                else:
                    # A module pass can read and rewrite anything: it
                    # gets the real functions, and no fingerprint
                    # survives it.
                    exact = False
                    work = self._settle_all()
                    if isinstance(pass_, FunctionPass):
                        pass_.run(work, self.context, _chosen(work, selected))
                    else:
                        pass_.run(work, self.context)
                self.timing.record(pass_.name, time.perf_counter() - start)
                self.timing.record_patterns(
                    pass_.name, getattr(pass_, "rewrite_results", ())
                )
                self._after_pass(pass_, changed)
            if exact:
                self.outcome = tuple(
                    cursor.fp for cursor in self._cursors.values()
                )
        finally:
            # Also when a pass raised: the module then still holds
            # every result that was reached.
            if keyed is None or self.outcome not in keyed.known:
                self._settle_all()
            self._cursors = {}
            self._source = None
        return self.timing

    # ------------------------------------------------------------------
    # Function cursors: where each function's run of cached passes is
    # ------------------------------------------------------------------

    def _writable(self) -> ModuleOp:
        """The module passes write to.  A keyed run clones its payload
        here, when a pass first has to touch IR."""
        if self.payload is None:
            self.payload = self._source.clone()
            twins = {func.sym_name: func for func in self.payload.functions}
            for symbol, cursor in self._cursors.items():
                cursor.func = twins[symbol]
        return self.payload

    def _settle(self, cursors) -> None:
        """Apply the cursors' outstanding chains of hits to the module
        (re-verifying a function that had to be re-run to get there)."""
        for cursor in cursors:
            if cursor.settle() and self.verify_each:
                verify(cursor.func, self.context)

    def _settle_all(self) -> ModuleOp:
        """Settle every cursor into the writable module and drop them
        all (what a module pass needs)."""
        module = self._writable()
        self._settle(self._cursors.values())
        self._cursors = {}
        return module

    def _current(self) -> ModuleOp:
        return self._source if self.payload is None else self.payload

    def _select(self, filter_: FunctionFilter, keyed) -> set:
        """The symbols ``filter_`` takes, each given a cursor when there
        is a pass cache.  On a keyed run's untouched payload the gate's
        answer and the fingerprint are memoized in ``keyed.functions``."""
        memo = None
        if keyed is not None and self.payload is None:
            memo = keyed.functions
        counters = filter_.counters
        selected = set()
        for func in self._current().functions:
            counters["functions_seen"] += 1
            symbol = func.sym_name
            facts = memo.get(symbol) if memo is not None else None
            if facts is None:
                facts = (filter_.gate(func), None)
            if not facts[0]:
                counters["functions_skipped"] += 1
            else:
                selected.add(symbol)
                if self.pass_cache is not None:
                    cursor = FunctionCursor(self.pass_cache, func, facts[1])
                    self._cursors[symbol] = cursor
                    facts = (True, cursor.fp)
            if memo is not None:
                memo[symbol] = facts
        return selected

    def _run_cached(self, pass_, selected) -> bool:
        """``pass_`` over the selected functions through the pass
        cache: a hit only advances that function's cursor (and adds the
        entry's counters), a miss settles it and runs the pass.
        Returns whether any function changed."""
        cache = self.pass_cache
        pass_.rewrite_results = []
        pass_._touched = []
        config = pass_.cache_config()
        prepared = False

        def run(func):
            nonlocal prepared
            if not prepared:
                pass_.prepare(self.payload, self.context)
                prepared = True
            return pass_.run_counted(func, self.context)

        if not self._cursors:  # none since the last filter or module pass
            self._cursors = {
                func.sym_name: FunctionCursor(cache, func)
                for func in _chosen(self._current(), selected)
            }
            if not self._cursors:
                return False
        before = cache.stats.snapshot()
        changed_any = False
        for cursor in self._cursors.values():
            entry = cursor.replay(pass_.name, config, run)
            if entry is not None:
                changed_any |= entry["kind"] == "rewrite"
                if "meta" in entry:
                    add(pass_.counters, entry["meta"])
                if self.verify_each:
                    cache.stats.bump(skipped_verifies=1)
                continue
            self._writable()
            self._settle([cursor])
            changed, counted = cursor.execute(pass_.name, config, run)
            if counted:
                add(pass_.counters, counted)
            if changed:
                pass_._touched.append(cursor.func)
                changed_any = True
        moved = delta(cache.stats.snapshot(), before)
        add(self.timing.pass_cache, {pass_.name: moved})
        return changed_any

    def pipeline_string(self) -> str:
        return ",".join(p.name for p in self.passes)


def _chosen(module: ModuleOp, selected) -> List[FuncOp]:
    """``module``'s functions among the ``selected`` symbols (None:
    all), in module order."""
    return [
        func
        for func in module.functions
        if selected is None or func.sym_name in selected
    ]
