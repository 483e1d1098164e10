"""Pattern rewriting infrastructure.

Raisings and lowerings are expressed as :class:`RewritePattern`
subclasses.  How a pattern set is applied is a property of the pass:

* **Fixpoint** (:func:`apply_patterns_greedily`) — raising,
  canonicalization and generic raising: a rewrite may enable another,
  so patterns are re-tried until nothing fires.  This is MLIR's greedy
  machinery, here reused in the opposite, raising direction.
* **Conversion** (:func:`apply_conversion`) — the lowering passes: every
  root is expanded exactly once and what it expands to is final, so one
  walk suffices and the cost stays proportional to the op count.  The
  contract is enforced (a rewrite that creates an op the same set could
  convert raises :class:`IRError`) and differentially checked: under
  the ``snapshot`` process default the conversion runs on the reference
  fixpoint driver instead, and the fuzzer's ``driver`` check
  byte-compares the two.

Two drivers implement the fixpoint contract:

* :func:`apply_patterns_worklist` (the default) — a worklist-driven
  driver modelled on MLIR's ``GreedyPatternRewriteDriver``.  Patterns
  are pre-indexed by ``root_op_name`` in a :class:`FrozenPatternSet`,
  the worklist is seeded from a single initial walk, and after a
  pattern fires only the ops whose match status could have changed go
  back on the worklist: the created ops (and everything nested in
  them), the users of replaced results, the defining ops of erased
  operands, and the parents/neighbors of erased ops.  Ops that no
  pattern can ever match (empty ``root_op_name`` bucket) are never
  enqueued at all, and erasures are absorbed in O(1) per erased op.
* :func:`apply_patterns_snapshot` — the original driver: every sweep
  re-walks a full IR snapshot and tries every applicable pattern on
  every still-attached op.  It is kept as the reference oracle; the
  fuzzer continuously diffs printed IR between the two drivers.

Patterns MUST perform all structural mutation through the
:class:`PatternRewriter` they are handed (``insert``/``erase_op``/
``erase_nest``/``replace_op``); the worklist driver replays those
notifications to maintain its worklist and its erased-op set, and the
conversion reads them to skip erased subtrees and to check that
created ops are final.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..telemetry import add
from .builder import Builder, InsertionPoint
from .core import IRError, Operation
from .values import Value


class PatternRewriter(Builder):
    """Builder handed to patterns; records structural notifications.

    Beyond op creation, the rewriter captures everything the worklist
    driver needs for change-driven re-enqueueing: which ops were
    erased (and from where), which ops had operands redirected by a
    replacement, and which defining ops lost a use when an op was
    erased (dead-code candidates).
    """

    def __init__(self, root: Optional[Operation] = None):
        super().__init__()
        #: The op the driver runs on; None for a rewriter used on its own.
        self.root = root
        #: Per-run constant pool of the patterns that share constants
        #: (``transforms/lowering.py``), built from the IR on first use.
        #: It lives exactly as long as the run: nothing is kept on an op.
        self.constant_pool = None
        #: ``bump_version`` of the module owning ``root``, resolved once
        #: by the driver that created this rewriter; None for a rewriter
        #: used on its own, which climbs to the module on every mutation.
        self._bump = (
            None if root is None else (_module_bump(root) or _no_bump)
        )
        self.erased: List[Operation] = []
        self.created: List[Operation] = []
        #: Ops whose operands were redirected by :meth:`replace_op`.
        self.replaced_users: List[Operation] = []
        #: Defining ops of values an erased op used (they may be dead now).
        self.touched_defs: List[Operation] = []
        #: ``(parent_op, prev_sibling, next_sibling)`` per erasure site.
        self.erase_sites: List[
            Tuple[Optional[Operation], Optional[Operation], Optional[Operation]]
        ] = []

    def insert(self, op: Operation) -> Operation:
        self.created.append(op)
        super().insert(op)
        self._invalidate_fingerprints(op)
        return op

    def _invalidate_fingerprints(self, op: Operation) -> None:
        """Bump the enclosing module's mutation counter.

        Every structural mutation through a rewriter invalidates the
        module's memoized printed-IR fingerprint (kernel cache, pass
        cache) — so IR mutated through a :class:`PatternRewriter` can
        never re-serve a stale digest, even without an explicit
        ``bump_version()`` by the caller.
        """
        bump = self._bump or _module_bump(op)
        if bump is not None:
            bump()

    def reset(self) -> None:
        """Clear all notifications (the drivers reuse one rewriter)."""
        self.erased.clear()
        self.created.clear()
        self.replaced_users.clear()
        self.touched_defs.clear()
        self.erase_sites.clear()

    # -- erasure notifications ------------------------------------------

    def _note_erase_site(self, op: Operation) -> None:
        block = op.parent_block
        if block is None:
            self.erase_sites.append((None, None, None))
            return
        ops = block.operations
        index = ops.index(op)
        prev_op = ops[index - 1] if index > 0 else None
        next_op = ops[index + 1] if index + 1 < len(ops) else None
        self.erase_sites.append((op.parent_op, prev_op, next_op))

    def erase_op(self, op: Operation) -> None:
        for value in op.operands:
            def_op = value.defining_op
            if def_op is not None:
                self.touched_defs.append(def_op)
        self._note_erase_site(op)
        self._invalidate_fingerprints(op)
        op.erase()
        self.erased.append(op)

    def erase_nest(self, root: Operation) -> None:
        """Erase ``root`` and everything nested under it.

        Unlike :meth:`erase_op` this tolerates uses *internal* to the
        nest (a loop band's IVs and intermediate values); any external
        uses of the nest's results must already be gone.
        """
        subtree = list(root.walk())
        subtree_ids = {id(op) for op in subtree}
        for op in subtree:
            for value in op.operands:
                def_op = value.defining_op
                if def_op is not None and id(def_op) not in subtree_ids:
                    self.touched_defs.append(def_op)
        self._note_erase_site(root)
        self._invalidate_fingerprints(root)
        root.drop_all_references()
        if root.parent_block is not None:
            root.parent_block.remove(root)
        self.erased.append(root)

    def replace_op(self, op: Operation, new_values: Sequence[Value]) -> None:
        users: List[Operation] = []
        for res in op.results:
            for use in res.uses:
                users.append(use.owner)
        op.replace_all_uses_with(list(new_values))
        self.replaced_users.extend(users)
        self.erase_op(op)

    def replace_op_with_new(
        self, op: Operation, new_op: Operation
    ) -> Operation:
        """Insert ``new_op`` before ``op``, transfer uses, erase ``op``."""
        self.set_insertion_point_before(op)
        self.insert(new_op)
        self.replace_op(op, new_op.results)
        return new_op


def _module_bump(op: Operation):
    """``bump_version`` of the op at the top of ``op``'s parent chain
    (None when that op is not a module)."""
    top = op
    parent = top.parent_op
    while parent is not None:
        top = parent
        parent = top.parent_op
    return getattr(top, "bump_version", None)


def _no_bump() -> None:
    """Stands in for ``bump_version`` when a driver's root has no module."""


class RewritePattern:
    """A single rewrite; higher benefit patterns are tried first."""

    benefit: int = 1
    #: Optionally restrict to one op name for faster dispatch.  The
    #: worklist driver's :class:`FrozenPatternSet` indexes on this name:
    #: a pattern declaring a root is only ever *tried* on ops with that
    #: name, so declaring it prunes the match space.
    root_op_name: Optional[str] = None

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        raise NotImplementedError

    @property
    def pattern_name(self) -> str:
        return type(self).__name__


class FrozenPatternSet:
    """An immutable pattern set pre-indexed by ``root_op_name``.

    Mirrors MLIR's ``FrozenRewritePatternSet``: the benefit sort and
    the per-root bucketing happen once at freeze time, not once per
    driver invocation (let alone per op visit).  Each bucket holds the
    root-specific patterns merged with the any-op patterns, in the
    exact global benefit order the snapshot driver would try them.
    """

    def __init__(self, patterns: Sequence[RewritePattern]):
        # Stable sort: equal-benefit patterns keep registration order,
        # matching the snapshot driver's global ordering exactly.
        self._ordered: Tuple[RewritePattern, ...] = tuple(
            sorted(patterns, key=lambda p: -p.benefit)
        )
        self._generic: Tuple[RewritePattern, ...] = tuple(
            p for p in self._ordered if p.root_op_name is None
        )
        self._buckets: Dict[str, Tuple[RewritePattern, ...]] = {}
        for name in {
            p.root_op_name for p in self._ordered if p.root_op_name is not None
        }:
            self._buckets[name] = tuple(
                p
                for p in self._ordered
                if p.root_op_name is None or p.root_op_name == name
            )

    @property
    def patterns(self) -> Tuple[RewritePattern, ...]:
        return self._ordered

    def patterns_for(self, op_name: str) -> Tuple[RewritePattern, ...]:
        """Benefit-ordered patterns applicable to ops named ``op_name``."""
        return self._buckets.get(op_name, self._generic)

    def __len__(self) -> int:
        return len(self._ordered)


PatternsArg = Union[Sequence[RewritePattern], FrozenPatternSet]


def _freeze(patterns: PatternsArg) -> FrozenPatternSet:
    if isinstance(patterns, FrozenPatternSet):
        return patterns
    return FrozenPatternSet(patterns)


class RewriteResult:
    """Statistics of one driver invocation.

    ``pattern_hits`` counts successful rewrites per pattern;
    ``pattern_attempts`` counts every ``match_and_rewrite`` *trial*
    (hits plus misses) and ``pattern_seconds`` the time spent in them,
    so benchmarks can compare how much matching work each driver does.
    """

    def __init__(self):
        self.num_rewrites = 0
        self.iterations = 0
        self.pattern_hits: Dict[str, int] = {}
        self.pattern_attempts: Dict[str, int] = {}
        self.pattern_seconds: Dict[str, float] = {}

    def record(self, pattern: RewritePattern) -> None:
        self.num_rewrites += 1
        name = pattern.pattern_name
        self.pattern_hits[name] = self.pattern_hits.get(name, 0) + 1

    def record_attempt(
        self, pattern: RewritePattern, elapsed: float = 0.0
    ) -> None:
        name = pattern.pattern_name
        self.pattern_attempts[name] = self.pattern_attempts.get(name, 0) + 1
        self.pattern_seconds[name] = (
            self.pattern_seconds.get(name, 0.0) + elapsed
        )

    @property
    def trials(self) -> int:
        """Total ``match_and_rewrite`` invocations (hits + misses)."""
        return sum(self.pattern_attempts.values())

    @property
    def changed(self) -> bool:
        return self.num_rewrites > 0

    def merge(self, other: "RewriteResult") -> "RewriteResult":
        """Fold ``other``'s counters into this result (for per-function
        drivers aggregated to pass level)."""
        self.num_rewrites += other.num_rewrites
        self.iterations += other.iterations
        add(self.pattern_hits, other.pattern_hits)
        add(self.pattern_attempts, other.pattern_attempts)
        add(self.pattern_seconds, other.pattern_seconds)
        return self


# ----------------------------------------------------------------------
# Driver selection
# ----------------------------------------------------------------------

DRIVERS = ("worklist", "snapshot")

_default_driver = "worklist"


def get_default_driver() -> str:
    return _default_driver


def set_default_driver(name: str) -> None:
    global _default_driver
    if name not in DRIVERS:
        raise ValueError(f"unknown pattern driver {name!r}; known: {DRIVERS}")
    _default_driver = name


@contextmanager
def pattern_driver(name: str):
    """Temporarily switch the process-default pattern driver."""
    global _default_driver
    if name not in DRIVERS:
        raise ValueError(f"unknown pattern driver {name!r}; known: {DRIVERS}")
    previous = _default_driver
    _default_driver = name
    try:
        yield
    finally:
        _default_driver = previous


# ----------------------------------------------------------------------
# Snapshot driver (reference oracle)
# ----------------------------------------------------------------------


def _is_attached(op: Operation, root: Operation) -> bool:
    """True when ``op`` is still reachable from ``root``."""
    node: Optional[Operation] = op
    while node is not None:
        if node is root:
            return True
        node = node.parent_op
    return False


def apply_patterns_snapshot(
    root: Operation,
    patterns: PatternsArg,
    max_iterations: int = 64,
) -> RewriteResult:
    """Apply patterns to all ops under ``root`` until fixpoint.

    Each sweep walks a snapshot of the IR; patterns are tried in
    descending benefit order on every still-attached op.  Sweeps repeat
    until none fires (or the iteration cap is hit, which signals a
    non-converging pattern set).  This is the original O(sweeps × ops ×
    patterns) driver, kept as the reference the worklist driver is
    continuously diffed against.
    """
    frozen = _freeze(patterns)
    result = RewriteResult()
    rewriter = PatternRewriter(root)
    for _ in range(max_iterations):
        result.iterations += 1
        changed = False
        # Materialize the walk first: patterns mutate the tree.
        for op in list(root.walk()):
            if op is not root and not _is_attached(op, root):
                continue  # erased/detached by an earlier rewrite this sweep
            for pattern in frozen.patterns_for(op.name):
                started = time.perf_counter()
                matched = pattern.match_and_rewrite(op, rewriter)
                result.record_attempt(
                    pattern, time.perf_counter() - started
                )
                if matched:
                    result.record(pattern)
                    rewriter.reset()
                    changed = True
                    break
        if not changed:
            return result
    raise IRError(
        f"pattern application did not converge after {max_iterations} sweeps"
    )


# ----------------------------------------------------------------------
# Worklist driver (the default)
# ----------------------------------------------------------------------


def apply_patterns_worklist(
    root: Operation,
    patterns: PatternsArg,
    max_iterations: int = 64,
) -> RewriteResult:
    """Worklist-driven greedy rewriting.

    The worklist is seeded once, from a single pre-order walk.  Rounds
    mirror the snapshot driver's sweeps — ops re-enqueued by a rewrite
    are processed in the *next* round, exactly when a fresh snapshot
    sweep would revisit them — but a round only revisits the ops a
    rewrite could actually have affected, instead of the whole module:

    * the created ops and everything nested in them (plus their
      ancestor chain — an insertion changes the parents' structure),
    * the users of replaced results,
    * the defining ops of values an erased op used (now possibly dead),
    * the parents, ancestor chain, and block neighbors of erased ops.

    Erasures are absorbed in O(1) per erased op: only the erased root's
    id is recorded, and a popped op is recognized as stale by climbing
    its parent chain (the same check a snapshot sweep performs per op)
    until it reaches ``root``, an erased ancestor, or detachment.
    """
    frozen = _freeze(patterns)
    result = RewriteResult()
    rewriter = PatternRewriter(root)
    erased_ids: set = set()
    #: Keeps erased subtrees alive so their ids stay unique for the run.
    keepalive: List[Operation] = []
    buckets_get = frozen._buckets.get
    generic = frozen._generic
    record_attempt = result.record_attempt
    perf_counter = time.perf_counter
    # Ops whose bucket is empty can never match: never enqueue them.
    # (Op names are immutable — rewrites create new ops instead.)
    current: deque = deque(
        op for op in root.walk() if buckets_get(op.name, generic)
    )
    queued: set = set(map(id, current))
    next_round: deque = deque()

    def push(op: Optional[Operation]) -> None:
        if op is None or op is root:
            return
        if id(op) in queued or id(op) in erased_ids:
            return
        if not buckets_get(op.name, generic):
            return
        next_round.append(op)
        queued.add(id(op))

    def absorb(rewriter: PatternRewriter) -> None:
        # Gather every op a rewrite could have affected, then filter
        # and enqueue in one flat pass (this runs once per fired
        # rewrite, with ~20 candidates each — avoid per-candidate
        # function calls).
        candidates: List[Optional[Operation]] = []
        extend = candidates.extend
        append = candidates.append
        for erased in rewriter.erased:
            erased_ids.add(id(erased))
            queued.discard(id(erased))
            keepalive.append(erased)
        for created in rewriter.created:
            if id(created) in erased_ids:
                continue  # created then erased within the same rewrite
            if created.regions:
                extend(created.walk())
            else:
                append(created)
            node = created.parent_op
            while node is not None and node is not root:
                append(node)
                node = node.parent_op
        for parent, prev_op, next_op in rewriter.erase_sites:
            append(prev_op)
            append(next_op)
            node = parent
            while node is not None and node is not root:
                append(node)
                node = node.parent_op
        extend(rewriter.replaced_users)
        extend(rewriter.touched_defs)
        for op in candidates:
            if op is None or op is root:
                continue
            op_id = id(op)
            if op_id in queued or op_id in erased_ids:
                continue
            if not buckets_get(op.name, generic):
                continue
            next_round.append(op)
            queued.add(op_id)

    while current:
        result.iterations += 1
        if result.iterations > max_iterations:
            raise IRError(
                f"pattern application did not converge after "
                f"{max_iterations} sweeps"
            )
        while current:
            op = current.popleft()
            queued.discard(id(op))
            if id(op) in erased_ids:
                continue  # erased through a rewriter notification
            if op is not root:
                # Stale if any ancestor was erased or the op is detached.
                node = op.parent_op
                while (
                    node is not None
                    and node is not root
                    and id(node) not in erased_ids
                ):
                    node = node.parent_op
                if node is not root:
                    continue
            for pattern in buckets_get(op.name, generic):
                started = perf_counter()
                matched = pattern.match_and_rewrite(op, rewriter)
                record_attempt(pattern, perf_counter() - started)
                if not matched:
                    continue
                result.record(pattern)
                absorb(rewriter)
                rewriter.reset()
                if id(op) not in erased_ids:
                    # In-place change: the root op may match again.
                    push(op)
                break
        current, next_round = next_round, current
    return result


def apply_patterns_greedily(
    root: Operation,
    patterns: PatternsArg,
    max_iterations: int = 64,
    driver: Optional[str] = None,
) -> RewriteResult:
    """Apply patterns under ``root`` until fixpoint with the selected
    driver (process default when ``driver`` is None)."""
    chosen = driver if driver is not None else _default_driver
    if chosen == "worklist":
        return apply_patterns_worklist(root, patterns, max_iterations)
    if chosen == "snapshot":
        return apply_patterns_snapshot(root, patterns, max_iterations)
    raise ValueError(f"unknown pattern driver {chosen!r}; known: {DRIVERS}")


# ----------------------------------------------------------------------
# Conversion (the lowering passes)
# ----------------------------------------------------------------------


def apply_conversion(root: Operation, patterns: PatternsArg) -> RewriteResult:
    """Convert every op under ``root`` that ``patterns`` has a root for,
    in one pre-order walk.

    Each seeded op gets the first pattern of its bucket that matches; an
    op erased by an earlier rewrite (or nested in one, or detached) is
    skipped; nothing is ever re-enqueued.  That is only sound if what a
    rewrite leaves behind is final, so both halves of that contract are
    checked: a rewrite must erase its root, and may not create an op
    the same pattern set could convert — either raises :class:`IRError`
    instead of silently leaving an un-lowered op.

    Under the ``snapshot`` process default this delegates to the
    reference fixpoint driver, which is how the fuzzer's ``driver``
    check diffs the one-walk result against a fixpoint on every seed.
    """
    if _default_driver == "snapshot":
        return apply_patterns_snapshot(root, patterns)
    frozen = _freeze(patterns)
    result = RewriteResult()
    result.iterations = 1
    rewriter = PatternRewriter(root)
    erased_ids: set = set()
    #: Keeps erased subtrees alive so their ids stay unique for the run.
    keepalive: List[Operation] = []
    buckets_get = frozen._buckets.get
    generic = frozen._generic
    record_attempt = result.record_attempt
    perf_counter = time.perf_counter
    for op in [op for op in root.walk() if buckets_get(op.name, generic)]:
        if id(op) in erased_ids or (op.parent_block is None and op is not root):
            continue
        for pattern in buckets_get(op.name, generic):
            started = perf_counter()
            matched = pattern.match_and_rewrite(op, rewriter)
            record_attempt(pattern, perf_counter() - started)
            if not matched:
                continue
            result.record(pattern)
            keepalive.extend(rewriter.erased)
            for erased in rewriter.erased:
                erased_ids.update(map(id, erased.walk()))
            if id(op) not in erased_ids:
                raise IRError(
                    f"conversion pattern {pattern.pattern_name} left its "
                    f"root {op.name} in place"
                )
            for created in rewriter.created:
                if id(created) not in erased_ids and buckets_get(
                    created.name, generic
                ):
                    raise IRError(
                        f"conversion pattern {pattern.pattern_name} created "
                        f"{created.name}, which the same pattern set "
                        f"converts: created ops must be final"
                    )
            rewriter.reset()
            break
    return result
