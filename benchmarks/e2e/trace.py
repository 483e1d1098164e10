"""Span recording from *outside* the program.

Nothing under ``src/`` knows about tracing.  A traced run swaps the
program's public entry points for wrappers that record a span per call
(:meth:`Tracer.instrument`), and the workloads open explicit spans
around the calls they make themselves.  Spans live in memory and are
written once, at exit, as a Chrome trace.

A span is ``(name, start, end, parent, sample)``: ``parent`` is the
index of the span that was open when it started, ``sample`` the id of
the timed sample or request it belongs to.  A span's *self time* is
its duration minus the part its children cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        #: [name, start_s, end_s, parent_index, sample_id]
        self.spans: List[list] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = []
        #: sample id -> name of its root span; id 0 = outside any sample
        self._roots: Dict[int, str] = {}
        self._sample = 0

    # -- recording ------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    @contextmanager
    def sample(self, name: str = "sample"):
        """Root span of one timed sample; children share its id.

        Totals and counters are kept per root *name*, so a run can
        interleave, say, ``"sample"`` and ``"control"`` roots and read
        them apart.
        """
        sample_id = len(self._roots) + 1
        self._roots[sample_id] = name
        self._sample = sample_id
        try:
            with self.span(name) as index:
                yield index
        finally:
            self._sample = 0

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            [name, self._clock(), 0.0, parent, self._sample]
        )
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = self._clock()
        self._stack.pop()

    def count(self, name: str, delta: float = 1) -> None:
        """Add to counter ``name`` of the current root (``"sample"``
        roots use the bare name, others ``"<root>/<name>"``)."""
        root = self._roots.get(self._sample, "sample")
        key = name if root == "sample" else f"{root}/{name}"
        self.counters[key] = self.counters.get(key, 0) + delta

    def inside(self, name: str) -> bool:
        """True when a span called ``name`` is currently open."""
        return any(self.spans[i][0] == name for i in self._stack)

    # -- instrumentation ------------------------------------------------

    def instrument(
        self,
        owner,
        attr: str,
        name: str,
        hook: Optional[Callable] = None,
    ) -> None:
        """Wrap ``owner.attr`` (a module function or a class method) in
        a span called ``name``.

        A module function is also re-bound in every loaded ``repro``
        module that imported it by name, so composite calls such as
        ``run_batch`` show their inner layers.  ``hook(tracer, args,
        kwargs)`` runs before the call and may return ``done(result)``
        to run after it — how counts are read off arguments and
        results.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            done = hook(self, args, kwargs) if hook is not None else None
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if done is not None:
                done(result)
            return result

        holders = [owner]
        if not isinstance(owner, type):
            holders += [
                module
                for mod_name, module in list(sys.modules.items())
                if mod_name.startswith("repro")
                and module is not None
                and module is not owner
                and vars(module).get(attr) is original
            ]
        for holder in holders:
            setattr(holder, attr, wrapper)

    # -- analysis -------------------------------------------------------

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, total and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            row = table.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - child_time[index]
        return table

    def total(self, name: str, root: str = "sample") -> float:
        """Summed duration (s) of the spans called ``name`` inside
        samples whose root span is called ``root``."""
        roots = self._roots
        return sum(
            s[2] - s[1]
            for s in self.spans
            if s[0] == name and roots.get(s[4]) == root
        )

    def coverage(self, root: str = "sample") -> float:
        """Share of the root spans' wall that their direct children
        account for — how much of a sample the layer spans explain."""
        wall = covered = 0.0
        roots = set()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            if name == root:
                roots.add(index)
                wall += end - start
        for name, start, end, parent, _ in self.spans:
            if parent in roots:
                covered += end - start
        return covered / wall if wall else 0.0

    def write_chrome_trace(self, path: str) -> None:
        if not self.spans:
            return
        origin = self.spans[0][1]
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"sample": sample, "parent": parent},
            }
            for name, start, end, parent, sample in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events}, handle)

    def layer_table(self) -> str:
        rows = sorted(
            self.self_times().items(), key=lambda kv: -kv[1]["self_s"]
        )
        lines = [f"{'span':32} {'calls':>8} {'total ms':>12} {'self ms':>12}"]
        for name, row in rows:
            lines.append(
                f"{name:32} {row['calls']:8d} "
                f"{row['total_s'] * 1e3:12.3f} {row['self_s'] * 1e3:12.3f}"
            )
        return "\n".join(lines)


class NullTracer(Tracer):
    """Tracing off: spans cost one generator frame and record nothing."""

    @contextmanager
    def span(self, name: str):
        yield -1

    @contextmanager
    def sample(self, name: str = "sample"):
        yield -1

    def count(self, name: str, delta: float = 1) -> None:
        pass

    def instrument(self, owner, attr, name, hook=None) -> None:
        pass
