"""Counters: the one counter type, and the two operations over snapshots.

Every layer reports what it did as integer counters.  A counter block
that several threads bump — the kernel cache tiers, the pass-result
cache — is a :class:`Counters`; what leaves a layer is a *snapshot*, a
plain (possibly nested) ``str -> int`` dict, JSON-safe.  Two functions
cover every way snapshots combine:

* :func:`delta` — what moved between two snapshots of one block (a
  unit's share of a long-lived cache, a pass's or a schedule step's
  counter changes);
* :func:`add` — fold one snapshot into a running total (a batch summed
  over units, a fuzz campaign over seeds, raising tiers into one
  report; per-pattern seconds sum the same way).

A ``None`` tier (a cache with no disk tier attached) passes through
both unchanged.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional


class Counters:
    """A lock-guarded block of named integer counters.

    Engines, serving executor threads and the pool bridge may bump one
    block concurrently, and a bare ``stats.hits += 1`` from two threads
    can lose increments, so every mutation goes through :meth:`bump`.
    Reads are attributes (``stats.hits``); :meth:`snapshot` is one
    consistent copy of all of them, in declaration order.
    """

    __slots__ = ("_values", "_lock")

    def __init__(self, *names: str):
        self._values = dict.fromkeys(names, 0)
        self._lock = threading.Lock()

    def __getattr__(self, name: str) -> int:
        if name.startswith("_"):
            raise AttributeError(name)
        try:
            return self._values[name]
        except KeyError:
            raise AttributeError(name) from None

    def bump(self, **deltas: int) -> None:
        """Atomically add ``deltas`` to the named counters (an
        undeclared name is a ``KeyError``, never a new counter)."""
        with self._lock:
            values = self._values
            for name, amount in deltas.items():
                values[name] += amount

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._values)


def delta(after: Optional[dict], before: Optional[dict]) -> Optional[dict]:
    """``after - before`` over nested int-dict snapshots, keeping only
    the counters that moved; nested dicts keep their key, so a
    ``{memory, disk}`` snapshot stays ``{memory, disk}``.  A key missing
    from ``before`` counts from zero."""
    if after is None:
        return None
    before = before or {}
    moved = {}
    for key, value in after.items():
        if value is None or isinstance(value, dict):
            moved[key] = delta(value, before.get(key))
        else:
            change = value - before.get(key, 0)
            if change:
                moved[key] = change
    return moved


def add(into: dict, other: Optional[dict]) -> dict:
    """Fold ``other`` into ``into`` in place (nested dicts recurse and
    are created as needed) and return ``into``."""
    for key, value in (other or {}).items():
        if value is None:
            into.setdefault(key, None)
        elif isinstance(value, dict):
            mine = into.get(key)
            if mine is None:
                mine = into[key] = {}
            add(mine, value)
        else:
            into[key] = into.get(key, 0) + value
    return into
