"""``repro.telemetry`` — one counter type, ``delta`` and ``add``."""

import pytest

from repro.telemetry import Counters, add, delta


def test_counters_read_as_attributes_and_refuse_unknown_names():
    stats = Counters("hits", "misses")
    stats.bump(hits=2, misses=1)
    assert (stats.hits, stats.misses) == (2, 1)
    assert stats.snapshot() == {"hits": 2, "misses": 1}
    assert list(stats.snapshot()) == ["hits", "misses"]
    with pytest.raises(KeyError):
        stats.bump(hist=1)
    with pytest.raises(AttributeError):
        stats.hist


def test_snapshot_is_a_copy():
    stats = Counters("hits")
    snap = stats.snapshot()
    stats.bump(hits=1)
    assert snap == {"hits": 0}


def test_delta_keeps_only_what_moved_in_nested_snapshots():
    before = {"memory": {"hits": 1, "misses": 2}, "disk": {"hits": 0}}
    after = {"memory": {"hits": 4, "misses": 2}, "disk": {"hits": 0}}
    # Zero entries are dropped; the tiers keep their keys.
    assert delta(after, before) == {"memory": {"hits": 3}, "disk": {}}
    assert delta(after, after) == {"memory": {}, "disk": {}}


def test_delta_passes_none_tiers_through():
    before = {"memory": {"hits": 1}, "disk": None}
    after = {"memory": {"hits": 2}, "disk": None}
    assert delta(after, before) == {"memory": {"hits": 1}, "disk": None}
    assert delta(None, before) is None


def test_delta_counts_missing_keys_from_zero():
    assert delta({"hits": 2, "misses": 0}, {}) == {"hits": 2}
    assert delta({"hits": 2}, None) == {"hits": 2}
    assert delta({"hits": 1}, {"hits": 3}) == {"hits": -2}


def test_add_sums_nested_snapshots_in_place():
    into = {"memory": {"hits": 1}, "bail_reasons": {"a": 1}}
    other = {
        "memory": {"hits": 2, "misses": 1},
        "bail_reasons": {"b": 4},
        "new": {"x": {"y": 1}},
    }
    assert add(into, other) is into
    assert into == {
        "memory": {"hits": 3, "misses": 1},
        "bail_reasons": {"a": 1, "b": 4},
        "new": {"x": {"y": 1}},
    }
    # The created nested dicts are ``into``'s own, not ``other``'s.
    other["new"]["x"]["y"] = 100
    assert into["new"]["x"]["y"] == 1


def test_add_passes_none_tiers_through():
    into = {}
    add(into, {"memory": {"hits": 1}, "disk": None})
    assert into == {"memory": {"hits": 1}, "disk": None}
    add(into, {"memory": {"hits": 1}, "disk": {"hits": 2}})
    assert into == {"memory": {"hits": 2}, "disk": {"hits": 2}}
    add(into, {"memory": None, "disk": None})
    assert into == {"memory": {"hits": 2}, "disk": {"hits": 2}}
    assert add(into, None) == into


def test_add_then_delta_round_trips():
    before = {"memory": {"hits": 5, "misses": 1}, "disk": None}
    moved = {"memory": {"hits": 2}, "disk": None}
    after = add({"memory": dict(before["memory"]), "disk": None}, moved)
    assert delta(after, before) == moved
