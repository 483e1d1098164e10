"""Tests of the instrument itself.

Run with ``python -m pytest benchmarks/e2e -q`` (not part of the tier-1
``testpaths``).  They need nothing from ``src/``: what is tested is the
statistics, the open-loop accounting, the tracer and the name tables.
"""

import json
import os
import re

import pytest

from . import loadgen, spec, stats
from .trace import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- percentiles --------------------------------------------------------


def test_percentile_refuses_fewer_than_ten_beyond():
    values = list(range(1, 101))  # 100 samples
    assert stats.percentile(values, 90) == 90  # exactly 10 beyond
    with pytest.raises(ValueError):
        stats.percentile(values, 91)  # 9 beyond
    with pytest.raises(ValueError):
        stats.percentile(values[:99], 90)
    with pytest.raises(ValueError):
        stats.percentile(values, 100)


def test_samples_needed_matches_percentile():
    for p in (50, 75, 90, 95, 99):
        n = stats.samples_needed(p)
        stats.percentile(list(range(n)), p)
        with pytest.raises(ValueError):
            stats.percentile(list(range(n - 1)), p)
    assert stats.samples_needed(90) == 100
    assert stats.samples_needed(99) == 1000


def test_supported_percentile_walks_the_ladder():
    assert stats.supported_percentile(1000, (99, 95, 90)) == 99
    assert stats.supported_percentile(999, (99, 95, 90)) == 95
    assert stats.supported_percentile(50, (99, 95, 90)) is None


def test_spread_is_iqr_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    import statistics

    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / 14.5)


def test_normaliser_scales_to_the_reference_box():
    ticks = iter([10.0, 10.0, 20.0, 20.0])
    norm = stats.Normaliser(lambda: next(ticks), ref_ms=5.0)
    assert [norm.tick() for _ in range(4)] == [0, 1, 2, 3]
    # Ticks 0..1 say the box was twice as slow as the reference while
    # this value was measured: halve it.  Ticks 2..3 say four times.
    assert norm.scale(8.0, 0, 2) == pytest.approx(4.0)
    assert norm.scale(8.0, 2, 4) == pytest.approx(2.0)
    assert norm.cal_ms == pytest.approx(15.0)


# -- open-loop accounting against a fake clock --------------------------


class FakeSystem:
    """A single-server queue on a fake clock: each request takes
    ``service`` seconds, one at a time, in send order."""

    def __init__(self, service, stall_at=None, stall_for=0.0):
        self.now = 0.0
        self.service = service
        self.free_at = 0.0
        self.stall_at = stall_at
        self.stall_for = stall_for
        self.inflight = []  # (finish_time, index)
        self.sent_at = {}

    def clock(self):
        return self.now

    def send(self, index):
        self.sent_at[index] = self.now
        begin = max(self.now, self.free_at)
        if self.stall_at is not None and begin >= self.stall_at:
            begin += self.stall_for
            self.stall_at = None
        self.free_at = begin + self.service
        self.inflight.append((self.free_at, index))

    def poll(self, timeout):
        wake = self.now + timeout
        ready = [x for x in self.inflight if x[0] <= wake]
        if ready:
            wake = min(x[0] for x in ready)
            ready = [x for x in ready if x[0] <= wake]
        self.now = max(self.now, wake)
        for item in ready:
            self.inflight.remove(item)
        return [(index, finish, True) for finish, index in ready]


def _run(rate, count, **system_kwargs):
    system = FakeSystem(**system_kwargs)
    loop = loadgen.OpenLoop(rate, count)
    loadgen.drive_open_loop(loop, system.send, system.poll, system.clock)
    return loop, system


def test_open_loop_keeping_up():
    loop, system = _run(rate=100.0, count=1000, service=0.001)
    assert len(loop.latency_s) == 1000
    # Sent exactly on schedule: request i at i/rate.
    assert system.sent_at[250] == pytest.approx(2.5)
    assert max(loop.lateness_s) == pytest.approx(0.0, abs=1e-9)
    assert max(loop.latency_s) == pytest.approx(0.001)
    assert loop.backlog_end == 0
    report = loop.report(slo_ms=5.0)
    assert report["meets_limit"] and report["failed"] == 0
    assert report["tail_percentile"] == 99


def test_open_loop_charges_a_stall_to_every_delayed_request():
    # A 0.5 s stall at t=1: latency runs from the *due* time, so the
    # requests queued behind it all carry it, not just the one stalled.
    loop, _ = _run(
        rate=100.0, count=1000, service=0.001, stall_at=1.0, stall_for=0.5
    )
    slow = [s for s in loop.latency_s if s > 0.05]
    assert len(slow) > 40  # ~50 requests fell due during the stall
    assert max(loop.latency_s) == pytest.approx(0.501, abs=0.002)
    assert not loop.report(slo_ms=20.0)["meets_limit"]
    # The generator itself was never late.
    assert max(loop.lateness_s) == pytest.approx(0.0, abs=1e-9)


def test_open_loop_growing_backlog_misses_the_limit():
    # 100 req/s offered to a system that can do 50: the backlog at the
    # end grows with the step, and the rate does not "meet the limit"
    # even under a latency limit nothing exceeds.
    loop, _ = _run(rate=100.0, count=1000, service=0.02)
    assert loop.backlog_end > 400
    report = loop.report(slo_ms=1e9)
    assert report["backlog_end"] == loop.backlog_end
    assert not report["meets_limit"]


def test_open_loop_counts_generator_lateness():
    loop = loadgen.OpenLoop(rate=10.0, count=3)
    assert loop.take_due(0.25) == [0, 1, 2]
    # Requests 0, 1, 2 were due at 0.0, 0.1, 0.2; all sent at 0.25.
    assert loop.lateness_s == pytest.approx([0.25, 0.15, 0.05])
    loop.complete(0, 0.30, ok=True)
    loop.complete(1, 0.30, ok=False)
    assert loop.latency_s == pytest.approx([0.30, 0.20])
    assert loop.failed == 1 and loop.outstanding == 1


# -- tracer --------------------------------------------------------------


def test_tracer_self_time_and_coverage():
    clock = iter([0.0, 1.0, 4.0, 5.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(clock))
    with tracer.sample():  # 0 .. 10
        with tracer.span("a"):  # 1 .. 4
            pass
        with tracer.span("b"):  # 5 .. 9
            pass
    table = tracer.self_times()
    assert table["sample"]["self_s"] == pytest.approx(3.0)
    assert table["a"]["total_s"] == pytest.approx(3.0)
    assert tracer.coverage() == pytest.approx(0.7)
    assert tracer.total("a") == pytest.approx(3.0)
    assert tracer.total("a", root="control") == 0.0
    # parent / sample id bookkeeping
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    assert {s[4] for s in tracer.spans} == {1}


def test_tracer_instrument_wraps_with_hook():
    class Target:
        def work(self, x):
            return x + 1

    tracer = Tracer()
    seen = []
    tracer.instrument(
        Target, "work", "layer.work",
        hook=lambda tr, args, kwargs: seen.append,
    )
    with tracer.sample():
        assert Target().work(1) == 2
    assert seen == [2]
    assert tracer.total("layer.work") > 0.0
    assert [s[0] for s in tracer.spans] == ["sample", "layer.work"]


# -- names, counts, and BENCHMARK.json ----------------------------------


def test_names_units_and_limits():
    workloads = spec.workload_names()
    e2e = [n for n, _, _, _ in spec.END_TO_END]
    layers = [n for n, _, _ in spec.PER_LAYER]
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(e2e) <= 16
    assert 1 <= len(layers) <= 128
    names = workloads + e2e + layers
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.match(name), name
    for _, unit, better, bound in spec.END_TO_END:
        assert UNIT.match(unit) and better in ("lower", "higher")
        assert 0.0 < bound <= 0.25
    for _, unit, better in spec.PER_LAYER:
        assert UNIT.match(unit) and better in ("lower", "higher")
    for _, why in spec.WORKLOADS:
        assert len(why) <= 200 and "\n" not in why
    assert ("setup_s", "s", "lower") in [
        (n, u, b) for n, u, b, _ in spec.END_TO_END
    ]
    assert set(spec.TAIL_PERCENTILE) == set(workloads)
    assert 1 <= spec.RUN_SECONDS <= 60
    # every run of the driver's schedule inside its wall-clock cap
    assert (4 + 22 * len(workloads)) * (spec.RUN_SECONDS + 9) <= 3420


def test_benchmark_json_is_the_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        committed = json.load(handle)
    assert committed == spec.benchmark_json()
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024


def test_runner_prints_exactly_the_listed_names():
    """The names a run emits come from the same tables BENCHMARK.json
    is generated from; the committed baseline rows prove it end to end
    for every workload."""
    path = os.path.join(HERE, "results", "history.jsonl")
    with open(path) as handle:
        rows = [json.loads(line) for line in handle if line.strip()]
    e2e = [n for n, _, _, _ in spec.END_TO_END]
    layers = [n for n, _, _ in spec.PER_LAYER]
    seen = set()
    for row in rows:
        expected = layers if row["trace"] else e2e
        assert sorted(row["metrics"]) == sorted(expected)
        for entry in row["metrics"].values():
            assert set(entry) == {"value", "unit"}
        seen.add((row["workload"], row["trace"]))
    for workload in spec.workload_names():
        assert (workload, 0) in seen and (workload, 1) in seen
