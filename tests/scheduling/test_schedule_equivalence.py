"""The schedule interpreter is the one optimizer driver.

``run_optimizer(mode)`` *is* ``apply_schedule(canned_schedule(mode))``
(the canned step order is pinned by
``tests/transforms/test_optimizer_pipeline.py``), every rewriting step
op names one function pass (``STEP_PASSES``) that the one
``PassManager`` runs, the two entry points share pass-cache entries,
and any schedule (including random ones) is semantics-preserving
because every step re-checks its own legality.
"""

import random

import pytest

from repro.dialects.transform import STEP_OPS, find_sequences
from repro.evaluation import get_kernel
from repro.evaluation.pipelines import build_module
from repro.execution import Interpreter
from repro.execution.engine.optimizer import OPT_MODES, run_optimizer
from repro.fuzzing.oracle import make_args, module_arg_shapes
from repro.ir import PassResultCache
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.scheduling import (
    ScheduleError,
    apply_schedule,
    canned_schedule,
    random_schedule,
    schedule_from_params,
)
from repro.scheduling.autotune import enumerate_space
from repro.ir.pass_manager import FunctionPass
from repro.scheduling.interpreter import STEP_PASSES, KeyedSearch

from ..conftest import assert_close

KERNELS = ("gemm", "2mm", "atax")


def _payload(kernel):
    return build_module(get_kernel(kernel).small(), "mlt-linalg")


#: One step of every kind (tile in both size forms).
EVERY_STEP = """
module {
  transform.sequence {
    %0 = transform.match
    %1 = transform.fuse %0 {flow = true}
    %2 = transform.copy_elim %1
    %3 = transform.dead_loops %2
    %4 = transform.canonicalize %3
    %5 = transform.distribute %4
    %6 = transform.tile %5 {size = 8}
    %7 = transform.tile %6 {sizes = [8, 16]}
    %8 = transform.unroll_jam %7 {factor = 2}
  }
}
"""


def _emitted_steps():
    """Every step mnemonic some schedule producer emits: the canned
    schedule of each opt mode, the tuner's whole space, and the fuzz
    oracle's random schedules over fixed seeds."""
    schedules = [canned_schedule(mode) for mode in OPT_MODES]
    schedules += [schedule_from_params(p) for p in enumerate_space()]
    schedules += [random_schedule(random.Random(n)) for n in range(64)]
    return {
        step.name
        for schedule in schedules
        for step in find_sequences(schedule)[0].steps()
    }


EMITTED = _emitted_steps()


@pytest.mark.parametrize("mnemonic", sorted(STEP_OPS))
def test_every_step_op_has_a_table_row(mnemonic):
    # A step op added to the dialect without a row would fall through
    # to "unknown schedule step" at apply time; catch it here instead.
    # And one no producer emits is dead language: it goes.
    assert mnemonic in EMITTED
    steps = [
        step
        for step in find_sequences(parse_module(EVERY_STEP))[0].steps()
        if step.name == mnemonic
    ]
    assert steps
    if mnemonic == "transform.match":
        # Rewrites no function: apply_schedule makes it the filter.
        assert mnemonic not in STEP_PASSES
        return
    passes = [STEP_PASSES[mnemonic](step) for step in steps]
    # One function pass per step, cached per function like any other.
    assert all(
        isinstance(pass_, FunctionPass) and pass_.cacheable
        for pass_ in passes
    )
    # Distinct step configurations never share a pass-cache entry.
    assert len({pass_.cache_config() for pass_ in passes}) == len(steps)


def test_step_passes_key_apart_from_their_mlt_opt_flags():
    # The schedule's fuse and tile carry options the mlt-opt passes of
    # the same name do not (the collapse veto, the size rules, the
    # no_vectorize marks), so the two never share pass-cache entries.
    from repro.tool import _pass_registry

    registry = _pass_registry(None)
    steps = find_sequences(parse_module(EVERY_STEP))[0].steps()
    for step in steps:
        if step.name not in ("transform.fuse", "transform.tile"):
            continue
        pass_ = STEP_PASSES[step.name](step)
        flag = registry[pass_.name]()
        assert pass_.cache_config() != flag.cache_config()


def test_opt_mode_and_canned_schedule_share_pass_cache_entries():
    # The unraised pipeline: affine loops every stage has work on.
    source = get_kernel("gemm").small()
    cache = PassResultCache()
    via_mode = build_module(source, "baseline")
    run_optimizer(via_mode, "full", pass_cache=cache)
    executed = cache.stats.snapshot()["executions"]
    assert executed == 6  # one per canned step

    # Through text first: what a cache record or a hand-edited file
    # would hold applies exactly like the in-memory schedule.
    schedule = parse_module(print_module(canned_schedule("full")))
    via_schedule = build_module(source, "baseline")
    apply_schedule(schedule, via_schedule, pass_cache=cache)
    assert cache.stats.snapshot()["executions"] == executed
    assert print_module(via_schedule) == print_module(via_mode)


@pytest.mark.parametrize("kernel", KERNELS)
def test_unroll_jam_schedule_preserves_semantics(kernel):
    spec = get_kernel(kernel)
    baseline = _payload(kernel)
    shapes = module_arg_shapes(baseline, spec.func_name)
    expected = make_args(shapes, seed=7)
    Interpreter(baseline, max_steps=20_000_000).run(
        spec.func_name, *expected
    )

    scheduled = _payload(kernel)
    apply_schedule(
        schedule_from_params(
            {
                "fuse": True,
                "order": "fuse-first",
                "tile": 0,
                "unroll_jam": 2,
            }
        ),
        scheduled,
    )
    actual = make_args(shapes, seed=7)
    Interpreter(scheduled, max_steps=20_000_000).run(
        spec.func_name, *actual
    )
    for got, want in zip(actual, expected):
        assert_close(got, want, rtol=1e-5)


@pytest.mark.parametrize("kernel", ("gemm", "atax"))
def test_random_schedules_preserve_semantics(kernel):
    spec = get_kernel(kernel)
    baseline = _payload(kernel)
    shapes = module_arg_shapes(baseline, spec.func_name)
    expected = make_args(shapes, seed=3)
    Interpreter(baseline, max_steps=20_000_000).run(
        spec.func_name, *expected
    )
    for trial in range(4):
        rng = random.Random(f"sched-equiv:{kernel}:{trial}")
        scheduled = _payload(kernel)
        apply_schedule(random_schedule(rng), scheduled)
        actual = make_args(shapes, seed=3)
        Interpreter(scheduled, max_steps=20_000_000).run(
            spec.func_name, *actual
        )
        for got, want in zip(actual, expected):
            assert_close(got, want, rtol=1e-5)


def test_keyed_application_builds_what_in_place_application_builds():
    # The unraised payload, where the tuner's points really differ.
    # Every point is applied twice: in place to a fresh payload without
    # a cache, and keyed to one shared payload through one cache.
    source = get_kernel("2mm").small()
    payload = build_module(source, "baseline")
    pristine = print_module(payload)
    cache = PassResultCache()
    search = KeyedSearch()
    texts = {}
    for params in enumerate_space():
        schedule = schedule_from_params(params)
        reference = build_module(source, "baseline")
        expected = apply_schedule(schedule, reference)
        keyed = apply_schedule(schedule, payload, cache, keyed=search)
        text = print_module(keyed.payload)
        assert text == print_module(reference)
        assert keyed.snapshot() == expected.snapshot()
        # equal outcomes are equal modules
        assert texts.setdefault(keyed.outcome, text) == text
    assert print_module(payload) == pristine
    assert 1 < len(texts) < len(enumerate_space())

    # Once every outcome is known, no point builds anything, and the
    # stats still come back whole.
    search.known.update(texts)
    for params in enumerate_space():
        schedule = schedule_from_params(params)
        again = apply_schedule(schedule, payload, cache, keyed=search)
        assert again.payload is None and again.outcome in texts
        expected = apply_schedule(schedule, build_module(source, "baseline"))
        assert again.snapshot() == expected.snapshot()


def test_outcome_needs_a_pass_cache_and_function_local_steps():
    payload = _payload("gemm")
    assert apply_schedule(canned_schedule("full"), payload).outcome is None
    cached = apply_schedule(
        canned_schedule("full"), _payload("gemm"), PassResultCache()
    )
    assert cached.outcome is not None
    # Every step is a function pass over what the one match selected;
    # a second match is not a schedule.
    two_matches = parse_module(
        "module {\n  transform.sequence {\n"
        "    %0 = transform.match\n"
        "    %1 = transform.canonicalize %0\n"
        "    %2 = transform.match\n"
        "  }\n}\n"
    )
    with pytest.raises(ScheduleError, match="first step"):
        apply_schedule(two_matches, _payload("gemm"), PassResultCache())


def test_schedule_result_reports_stats():
    payload = _payload("gemm")
    result = apply_schedule(canned_schedule("full"), payload)
    snap = result.snapshot()
    assert snap["functions_seen"] >= 1
    assert [stage["stage"] for stage in result.stages] == [
        step.name
        for step in find_sequences(canned_schedule("full"))[0].steps()[1:]
    ]
