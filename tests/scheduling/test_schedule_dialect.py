"""Transform-dialect syntax invariants.

The schedule IR is the persistence format of the autotuner (records in
the ``schedules/`` cache namespace are printed schedule modules), so
print -> parse -> print must be byte-stable over the whole space of
schedules the tuner and fuzzer can emit.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dialects.transform import STEP_OPS, SequenceOp, find_sequences
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.scheduling import (
    ScheduleError,
    canned_schedule,
    random_schedule,
    schedule_from_params,
)
from repro.scheduling.autotune import enumerate_space


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_schedule_roundtrips_byte_identically(seed):
    schedule = random_schedule(random.Random(seed))
    text = print_module(schedule)
    reparsed = print_module(parse_module(text))
    assert reparsed == text
    # and a second trip is a fixpoint
    assert print_module(parse_module(reparsed)) == text


@given(
    st.booleans(),
    st.sampled_from(["fuse-first", "distribute-first"]),
    st.sampled_from([0, 2, 8, 16, 32, 64]),
    st.sampled_from([0, 2, 3, 4]),
)
def test_param_schedule_roundtrips(fuse, order, tile, unroll_jam):
    schedule = schedule_from_params(
        {"fuse": fuse, "order": order, "tile": tile, "unroll_jam": unroll_jam}
    )
    text = print_module(schedule)
    assert print_module(parse_module(text)) == text


def test_canned_schedules_roundtrip_and_structure():
    for mode in ("none", "fuse", "full"):
        schedule = canned_schedule(mode)
        text = print_module(schedule)
        assert print_module(parse_module(text)) == text
        sequences = find_sequences(parse_module(text))
        assert len(sequences) == 1
        assert isinstance(sequences[0], SequenceOp)


def test_tuner_space_reifies_and_roundtrips():
    for params in enumerate_space():
        text = print_module(schedule_from_params(params))
        assert print_module(parse_module(text)) == text


@pytest.mark.parametrize(
    "params, message",
    [
        # A misspelt key used to build the schedule without it.
        ({"fuse": True, "tile": 8, "til": 16}, "unknown schedule parameter 'til'"),
        ({"vectorize": "none"}, "unknown schedule parameter 'vectorize'"),
        # A truthy string used to fuse; a float tile used to truncate.
        ({"fuse": "no"}, "fuse='no' is not bool"),
        ({"tile": 8.7}, "tile=8.7 is not int"),
        ({"unroll_jam": True}, "unroll_jam=True is not int"),
        ({"tile": "8"}, "tile='8' is not int"),
        ({"order": 1}, "order=1 is not str"),
        # Out-of-range ints used to pass here and fail in the op verifier
        # with an IRError; 0 still means off.
        ({"tile": 1}, r"tile=1 is neither 0 \(off\) nor >= 2"),
        ({"tile": -4}, r"tile=-4 is neither 0 \(off\) nor >= 2"),
        ({"unroll_jam": 1}, r"unroll_jam=1 is neither 0 \(off\) nor >= 2"),
        ({"unroll_jam": -2}, r"unroll_jam=-2 is neither 0 \(off\) nor >= 2"),
    ],
)
def test_params_outside_the_space_are_refused(params, message):
    with pytest.raises(ScheduleError, match=message):
        schedule_from_params(params)


def test_step_registry_covers_printed_names():
    # The steps the producers emit, and nothing else: a leading match,
    # then one cacheable function pass per step.
    assert set(STEP_OPS) == {
        f"transform.{name}"
        for name in (
            "match",
            "fuse",
            "copy_elim",
            "dead_loops",
            "canonicalize",
            "distribute",
            "tile",
            "unroll_jam",
        )
    }
