"""Schedule-diff fuzz oracle: random legal schedules as an oracle.

Any schedule is semantics-preserving by construction (each step
re-checks its own legality), so payload behavior under a random
schedule must match the unscheduled payload — a divergence is a bug in
a transform's legality gate, which is exactly what the campaign's
``schedule-diff`` stage and bisection hunt for.
"""

import pytest

from repro.fuzzing.campaign import FuzzCampaign
from repro.fuzzing.generators import generate_kernel
from repro.fuzzing.oracle import (
    check_schedule_module,
    make_args,
    module_arg_shapes,
)
from repro.execution import Interpreter
from repro.met import compile_c


def _checked_module(source, func_name, seed=0):
    module = compile_c(source, distribute=False)
    shapes = module_arg_shapes(module, func_name)
    args = make_args(shapes, seed)
    Interpreter(module, max_steps=20_000_000).run(func_name, *args)
    base = make_args(shapes, seed)
    return module, base, args


@pytest.mark.fuzz
def test_schedule_diff_passes_on_generated_kernel():
    kernel = generate_kernel(11)
    module, base_args, outputs = _checked_module(
        kernel.source, kernel.func_name
    )
    result = check_schedule_module(
        module,
        kernel.func_name,
        base_args,
        outputs,
        "met",
        pipeline_name="unit",
        trials=2,
    )
    assert result.ok, result.detail
    assert result.stage == "schedule-diff:met"


def test_schedule_diff_is_deterministic():
    kernel = generate_kernel(5)
    module, base_args, outputs = _checked_module(
        kernel.source, kernel.func_name
    )
    first = check_schedule_module(
        module, kernel.func_name, base_args, outputs, "met", seed=9
    )
    second = check_schedule_module(
        module, kernel.func_name, base_args, outputs, "met", seed=9
    )
    assert first.ok and second.ok
    assert first.detail == second.detail


def test_campaign_accepts_schedule_toggle():
    campaign = FuzzCampaign(
        check_modules=False, checks=["incremental"], write_artifacts=False
    )
    assert "schedule" not in campaign.checks
    stats = campaign.run(1, start_seed=2)
    assert stats.failures == []
    with_schedule = FuzzCampaign(
        check_modules=False,
        checks=["schedule", "incremental"],
        write_artifacts=False,
    ).run(1, start_seed=2)
    assert with_schedule.failures == []
    # one schedule-diff result per stage snapshot of the four pipelines
    assert with_schedule.stages_checked > stats.stages_checked
