"""Fusion bail taxonomy: every rejection names its reason.

The ``bails`` dict threaded through ``can_fuse``/``greedy_fuse``
(surfaced as a schedule report's ``fusion_bails``) is what makes a
schedule's fuse decision explainable: "fusion didn't happen" always
comes with a reason count.
"""

import pytest

from repro.dialects.affine import outermost_loops
from repro.execution.engine.optimizer import run_optimizer
from repro.ir import print_module
from repro.ir.pass_cache import PassResultCache
from repro.met import compile_c
from repro.scheduling import ScheduleResult
from repro.transforms.fusion import can_fuse, greedy_fuse


def _loops(source):
    module = compile_c(source, distribute=False)
    return module, outermost_loops(module.functions[0])


def test_bounds_mismatch_is_counted():
    _, loops = _loops(
        "void f(float A[8], float B[6]) {\n"
        "  for (int i = 0; i < 8; i++) A[i] = 1.0f;\n"
        "  for (int j = 0; j < 6; j++) B[j] = 2.0f;\n"
        "}\n"
    )
    bails = {}
    assert not can_fuse(loops[0], loops[1], bails=bails)
    assert bails == {"bounds-map-mismatch": 1}


def test_depth_mismatch_is_counted():
    _, loops = _loops(
        "void f(float A[4][4], float B[4]) {\n"
        "  for (int i = 0; i < 4; i++)\n"
        "    for (int j = 0; j < 4; j++) A[i][j] = 1.0f;\n"
        "  for (int k = 0; k < 4; k++) B[k] = 2.0f;\n"
        "}\n"
    )
    bails = {}
    assert not can_fuse(loops[0], loops[1], bails=bails)
    assert bails == {"depth-mismatch": 1}


def test_no_flow_policy_bail():
    module, _ = _loops(
        "void f(float A[8], float B[8]) {\n"
        "  for (int i = 0; i < 8; i++) A[i] = 1.0f;\n"
        "  for (int j = 0; j < 8; j++) B[j] = 2.0f;\n"
        "}\n"
    )
    bails = {}
    fused = greedy_fuse(
        module.functions[0], require_flow=True, bails=bails
    )
    assert fused == 0
    assert bails.get("no-flow", 0) >= 1
    # without the flow policy the same pair fuses (identical spaces,
    # disjoint arrays): the bail was policy, not legality
    assert greedy_fuse(module.functions[0]) == 1


def test_optimizer_snapshot_carries_taxonomy():
    module = compile_c(
        "void f(float A[8], float B[6]) {\n"
        "  for (int i = 0; i < 8; i++) A[i] = A[i] + 1.0f;\n"
        "  for (int j = 0; j < 6; j++) B[j] = B[j] + 2.0f;\n"
        "}\n",
        distribute=False,
    )
    stats = run_optimizer(module, "fuse")
    snap = stats.snapshot()
    assert "fusion_bails" in snap
    assert isinstance(snap["fusion_bails"], dict)
    assert ScheduleResult().snapshot()["fusion_bails"] == {}


def test_conflict_carried_blocks_the_gemver_shape():
    # x[j] does not depend on the fused i: nest 2 at i = 0 would read
    # an x[j] that nest 1 has only summed its first row into.
    _, loops = _loops(
        "void f(float A[6][6], float x[6], float y[6], float w[6]) {\n"
        "  for (int i = 0; i < 6; i++)\n"
        "    for (int j = 0; j < 6; j++) x[j] += A[i][j] * y[i];\n"
        "  for (int i = 0; i < 6; i++)\n"
        "    for (int j = 0; j < 6; j++) w[i] += A[i][j] * x[j];\n"
        "}\n"
    )
    bails = {}
    assert not can_fuse(loops[0], loops[1], bails=bails)
    assert bails == {"conflict-carried": 1}


def test_conflict_carried_exempts_the_gesummv_shape():
    # Once the i loops fuse, y[i] omits the inner (fused) j on both
    # sides — but both sides are `y[i] += ...`, which commute.
    module, _ = _loops(
        "void f(float A[6][6], float B[6][6], float x[6], float y[6]) {\n"
        "  for (int i = 0; i < 6; i++)\n"
        "    for (int j = 0; j < 6; j++) y[i] += A[i][j] * x[j];\n"
        "  for (int i = 0; i < 6; i++)\n"
        "    for (int j = 0; j < 6; j++) y[i] += B[i][j] * x[j];\n"
        "}\n"
    )
    bails = {}
    fused = greedy_fuse(module.functions[0], require_flow=True, bails=bails)
    assert fused == 2  # the i loops, then the j loops inside
    assert "conflict-carried" not in bails


def test_conflict_carried_needs_both_sides_to_accumulate():
    # The second nest overwrites s[0] instead of adding to it.
    _, loops = _loops(
        "void f(float a[6], float b[6], float s[1]) {\n"
        "  for (int i = 0; i < 6; i++) s[0] += a[i];\n"
        "  for (int i = 0; i < 6; i++) s[0] = s[0] * b[i];\n"
        "}\n"
    )
    bails = {}
    assert not can_fuse(loops[0], loops[1], bails=bails)
    assert bails == {"conflict-carried": 1}


# The two corpus shapes whose nests each collapse into one vectorizer
# call on their own, and into none once glued together.
GESUMMV_SHAPE = (
    "void f(float A[6][6], float B[6][6], float x[6], float y[6]) {\n"
    "  for (int i = 0; i < 6; i++)\n"
    "    for (int j = 0; j < 6; j++) y[i] += A[i][j] * x[j];\n"
    "  for (int i = 0; i < 6; i++)\n"
    "    for (int j = 0; j < 6; j++) y[i] += B[i][j] * x[j];\n"
    "}\n"
)
GEMVER_SHAPE = (
    "void f(float A[6][6], float u[6], float v[6], float x[6],"
    " float y[6]) {\n"
    "  for (int i = 0; i < 6; i++)\n"
    "    for (int j = 0; j < 6; j++) A[i][j] = A[i][j] + u[i] * v[j];\n"
    "  for (int i = 0; i < 6; i++)\n"
    "    for (int j = 0; j < 6; j++) x[j] += A[i][j] * y[i];\n"
    "}\n"
)


@pytest.mark.parametrize("source", [GESUMMV_SHAPE, GEMVER_SHAPE])
def test_fuse_step_keeps_a_collapsed_reduction_whole(source):
    module, _ = _loops(source)
    before = print_module(module)
    stats = run_optimizer(module, "fuse")
    assert stats.counters["loops_fused"] == 0
    assert stats.counters["fusion_bails"] == {"would-lose-collapse": 1}
    assert print_module(module) == before
    # The refusal is the fuse *step*'s policy: the transform itself
    # (Pluto baseline, affine-loop-fusion pass) fuses both as before.
    bails = {}
    assert greedy_fuse(module.functions[0], require_flow=True, bails=bails) == 2
    assert "would-lose-collapse" not in bails


def test_greedy_fuse_veto_is_asked_before_anything_moves():
    module, loops = _loops(GESUMMV_SHAPE)
    before = print_module(module)
    asked, bails = [], {}

    def veto(first, second):
        asked.append((first, second))
        return "not-today"

    assert greedy_fuse(module.functions[0], bails=bails, veto=veto) == 0
    # The root pair, then each root's lone inner loop has no sibling.
    assert asked == [(loops[0], loops[1])]
    assert bails == {"not-today": 1}
    assert print_module(module) == before


def test_fuse_step_replays_from_the_pass_cache():
    # The veto reads nothing but the function it is handed, so the
    # step stays keyed by function text alone.
    cache = PassResultCache()
    runs = []
    for _ in range(2):
        module, _ = _loops(GESUMMV_SHAPE)
        stats = run_optimizer(module, "fuse", pass_cache=cache)
        runs.append((print_module(module), stats.snapshot()))
    assert cache.stats.executions == 1 and cache.stats.hits == 1
    assert runs[0] == runs[1]
    assert runs[0][1]["fusion_bails"] == {"would-lose-collapse": 1}
