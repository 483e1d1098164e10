"""Worklist driver semantics, the one-walk conversion, indexed pattern
sets, incremental verification, and nested pattern timing."""

import pytest

from repro.dialects import affine as affine_d
from repro.dialects import std
from repro.ir import (
    Context,
    FrozenPatternSet,
    FuncOp,
    FunctionPass,
    IRError,
    ModuleOp,
    PassManager,
    PatternRewriter,
    ReturnOp,
    RewritePattern,
    apply_conversion,
    apply_patterns_greedily,
    apply_patterns_snapshot,
    apply_patterns_worklist,
    f32,
    get_default_driver,
    pattern_driver,
    print_module,
    set_default_driver,
)

from ..conftest import LambdaPass, build_gemm_module


def _module_with_funcs(*names):
    module = ModuleOp.create()
    for name in names:
        func = FuncOp.create(name, [])
        module.append_function(func)
        block = func.entry_block
        c1 = block.append(std.ConstantOp.create(1.0, f32)).result
        c2 = block.append(std.ConstantOp.create(2.0, f32)).result
        block.append(std.AddFOp.create(c1, c2))
        block.append(ReturnOp.create())
    return module


def _module_with_loop():
    """``f`` holding one affine.for whose body is ``c = 1.0; c + c``."""
    module = ModuleOp.create()
    func = FuncOp.create("f", [])
    module.append_function(func)
    block = func.entry_block
    loop = affine_d.AffineForOp.create(0, 4)
    block.append(loop)
    c = std.ConstantOp.create(1.0, f32)
    loop.body.insert(0, c)
    loop.body.insert(1, std.AddFOp.create(c.result, c.result))
    block.append(ReturnOp.create())
    return module


class _CountUp(RewritePattern):
    """Replace ``constant v`` with ``constant v+1`` while ``v < limit``.

    Each firing creates a new op that must be re-enqueued for the next
    round — converging at all proves created-op re-enqueueing works.
    """

    root_op_name = "std.constant"

    def __init__(self, limit=3.0):
        self.limit = limit

    def match_and_rewrite(self, op, rewriter):
        if op.value >= self.limit:
            return False
        rewriter.replace_op_with_new(
            op, std.ConstantOp.create(op.value + 1.0, op.results[0].type)
        )
        return True


class _EraseDead(RewritePattern):
    def __init__(self, root_op_name):
        self.root_op_name = root_op_name

    def match_and_rewrite(self, op, rewriter):
        if any(r.is_used() for r in op.results):
            return False
        rewriter.erase_op(op)
        return True


class _EraseLoop(RewritePattern):
    """Erase every affine.for through the named rewriter method."""

    root_op_name = "affine.for"

    def __init__(self, method):
        self.method = method

    def match_and_rewrite(self, op, rewriter):
        getattr(rewriter, self.method)(op)
        return True


class _RecordAdd(RewritePattern):
    """Decline every std.addf, recording that it was visited."""

    root_op_name = "std.addf"

    def __init__(self, seen):
        self.seen = seen

    def match_and_rewrite(self, op, rewriter):
        self.seen.append(op)
        return False


class TestWorklistReenqueue:
    def test_created_ops_are_reenqueued(self):
        module = _module_with_funcs("f")
        result = apply_patterns_worklist(module, [_CountUp(4.0)])
        # 1.0 -> 4.0 and 2.0 -> 4.0: three + two firings, one per round.
        assert result.num_rewrites == 5
        assert result.iterations > 1
        values = sorted(
            op.value for op in module.walk() if op.name == "std.constant"
        )
        assert values == [4.0, 4.0]

    def test_dead_defs_are_reenqueued(self):
        # mulf(a, a) is erased first; only then does addf become dead,
        # and it was already visited that round — the driver must
        # revisit it through the touched-defs notification.
        module = ModuleOp.create()
        func = FuncOp.create("f", [])
        module.append_function(func)
        block = func.entry_block
        c1 = block.append(std.ConstantOp.create(1.0, f32)).result
        c2 = block.append(std.ConstantOp.create(2.0, f32)).result
        a = block.append(std.AddFOp.create(c1, c2)).result
        block.append(std.MulFOp.create(a, a))
        block.append(ReturnOp.create())

        result = apply_patterns_worklist(
            module, [_EraseDead("std.mulf"), _EraseDead("std.addf")]
        )
        assert result.num_rewrites == 2
        assert result.iterations >= 2
        left = [op.name for op in module.walk()]
        assert "std.addf" not in left and "std.mulf" not in left

    def test_replace_op_notifies_users(self):
        module = _module_with_funcs("f")
        addf = next(op for op in module.walk() if op.name == "std.addf")
        const_def = addf.operands[0].defining_op
        rewriter = PatternRewriter()
        rewriter.set_insertion_point_before(const_def)
        fresh = rewriter.insert(
            std.ConstantOp.create(7.0, const_def.results[0].type)
        )
        rewriter.replace_op(const_def, [fresh.result])
        assert addf in rewriter.replaced_users

    def test_no_stale_visits_after_erase_nest(self):
        # The loop is visited (pre-order) before its body ops; erasing
        # the nest must keep the driver from visiting the enqueued
        # body ops afterwards.
        module = _module_with_loop()
        seen = []
        result = apply_patterns_worklist(
            module, [_EraseLoop("erase_nest"), _RecordAdd(seen)]
        )
        assert result.num_rewrites == 1
        assert seen == []  # the body op was stale, never visited


class TestConversion:
    def test_one_walk_converts_every_root_once(self):
        module = _module_with_funcs("f", "g")
        result = apply_conversion(
            module, [_EraseDead("std.addf"), _EraseDead("std.constant")]
        )
        # Pre-order: both constants are still used when visited, each
        # addf is dead.  A fixpoint would come back for the constants;
        # a conversion visits every seeded op exactly once.
        assert result.iterations == 1
        assert result.num_rewrites == 2
        assert result.trials == 6
        assert result.pattern_hits == {"_EraseDead": 2}
        names = [op.name for op in module.walk()]
        assert names.count("std.constant") == 4
        assert "std.addf" not in names

    def test_iterations_is_one_even_with_nothing_to_do(self):
        result = apply_conversion(_module_with_funcs("f"), [_EraseDead("x.y")])
        assert result.iterations == 1
        assert result.trials == 0 and not result.changed

    def test_created_op_with_a_root_of_the_set_raises(self):
        # _CountUp replaces a constant by another constant: under a
        # fixpoint that is re-enqueued, under a conversion it would be
        # silently left un-lowered — so it is an error naming the op.
        with pytest.raises(IRError, match=r"_CountUp created std\.constant"):
            apply_conversion(_module_with_funcs("f"), [_CountUp(4.0)])
        # The worklist driver's behaviour on the same pattern is the
        # fixpoint it always was.
        module = _module_with_funcs("f")
        result = apply_patterns_worklist(module, [_CountUp(4.0)])
        assert result.num_rewrites == 5 and result.iterations > 1

    def test_root_left_in_place_raises(self):
        class Relabel(RewritePattern):
            root_op_name = "std.addf"

            def match_and_rewrite(self, op, rewriter):
                op.set_attr("seen", 1)
                return True

        with pytest.raises(IRError, match=r"Relabel left its root std\.addf"):
            apply_conversion(_module_with_funcs("f"), [Relabel()])

    @pytest.mark.parametrize("erase", ["erase_nest", "erase_op"])
    def test_ops_nested_in_an_erased_op_are_skipped(self, erase):
        module = _module_with_loop()
        seen = []
        result = apply_conversion(module, [_EraseLoop(erase), _RecordAdd(seen)])
        assert result.num_rewrites == 1
        assert seen == []  # seeded, but nested in the erased loop
        assert result.trials == 1

    def test_moved_ops_are_still_visited(self):
        # affine.for -> scf.for moves the body into a created op; the
        # seeded body ops are attached (elsewhere) and must be visited.
        from repro.transforms.lowering import AffineForLoweringPattern

        module = _module_with_loop()
        seen = []
        apply_conversion(
            module, [AffineForLoweringPattern(), _RecordAdd(seen)]
        )
        assert [op.parent_op.name for op in seen] == ["scf.for"]

    def test_snapshot_default_runs_the_reference_fixpoint(self):
        # No knob selects fixpoint vs conversion; the *reference* for
        # the differential check is the snapshot process default.
        module = _module_with_funcs("f")
        with pattern_driver("snapshot"):
            result = apply_conversion(module, [_CountUp(4.0)])
        assert result.num_rewrites == 5 and result.iterations > 1


class TestPatternIndexing:
    def test_wrong_root_is_never_tried(self):
        module = _module_with_funcs("f")
        tried = []

        class SubfOnly(RewritePattern):
            root_op_name = "std.subf"

            def match_and_rewrite(self, op, rewriter):
                tried.append(op)
                return False

        result = apply_patterns_worklist(module, [SubfOnly()])
        assert tried == []
        assert result.trials == 0

    def test_generic_pattern_sees_every_op(self):
        module = _module_with_funcs("f")
        tried = set()

        class Generic(RewritePattern):
            def match_and_rewrite(self, op, rewriter):
                tried.add(op.name)
                return False

        apply_patterns_worklist(module, [Generic()])
        assert {"std.constant", "std.addf", "func.func", "func.return"} <= tried

    def test_buckets_merge_generic_in_benefit_order(self):
        class A(RewritePattern):
            root_op_name = "std.addf"
            benefit = 2

        class B(RewritePattern):
            benefit = 5  # any-op pattern, highest benefit

        class C(RewritePattern):
            root_op_name = "std.addf"
            benefit = 1

        a, b, c = A(), B(), C()
        frozen = FrozenPatternSet([a, c, b])
        assert frozen.patterns_for("std.addf") == (b, a, c)
        assert frozen.patterns_for("std.mulf") == (b,)
        assert len(frozen) == 3

    def test_benefit_ordering_within_bucket(self):
        calls = []

        class Recorder(RewritePattern):
            root_op_name = "std.addf"

            def __init__(self, tag, benefit):
                self.tag = tag
                self.benefit = benefit

            def match_and_rewrite(self, op, rewriter):
                calls.append(self.tag)
                return False

        module = _module_with_funcs("f")
        apply_patterns_worklist(
            module, [Recorder("low", 1), Recorder("high", 9)]
        )
        assert calls == ["high", "low"]


class TestConvergenceCap:
    @pytest.mark.parametrize(
        "driver", [apply_patterns_worklist, apply_patterns_snapshot]
    )
    def test_nonconvergence_raises(self, driver):
        module = _module_with_funcs("f")
        with pytest.raises(IRError, match="did not converge"):
            driver(module, [_CountUp(float("inf"))], max_iterations=5)


class TestDriverEquivalence:
    def test_drivers_agree_on_gemver_raising(self):
        from repro.evaluation import get_kernel
        from repro.met import compile_c
        from repro.tactics.raising import (
            RaiseAffineToLinalgPass,
            default_linalg_tactics,
        )

        default_linalg_tactics()
        source = get_kernel("gemver").small()
        texts, trials = {}, {}
        for driver in ("worklist", "snapshot"):
            with pattern_driver(driver):
                module = compile_c(source)
                pass_ = RaiseAffineToLinalgPass()
                pass_.run(module, Context())
            texts[driver] = print_module(module)
            trials[driver] = sum(
                r.trials for r in pass_.rewrite_results
            )
        assert texts["worklist"] == texts["snapshot"]
        # gemver leaves unraised loops behind, which every snapshot
        # sweep re-tries; the worklist driver visits them once.
        assert trials["worklist"] < trials["snapshot"]

    def test_countup_fixpoint_matches_snapshot(self):
        worklist_module = _module_with_funcs("f", "g")
        snapshot_module = _module_with_funcs("f", "g")
        apply_patterns_worklist(worklist_module, [_CountUp()])
        apply_patterns_snapshot(snapshot_module, [_CountUp()])
        assert print_module(worklist_module) == print_module(
            snapshot_module
        )


class TestDriverSelection:
    def test_default_is_worklist(self):
        assert get_default_driver() == "worklist"

    def test_context_manager_restores(self):
        with pattern_driver("snapshot"):
            assert get_default_driver() == "snapshot"
        assert get_default_driver() == "worklist"

    def test_unknown_driver_rejected(self):
        with pytest.raises(ValueError):
            set_default_driver("eager")
        with pytest.raises(ValueError):
            apply_patterns_greedily(
                _module_with_funcs("f"), [], driver="eager"
            )

    def test_explicit_driver_overrides_default(self):
        module = _module_with_funcs("f")
        with pattern_driver("snapshot"):
            result = apply_patterns_greedily(
                module, [_CountUp()], driver="worklist"
            )
        # 1.0 -> 2.0 -> 3.0 and 2.0 -> 3.0: three firings total.
        assert result.num_rewrites == 3


class TestIncrementalVerification:
    def test_function_pass_reverifies_only_touched(self):
        module = _module_with_funcs("a", "b")

        class TouchA(FunctionPass):
            name = "touch-a"

            def run_on_function(self, func, context):
                return func.sym_name == "a"

        pm = PassManager(Context(), verify_each=True)
        pm.add(TouchA())
        pm.run(module)
        assert pm.verify_stats["full_verifies"] == 1  # initial only
        assert pm.verify_stats["function_verifies"] == 1
        assert pm.verify_stats["skipped_functions"] == 1
        assert pm.module_version == 1

    def test_clean_function_pass_skips_everything(self):
        module = _module_with_funcs("a", "b")

        class Noop(FunctionPass):
            name = "noop"

            def run_on_function(self, func, context):
                return False

        pm = PassManager(Context(), verify_each=True)
        pm.add(Noop())
        pm.run(module)
        assert pm.verify_stats["function_verifies"] == 0
        assert pm.verify_stats["skipped_functions"] == 2
        assert pm.module_version == 0

    def test_legacy_none_return_marks_dirty(self):
        module = _module_with_funcs("a", "b")

        class Legacy(FunctionPass):
            name = "legacy"

            def run_on_function(self, func, context):
                return None

        pm = PassManager(Context(), verify_each=True)
        pm.add(Legacy())
        pm.run(module)
        assert pm.verify_stats["function_verifies"] == 2
        assert pm.verify_stats["skipped_functions"] == 0

    def test_module_pass_falls_back_to_full_verify(self):
        module = _module_with_funcs("a", "b")
        pm = PassManager(Context(), verify_each=True)
        pm.add(LambdaPass("touch", lambda m, c: None))
        pm.run(module)
        assert pm.verify_stats["full_verifies"] == 2  # initial + after


class TestNestedTiming:
    def test_pattern_stats_flow_into_report(self):
        from repro.transforms import CanonicalizePass

        module = _module_with_funcs("f")
        pm = PassManager(Context(), verify_each=False)
        pm.add(CanonicalizePass())
        timing = pm.run(module)
        stats = timing.pattern_stats["canonicalize"]
        assert stats  # the fold/DCE patterns were at least attempted
        assert all(
            {"seconds", "trials", "rewrites"} <= set(entry)
            for entry in stats.values()
        )
        report = timing.report()
        assert "`-" in report
        assert "trials=" in report
        assert "canonicalize" in report

    def test_passes_without_patterns_have_no_tree(self):
        module = _module_with_funcs("f")
        pm = PassManager(Context(), verify_each=False)
        pm.add(LambdaPass("plain", lambda m, c: None))
        timing = pm.run(module)
        assert "plain" not in timing.pattern_stats
        assert "`-" not in timing.report()
