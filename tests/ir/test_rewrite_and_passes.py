"""Pattern rewriting driver and pass manager."""

import pytest

from repro.dialects import std
from repro.ir import (
    Context,
    FuncOp,
    IRError,
    ModuleOp,
    Operation,
    Pass,
    PassManager,
    PatternRewriter,
    ReturnOp,
    RewritePattern,
    apply_patterns_greedily,
    f32,
)

from ..conftest import LambdaPass, build_gemm_module


class _FoldAddOfConstants(RewritePattern):
    root_op_name = "std.addf"

    def match_and_rewrite(self, op, rewriter):
        defs = [o.defining_op for o in op.operands]
        if not all(isinstance(d, std.ConstantOp) for d in defs):
            return False
        value = defs[0].value + defs[1].value
        const = std.ConstantOp.create(value, op.results[0].type)
        rewriter.replace_op_with_new(op, const)
        return True


def _module_with_adds(n):
    module = ModuleOp.create()
    func = FuncOp.create("f", [])
    module.append_function(func)
    block = func.entry_block
    prev = block.append(std.ConstantOp.create(1.0, f32)).result
    for _ in range(n):
        one = block.append(std.ConstantOp.create(1.0, f32)).result
        prev = block.append(std.AddFOp.create(prev, one)).result
    # keep the final value alive via a user that is not foldable
    block.append(std.MulFOp.create(prev, prev))
    block.append(ReturnOp.create())
    return module


class TestGreedyDriver:
    def test_folds_to_fixpoint(self):
        module = _module_with_adds(5)
        result = apply_patterns_greedily(module, [_FoldAddOfConstants()])
        assert result.num_rewrites == 5
        assert not any(op.name == "std.addf" for op in module.walk())

    def test_records_pattern_hits(self):
        module = _module_with_adds(3)
        result = apply_patterns_greedily(module, [_FoldAddOfConstants()])
        assert result.pattern_hits == {"_FoldAddOfConstants": 3}
        assert result.changed

    def test_no_match_converges_immediately(self):
        module = build_gemm_module()
        result = apply_patterns_greedily(module, [_FoldAddOfConstants()])
        assert result.num_rewrites == 0
        assert result.iterations == 1

    def test_benefit_ordering(self):
        calls = []

        class Recorder(RewritePattern):
            def __init__(self, name, benefit):
                self._name = name
                self.benefit = benefit

            def match_and_rewrite(self, op, rewriter):
                if op.name == "std.mulf":
                    calls.append(self._name)
                return False

        module = _module_with_adds(1)
        apply_patterns_greedily(
            module, [Recorder("low", 1), Recorder("high", 10)]
        )
        assert calls[0] == "high"

    def test_nonconverging_pattern_detected(self):
        class Churn(RewritePattern):
            root_op_name = "std.constant"

            def match_and_rewrite(self, op, rewriter):
                rewriter.replace_op_with_new(
                    op, std.ConstantOp.create(op.value, op.results[0].type)
                )
                return True

        module = _module_with_adds(1)
        with pytest.raises(IRError):
            apply_patterns_greedily(module, [Churn()], max_iterations=4)


class TestPassManager:
    def test_runs_passes_in_order(self):
        order = []
        pm = PassManager(Context())
        pm.add(
            LambdaPass("first", lambda m, c: order.append("first")),
            LambdaPass("second", lambda m, c: order.append("second")),
        )
        pm.run(build_gemm_module())
        assert order == ["first", "second"]

    def test_timing_recorded(self):
        pm = PassManager(Context())
        pm.add(LambdaPass("work", lambda m, c: None))
        timing = pm.run(build_gemm_module())
        assert "work" in timing.seconds
        assert timing.total >= 0
        assert "work" in timing.report()

    def test_verify_each_catches_breakage(self):
        def breaker(module, context):
            module.functions[0].entry_block.operations.pop()  # drop return

        pm = PassManager(Context(), verify_each=True)
        pm.add(LambdaPass("break", breaker))
        with pytest.raises(IRError):
            pm.run(build_gemm_module())

    def test_pipeline_string(self):
        pm = PassManager(Context())
        pm.add(LambdaPass("a", lambda m, c: None), LambdaPass("b", lambda m, c: None))
        assert pm.pipeline_string() == "a,b"

    def test_unimplemented_pass_raises(self):
        with pytest.raises(NotImplementedError):
            Pass().run(build_gemm_module(), Context())
