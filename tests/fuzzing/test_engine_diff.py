"""The oracle matrix: every compiled-engine configuration vs the
interpreter (and vs every other configuration) at every pipeline
snapshot."""

import pytest

from repro.fuzzing import (
    CHECKS,
    ENGINE_ROWS,
    bisect_pipeline,
    build_pipelines,
    run_oracle,
)
from repro.fuzzing.oracle import (
    Pipeline,
    PipelineStage,
    check_engine_rows,
    make_args,
    module_arg_shapes,
)
from repro.ir.pass_manager import FunctionPass
from repro.met import compile_c

GEMM = """
void gemm(float A[4][4], float B[4][4], float C[4][4]) {
  for (int i = 0; i < 4; i++)
    for (int j = 0; j < 4; j++)
      for (int k = 0; k < 4; k++)
        C[i][j] += A[i][k] * B[k][j];
}
"""


@pytest.fixture(scope="module")
def pipelines():
    return build_pipelines()


def _config(row):
    return tuple(sorted(row.kwargs.items()))


def _results_per_snapshot(checks):
    """{kind: distinct configurations reported under it} when ``checks``
    are selected: a configuration is reported by the first selected row
    that carries it."""
    counts, seen = {}, set()
    for row in ENGINE_ROWS:
        if row.kind in checks and _config(row) not in seen:
            seen.add(_config(row))
            counts[row.kind] = counts.get(row.kind, 0) + 1
    return counts


def _stages(report, prefix):
    return [s for s in report.stages if s.stage.startswith(prefix + "-diff:")]


class TestEngineDiffStages:
    def test_engine_stages_present_and_ok(self, pipelines):
        report = run_oracle(GEMM, pipelines["mlt-blas"], "gemm", seed=0)
        assert report.ok, report.summary()
        interp_stages = [s for s in report.stages if ":" not in s.stage]
        # Per successfully interpreted snapshot: one result for each
        # distinct engine configuration (the default one is shared by
        # the engine, vectorize=nest and opt=none rows and runs once),
        # and one schedule cross-check.
        expected = _results_per_snapshot(CHECKS)
        assert expected == {"engine": 1, "vectorize": 2, "opt": 2}
        expected["schedule"] = 1
        for kind, per_snapshot in expected.items():
            stages = _stages(report, kind)
            assert len(stages) == per_snapshot * len(interp_stages), kind
            assert all(s.kind == "ok" for s in stages)
            assert all(s.ir_text for s in stages)
        assert len(report.stages) == len(interp_stages) * (
            1 + sum(expected.values())
        )

    def test_check_engine_false_omits_stages(self, pipelines):
        checks = [c for c in CHECKS if c != "engine"]
        report = run_oracle(
            GEMM, pipelines["mlt-blas"], "gemm", seed=0, checks=checks
        )
        assert report.ok, report.summary()
        assert not _stages(report, "engine")
        # ... and the default configuration is then vectorize=nest's.
        interp_stages = [s for s in report.stages if ":" not in s.stage]
        assert len(_stages(report, "vectorize")) == 3 * len(interp_stages)

    @pytest.mark.parametrize("kind", ["engine", "vectorize", "opt"])
    def test_one_kind_alone_keeps_its_baseline(self, pipelines, kind):
        report = run_oracle(
            GEMM, pipelines["mlt-linalg"], "gemm", seed=0, checks=[kind]
        )
        assert report.ok, report.summary()
        interp_stages = [s for s in report.stages if ":" not in s.stage]
        rows = [row for row in ENGINE_ROWS if row.kind == kind]
        assert len(_stages(report, kind)) == len(rows) * len(interp_stages)
        assert len(report.stages) == (1 + len(rows)) * len(interp_stages)


class TestCheckEngineModule:
    """Every row of the matrix classifies agreement, divergence and
    crashes the same way, under its own kind."""

    def _snapshot(self):
        module = compile_c(GEMM)
        args = make_args(module_arg_shapes(module, "gemm"), 0)
        from repro.execution import Interpreter

        outputs = [a.copy() for a in args]
        Interpreter(module).run("gemm", *outputs)
        return module, args, outputs

    def _check(self, row, module, args, outputs):
        (result,) = check_engine_rows(
            module, "gemm", args, outputs, "met", [row], pipeline_name="unit"
        )
        return result

    def test_agreeing_snapshot_is_ok(self):
        module, args, outputs = self._snapshot()
        for row in ENGINE_ROWS:
            result = self._check(row, module, args, outputs)
            assert result.ok, (row.name, result.detail)
            assert result.stage == f"{row.kind}-diff:met"

    def test_divergence_reports_engine_diff(self):
        module, args, outputs = self._snapshot()
        outputs = [o.copy() for o in outputs]
        outputs[2] += 1.0  # fake an interpreter result no engine matches
        for row in ENGINE_ROWS:
            result = self._check(row, module, args, outputs)
            assert not result.ok, row.name
            assert result.kind == f"{row.kind}-diff"
            assert result.stage == f"{row.kind}-diff:met"
            assert "arg 2" in result.detail
            assert row.name in result.detail

    def test_engine_crash_reports_engine_kind(self, monkeypatch):
        module, args, outputs = self._snapshot()

        import repro.execution as execution

        class Boom:
            def __init__(self, *a, **k):
                raise RuntimeError("codegen exploded")

        monkeypatch.setattr(execution, "ExecutionEngine", Boom)
        for row in ENGINE_ROWS:
            result = self._check(row, module, args, outputs)
            assert not result.ok, row.name
            assert result.kind == row.kind
            assert "codegen exploded" in result.detail

    def test_rows_are_diffed_against_each_other(self, monkeypatch):
        """Two rows that each pass against the interpreter's tolerance
        but disagree with each other fail under the later row's kind."""
        module, args, outputs = self._snapshot()

        import repro.execution as execution

        class Skewed(execution.ExecutionEngine):
            def run(self, func_name, *run_args):
                super().run(func_name, *run_args)
                skew = 1.0 if self.vectorize == "none" else -1.0
                run_args[2][...] += skew * 1.5e-3 * abs(run_args[2])

        monkeypatch.setattr(execution, "ExecutionEngine", Skewed)
        default, scalar = ENGINE_ROWS[0], ENGINE_ROWS[1]
        assert scalar.kwargs["vectorize"] == "none"
        results = check_engine_rows(
            module, "gemm", args, outputs, "met", [default, scalar]
        )
        assert [r.ok for r in results] == [True, False]
        assert results[1].kind == "vectorize-diff"
        assert f"{scalar.name} vs {default.name}" in results[1].detail

    def test_shared_configuration_runs_once_and_feeds_every_sink(
        self, monkeypatch
    ):
        module, args, outputs = self._snapshot()

        import repro.execution as execution

        built = []

        class Counting(execution.ExecutionEngine):
            def __init__(self, *a, **kwargs):
                built.append((kwargs["vectorize"], kwargs["opt_mode"]))
                super().__init__(*a, **kwargs)

        monkeypatch.setattr(execution, "ExecutionEngine", Counting)
        sink = {}
        results = check_engine_rows(
            module, "gemm", args, outputs, "met", ENGINE_ROWS, bail_sink=sink
        )
        assert all(r.ok for r in results)
        assert len(built) == len(set(built)) == len(results) == 5
        assert set(sink) == {row.name for row in ENGINE_ROWS}


class _ArmingPass(FunctionPass):
    """A planted 'wrong-code' pass: it leaves the IR alone (so the
    interpreter stays right) and arms the miscompiling engine below."""

    name = "planted-wrong-code"
    armed = False

    def run_on_function(self, func, context) -> None:
        type(self).armed = True


class TestPlantedWrongCodePerRow:
    @pytest.mark.parametrize("row", ENGINE_ROWS, ids=lambda row: row.name)
    def test_oracle_and_bisection_report_the_same_kind(
        self, row, monkeypatch
    ):
        import repro.execution as execution

        class WrongCode(execution.ExecutionEngine):
            def run(self, func_name, *run_args):
                super().run(func_name, *run_args)
                mine = (self.vectorize, self.opt_mode) == (
                    row.kwargs["vectorize"],
                    row.kwargs["opt_mode"],
                )
                if _ArmingPass.armed and mine:
                    run_args[2][...] += 1.0

        monkeypatch.setattr(execution, "ExecutionEngine", WrongCode)
        monkeypatch.setattr(_ArmingPass, "armed", False)
        pipeline = Pipeline(
            "planted",
            [
                PipelineStage("met", []),
                PipelineStage("plant", [(_ArmingPass.name, _ArmingPass)]),
            ],
        )
        report = run_oracle(GEMM, pipeline, "gemm", checks=[row.kind])
        failure = report.first_failure
        assert failure is not None
        assert failure.stage == f"{row.kind}-diff:plant"
        assert failure.kind == f"{row.kind}-diff"

        _ArmingPass.armed = False
        result = bisect_pipeline(GEMM, pipeline, "gemm", checks=[row.kind])
        assert result.culprit_pass == _ArmingPass.name
        assert result.stage == "plant"
        assert result.kind == failure.kind
