"""The differential pipeline-stage oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzzing import (
    DEFAULT_PIPELINES,
    build_pipelines,
    generate_affine_module,
    generate_kernel,
    run_oracle,
    run_oracle_on_module,
)
from repro.fuzzing.oracle import check_module, make_args, module_arg_shapes
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


class TestPipelineDefinitions:
    def test_default_pipelines_exist(self, pipelines):
        assert set(DEFAULT_PIPELINES) <= set(pipelines)

    def test_every_pipeline_starts_at_met(self, pipelines):
        for pipeline in pipelines.values():
            assert pipeline.stages[0].name == "met"
            assert pipeline.stages[0].passes == []

    def test_flat_passes_cover_all_stages(self, pipelines):
        pipeline = pipelines["mlt-affine"]
        flat = pipeline.flat_passes()
        assert [name for _, name, _ in flat] == [
            "affine-loop-distribution",
            "canonicalize",
            "raise-affine-to-affine",
            "affine-expand-matmul",
            "lower-affine",
            "convert-scf-to-llvm",
        ]


class TestOracleOnKnownGood:
    @pytest.mark.parametrize("name", sorted(DEFAULT_PIPELINES))
    def test_gemm_passes_every_stage(self, pipelines, name):
        report = run_oracle(GEMM, pipelines[name], "gemm", seed=0)
        assert report.ok, report.summary()
        assert [s.stage for s in report.stages][0] == "met"
        assert all(s.kind == "ok" for s in report.stages)
        # every successful stage captured its IR snapshot
        assert all(s.ir_text for s in report.stages)

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=10, deadline=None)
    def test_random_kernels_pass_all_pipelines(self, seed):
        kernel = generate_kernel(seed)
        for pipeline in build_pipelines().values():
            report = run_oracle(
                kernel.source, pipeline, kernel.func_name, seed=seed
            )
            assert report.ok, f"seed {seed}: {report.summary()}"

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=10, deadline=None)
    def test_random_modules_pass_all_pipelines(self, seed):
        generated = generate_affine_module(seed)
        for pipeline in build_pipelines().values():
            report = run_oracle_on_module(
                generated.module, pipeline, generated.func_name, seed=seed
            )
            assert report.ok, f"seed {seed}: {report.summary()}"

    def test_module_input_is_not_mutated(self, pipelines):
        from repro.ir import print_module

        generated = generate_affine_module(3)
        before = print_module(generated.module)
        run_oracle_on_module(
            generated.module, pipelines["mlt-linalg"], generated.func_name
        )
        assert print_module(generated.module) == before


class TestOracleFailureModes:
    def test_frontend_crash_is_reported_cleanly(self, pipelines):
        report = run_oracle(
            "void f(float A[2]) { A[i] = 1.0f; }",
            pipelines["mlt-linalg"],
            "f",
        )
        assert not report.ok
        assert report.first_failure.stage == "met"
        assert report.first_failure.kind == "crash"

    def test_numerical_divergence_is_detected(self):
        """check_module flags a module whose semantics differ from the
        reference outputs."""
        module = compile_c(GEMM, distribute=False)
        shapes = module_arg_shapes(module, "gemm")
        base_args = make_args(shapes, seed=0)
        # A fake 'reference' that the real gemm cannot reproduce.
        fake_reference = [np.full(shape, 7.0, np.float32) for shape in shapes]
        result, outputs = check_module(
            module, "gemm", base_args, fake_reference, "stage-x"
        )
        assert not result.ok
        assert result.kind == "diff"
        assert "elements differ" in result.detail
        assert outputs is None

    def test_summary_names_first_failing_stage(self, pipelines):
        report = run_oracle("not C at all", pipelines["mlt-blas"], "f")
        assert "FAIL at stage 'met'" in report.summary()


class TestFailureKinds:
    def test_documented_kinds_are_what_the_tables_can_emit(self):
        from repro.fuzzing import (
            CHECKS,
            ENGINE_ROWS,
            FAILURE_KINDS,
            PIPELINE_CHECKS,
        )

        emitted = {"crash", "verify", "roundtrip", "execute", "diff"}
        for row in ENGINE_ROWS:
            emitted |= {row.kind, f"{row.kind}-diff"}
        emitted |= {"schedule", "schedule-diff"}
        emitted |= {f"{check}-diff" for check in PIPELINE_CHECKS}
        emitted.add("expectation")  # the campaign's raise/synth checks
        assert len(FAILURE_KINDS) == len(set(FAILURE_KINDS))
        assert set(FAILURE_KINDS) == emitted
        # every selectable check is an engine-row kind, a pipeline
        # check, or one of the two that have no table
        assert set(CHECKS) == (
            {row.kind for row in ENGINE_ROWS}
            | set(PIPELINE_CHECKS)
            | {"schedule", "synth"}
        )


class TestDriverEquivalence:
    def test_gemm_drivers_agree_on_every_pipeline(self, pipelines):
        from repro.fuzzing.oracle import check_driver_equivalence

        module = compile_c(GEMM, distribute=False)
        for name in DEFAULT_PIPELINES:
            result = check_driver_equivalence(module, pipelines[name])
            assert result.ok, result.detail
            assert result.stage == f"driver-diff:{name}"
            assert result.ir_text  # final IR captured for artifacts

    def test_input_module_is_not_mutated(self, pipelines):
        from repro.ir import print_module
        from repro.fuzzing.oracle import check_driver_equivalence

        module = compile_c(GEMM, distribute=False)
        before = print_module(module)
        check_driver_equivalence(module, pipelines["mlt-linalg"])
        assert print_module(module) == before

    def test_divergent_driver_is_detected(self, pipelines, monkeypatch):
        """Force the worklist driver to diverge and check the diff is
        reported as a driver-diff failure."""
        from repro.fuzzing.oracle import check_driver_equivalence
        from repro.ir import rewrite

        def noop_driver(root, patterns, max_iterations=64):
            return rewrite.RewriteResult()

        monkeypatch.setattr(
            rewrite, "apply_patterns_worklist", noop_driver
        )
        module = compile_c(GEMM, distribute=False)
        result = check_driver_equivalence(module, pipelines["mlt-affine"])
        assert not result.ok
        assert result.kind == "driver-diff"
        assert "drivers disagree" in result.detail

    def test_divergent_conversion_is_detected(self, pipelines, monkeypatch):
        """The ``driver`` check covers the lowering passes' one-walk
        conversion too: under the snapshot default they run on the
        reference fixpoint driver.  Plant a one-walk path that skips
        the last op it should convert and require a driver-diff."""
        from repro.fuzzing.oracle import check_driver_equivalence
        from repro.ir import RewritePattern, rewrite
        from repro.transforms import lowering

        class SkipOne(RewritePattern):
            def __init__(self, inner, skipped):
                self.inner, self.skipped = inner, skipped
                self.root_op_name = inner.root_op_name

            def match_and_rewrite(self, op, rewriter):
                return op is not self.skipped and self.inner.match_and_rewrite(
                    op, rewriter
                )

        real = rewrite.apply_conversion

        def lossy_one_walk(root, patterns):
            if rewrite.get_default_driver() == "snapshot":
                return real(root, patterns)
            seeded = [
                op for op in root.walk() if patterns.patterns_for(op.name)
            ]
            if not seeded:
                return real(root, patterns)
            return real(
                root, [SkipOne(p, seeded[-1]) for p in patterns.patterns]
            )

        monkeypatch.setattr(lowering, "apply_conversion", lossy_one_walk)
        module = compile_c(GEMM, distribute=False)
        for name in DEFAULT_PIPELINES:
            result = check_driver_equivalence(module, pipelines[name])
            assert not result.ok, name
            assert result.kind == "driver-diff"
