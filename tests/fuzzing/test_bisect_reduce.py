"""The acceptance demonstration: a deliberately planted miscompile (a
tiling off-by-one that drops the last tile) must be caught by the
oracle, bisected to the exact pass, and delta-debugged to a <= 10-line
C reproducer.  The buggy pass lives only in this test file — the
production pipelines stay clean — which is exactly how the subsystem
will be used to vet future transform PRs."""

import pytest

from repro.dialects.affine import outermost_loops, perfect_nest
from repro.fuzzing import (
    bisect_pipeline,
    build_pipelines,
    generate_kernel,
    reduce_source,
    run_oracle,
)
from repro.fuzzing.oracle import Pipeline, PipelineStage
from repro.ir.pass_manager import FunctionPass
from repro.met import compile_c
from repro.transforms import LinalgToAffinePass
from repro.transforms.tiling import TilingError, tile_perfect_nest


class OffByOneTilePass(FunctionPass):
    """Tiling with a planted bug: after tiling a band, the outermost
    tile loop's upper bound shrinks by one step, silently dropping the
    final tile."""

    name = "affine-loop-tile-buggy"

    def run_on_function(self, func, context) -> None:
        for loop in outermost_loops(func):
            band = perfect_nest(loop)
            try:
                tiled = tile_perfect_nest(loop, [2] * len(band))
            except TilingError:
                continue
            outer = tiled[0]
            lb = outer.constant_lower_bound()
            ub = outer.constant_upper_bound()
            if ub is not None and ub - outer.step > lb:
                outer.set_constant_bounds(lb, ub - outer.step)


class InvalidIRPass(FunctionPass):
    """Verifier-breaking pass: gives affine.for a bogus operand count
    attribute."""

    name = "corrupt-ir"

    def run_on_function(self, func, context) -> None:
        from repro.dialects.affine import AffineForOp
        from repro.ir import IntegerAttr

        for op in func.walk():
            if isinstance(op, AffineForOp):
                op.attributes["lb_operand_count"] = IntegerAttr(99)
                return


def buggy_linalg_pipeline() -> Pipeline:
    """``mlt-linalg`` with its tiled contraction lowering replaced by the
    full loop lowering and the buggy tiling, one stage per pass."""
    base = build_pipelines()["mlt-linalg"]
    assert base.stages[-1].name == "convert-linalg-contractions-to-tiled-loops"
    return Pipeline(
        "mlt-linalg-buggy",
        list(base.stages[:-1])
        + [
            PipelineStage(name, [(name, factory)])
            for name, factory in (
                ("convert-linalg-to-affine-loops", LinalgToAffinePass),
                ("affine-loop-tile-buggy", OffByOneTilePass),
            )
        ],
    )


@pytest.fixture(scope="module")
def planted():
    return buggy_linalg_pipeline()


# A plain generated matmul: the raising tactic fires, the buggy tiling
# then miscompiles the lowered loops.
KERNEL = generate_kernel(3, family="matmul")


class TestPlantedMiscompile:
    def test_oracle_catches_the_miscompile(self, planted):
        report = run_oracle(KERNEL.source, planted, KERNEL.func_name, seed=3)
        assert not report.ok
        failure = report.first_failure
        assert failure.stage == "affine-loop-tile-buggy"
        assert failure.kind == "diff"
        assert "elements differ" in failure.detail

    def test_clean_pipeline_still_passes(self):
        clean = build_pipelines()["mlt-linalg"]
        report = run_oracle(KERNEL.source, clean, KERNEL.func_name, seed=3)
        assert report.ok, report.summary()

    def test_bisection_names_the_buggy_pass(self, planted):
        result = bisect_pipeline(
            KERNEL.source, planted, KERNEL.func_name, seed=3
        )
        assert result.reproduced
        assert result.culprit_pass == "affine-loop-tile-buggy"
        assert result.stage == "affine-loop-tile-buggy"
        assert result.kind == "diff"
        # it's the 4th pass of the flattened pipeline (0-based index 3)
        assert result.index == 3

    def test_reduction_reaches_ten_lines(self, planted):
        def still_fails(source: str) -> bool:
            report = run_oracle(source, planted, KERNEL.func_name, seed=3)
            failure = report.first_failure
            return failure is not None and failure.kind == "diff"

        reduced = reduce_source(KERNEL.source, still_fails)
        assert len(reduced.splitlines()) <= 10
        # the reproducer still compiles and still exhibits the bug
        compile_c(reduced)
        assert still_fails(reduced)
        # and it genuinely shrank the original kernel
        assert len(reduced) < len(KERNEL.source)


class TestVerifierBreakingPass:
    def test_bisection_reports_verify_failure(self):
        base = build_pipelines()["mlt-linalg"]
        pipeline = Pipeline(
            "corrupting",
            [
                base.stages[0],
                PipelineStage("corrupt", [("corrupt-ir", InvalidIRPass)]),
            ],
        )
        result = bisect_pipeline(KERNEL.source, pipeline, KERNEL.func_name)
        assert result.reproduced
        assert result.culprit_pass == "corrupt-ir"
        assert result.kind in ("verify", "crash")


class TestReducer:
    GEMM = (
        "void kernel(float A[4][4], float B[4][4], float C[4][4]) {\n"
        "  for (int i = 0; i < 4; i++) {\n"
        "    for (int j = 0; j < 4; j++) {\n"
        "      for (int k = 0; k < 4; k++) {\n"
        "        C[i][j] += (A[i][k] * B[k][j]);\n"
        "      }\n"
        "    }\n"
        "  }\n"
        "}\n"
    )

    def test_reduces_to_single_line_body(self):
        # Predicate: source still contains a store into C.  The reducer
        # should strip every loop and simplify the RHS.
        def touches_c(source: str) -> bool:
            compile_c(source)  # must stay compilable
            return "C[" in source

        reduced = reduce_source(self.GEMM, touches_c)
        assert len(reduced.splitlines()) < len(self.GEMM.splitlines())
        assert "C[" in reduced
        compile_c(reduced)

    def test_predicate_false_returns_normalized_input(self):
        reduced = reduce_source(self.GEMM, lambda source: False)
        assert reduced == self.GEMM

    def test_unparseable_input_is_returned_untouched(self):
        source = "this is not C"
        assert reduce_source(source, lambda s: True) == source

    def test_loop_unwrapping_substitutes_induction_var(self):
        source = (
            "void kernel(float A[4]) {\n"
            "  for (int i = 1; i < 3; i++) {\n"
            "    A[i] = 2.0f;\n"
            "  }\n"
            "}\n"
        )

        def still_stores(candidate: str) -> bool:
            compile_c(candidate)
            return "A[" in candidate and "2.0f" in candidate

        reduced = reduce_source(source, still_stores)
        assert "for" not in reduced
        # iv replaced by the loop's lower bound
        assert "A[1]" in reduced

    def test_reduction_candidates_shrink(self):
        from repro.fuzzing import reduction_candidates
        from repro.fuzzing.generators import unparse_unit
        from repro.met import parse_c

        unit = parse_c(self.GEMM)
        candidates = list(reduction_candidates(unit))
        assert candidates
        original_size = len(unparse_unit(unit))
        assert any(
            len(unparse_unit(c)) < original_size for c in candidates
        )
