"""Nest summarization, candidate enumeration, and the synth bail-reason
taxonomy — one unit kernel per bail reason."""

import pytest

from repro.dialects.affine import AffineForOp
from repro.met import compile_c
from repro.raising import (
    SYNTH_BAIL_REASONS,
    SynthRaisingPass,
    classify_mac,
    enumerate_candidates,
    summarize_nest,
    synthesize_nest,
)
from repro.raising.pruner import (
    covers_all_dims,
    enumerate_assignments,
    reduction_dims,
    subscript_options,
)

GEMM = """
void kernel(float A[3][4], float B[4][5], float C[3][5]) {
  for (int i = 0; i < 3; i++)
    for (int j = 0; j < 5; j++)
      for (int k = 0; k < 4; k++)
        C[i][j] += A[i][k] * B[k][j];
}
"""


def outer_loop(source):
    module = compile_c(source, distribute=False)
    func = module.lookup("kernel")
    return next(op for op in func.walk() if isinstance(op, AffineForOp))


def summary_of(source):
    summary = summarize_nest(outer_loop(source))
    assert not isinstance(summary, str), summary
    return summary


class TestPruner:
    def test_subscript_options_match_extents(self):
        # dim size 4 matches band dims 0 and 2 (extents 4); size-1 dims
        # additionally admit the constant-0 subscript.
        assert subscript_options(4, [4, 5, 4], frozenset({0, 1, 2})) == [0, 2]
        assert subscript_options(1, [4, 5, 4], frozenset({0, 1, 2})) == [None]

    def test_options_restricted_to_observed_dims(self):
        assert subscript_options(4, [4, 5, 4], frozenset({2})) == [2]

    def test_assignments_are_permutations_without_diagonals(self):
        assignments = list(
            enumerate_assignments((4, 4), [4, 4], frozenset({0, 1}))
        )
        assert (0, 1) in assignments and (1, 0) in assignments
        assert (0, 0) not in assignments and (1, 1) not in assignments

    def test_coverage_and_reduction_dims(self):
        assert covers_all_dims([(0, 2), (2, 1), (0, 1)], 3)
        assert not covers_all_dims([(0, 1), (1, 0)], 3)
        assert reduction_dims((0, 1), 3) == [2]
        assert reduction_dims((0, 1, 2), 3) == []


class TestSummarize:
    def test_gemm_summary(self):
        summary = summary_of(GEMM)
        assert summary.depth == 3
        assert summary.extents == [3, 5, 4]
        assert len(summary.arrays) == 3
        assert len(summary.live_out) == 1
        assert len(summary.accumulator_loads()) == 1
        assert classify_mac(summary) == "+"

    def test_subtract_mac_classified(self):
        summary = summary_of(GEMM.replace("+=", "-="))
        assert classify_mac(summary) == "-"

    def test_elementwise_is_not_mac(self):
        summary = summary_of(
            "void kernel(float A[4], float B[4]) {"
            " for (int i = 0; i < 4; i++) B[i] = A[i] + 1.0f; }"
        )
        assert classify_mac(summary) is None


class TestEnumeration:
    def test_gemm_candidates_prefer_named_matmul(self):
        summary = summary_of(GEMM)
        candidates, _ = enumerate_candidates(summary)
        assert candidates[0].op_name == "linalg.matmul"
        # Contraction generics follow the named ops.
        assert any(c.kind == "contraction" for c in candidates)

    def test_candidate_cap_bails(self):
        summary = summary_of(GEMM)
        result, _ = enumerate_candidates(summary, max_candidates=1)
        assert result == "too-many-candidates"

    def test_map_candidates_for_elementwise(self):
        summary = summary_of(
            "void kernel(float A[4], float B[4]) {"
            " for (int i = 0; i < 4; i++) B[i] = A[i] * 2.0f; }"
        )
        candidates, _ = enumerate_candidates(summary)
        assert all(c.kind == "map" and c.body == "clone" for c in candidates)


#: bail reason -> a minimal kernel that must produce exactly it when
#: summarized (the first five) or synthesized end-to-end.
SUMMARY_BAIL_KERNELS = {
    "imperfect-nest": (
        "void kernel(float A[3][4], float C[3]) {"
        " for (int i = 0; i < 3; i++) {"
        " C[i] = 0.0f;"
        " for (int j = 0; j < 4; j++) C[i] += A[i][j]; } }"
    ),
    "unsupported-bounds": (
        "void kernel(float A[6], float B[6]) {"
        " for (int i = 1; i < 5; i++) B[i] = A[i]; }"
    ),
    "store-count": (
        "void kernel(float A[4], float B[4], float C[4]) {"
        " for (int i = 0; i < 4; i++) { B[i] = A[i]; C[i] = A[i]; } }"
    ),
    "unsupported-payload": (
        "void kernel(float A[4], float B[4]) {"
        " for (int i = 0; i < 4; i++) {"
        " float t[2]; t[0] = A[i]; B[i] = t[0]; } }"
    ),
    "external-value": (
        "void kernel(float A[4], float B[4], float c) {"
        " for (int i = 0; i < 4; i++) B[i] = A[i] * c; }"
    ),
}


class TestBailTaxonomy:
    @pytest.mark.parametrize("reason", sorted(SUMMARY_BAIL_KERNELS))
    def test_summary_bail_kernels(self, reason):
        result = summarize_nest(outer_loop(SUMMARY_BAIL_KERNELS[reason]))
        assert result == reason

    def test_no_candidate(self):
        # A[5] read at i+1 never matches the band extent 4, so the
        # enumerator has nothing to propose.
        source = (
            "void kernel(float A[5], float B[4]) {"
            " for (int i = 0; i < 4; i++) B[i] = A[i+1]; }"
        )
        pass_ = SynthRaisingPass()
        outcome = synthesize_nest(outer_loop(source), pass_.count)
        assert outcome == "no-candidate"
        stats = pass_.stats.snapshot()["synth"]
        assert stats["bail_reasons"] == {"no-candidate": 1}

    def test_validation_failed(self):
        # Shape-plausible candidates exist (B is square) but none match
        # the offset access, so the oracle rejects them all.
        source = (
            "void kernel(float A[4][3], float B[3][3], float C[3][3]) {"
            " for (int i = 0; i < 3; i++)"
            " for (int j = 0; j < 3; j++)"
            " for (int k = 0; k < 3; k++)"
            " C[i][j] += A[i+1][k] * B[k][j]; }"
        )
        pass_ = SynthRaisingPass()
        outcome = synthesize_nest(outer_loop(source), pass_.count)
        assert outcome == "validation-failed"
        stats = pass_.stats.snapshot()["synth"]
        assert stats["candidates_rejected"] > 0
        assert stats["candidates_validated"] == 0

    def test_oracle_error_on_trial_budget(self):
        outcome = synthesize_nest(
            outer_loop(GEMM), SynthRaisingPass().count, max_steps=3
        )
        assert outcome == "oracle-error"

    def test_too_many_candidates(self):
        outcome = synthesize_nest(
            outer_loop(GEMM), SynthRaisingPass().count, max_candidates=1
        )
        assert outcome == "too-many-candidates"

    def test_every_probed_reason_is_in_the_taxonomy(self):
        probed = set(SUMMARY_BAIL_KERNELS) | {
            "no-candidate",
            "validation-failed",
            "oracle-error",
            "too-many-candidates",
        }
        assert probed <= set(SYNTH_BAIL_REASONS)
