"""The RaiseStats taxonomy: per-pattern TDL accounting via
``match_explain`` (one unit kernel per bail reason), the view over the
raising passes' counters, and their replay from a pass cache."""

import pytest

from repro.dialects.affine import AffineForOp
from repro.met import compile_c
from repro.ir import Context, PassManager, PassResultCache
from repro.raising import (
    RaiseStats,
    SYNTH_BAIL_REASONS,
    SynthRaisingPass,
    TDL_BAIL_REASONS,
)
from repro.tactics.raising import (
    RaiseAffineToAffinePass,
    RaiseAffineToLinalgPass,
    gemm_tactic,
)
from repro.tactics.stats import merge_pass_stats

#: reason -> (kernel, match the outer loop?).  Each kernel makes the
#: gemm matcher bail for exactly that reason.
TDL_BAIL_KERNELS = {
    "structure-mismatch": (
        "void kernel(float A[4][3], float B[4][5], float C[3][5]) {"
        " for (int i = 0; i < 3; i++)"
        " for (int j = 0; j < 5; j++)"
        " for (int k = 0; k < 4; k++)"
        " C[i][j] += A[k][i] * B[k][j]; }"
    ),
    "depth-mismatch": (
        "void kernel(float A[3][4], float x[4], float y[3]) {"
        " for (int i = 0; i < 3; i++)"
        " for (int j = 0; j < 4; j++)"
        " y[i] += A[i][j] * x[j]; }"
    ),
    "body-shape": (
        "void kernel(float A[3][4], float B[4][5], float C[3][5]) {"
        " for (int i = 0; i < 3; i++)"
        " for (int j = 0; j < 5; j++)"
        " for (int k = 0; k < 4; k++)"
        " C[i][j] -= A[i][k] * B[k][j]; }"
    ),
    "non-constant-trip": (
        "void kernel(float A[3][4], float B[4][5], float C[3][5], int n) {"
        " for (int i = 0; i < n; i++)"
        " for (int j = 0; j < 5; j++)"
        " for (int k = 0; k < 4; k++)"
        " C[i][j] += A[i][k] * B[k][j]; }"
    ),
    "partial-range": (
        "void kernel(float A[3][4], float B[4][5], float C[3][5]) {"
        " for (int i = 0; i < 3; i++)"
        " for (int j = 0; j < 5; j++)"
        " for (int k = 1; k < 4; k++)"
        " C[i][j] += A[i][k] * B[k][j]; }"
    ),
}

GEMM = (
    "void kernel(float A[3][4], float B[4][5], float C[3][5]) {"
    " for (int i = 0; i < 3; i++)"
    " for (int j = 0; j < 5; j++)"
    " for (int k = 0; k < 4; k++)"
    " C[i][j] += A[i][k] * B[k][j]; }"
)


def _loops(source):
    module = compile_c(source, distribute=False)
    func = module.lookup("kernel")
    return [op for op in func.walk() if isinstance(op, AffineForOp)]


class TestMatchExplain:
    def test_gemm_matches(self):
        result, reason = gemm_tactic().match_explain(_loops(GEMM)[0])
        assert result is not None and reason == "matched"

    def test_inner_loop_root(self):
        result, reason = gemm_tactic().match_explain(_loops(GEMM)[-1])
        assert result is None and reason == "inner-loop-root"

    @pytest.mark.parametrize("reason", sorted(TDL_BAIL_KERNELS))
    def test_bail_reasons(self, reason):
        result, got = gemm_tactic().match_explain(
            _loops(TDL_BAIL_KERNELS[reason])[0]
        )
        assert result is None and got == reason

    def test_probed_reasons_are_in_taxonomy(self):
        probed = set(TDL_BAIL_KERNELS) | {"inner-loop-root"}
        assert probed <= set(TDL_BAIL_REASONS)

    def test_taxonomies_are_disjoint_surfaces(self):
        # A TDL reason never leaks into a synth report or vice versa.
        assert not set(TDL_BAIL_REASONS) & set(SYNTH_BAIL_REASONS)


class TestRaiseStats:
    def test_record_tdl_accounting(self):
        pass_ = RaiseAffineToLinalgPass()
        pass_.count_match("GEMM", "matched")
        pass_.count_match("GEMM", "depth-mismatch")
        pass_.count_match("GEMM", "depth-mismatch")
        entry = pass_.stats.snapshot()["tdl"]["GEMM"]
        assert entry["attempted"] == 3
        assert entry["matched"] == 1
        assert entry["bailed"] == 2
        assert entry["bail_reasons"] == {"depth-mismatch": 2}

    def test_record_synth_accounting(self):
        pass_ = SynthRaisingPass()
        pass_.count(raised_ops={"linalg.generic": 1})
        pass_.count(bail_reasons={"validation-failed": 1})
        synth = pass_.stats.snapshot()["synth"]
        assert synth["nests_attempted"] == 2
        assert synth["nests_raised"] == 1
        assert synth["raised_ops"] == {"linalg.generic": 1}
        assert synth["bail_reasons"] == {"validation-failed": 1}

    def test_merge_folds_both_tiers(self):
        left, right = RaiseAffineToLinalgPass(), RaiseAffineToLinalgPass()
        synth = SynthRaisingPass()
        left.count_match("GEMM", "matched")
        right.count_match("GEMM", "body-shape")
        right.count_match("FILL", "matched")
        synth.count(raised_ops={"linalg.matmul": 1}, candidates_enumerated=5)
        snap = merge_pass_stats([left, right, synth]).snapshot()
        assert snap["tdl"]["GEMM"]["attempted"] == 2
        assert snap["tdl"]["FILL"]["matched"] == 1
        assert snap["synth"]["nests_raised"] == 1
        assert snap["synth"]["candidates_enumerated"] == 5

    def test_snapshot_is_json_ready(self):
        import json

        stats = RaiseStats(
            tdl={"GEMM": {"iv-binding": 1}},
            synth={"bail_reasons": {"no-candidate": 1}},
        )
        assert json.loads(json.dumps(stats.snapshot()))


TRANSPOSED_GEMM = TDL_BAIL_KERNELS["structure-mismatch"]


class TestWarmPassCache:
    """A pass-cache hit replays the raising counts: a warm run reports
    what the cold run that filled the cache did."""

    @pytest.mark.parametrize(
        "pass_type, source",
        [
            (RaiseAffineToAffinePass, GEMM),
            (RaiseAffineToLinalgPass, GEMM),
            (SynthRaisingPass, TRANSPOSED_GEMM),
        ],
        ids=["affine", "linalg", "synth"],
    )
    def test_warm_counts_equal_cold(self, pass_type, source):
        cache = PassResultCache()
        snapshots = []
        for _ in ("cold", "warm"):
            pass_ = pass_type()
            PassManager(Context(), pass_cache=cache).add(pass_).run(
                compile_c(source)
            )
            snapshots.append(pass_.stats.snapshot())
        cold, warm = snapshots
        assert cache.stats.executions == 1 and cache.stats.hits == 1
        if pass_type is SynthRaisingPass:
            assert cold["synth"]["nests_raised"] == 1
            assert cold["synth"]["trials_run"] == 10
        else:
            assert cold["tdl"]["GEMM"]["matched"] == 1
        assert warm == cold
