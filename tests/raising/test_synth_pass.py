"""The synthesis tier end to end: raising tiers compose as passes (in
the pass list, on the CLI, in a ``transform.raise`` step), and raised
ops reach the engine's contraction fast path."""

import json
from collections import Counter

import numpy as np
import pytest

from benchmarks.bench_raise import NEAR_MISS_KERNELS
from repro.dialects.affine import AffineForOp
from repro.evaluation import get_kernel
from repro.ir import print_module
from repro.ir.parser import parse_module
from repro.met import compile_c
from repro.raising import RaiseStats, SynthRaisingPass, raise_with_synthesis
from repro.scheduling.interpreter import ScheduleError, apply_schedule
from repro.tactics.raising import (
    RaiseAffineToAffinePass,
    RaiseAffineToLinalgPass,
    raise_affine_to_linalg,
)
from repro.tool import main

from ..conftest import raise_two_tiers

TRANSPOSED = """
void kernel(float A[4][3], float B[4][5], float C[3][5]) {
  for (int i = 0; i < 3; i++)
    for (int j = 0; j < 5; j++)
      for (int k = 0; k < 4; k++)
        C[i][j] += A[k][i] * B[k][j];
}
"""

GEMM = TRANSPOSED.replace("A[4][3]", "A[3][4]").replace(
    "A[k][i]", "A[i][k]"
)


def _loops(module):
    return [op for op in module.walk() if isinstance(op, AffineForOp)]


def _linalg_ops(module):
    return [op.name for op in module.walk() if op.name.startswith("linalg.")]


#: One function the TDL tier raises, one only the fallback tier does.
GEMM_AND_TRANSPOSED = GEMM.replace("kernel", "gemm") + TRANSPOSED

TIERS = ["-raise-affine-to-linalg", "-raise-affine-synth"]


def _raise_schedule(mode):
    return parse_module(
        "module {\n  transform.sequence {\n    %0 = transform.match\n"
        f'    %1 = transform.raise %0 {{mode = "{mode}"}}\n  }}\n}}\n'
    )


class TestRaiseModes:
    def test_tdl_alone_misses_transposed(self):
        module = compile_c(TRANSPOSED)
        raise_affine_to_linalg(module)
        assert _loops(module)

    def test_synth_recovers_transposed(self):
        module = compile_c(TRANSPOSED)
        snap = raise_two_tiers(module).snapshot()
        assert not _loops(module)
        assert "linalg.generic" in _linalg_ops(module)
        assert snap["synth"]["nests_raised"] >= 1
        assert snap["tdl"], "TDL tier should have recorded attempts"

    def test_tdl_still_wins_on_plain_gemm(self):
        # With both tiers on, the structural matcher claims gemm first;
        # synthesis only sees what TDL left behind.
        module = compile_c(GEMM)
        raise_two_tiers(module)
        assert "linalg.matmul" in _linalg_ops(module)

    def test_standalone_synth_pass(self):
        module = compile_c(TRANSPOSED)
        synth = raise_with_synthesis(module).snapshot()["synth"]
        assert not _loops(module)
        assert synth["nests_raised"] >= 1
        assert synth["trials_run"] > 0

    @pytest.mark.parametrize("name", sorted(NEAR_MISS_KERNELS))
    def test_two_passes_equal_the_old_combined_mode(self, name):
        # Golden of the combined mode: one generic, its mac body, no
        # loop, nothing claimed by a TDL tactic.
        module = compile_c(NEAR_MISS_KERNELS[name][1])
        stats = raise_two_tiers(module)
        combine = "std.subf" if name == "subtract-matmul" else "std.addf"
        (func,) = module.functions
        ops = Counter(op.name for op in func.walk())
        del ops["func.func"], ops["func.return"]
        assert ops == {
            "linalg.generic": 1,
            "std.mulf": 1,
            combine: 1,
            "linalg.yield": 1,
        }
        assert stats.total == 0
        assert stats.snapshot()["synth"]["nests_raised"] == 1

    def test_unknown_mode_rejected(self):
        # The only place a tier set is still *named* is the schedule
        # text format; an unknown tier is a schedule error.
        with pytest.raises(ScheduleError, match="unknown tier 'magic'"):
            apply_schedule(_raise_schedule("tdl+magic"), compile_c(GEMM))

    def test_transform_raise_step_runs_the_tiers_it_names(self):
        payload = compile_c(GEMM_AND_TRANSPOSED)
        result = apply_schedule(_raise_schedule("tdl"), payload)
        assert result.raise_stats == {"GEMM": 1} and len(_loops(payload)) == 3
        # The synth tier alone, on what is left; then both at once.
        result = apply_schedule(_raise_schedule("synth"), payload)
        assert result.raise_stats == {} and not _loops(payload)
        both = compile_c(GEMM_AND_TRANSPOSED)
        apply_schedule(_raise_schedule("tdl+synth"), both)
        assert print_module(both) == print_module(payload)

    def test_pass_exposes_raise_stats(self):
        # One stats class, one accessor, on every raising pass.
        for pass_ in (
            RaiseAffineToAffinePass(),
            RaiseAffineToLinalgPass(),
            SynthRaisingPass(),
        ):
            assert isinstance(pass_.stats, RaiseStats)

    @pytest.mark.parametrize(
        "kernel, callsites",
        [
            ("gemm", {"GEMM": 1}),
            ("2mm", {"GEMM": 2}),
            ("atax", {"MATVEC": 1, "MATVEC_T": 1}),
        ],
    )
    def test_callsites_and_total_reproduce_figure_8(self, kernel, callsites):
        spec = get_kernel(kernel)
        stats = raise_affine_to_linalg(
            compile_c(spec.small()), raise_fills=False
        )
        assert stats.callsites == callsites
        assert stats.total == spec.oracle_callsites == sum(callsites.values())
        # Derived from the per-tactic ``matched`` counters, not stored.
        assert stats.total == sum(
            entry["matched"] for entry in stats.snapshot()["tdl"].values()
        )


class TestCLI:
    @pytest.fixture
    def c_file(self, tmp_path):
        path = tmp_path / "kernel.c"
        path.write_text(TRANSPOSED)
        return str(path)

    def _run(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_raise_mode_flag(self, c_file, capsys):
        # The pass list is the only selector of tiers; the flag is gone.
        code, out, _ = self._run([c_file, *TIERS], capsys)
        assert code == 0
        assert "linalg.generic" in out
        assert "affine.for" not in out
        with pytest.raises(SystemExit) as exit_info:
            main([c_file, TIERS[0], "--raise-mode", "tdl+synth"])
        assert exit_info.value.code == 2

    def test_default_mode_leaves_near_miss_alone(self, c_file, capsys):
        _, out, _ = self._run([c_file, "-raise-affine-to-linalg"], capsys)
        assert "affine.for" in out

    def test_raise_stats_flag_prints_both_tiers(self, c_file, capsys):
        _, _, err = self._run([c_file, *TIERS, "--stats"], capsys)
        (line,) = [l for l in err.splitlines() if "mlt-opt: stats: " in l]
        payload = json.loads(line.split("mlt-opt: stats: ", 1)[1])["raise"]
        assert payload["synth"]["nests_raised"] >= 1
        assert "GEMM" in payload["tdl"]
        gemm = payload["tdl"]["GEMM"]
        assert gemm["attempted"] == gemm["matched"] + gemm["bailed"]

    def test_synth_pass_registered(self, c_file, capsys):
        code, out, _ = self._run([c_file, "-raise-affine-synth"], capsys)
        assert code == 0
        assert "linalg.generic" in out


class TestEngineFastPath:
    def test_raised_contraction_hits_tensordot(self):
        from repro.execution.engine import ExecutionEngine
        from repro.execution.engine.codegen import generic_contraction_spec

        module = compile_c(TRANSPOSED)
        raise_two_tiers(module)
        (generic,) = [
            op for op in module.walk() if op.name == "linalg.generic"
        ]
        assert generic_contraction_spec(generic)[0] == "ca,cb->ab"
        engine = ExecutionEngine(module)
        # Planned at codegen as one matrix product over a transposed
        # view, accumulated in place.
        assert "[...] += (v0.T @ v1)" in engine.source

        rng = np.random.default_rng(3)
        a = rng.random((4, 3), dtype=np.float32) - 0.5
        b = rng.random((4, 5), dtype=np.float32) - 0.5
        c = rng.random((3, 5), dtype=np.float32) - 0.5
        want = c + np.einsum("ki,kj->ij", a, b)
        got = c.copy()
        engine.run("kernel", a.copy(), b.copy(), got)
        np.testing.assert_allclose(got, want, rtol=2e-3, atol=1e-5)
