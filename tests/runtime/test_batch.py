"""Tests for mlt-opt batch mode and the corpus runs over it."""

import multiprocessing
import os
import shutil

import pytest

from benchmarks.harness import run_corpus, write_corpus
from repro.runtime.batch import BatchResult, run_batch
from repro.store import CompileConfig

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

GEMM = """
void gemm(float A[4][4], float B[4][4], float C[4][4]) {
  for (int i = 0; i < 4; i++)
    for (int j = 0; j < 4; j++)
      for (int k = 0; k < 4; k++)
        C[i][j] += A[i][k] * B[k][j];
}
"""

SAXPY = """
void saxpy(float x[8], float y[8]) {
  for (int i = 0; i < 8; i++)
    y[i] = y[i] + 2.0f * x[i];
}
"""

PASSES = ["raise-affine-to-linalg"]


@pytest.fixture
def inputs(tmp_path):
    gemm = tmp_path / "gemm.c"
    saxpy = tmp_path / "saxpy.c"
    gemm.write_text(GEMM)
    saxpy.write_text(SAXPY)
    return [str(gemm), str(saxpy)]


def _read_outputs(out_dir):
    return {
        name: (out_dir / name).read_text()
        for name in sorted(os.listdir(out_dir))
    }


class TestBatch:
    def test_results_follow_input_order(self, inputs, tmp_path):
        results = run_batch(inputs, PASSES, str(tmp_path / "out"))
        assert [r.input_path for r in results] == inputs
        assert all(r.ok for r in results)
        assert all(r.detail == "compiled" for r in results)
        assert sorted(os.listdir(tmp_path / "out")) == [
            "gemm.mlir",
            "saxpy.mlir",
        ]

    def test_gemm_raises_to_named_op(self, inputs, tmp_path):
        run_batch(inputs, PASSES, str(tmp_path / "out"))
        assert "linalg.matmul" in (tmp_path / "out" / "gemm.mlir").read_text()

    @pytest.mark.skipif(not HAVE_FORK, reason="requires fork start method")
    def test_parallel_outputs_match_serial(self, inputs, tmp_path):
        run_batch(inputs, PASSES, str(tmp_path / "serial"), jobs=1)
        run_batch(inputs, PASSES, str(tmp_path / "parallel"), jobs=2)
        assert _read_outputs(tmp_path / "serial") == _read_outputs(
            tmp_path / "parallel"
        )

    def test_warm_run_hits_module_cache(self, inputs, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = run_batch(
            inputs, PASSES, str(tmp_path / "o1"), cache_dir=cache_dir
        )
        warm = run_batch(
            inputs, PASSES, str(tmp_path / "o2"), cache_dir=cache_dir
        )
        assert [r.detail for r in cold] == ["compiled", "compiled"]
        assert [r.detail for r in warm] == ["module-cache", "module-cache"]
        assert _read_outputs(tmp_path / "o1") == _read_outputs(
            tmp_path / "o2"
        )

    def test_warm_compile_needs_no_codegen(self, inputs, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = run_batch(
            inputs,
            PASSES,
            str(tmp_path / "o1"),
            cache_dir=cache_dir,
            compile_kernels=True,
        )
        warm = run_batch(
            inputs,
            PASSES,
            str(tmp_path / "o2"),
            cache_dir=cache_dir,
            compile_kernels=True,
        )
        assert sum(
            r.cache_snapshot["memory"]["codegen_count"] for r in cold
        ) == len(inputs)
        # A unit's share lists only the counters that moved.
        assert all(
            set(r.cache_snapshot) == {"memory", "disk"}
            and "codegen_count" not in r.cache_snapshot["memory"]
            for r in warm
        )
        # Warm kernels come off disk, not out of codegen.
        assert sum(r.cache_snapshot["disk"]["hits"] for r in warm) == len(
            inputs
        )

    def test_bad_file_does_not_sink_batch(self, inputs, tmp_path):
        broken = tmp_path / "broken.c"
        broken.write_text("void broken( {\n")
        results = run_batch(
            [inputs[0], str(broken), inputs[1]],
            PASSES,
            str(tmp_path / "out"),
        )
        assert [r.ok for r in results] == [True, False, True]
        assert results[1].detail  # carries the error text
        assert sorted(os.listdir(tmp_path / "out")) == [
            "gemm.mlir",
            "saxpy.mlir",
        ]

    def test_module_cache_key_separates_pipelines(self, monkeypatch):
        def key(text, passes, driver):
            return CompileConfig(
                pipeline=tuple(passes), driver=driver
            ).module_key(text)

        base = key("text", ["-a"], "worklist")
        assert base != key("text", ["-b"], "worklist")
        assert base != key("text", ["-a"], "snapshot")
        assert base != key("other", ["-a"], "worklist")
        assert base == key("text", ["-a"], "worklist")
        # A code change orphans modules/ along with passes/.
        monkeypatch.setattr("repro.store.CODE_DIGEST", "0" * 64)
        assert base != key("text", ["-a"], "worklist")

    def test_batch_result_is_picklable(self):
        import pickle

        result = BatchResult(
            input_path="a.c", output_path="a.mlir", ok=True, seconds=0.1
        )
        assert pickle.loads(pickle.dumps(result)) == result


class TestCorpusRuns:
    def test_corpus_unit_checksums_deterministic(self, tmp_path):
        inputs = write_corpus(["gemm"], str(tmp_path / "inputs"))

        def run(tag):
            return run_corpus(
                inputs,
                ["baseline"],
                1,
                str(tmp_path / tag / "cache"),
                str(tmp_path / tag / "out"),
            )

        first, second = run("first"), run("second")
        assert first["outputs"] == second["outputs"]
        assert list(first["outputs"]) == [("gemm", "baseline")]
        assert first["units"] == 1

    @pytest.mark.skipif(not HAVE_FORK, reason="requires fork start method")
    def test_cold_and_warm_runs_agree_at_any_jobs(self, tmp_path):
        # cold/1, cold/2 (cache wiped before each), then warm/1, warm/2
        # over the cache the last cold run filled: every run prints the
        # same module text and compiles the same kernel source per
        # unit, and a warm run runs no codegen.
        inputs = write_corpus(["gemm", "atax"], str(tmp_path / "inputs"))
        cache = tmp_path / "cache"
        runs = {}
        for state, jobs in (("cold", 1), ("cold", 2), ("warm", 1), ("warm", 2)):
            if state == "cold" and cache.exists():
                shutil.rmtree(cache)
            runs[state, jobs] = run_corpus(
                inputs,
                ["baseline"],
                jobs,
                str(cache),
                str(tmp_path / f"out-{state}-{jobs}"),
            )
        reference = runs["cold", 1]["outputs"]
        assert len(reference) == 2
        for row in runs.values():
            assert row["outputs"] == reference
        assert runs["warm", 1]["codegen_count"] == 0
        assert runs["warm", 2]["codegen_count"] == 0
        assert runs["warm", 1]["module_cache_hits"] == runs["warm", 1]["units"]
