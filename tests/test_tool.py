"""The mlt-opt command-line driver."""

import io
import json
import sys

import pytest

from repro.execution.engine.cache import CACHE_COUNTERS
from repro.tool import build_pipeline, load_input, main, tune_main


GEMM = """
void gemm(float A[8][8], float B[8][8], float C[8][8]) {
  for (int i = 0; i < 8; i++)
    for (int j = 0; j < 8; j++)
      for (int k = 0; k < 8; k++)
        C[i][j] += A[i][k] * B[k][j];
}
"""


@pytest.fixture
def c_file(tmp_path):
    path = tmp_path / "kernel.c"
    path.write_text(GEMM)
    return str(path)


def stats_of(err):
    """The one ``--stats`` report among a run's stderr lines."""
    (line,) = [l for l in err.splitlines() if l.startswith("mlt-opt: stats: ")]
    return json.loads(line[len("mlt-opt: stats: ") :])


class TestLoadInput:
    def test_c_by_extension(self, c_file):
        module = load_input(c_file)
        assert module.lookup("gemm") is not None

    def test_ir_by_extension(self, tmp_path):
        path = tmp_path / "m.mlir"
        path.write_text("func @f() { return }")
        module = load_input(str(path))
        assert module.lookup("f") is not None

    def test_auto_detection_of_c(self, tmp_path):
        path = tmp_path / "noext"
        path.write_text(GEMM)
        assert load_input(str(path)).lookup("gemm") is not None


class TestPipeline:
    def test_known_passes(self):
        pm = build_pipeline(["raise-affine-to-linalg", "canonicalize"])
        assert pm.pipeline_string() == "raise-affine-to-linalg,canonicalize"

    def test_unknown_pass_rejected(self):
        with pytest.raises(SystemExit):
            build_pipeline(["optimize-everything"])


class TestMain:
    def _run(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_raise_to_linalg(self, c_file, capsys):
        code, out, _ = self._run(
            [c_file, "-raise-affine-to-linalg"], capsys
        )
        assert code == 0
        assert "linalg.matmul" in out

    def test_raise_to_affine_matmul(self, c_file, capsys):
        _, out, _ = self._run([c_file, "-raise-affine-to-affine"], capsys)
        assert "affine.matmul" in out

    def test_blas_substitution(self, c_file, capsys):
        _, out, _ = self._run(
            [c_file, "-raise-affine-to-linalg", "-convert-linalg-to-blas"],
            capsys,
        )
        assert "blas.sgemm" in out

    def test_full_lowering(self, c_file, capsys):
        _, out, _ = self._run(
            [c_file, "-lower-affine", "-convert-scf-to-llvm"], capsys
        )
        assert "llvm.cond_br" in out

    def test_no_passes_prints_input(self, c_file, capsys):
        _, out, _ = self._run([c_file], capsys)
        assert "affine.for" in out

    def test_timing_flag(self, c_file, capsys):
        _, _, err = self._run(
            [c_file, "-raise-affine-to-linalg", "--timing"], capsys
        )
        assert "Pass execution timing" in err

    def test_timing_nested_pattern_tree(self, c_file, capsys):
        _, _, err = self._run(
            [c_file, "-raise-affine-to-linalg", "-canonicalize", "--timing"],
            capsys,
        )
        assert "Pass execution timing" in err
        assert "`-" in err  # per-pattern lines under the pass
        assert "trials=" in err

    def test_driver_flag_snapshot_matches_worklist(self, c_file, capsys):
        out_by_driver = {}
        for driver in ("worklist", "snapshot"):
            _, out, _ = self._run(
                [c_file, "-raise-affine-to-linalg", f"--driver={driver}"],
                capsys,
            )
            out_by_driver[driver] = out
        assert "linalg.matmul" in out_by_driver["worklist"]
        assert out_by_driver["worklist"] == out_by_driver["snapshot"]

    def test_estimate_flag(self, c_file, capsys):
        _, _, err = self._run([c_file, "--estimate=amd"], capsys)
        assert "GFLOP/s" in err

    def test_output_file(self, c_file, capsys, tmp_path):
        out_path = tmp_path / "out.mlir"
        self._run(
            [c_file, "-raise-affine-to-linalg", "-o", str(out_path)],
            capsys,
        )
        assert "linalg.matmul" in out_path.read_text()

    def test_output_reparses(self, c_file, capsys, tmp_path):
        out_path = tmp_path / "out.mlir"
        self._run([c_file, "-raise-affine-to-linalg", "-o", str(out_path)], capsys)
        code, out, _ = self._run([str(out_path), "-canonicalize"], capsys)
        assert code == 0
        assert "linalg.matmul" in out

    def test_scf_promotion_via_cli(self, c_file, capsys, tmp_path):
        scf_path = tmp_path / "scf.mlir"
        self._run([c_file, "-lower-affine", "-o", str(scf_path)], capsys)
        _, out, _ = self._run(
            [
                str(scf_path),
                "-raise-scf-to-affine",
                "-raise-affine-to-linalg",
            ],
            capsys,
        )
        assert "linalg.matmul" in out

    def test_execute_engines_agree(self, c_file, capsys):
        outputs = {}
        for engine in ("interpret", "compiled"):
            code, _, err = self._run(
                [
                    c_file,
                    "-raise-affine-to-linalg",
                    "--execute",
                    "gemm",
                    "--engine",
                    engine,
                    "-o",
                    "/dev/null",
                ],
                capsys,
            )
            assert code == 0
            lines = [l for l in err.splitlines() if "checksum=" in l]
            assert len(lines) == 3
            outputs[engine] = [l.split(" [")[0] for l in lines]
        assert outputs["interpret"] == outputs["compiled"]

    def test_engine_stats_prints_the_buffer_plan(self, capsys, tmp_path):
        path = tmp_path / "flatten.mlir"
        path.write_text(
            """
module {
  func @f(%a: memref<2x3xf32>, %b: memref<6xf32>) {
    %v = "std.alloc"() : () -> (memref<6xf32>)
    linalg.reshape(%a, %v) {reassociation = [[0, 1]]} : (memref<2x3xf32>, memref<6xf32>)
    %z = "std.alloc"() : () -> (memref<6xf32>)
    linalg.transpose(%z, %b) {permutation = [0]} : (memref<6xf32>, memref<6xf32>)
    linalg.transpose(%v, %b) {permutation = [0]} : (memref<6xf32>, memref<6xf32>)
    return
  }
}
"""
        )
        code, _, err = self._run(
            [
                str(path),
                "--execute",
                "f",
                "--engine",
                "compiled",
                "--stats",
                "-o",
                "/dev/null",
            ],
            capsys,
        )
        assert code == 0
        assert stats_of(err)["vectorize"]["buffer_plan"] == {
            "fresh": 0,
            "reasons": {"used-before-write": 1},
            "view": 1,
            "zeros": 1,
        }

    def test_compile_warms_a_later_execute(self, c_file, capsys, tmp_path):
        """A batch over ``--cache-dir`` and ``--execute --engine
        compiled`` (single-file mode) open the same ``kernels/``
        namespace and key through the same ``CompileConfig``: the second
        command performs no codegen and leaves nothing at the top level
        of the root."""
        import os

        other = tmp_path / "other.c"
        other.write_text(GEMM.replace("gemm", "gemm2"))
        root = tmp_path / "cache"
        common = ["-raise-affine-to-linalg", "--cache-dir", str(root)]
        code, _, _ = self._run([c_file, str(other), *common], capsys)
        assert code == 0
        code, _, err = self._run(
            [
                c_file,
                "--execute",
                "gemm",
                "--engine",
                "compiled",
                "--stats",
                "-o",
                "/dev/null",
                *common,
            ],
            capsys,
        )
        assert code == 0
        stats = stats_of(err)["kernel_cache"]
        assert stats["memory"]["codegen_count"] == 0
        assert stats["disk"]["hits"] == 1
        assert stats["disk"]["bytes_written"] == 0
        assert sorted(os.listdir(root)) == [
            "kernels",
            "modules",
            "passes",
            "schedules",
        ]

    def test_execute_unknown_function_fails(self, c_file, capsys):
        code, _, err = self._run(
            [c_file, "--execute", "nope", "-o", "/dev/null"], capsys
        )
        assert code == 1
        assert "nope" in err

    def test_single_file_cache_dir_replays_passes(
        self, c_file, capsys, tmp_path
    ):
        """``--cache-dir`` opens ``passes/`` in single-file mode too: a
        second process-fresh run over the same root re-executes no pass
        and prints the same bytes."""
        argv = [
            c_file,
            "-raise-affine-to-linalg",
            "-canonicalize",
            "--cache-dir",
            str(tmp_path / "cache"),
            "--stats",
        ]
        code, first, _ = self._run(argv, capsys)
        assert code == 0
        code, second, err = self._run(argv, capsys)
        assert code == 0
        memory = stats_of(err)["pass_cache"]["memory"]
        assert memory["executions"] == 0
        assert memory["hits"] > 0
        assert second == first


class TestStats:
    """``--stats`` prints one line with one key per layer that ran."""

    def _stats(self, argv, capsys):
        assert main(argv) == 0
        return stats_of(capsys.readouterr().err)

    def test_single_file_raise_pass(self, c_file, capsys):
        stats = self._stats([c_file, "-raise-affine-to-linalg", "--stats"], capsys)
        assert set(stats) == {"raise"}
        assert set(stats["raise"]) == {"synth", "tdl"}
        assert stats["raise"]["tdl"]["GEMM"]["matched"] == 1

    def test_single_file_every_layer(self, c_file, capsys, tmp_path):
        stats = self._stats(
            [
                c_file,
                "-raise-affine-to-linalg",
                "--execute",
                "gemm",
                "--engine",
                "compiled",
                "--opt-mode",
                "full",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--stats",
                "-o",
                "/dev/null",
            ],
            capsys,
        )
        assert set(stats) == {
            "raise",
            "pass_cache",
            "kernel_cache",
            "vectorize",
            "opt",
        }
        assert set(stats["pass_cache"]) == {"memory", "entries", "disk"}
        for tier in ("memory", "disk"):
            assert set(stats["kernel_cache"][tier]) == set(CACHE_COUNTERS)
        assert stats["kernel_cache"]["memory"]["codegen_count"] == 1
        # The one schedule report: no "mode" key, and the full
        # schedule's last step is its tile.
        from repro.scheduling import ScheduleResult

        assert set(stats["opt"]) == set(ScheduleResult().snapshot())
        assert stats["opt"]["stages"][-1]["stage"] == "transform.tile"
        assert "buffer_plan" in stats["vectorize"]

    def test_warm_pass_cache_reports_the_same_raise(
        self, capsys, tmp_path
    ):
        """A second run over a warm ``--cache-dir`` raises nothing
        itself, and still reports what the raising tiers did."""
        path = tmp_path / "transposed.c"
        path.write_text(GEMM + TRANSPOSED_A)
        argv = [
            str(path),
            "-raise-affine-to-linalg",
            "-raise-affine-synth",
            "--cache-dir",
            str(tmp_path / "cache"),
            "--stats",
        ]
        cold = self._stats(argv, capsys)
        warm = self._stats(argv, capsys)
        assert warm["pass_cache"]["memory"]["executions"] == 0
        assert cold["raise"]["tdl"]["GEMM"]["matched"] == 1
        assert cold["raise"]["synth"]["nests_raised"] == 1
        assert warm["raise"] == cold["raise"]

    def test_batch_sums_the_kernel_cache_over_units(
        self, c_file, capsys, tmp_path
    ):
        other = tmp_path / "other.c"
        other.write_text(GEMM.replace("gemm", "gemm2"))
        argv = [c_file, str(other), "-raise-affine-to-linalg", "--stats"]
        assert self._stats(argv, capsys) == {}
        stats = self._stats(
            [*argv, "--cache-dir", str(tmp_path / "cache")], capsys
        )
        assert set(stats) == {"kernel_cache"}
        for tier in ("memory", "disk"):
            assert set(stats["kernel_cache"][tier]) == set(CACHE_COUNTERS)
        assert stats["kernel_cache"]["memory"]["codegen_count"] == 2
        assert stats["kernel_cache"]["disk"]["misses"] == 2


TRANSPOSED_A = """
void kernel(float A[4][3], float B[4][5], float C[3][5]) {
  for (int i = 0; i < 3; i++)
    for (int j = 0; j < 5; j++)
      for (int k = 0; k < 4; k++)
        C[i][j] += A[k][i] * B[k][j];
}
"""

DOT = """
void kernel(float x[16], float y[16], float s[1]) {
  for (int i = 0; i < 16; i++)
    s[0] += x[i] * y[i];
}
"""


class TestBatchMode:
    """Whatever the pass list and the options say holds in batch mode
    too — or the option is refused, never silently dropped."""

    def _run(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_batch_runs_the_fallback_raising_tier(self, tmp_path, capsys):
        tiers = ["-raise-affine-to-linalg", "-raise-affine-synth"]
        paths = []
        for stem, source in (("a", TRANSPOSED_A), ("b", DOT)):
            path = tmp_path / f"{stem}.c"
            path.write_text(source)
            paths.append(str(path))
        out_dir = tmp_path / "out"
        code, _, _ = self._run(
            [*paths, *tiers, "--out-dir", str(out_dir)], capsys
        )
        assert code == 0
        for stem, path in zip("ab", paths):
            text = (out_dir / f"{stem}.mlir").read_text()
            assert "affine.for" not in text
            assert text.count("linalg.generic") == 1
            code, single, _ = self._run([path, *tiers], capsys)
            assert code == 0 and single == text
        # The pass list is the only selector of tiers: no out-of-band
        # flag that one mode could honour and another drop.
        with pytest.raises(SystemExit) as exit_info:
            main([*paths, tiers[0], "--raise-mode", "tdl+synth"])
        assert exit_info.value.code == 2
        assert "--raise-mode" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, argv, batch",
        [
            pytest.param(flag, argv, batch, id=f"{mode}:{flag}")
            for flag, argv, batch, mode in [
                ("--output", ["-o", "x.mlir"], True, "batch"),
                ("--timing", ["--timing"], True, "batch"),
                ("--estimate", ["--estimate", "amd"], True, "batch"),
                ("--execute", ["--execute", "gemm"], True, "batch"),
                ("--engine", ["--engine", "compiled"], True, "batch"),
                ("--exec-seed", ["--exec-seed", "3"], True, "batch"),
                ("--opt-mode", ["--opt-mode", "full"], True, "batch"),
                ("--tile-sizes", ["--tile-sizes", "8"], True, "batch"),
                ("--jobs", ["--jobs", "2"], False, "single"),
                ("--out-dir", ["--out-dir", "O"], False, "single"),
            ]
        ],
    )
    def test_mode_only_flags_are_refused(
        self, flag, argv, batch, c_file, tmp_path, capsys, monkeypatch
    ):
        """An option the mode cannot honour exits 2 with one message
        and writes nothing, instead of being silently dropped."""
        monkeypatch.chdir(tmp_path)
        inputs = [c_file]
        if batch:
            other = tmp_path / "other.c"
            other.write_text(GEMM.replace("gemm", "gemm2"))
            inputs.append(str(other))
        code, out, err = self._run(
            [*inputs, "-raise-affine-to-linalg", *argv], capsys
        )
        mode = "single-input" if batch else "batch"
        assert code == 2
        assert err == f"mlt-opt: {flag} is a {mode} option\n"
        assert out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            {"kernel.c", "other.c"} if batch else {"kernel.c"}
        )

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_batch_refuses_inputs_sharing_a_stem(self, jobs, tmp_path, capsys):
        """``a/k.c`` and ``b/k.c`` would both write ``out/k.mlir`` (under
        ``--jobs 2`` in a race): the batch exits 2 before any unit runs
        and writes nothing."""
        paths = []
        for subdir, func in (("a", "f"), ("b", "g")):
            (tmp_path / subdir).mkdir()
            path = tmp_path / subdir / "k.c"
            path.write_text(GEMM.replace("gemm", func))
            paths.append(str(path))
        out_dir = tmp_path / "out"
        code, out, err = self._run(
            [
                *paths,
                "-raise-affine-to-linalg",
                "--out-dir",
                str(out_dir),
                "--jobs",
                jobs,
            ],
            capsys,
        )
        assert code == 2
        assert err == (
            f"mlt-opt: {paths[0]} and {paths[1]} would both write "
            f"{out_dir / 'k.mlir'}\n"
        )
        assert out == ""
        assert not out_dir.exists()

    def test_batch_refuses_tile_sizes(self, c_file, tmp_path, capsys):
        other = tmp_path / "other.c"
        other.write_text(GEMM.replace("gemm", "gemm2"))
        out_dir = tmp_path / "out"
        code, _, err = self._run(
            [
                c_file,
                str(other),
                "-affine-loop-tile",
                "--tile-sizes",
                "8",
                "--out-dir",
                str(out_dir),
            ],
            capsys,
        )
        assert code == 2
        assert "--tile-sizes" in err and "single-input" in err
        assert not out_dir.exists()


def _tune_row(kernel, speedup=1.0, evaluations=4, cached=False):
    return {
        "kernel": kernel,
        "speedup": speedup,
        "evaluations": evaluations,
        "distinct_kernels": 0 if cached else 2,
        "cached": cached,
        "default_wall_s": 1e-4,
        "tuned_wall_s": 1e-4 / speedup,
    }


class TestTuneMain:
    """``mlt-tune`` exits 1 naming the kernel when a row breaks the
    tuned-never-loses bar or a cold search evaluated nothing; without
    ``--out`` the report goes to stdout."""

    def _run(self, rows, monkeypatch, capsys, argv=()):
        def autotune(kernels, **_):
            return {
                "rows": rows,
                "summary": {
                    "evaluations": sum(r["evaluations"] for r in rows),
                    "distinct_kernels": 0,
                    "cached": sum(r["cached"] for r in rows),
                    "best_speedup": max(r["speedup"] for r in rows),
                },
            }

        monkeypatch.setattr("repro.scheduling.autotune.autotune", autotune)
        code = tune_main(["--kernels", "gemm,atax", *argv])
        out, err = capsys.readouterr()
        return code, out, err

    def test_searched_and_replayed_rows_exit_0(self, monkeypatch, capsys):
        rows = [
            _tune_row("gemm", speedup=1.5),
            _tune_row("atax", evaluations=0, cached=True),
        ]
        code, out, err = self._run(rows, monkeypatch, capsys)
        assert code == 0
        assert "error" not in err

    def test_a_slower_schedule_exits_1(self, monkeypatch, capsys):
        rows = [
            _tune_row("gemm"),
            _tune_row("atax", speedup=0.9, evaluations=0, cached=True),
        ]
        code, _, err = self._run(rows, monkeypatch, capsys)
        assert code == 1
        assert "mlt-tune: atax: error: tuned schedule is slower" in err
        assert "gemm: error" not in err

    def test_a_cold_search_with_no_evaluations_exits_1(
        self, monkeypatch, capsys
    ):
        rows = [_tune_row("gemm", evaluations=0), _tune_row("atax")]
        code, _, err = self._run(rows, monkeypatch, capsys)
        assert code == 1
        assert "mlt-tune: gemm: error: the search evaluated no schedule" in err
        assert "atax: error" not in err

    def test_the_report_goes_to_stdout_without_out(
        self, monkeypatch, capsys, tmp_path
    ):
        monkeypatch.chdir(tmp_path)
        rows = [_tune_row("gemm"), _tune_row("atax")]
        code, out, err = self._run(rows, monkeypatch, capsys)
        assert code == 0
        assert json.loads(out)["rows"] == rows
        assert err.endswith("wrote stdout\n")
        assert list(tmp_path.iterdir()) == []

    def test_out_writes_the_report_there(self, monkeypatch, capsys, tmp_path):
        path = tmp_path / "reports" / "tune.json"
        rows = [_tune_row("gemm"), _tune_row("atax")]
        code, out, _ = self._run(
            rows, monkeypatch, capsys, ["--out", str(path)]
        )
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["rows"] == rows
