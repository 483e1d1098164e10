"""The budgeted campaign driver and the mlt-fuzz CLI."""

import json
import os

import pytest

from repro.fuzzing import CHECKS, CampaignStats, FuzzCampaign
from repro.tool import fuzz_main

from .test_bisect_reduce import buggy_linalg_pipeline


class TestCampaignCleanCodebase:
    def test_small_budget_is_green(self, tmp_path):
        campaign = FuzzCampaign(out_dir=str(tmp_path / "ff"))
        stats = campaign.run(6)
        assert stats.ok, stats.summary()
        assert stats.seeds_run == 6
        # 4 pipelines x (C kernel + affine module + 2 driver-diff + 2
        # incremental-diff checks) + tdl and synth expectation checks
        assert stats.checks == 6 * 26
        assert stats.stages_checked > stats.checks
        # No failures -> no failure artifacts; only the near-miss
        # corpus (persisted regardless of verdict) may exist.
        leftovers = (
            os.listdir(tmp_path / "ff")
            if os.path.exists(tmp_path / "ff")
            else []
        )
        assert leftovers in ([], ["near-miss"])

    def test_time_limit_stops_early(self, tmp_path):
        campaign = FuzzCampaign(out_dir=str(tmp_path / "ff"))
        stats = campaign.run(10_000, time_limit=0.5)
        assert stats.hit_time_limit
        assert stats.seeds_run < 10_000
        assert stats.ok, stats.summary()

    def test_unknown_pipeline_rejected(self):
        with pytest.raises(ValueError, match="unknown pipeline"):
            FuzzCampaign(pipelines=["definitely-not-a-pipeline"])

    def test_unknown_check_rejected_listing_the_known_ones(self):
        with pytest.raises(ValueError, match="unknown check") as excinfo:
            FuzzCampaign(checks=["engine", "bogus"])
        assert "bogus" in str(excinfo.value)
        for name in CHECKS:
            assert name in str(excinfo.value)

    def test_checks_default_to_all_in_table_order(self):
        assert FuzzCampaign().checks == CHECKS
        assert FuzzCampaign(checks=["opt", "engine"]).checks == (
            "engine",
            "opt",
        )


class TestCampaignWithPlantedBug:
    @pytest.fixture()
    def campaign(self, tmp_path):
        buggy = buggy_linalg_pipeline()
        campaign = FuzzCampaign(
            out_dir=str(tmp_path / "fuzz-failures"), check_modules=False
        )
        campaign.pipelines = {buggy.name: buggy}
        return campaign

    def test_failure_is_bisected_reduced_and_dumped(self, campaign):
        # seed 3 is a plain matmul: the buggy tiling drops its last tile
        failures = campaign.run_seed(3)
        assert failures, "planted miscompile was not caught"
        failure = failures[0]
        assert failure.report.first_failure.kind == "diff"
        assert failure.bisection.culprit_pass == "affine-loop-tile-buggy"
        assert failure.reduced
        assert len(failure.reduced_source.splitlines()) <= 10

        directory = failure.artifact_dir
        assert directory and os.path.isdir(directory)
        names = sorted(os.listdir(directory))
        assert "kernel.c" in names
        assert "reduced.c" in names
        assert "report.json" in names
        assert any(name.startswith("stage-") for name in names)
        with open(os.path.join(directory, "report.json")) as handle:
            payload = json.load(handle)
        assert payload["seed"] == 3
        assert payload["replay"] == "mlt-fuzz --seed 3"
        assert payload["failing_stage"]["kind"] == "diff"
        assert payload["bisection"]["culprit_pass"] == "affine-loop-tile-buggy"
        assert payload["reduced_lines"] <= 10

    def test_campaign_run_collects_failures(self, campaign):
        stats = campaign.run(2, start_seed=3)
        assert not stats.ok
        assert stats.unreduced_failures == []


class TestCrashingRaisingTier:
    """A raising tier that raises is an expectation failure of that
    tier, not the end of the seed or of the campaign."""

    @pytest.mark.parametrize(
        "predicate, name",
        [
            ("_raises_to_named_op", "raise-expectation"),
            ("_synth_raises_all", "synth-expectation"),
        ],
    )
    def test_crash_is_recorded_and_the_seed_goes_on(
        self, tmp_path, monkeypatch, predicate, name
    ):
        def crash(source):
            raise RuntimeError("planted tier crash")

        monkeypatch.setattr(FuzzCampaign, predicate, staticmethod(crash))
        campaign = FuzzCampaign(
            out_dir=str(tmp_path / "ff"),
            pipelines=["mlt-linalg"],
            check_modules=False,
            checks=["synth"],
        )
        stats = CampaignStats()
        failures = campaign.run_seed(0, stats)
        assert [f.pipeline for f in failures] == [name]
        stage = failures[0].report.first_failure
        assert stage.kind == "expectation"
        assert "crashed: planted tier crash" in stage.detail
        # Both expectations and the staged oracle still ran.
        assert stats.checks == 3
        assert stats.stages_checked > 0
        report = os.path.join(failures[0].artifact_dir, "report.json")
        with open(report) as handle:
            payload = json.load(handle)
        assert payload["failing_stage"]["kind"] == "expectation"
        assert "planted tier crash" in payload["failing_stage"]["detail"]

        stats = campaign.run(2)
        assert stats.seeds_run == 2
        assert [f.pipeline for f in stats.failures] == [name, name]


class TestFuzzMainCLI:
    def test_green_run_exits_zero(self, tmp_path, capsys):
        code = fuzz_main(
            ["--seeds", "3", "--out", str(tmp_path / "ff"), "--no-modules"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "mlt-fuzz: 3 seeds" in captured.err
        assert "ok" in captured.err

    def test_seed_replay_mode(self, tmp_path, capsys):
        code = fuzz_main(["--seed", "3", "--out", str(tmp_path / "ff")])
        captured = capsys.readouterr()
        assert code == 0
        assert "family=matmul" in captured.err
        assert "all pipelines agree" in captured.err

    def test_pipeline_subset(self, tmp_path, capsys):
        code = fuzz_main(
            [
                "--seeds",
                "2",
                "--pipelines",
                "mlt-blas",
                "--out",
                str(tmp_path / "ff"),
            ]
        )
        assert code == 0

    def test_unknown_check_is_an_argparse_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            fuzz_main(["--checks", "bogus", "--out", str(tmp_path / "ff")])
        assert excinfo.value.code == 2
        assert "unknown check" in capsys.readouterr().err

    def test_checks_incremental_compiles_no_engine(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.execution as execution

        built = []

        class Counting(execution.ExecutionEngine):
            def __init__(self, *args, **kwargs):
                built.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(execution, "ExecutionEngine", Counting)
        out = str(tmp_path / "ff")
        code = fuzz_main(
            ["--seeds", "2", "--checks", "incremental", "--out", out]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert built == []
        # 2 seeds x (raise expectation + 8 staged oracles + 8
        # incremental-diffs); no synth, no driver-diff
        assert "2 seeds, 34 kernel/pipeline checks" in captured.err
        fuzz_main(["--seeds", "1", "--checks", "engine", "--out", out])
        assert built

    @pytest.mark.fuzz
    def test_smoke_budget(self, tmp_path, capsys):
        """The ``--smoke`` wiring: it takes ``min(--seeds, 30)`` seeds
        under a 60 second limit.  The full 30-seed budget runs as its
        own CI step (``mlt-fuzz --smoke``)."""
        code = fuzz_main(
            ["--smoke", "--seeds", "3", "--out", str(tmp_path / "ff")]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "mlt-fuzz: 3 seeds," in captured.err
        assert "ok" in captured.err


@pytest.mark.fuzz
@pytest.mark.slow
def test_nightly_budget(tmp_path):
    """The acceptance-criterion budget: 200 seeds, zero unreduced
    failures.  Marked slow; run with ``-m slow`` (or mlt-fuzz directly)."""
    campaign = FuzzCampaign(out_dir=str(tmp_path / "ff"))
    stats = campaign.run(200)
    assert stats.ok, stats.summary()
    assert stats.unreduced_failures == []
