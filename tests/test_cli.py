import json
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from dppcluster import pipeline
from dppcluster.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def blob_csv(tmp_path, blob_data):
    x, truth = blob_data
    data_path = tmp_path / "data.csv"
    labels_path = tmp_path / "labels.csv"
    np.savetxt(data_path, x, fmt="%.8f", delimiter=",")
    np.savetxt(labels_path, truth, fmt="%d")
    return data_path, labels_path


class TestClusterCommand:
    def test_happy_path_with_report(self, runner, blob_csv, tmp_path):
        data_path, labels_path = blob_csv
        out = tmp_path / "report.json"
        result = runner.invoke(
            main,
            [
                "cluster",
                str(data_path),
                "--labels",
                str(labels_path),
                "--runs",
                "40",
                "--seed",
                "5",
                "--out",
                str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        assert payload["k_hat"] == 2
        assert payload["metrics"]["ari"] == 1.0
        assert "chosen" in result.output

    def test_consensus_export(self, runner, blob_csv, tmp_path):
        data_path, _ = blob_csv
        out = tmp_path / "c.csv"
        result = runner.invoke(
            main,
            ["cluster", str(data_path), "--runs", "10", "--consensus-out", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert len(out.read_text().splitlines()) == 100

    def test_bad_method_exits_2(self, runner, blob_csv):
        data_path, _ = blob_csv
        result = runner.invoke(main, ["cluster", str(data_path), "--method", "pam"])
        assert result.exit_code == 2

    def test_bad_tau_exits_2(self, runner, blob_csv):
        data_path, _ = blob_csv
        result = runner.invoke(main, ["cluster", str(data_path), "--tau", "1.5"])
        assert result.exit_code == 2

    def test_tau_above_default_grid_exits_2(self, runner, blob_csv):
        data_path, _ = blob_csv
        result = runner.invoke(main, ["cluster", str(data_path), "--tau", "0.97"])
        assert result.exit_code == 2
        assert "threshold grid" in result.output

    @pytest.mark.parametrize("s", ["inf", "nan", "0"])
    def test_bad_bandwidth_factor_exits_2_before_the_bandwidth_pass(
        self, runner, blob_csv, monkeypatch, s
    ):
        def no_pass(*_args, **_kwargs):
            raise AssertionError("the bandwidth pass ran")

        monkeypatch.setattr(pipeline, "estimate_bandwidth", no_pass)
        data_path, _ = blob_csv
        result = runner.invoke(main, ["cluster", str(data_path), "--s", s])
        assert result.exit_code == 2, result.output
        assert "bandwidth factor s must be positive and finite" in result.output

    def test_nan_threshold_exits_2(self, runner, blob_csv):
        data_path, _ = blob_csv
        result = runner.invoke(
            main, ["cluster", str(data_path), "--runs", "20", "--thresholds", "nan"]
        )
        assert result.exit_code == 2
        assert "thresholds must lie in [tau, 1)" in result.output

    def test_non_numeric_csv_exits_3(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3,oops\n")
        result = runner.invoke(main, ["cluster", str(bad)])
        assert result.exit_code == 3
        assert "row 2" in result.output

    def test_missing_file_exits_3(self, runner, tmp_path):
        result = runner.invoke(main, ["cluster", str(tmp_path / "nope.csv")])
        assert result.exit_code == 3

    def test_degenerate_data_exits_3(self, runner, tmp_path):
        f = tmp_path / "const.csv"
        f.write_text("1,1\n1,1\n1,1\n")
        result = runner.invoke(main, ["cluster", str(f)])
        assert result.exit_code == 3

    def test_overflowing_distances_exit_3(self, runner, tmp_path):
        # DegenerateData's exit code and message, and no RuntimeWarning
        f = tmp_path / "big.csv"
        np.savetxt(f, 1e160 * np.random.default_rng(0).normal(size=(20, 2)), delimiter=",")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, ["cluster", str(f)])
        assert result.exit_code == 3
        assert "overflow" in result.output
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_label_length_mismatch_exits_3(self, runner, blob_csv, tmp_path):
        data_path, _ = blob_csv
        short = tmp_path / "short.csv"
        short.write_text("0\n1\n")
        result = runner.invoke(
            main, ["cluster", str(data_path), "--labels", str(short)]
        )
        assert result.exit_code == 3


class TestSimulateCommand:
    def test_single_scenario(self, runner, tmp_path):
        out = tmp_path / "sim"
        result = runner.invoke(
            main,
            [
                "simulate",
                "--scenario-id",
                "n150-plow-klow",
                "--replicas",
                "1",
                "--seed",
                "3",
                "--out",
                str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        target = out / "n150-plow-klow" / "rep00"
        assert (target / "features.csv").exists()
        assert (target / "labels.csv").exists()
        meta = json.loads((target / "meta.json").read_text())
        assert meta["n"] == 150

    def test_requires_exactly_one_mode(self, runner, tmp_path):
        result = runner.invoke(main, ["simulate", "--out", str(tmp_path)])
        assert result.exit_code == 2


class TestDiversityCommand:
    def test_emits_two_series(self, runner, blob_csv, tmp_path):
        data_path, _ = blob_csv
        out = tmp_path / "div.csv"
        result = runner.invoke(
            main,
            ["diagnose-diversity", str(data_path), "--runs", "15", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "method,run,log_likelihood,subset_size"
        assert len(lines) == 1 + 2 * 15


class TestBenchmarkCommand:
    def test_mini_benchmark(self, runner, tmp_path):
        scenarios = tmp_path / "scenarios.json"
        scenarios.write_text(json.dumps(["n150-plow-klow"]))
        out = tmp_path / "bench"
        result = runner.invoke(
            main,
            [
                "benchmark",
                "--scenarios",
                str(scenarios),
                "--methods",
                "dpp,uniform",
                "--runs",
                "20",
                "--replicas",
                "1",
                "--out",
                str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        assert (out / "summary.csv").exists()
        assert (out / "trajectories.csv").exists()
        assert (out / "histograms.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary) == 2

    def test_bad_scenarios_file_exits_3(self, runner, tmp_path):
        f = tmp_path / "s.json"
        f.write_text("{not json")
        result = runner.invoke(main, ["benchmark", "--scenarios", str(f), "--out", str(tmp_path / "o")])
        assert result.exit_code == 3

    @pytest.mark.parametrize("methods", ["dpp,dpx", " , "])
    def test_unknown_method_exits_2_before_any_run(self, runner, tmp_path, methods):
        f = tmp_path / "s.json"
        f.write_text(json.dumps(["n150-plow-klow"]))
        out = tmp_path / "o"
        result = runner.invoke(
            main, ["benchmark", "--scenarios", str(f), "--methods", methods, "--out", str(out)]
        )
        assert result.exit_code == 2
        assert "must be one of" in result.output
        assert not out.exists()

    def test_unknown_scenario_key_exits_3(self, runner, tmp_path):
        f = tmp_path / "s.json"
        f.write_text(json.dumps([{"n": 150, "bogus": 1}]))
        result = runner.invoke(main, ["benchmark", "--scenarios", str(f), "--out", str(tmp_path / "o")])
        assert result.exit_code == 3
        assert str(f) in result.output and "bogus" in result.output


class TestSettingsFailEarly:
    @pytest.fixture()
    def scenarios(self, tmp_path):
        f = tmp_path / "s.json"
        f.write_text(json.dumps(["n150-plow-klow"]))
        return f

    def _argv(self, command, blob_csv, scenarios, tmp_path):
        data_path, _ = blob_csv
        out = str(tmp_path / "out")
        return {
            "cluster": ["cluster", str(data_path), "--runs", "5"],
            "simulate": ["simulate", "--scenario-id", "n150-plow-klow", "--replicas", "1",
                         "--out", out],
            "benchmark": ["benchmark", "--scenarios", str(scenarios), "--runs", "5",
                          "--replicas", "1", "--out", out],
            "diagnose-diversity": ["diagnose-diversity", str(data_path), "--runs", "5",
                                   "--out", str(tmp_path / "div.csv")],
        }[command]

    @pytest.mark.parametrize("command", ["cluster", "simulate", "benchmark", "diagnose-diversity"])
    def test_negative_seed_exits_2(self, runner, blob_csv, scenarios, tmp_path, command):
        argv = self._argv(command, blob_csv, scenarios, tmp_path) + ["--seed", "-1"]
        result = runner.invoke(main, argv)
        assert result.exit_code == 2, result.output
        assert "error:" in result.output and "seed" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "benchmark"])
    def test_zero_replicas_exits_2(self, runner, blob_csv, scenarios, tmp_path, command):
        argv = self._argv(command, blob_csv, scenarios, tmp_path) + ["--replicas", "0"]
        result = runner.invoke(main, argv)
        assert result.exit_code == 2, result.output
        assert "replicas" in result.output
        assert not (tmp_path / "out").exists()

    def test_each_command_registered_once(self, runner):
        # on click 8.1 a bare @main.command() on benchmark_cmd would also
        # register it as benchmark-cmd
        assert sorted(main.commands) == ["benchmark", "cluster", "diagnose-diversity", "simulate"]
        result = runner.invoke(main, ["--help"])
        assert "benchmark-cmd" not in result.output
