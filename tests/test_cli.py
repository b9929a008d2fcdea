"""End-to-end CLI tests: flags, artifacts, exit codes, round trips."""

import json
import os

import pytest

from gkptrack.cli import main


def run_cli(*argv):
    return main(list(argv))


class TestRun:
    def test_sweep_writes_expected_rows(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "run", "--protocol", "tracking", "--analog", "on", "--cycles", "2",
            "--levels", "1,2", "--sigma-total", "0.9:1.1:0.1", "--trials", "1500",
            "--seed", "7", "--out", str(out),
        )
        assert code == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert len(lines) == 1 + 6  # header + 3 grid x 2 levels
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["master_seed"] == 7

    def test_missing_required_flag_is_usage_error(self, capsys):
        code = run_cli("run", "--protocol", "conventional", "--analog", "on",
                       "--cycles", "2", "--levels", "1",
                       "--sigma-total", "1.0:1.0:1", "--seed", "1")
        assert code == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_tracking_single_cycle_rejected(self, tmp_path):
        code = run_cli(
            "run", "--protocol", "tracking", "--analog", "off", "--cycles", "1",
            "--levels", "1", "--sigma-total", "1.0:1.0:1", "--trials", "10",
            "--seed", "1", "--out", str(tmp_path),
        )
        assert code == 1

    def test_determinism_across_worker_counts(self, tmp_path):
        base = [
            "run", "--protocol", "conventional", "--analog", "off", "--cycles", "2",
            "--levels", "1", "--sigma-total", "1.0:1.1:0.05", "--trials", "4000",
            "--seed", "123",
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(*base, "--out", str(a), "--workers", "1") == 0
        assert run_cli(*base, "--out", str(b), "--workers", "8") == 0
        assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()

    def test_env_default_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GKPTRACK_OUT", str(tmp_path / "envout"))
        code = run_cli(
            "run", "--protocol", "conventional", "--analog", "on", "--cycles", "1",
            "--levels", "1", "--sigma-total", "0.5:0.5:1", "--trials", "100",
            "--seed", "2",
        )
        assert code == 0
        assert (tmp_path / "envout" / "results.csv").exists()

    def test_grid_parse_by_index(self, tmp_path):
        # 0.9:1.3:0.05 must give 9 points despite float accumulation
        code = run_cli(
            "run", "--protocol", "conventional", "--analog", "on", "--cycles", "2",
            "--levels", "1", "--sigma-total", "0.9:1.3:0.05", "--trials", "50",
            "--seed", "5", "--out", str(tmp_path / "g"),
        )
        assert code == 0
        lines = (tmp_path / "g" / "results.csv").read_text().splitlines()
        assert len(lines) == 10


class TestResume:
    BASE = ("run", "--protocol", "conventional", "--analog", "off", "--cycles", "2",
            "--levels", "1,2", "--sigma-total", "1.0:1.1:0.1", "--trials", "600")

    def test_matching_resume_completes_file(self, tmp_path):
        out = tmp_path / "r"
        args = (*self.BASE, "--seed", "5", "--out", str(out))
        assert run_cli(*args) == 0
        full = (out / "results.csv").read_bytes()
        lines = full.splitlines(keepends=True)
        (out / "results.csv").write_bytes(b"".join(lines[:3]))
        assert run_cli(*args, "--workers", "2") == 0
        assert (out / "results.csv").read_bytes() == full

    @pytest.mark.parametrize(
        "extra,fields",
        [
            (("--seed", "6"), ["master_seed"]),
            (("--seed", "5", "--trials", "700"), ["trials_per_point"]),
            (("--seed", "5", "--max-failures-stop", "10"), ["max_failures_stop"]),
            (("--seed", "6", "--quadrature", "p"), ["master_seed", "quadrature"]),
        ],
    )
    def test_different_config_refused(self, tmp_path, capsys, extra, fields):
        out = tmp_path / "r"
        assert run_cli(*self.BASE, "--seed", "5", "--out", str(out)) == 0
        before = {name: (out / name).read_bytes() for name in ("results.csv", "manifest.json")}
        capsys.readouterr()
        # a repeated flag overrides the earlier one
        assert run_cli(*self.BASE, *extra, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "another configuration" in err
        for field in fields:
            assert field in err
        assert {name: (out / name).read_bytes() for name in before} == before

    def test_results_without_manifest_refused(self, tmp_path, capsys):
        out = tmp_path / "r"
        assert run_cli(*self.BASE, "--seed", "5", "--out", str(out)) == 0
        (out / "manifest.json").unlink()
        assert run_cli(*self.BASE, "--seed", "5", "--out", str(out)) == 2
        assert "manifest.json does not" in capsys.readouterr().err


class TestThreshold:
    @pytest.fixture()
    def results_csv(self, tmp_path):
        out = tmp_path / "sweep"
        assert run_cli(
            "run", "--protocol", "conventional", "--analog", "off", "--cycles", "2",
            "--levels", "1,2", "--sigma-total", "1.01:1.21:0.05", "--trials", "8000",
            "--seed", "31", "--out", str(out),
        ) == 0
        return out / "results.csv"

    def test_round_trip(self, tmp_path, results_csv):
        report = tmp_path / "report.json"
        assert run_cli("threshold", "--in", str(results_csv), "--out", str(report)) == 0
        payload = json.loads(report.read_text())
        assert 1.0 < payload["sigma_star"] < 1.25
        assert payload["crossings"]

    def test_single_level_is_runtime_error(self, tmp_path):
        out = tmp_path / "one"
        assert run_cli(
            "run", "--protocol", "conventional", "--analog", "on", "--cycles", "2",
            "--levels", "1", "--sigma-total", "1.0:1.1:0.05", "--trials", "500",
            "--seed", "3", "--out", str(out),
        ) == 0
        code = run_cli("threshold", "--in", str(out / "results.csv"),
                       "--out", str(tmp_path / "r.json"))
        assert code == 2

    def test_malformed_csv_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        from gkptrack.harness import CSV_HEADER

        bad.write_text(CSV_HEADER + "\nconventional,on,2,1,1.0,10,x,0.1,0.0,0.2,7\n")
        code = run_cli("threshold", "--in", str(bad), "--out", str(tmp_path / "r.json"))
        assert code == 2
        assert "line 2" in capsys.readouterr().err


class TestResources:
    def test_table_values(self, capsys, tmp_path):
        assert run_cli("resources", "--cycles", "2", "--levels", "1..5",
                       "--out", str(tmp_path)) == 0
        out = capsys.readouterr().out
        for value in ("25.0", "43.8", "48.4", "49.6", "49.9"):
            assert value in out
        assert (tmp_path / "resources.csv").exists()
        assert (tmp_path / "resources.json").exists()

    def test_saved_qubits_level1(self, capsys):
        assert run_cli("resources", "--cycles", "2", "--levels", "1") == 0
        row = capsys.readouterr().out.splitlines()[1].split()
        assert row[2:5] == ["32", "24", "8"]

    def test_three_cycles(self, capsys):
        assert run_cli("resources", "--cycles", "3", "--levels", "1") == 0
        row = capsys.readouterr().out.splitlines()[1].split()
        assert row[2:5] == ["48", "32", "16"]


class TestPlot:
    def test_series_and_legend(self, tmp_path):
        out = tmp_path / "sweep"
        assert run_cli(
            "run", "--protocol", "tracking", "--analog", "on", "--cycles", "2",
            "--levels", "1,2,3", "--sigma-total", "0.9:1.3:0.05", "--trials", "400",
            "--seed", "7", "--out", str(out),
        ) == 0
        fig = tmp_path / "fig.svg"
        assert run_cli("plot", "--in", str(out / "results.csv"), "--out", str(fig)) == 0
        svg = fig.read_text()
        assert svg.count("tracking/analog L") == 3  # legend entries
        assert svg.count("<polyline") == 3

    def test_merged_protocols_six_series(self, tmp_path):
        out = tmp_path / "m"
        for proto in ("conventional", "tracking"):
            assert run_cli(
                "run", "--protocol", proto, "--analog", "on", "--cycles", "2",
                "--levels", "1,2,3", "--sigma-total", "1.0:1.2:0.1", "--trials", "300",
                "--seed", "9", "--out", str(out),
            ) == 0
        fig = tmp_path / "fig.svg"
        assert run_cli("plot", "--in", str(out / "results.csv"), "--out", str(fig)) == 0
        svg = fig.read_text()
        assert svg.count(" L1<") + svg.count(" L2<") + svg.count(" L3<") == 6

    def test_zero_failure_points_get_one_sided_markers(self, tmp_path):
        out = tmp_path / "z"
        assert run_cli(
            "run", "--protocol", "conventional", "--analog", "on", "--cycles", "2",
            "--levels", "1", "--sigma-total", "0.2:0.3:0.1", "--trials", "200",
            "--seed", "4", "--out", str(out),
        ) == 0
        fig = tmp_path / "f.svg"
        assert run_cli("plot", "--in", str(out / "results.csv"), "--out", str(fig)) == 0
        svg = fig.read_text()
        assert "<path d=" in svg  # one-sided marker triangles present

    def test_empty_input_is_error(self, tmp_path):
        from gkptrack.harness import CSV_HEADER

        empty = tmp_path / "e.csv"
        empty.write_text(CSV_HEADER + "\n")
        assert run_cli("plot", "--in", str(empty), "--out", str(tmp_path / "f.svg")) == 2

    def test_threshold_marker(self, tmp_path):
        out = tmp_path / "sweep"
        assert run_cli(
            "run", "--protocol", "conventional", "--analog", "off", "--cycles", "2",
            "--levels", "1,2", "--sigma-total", "1.01:1.21:0.05", "--trials", "6000",
            "--seed", "13", "--out", str(out),
        ) == 0
        report = tmp_path / "rep.json"
        assert run_cli("threshold", "--in", str(out / "results.csv"),
                       "--out", str(report)) == 0
        fig = tmp_path / "f.svg"
        assert run_cli("plot", "--in", str(out / "results.csv"), "--out", str(fig),
                       "--threshold", str(report)) == 0
        assert "threshold" in fig.read_text()
