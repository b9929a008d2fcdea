"""End-to-end CLI tests: flags, artifacts, exit codes, round trips."""

import json
import os
import threading
from xml.etree import ElementTree

import pytest

from gkptrack import cli, harness
from gkptrack.cli import MAX_GRID_POINTS, main
from gkptrack.kernels import MAX_LEVEL


def run_cli(*argv):
    return main(list(argv))


# Whole sweeps under stream version 2: each results.csv text pins the counts,
# the Philox key of every block, the block split and the CSV formatting.  The
# early-stopping sweep stops its points after two to four 8,192-trial blocks,
# and one point runs all five.
PINNED_SWEEPS = {
    "tracking-analog-p": (
        ("--protocol", "tracking", "--analog", "on", "--cycles", "3", "--levels", "1,2",
         "--sigma-total", "1.2:1.5:0.15", "--trials", "3000", "--seed", "31", "--quadrature", "p",
         "--sigma-ancilla", "0.15"),
        "protocol,analog,cycles,level,sigma_total,trials,failures,p_fail,ci_low,ci_high,master_seed\n"
        "tracking,on,3,1,1.2,3000,458,0.15266666666666667,0.14024117573651607,0.16598053117801037,31\n"
        "tracking,on,3,1,1.3499999999999999,3000,706,0.23533333333333334,0.22049796334297023,0.2508456405823023,31\n"
        "tracking,on,3,1,1.5,3000,928,0.30933333333333335,0.2930459647235896,0.3261083695903347,31\n"
        "tracking,on,3,2,1.2,3000,403,0.13433333333333333,0.12259714257424147,0.14700478879354692,31\n"
        "tracking,on,3,2,1.3499999999999999,3000,784,0.2613333333333333,0.245923595872965,0.27735350791859054,31\n"
        "tracking,on,3,2,1.5,3000,1113,0.371,0.35388903228434293,0.38844091068679115,31\n",
    ),
    "conventional-analog": (
        ("--protocol", "conventional", "--analog", "on", "--cycles", "2", "--levels", "1,2",
         "--sigma-total", "1.0:1.2:0.1", "--trials", "4000", "--seed", "32"),
        "protocol,analog,cycles,level,sigma_total,trials,failures,p_fail,ci_low,ci_high,master_seed\n"
        "conventional,on,2,1,1.0,4000,450,0.1125,0.10307726338279677,0.12266630516672189,32\n"
        "conventional,on,2,1,1.1,4000,768,0.192,0.18009175831108978,0.20449925875536637,32\n"
        "conventional,on,2,1,1.2,4000,1047,0.26175,0.24836050617772626,0.2755966685498165,32\n"
        "conventional,on,2,2,1.0,4000,307,0.07675,0.06890075177222962,0.08541141697250268,32\n"
        "conventional,on,2,2,1.1,4000,683,0.17075,0.15940606721701042,0.18272572618925806,32\n"
        "conventional,on,2,2,1.2,4000,1101,0.27525,0.26162932823017415,0.2893019415285467,32\n",
    ),
    "conventional-digital": (
        ("--protocol", "conventional", "--analog", "off", "--cycles", "3", "--levels", "1,2",
         "--sigma-total", "1.6:1.8:0.1", "--trials", "3000", "--seed", "33"),
        "protocol,analog,cycles,level,sigma_total,trials,failures,p_fail,ci_low,ci_high,master_seed\n"
        "conventional,off,3,1,1.6,3000,1107,0.369,0.35191082253362094,0.3864242358324145,33\n"
        "conventional,off,3,1,1.7000000000000002,3000,1226,0.4086666666666667,0.3912034240412069,0.4263635123259527,33\n"
        "conventional,off,3,1,1.8,3000,1308,0.436,0.4183482421790364,0.4538154504578053,33\n"
        "conventional,off,3,2,1.6,3000,1023,0.341,0.32424978414501804,0.35815688974963567,33\n"
        "conventional,off,3,2,1.7000000000000002,3000,1238,0.4126666666666667,0.39517236705089664,0.4303843385264603,33\n"
        "conventional,off,3,2,1.8,3000,1355,0.45166666666666666,0.4339316108512974,0.4695253445254841,33\n",
    ),
    "tracking-digital-stop": (
        ("--protocol", "tracking", "--analog", "off", "--cycles", "2", "--levels", "1,2",
         "--sigma-total", "0.9:1.0:0.1", "--trials", "40000", "--seed", "34", "--max-failures-stop", "5000"),
        "protocol,analog,cycles,level,sigma_total,trials,failures,p_fail,ci_low,ci_high,master_seed\n"
        "tracking,off,2,1,0.9,32768,5672,0.173095703125,0.16903776299005419,0.17723028157740695,34\n"
        "tracking,off,2,1,1.0,24576,5941,0.24173990885416666,0.2364278018128891,0.24713274021637424,34\n"
        "tracking,off,2,2,0.9,40000,6100,0.1525,0.14901029762641166,0.15605644131122587,34\n"
        "tracking,off,2,2,1.0,24576,6454,0.2626139322916667,0.2571496125227699,0.2681524517908779,34\n",
    ),
}


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
        assert manifest["workers"] == 1

    def test_missing_required_flag_is_usage_error(self, capsys):
        code = run_cli("run", "--protocol", "conventional", "--analog", "on",
                       "--cycles", "2", "--levels", "1",
                       "--sigma-total", "1.0:1.0:1", "--seed", "1")
        assert code == 1
        assert "usage" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("flags,message", [
        (("--cycles", "1"), "tracking requires cycles >= 2, got 1"),
        (("--cycles", "0"), "tracking requires cycles >= 2, got 0"),
        (("--trials", "0"), "trials_per_point must be >= 1"),
        (("--levels", "0"), "level must be >= 1, got 0"),
        (("--max-failures-stop", "0"), "max_failures_stop must be >= 1, got 0"),
        (("--max-failures-stop=-5",), "max_failures_stop must be >= 1, got -5"),
        (("--protocol", "conventional", "--sigma-ancilla", "0.1"), "sigma_ancilla must be 0, got 0.1"),
        (("--seed=-1",), "master_seed must lie in [0, 2**64), got -1"),
        (("--seed", "18446744073709551616"), "master_seed must lie in [0, 2**64), got 18446744073709551616"),
        (("--protocol", "conventional", "--quadrature", "p"),
         "quadrature 'p' differs from 'q' only through ancilla noise"),
        (("--quadrature", "p"), "quadrature 'p' differs from 'q' only through ancilla noise"),
        (("--sigma-ancilla", "1e300"), "sigma_ancilla must be <= 100.0, got 1e+300"),
        # doubles lose the bit at this sigma, and analog records leave their bin
        (("--protocol", "conventional", "--analog", "on", "--cycles", "1", "--sigma-total", "1e300:1e300:1"),
         "sigma_cycle must be <= 100.0, got 1e+300"),
        (("--trials", "137438953473"), "trials_per_point must be <= 137438953472 (2**37), got 137438953473"),
    ], ids=["cycles-1", "cycles-0", "trials-0", "levels-0", "stop-0", "stop-negative",
            "conventional-ancilla", "seed-negative", "seed-2**64", "conventional-p", "p-perfect-ancillas",
            "ancilla-huge", "sigma-huge", "trials-2**37+1"])
    def test_refused_config_exits_2(self, tmp_path, capsys, flags, message):
        """A value the config refuses exits 2 with the config's message, before anything is written."""
        out = tmp_path / "r"
        # a repeated flag overrides the earlier one
        code = run_cli(
            "run", "--protocol", "tracking", "--analog", "off", "--cycles", "2",
            "--levels", "1", "--sigma-total", "1.0:1.0:1", "--trials", "10",
            "--seed", "1", "--out", str(out), *flags,
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", [("--workers", "0"), ("--workers=-3",)])
    def test_workers_below_one_is_usage_error(self, tmp_path, capsys, flag):
        out = tmp_path / "r"
        out.mkdir()
        assert run_cli("run", "--protocol", "conventional", "--analog", "on", "--cycles", "2",
                       "--levels", "1", "--sigma-total", "1.0:1.0:1", "--trials", "10",
                       "--seed", "1", "--out", str(out), *flag) == 1
        assert "--workers must be >= 1" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("workers", ["33", "1000000"])
    def test_workers_above_bound_is_usage_error(self, tmp_path, capsys, monkeypatch, workers):
        """A worker count above harness.MAX_WORKERS is refused while parsing: no command runs, no thread starts."""
        def refuse(*args, **kwargs):
            raise AssertionError("refused --workers reached the run")

        monkeypatch.setattr(cli, "_cmd_run", refuse)
        monkeypatch.setattr(harness, "ThreadPoolExecutor", refuse)
        out = tmp_path / "r"
        out.mkdir()
        threads = threading.active_count()
        assert run_cli("run", "--protocol", "conventional", "--analog", "on", "--cycles", "2",
                       "--levels", "1", "--sigma-total", "1.0:1.0:1", "--trials", "1000000000",
                       "--seed", "1", "--out", str(out), "--workers", workers) == 1
        assert f"--workers must be <= {harness.MAX_WORKERS}, got {workers}" in capsys.readouterr().err
        assert list(out.iterdir()) == []
        assert threading.active_count() == threads

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

    def test_ancilla_noise_round_trip(self, tmp_path, capsys):
        """The ancilla sigma reaches the manifest and the kernel, resumes onto its rows and refuses others."""
        base = ["run", "--protocol", "tracking", "--analog", "on", "--cycles", "3",
                "--levels", "1", "--sigma-total", "1.2:1.2:1", "--trials", "3000",
                "--seed", "4", "--quadrature", "p"]
        noisy, perfect = tmp_path / "noisy", tmp_path / "perfect"
        assert run_cli(*base, "--sigma-ancilla", "0.15", "--out", str(noisy)) == 0
        # p without ancilla noise is refused: the perfect-ancilla run is in q
        assert run_cli(*base, "--quadrature", "q", "--out", str(perfect)) == 0
        config = json.loads((noisy / "manifest.json").read_text())["config"]
        assert config["sigma_ancilla"] == 0.15
        config = json.loads((perfect / "manifest.json").read_text())["config"]
        assert config["sigma_ancilla"] == 0.0
        rows = (noisy / "results.csv").read_bytes()
        assert rows != (perfect / "results.csv").read_bytes()
        assert run_cli(*base, "--sigma-ancilla", "0.15", "--out", str(noisy)) == 0
        assert (noisy / "results.csv").read_bytes() == rows
        capsys.readouterr()
        assert run_cli(*base, "--sigma-ancilla", "0.1", "--out", str(noisy)) == 2
        assert "sigma_ancilla 0.15 -> 0.1" in capsys.readouterr().err
        assert (noisy / "results.csv").read_bytes() == rows

    @pytest.mark.parametrize("flags", [("--quadrature", "both"), ("--sigma-ancilla-q", "0.1"),
                                       ("--sigma-ancilla-p", "0.1")], ids=lambda flags: flags[0][2:])
    def test_retired_flags_are_usage_errors(self, tmp_path, capsys, flags):
        """The two-quadrature trial and its per-quadrature ancilla sigmas are gone from the command line."""
        out = tmp_path / "r"
        assert run_cli("run", "--protocol", "tracking", "--analog", "on", "--cycles", "2",
                       "--levels", "1", "--sigma-total", "1.0:1.0:1", "--trials", "10",
                       "--seed", "1", "--out", str(out), *flags) == 1
        assert "usage" in capsys.readouterr().err.lower()
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--sigma-ancilla", "-0.1"), ("--sigma-ancilla", "nan")])
    def test_invalid_ancilla_noise_refused(self, tmp_path, capsys, flag, value):
        out = tmp_path / "r"
        code = run_cli("run", "--protocol", "tracking", "--analog", "on", "--cycles", "2",
                       "--levels", "1", "--sigma-total", "1.0:1.0:1", "--trials", "10",
                       "--seed", "1", "--out", str(out), flag, value)
        assert code == 2
        name = flag[2:].replace("-", "_")
        assert f"{name} must be finite and >= 0, got {float(value)!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid,code,message", [
        ("0:inf:1", 1, "must be finite"),
        ("0.5:0.5:inf", 1, "must be finite"),
        ("nan:1:0.5", 1, "must be finite"),
        ("-1e308:1e308:1", 1, "(B - A) / STEP must be finite"),
        ("0:1:1e-12", 1, f"more than {MAX_GRID_POINTS}"),
        ("-0.5:0.5:0.5", 2, "sigma_total must be > 0"),
    ])
    def test_bad_grid_refused_before_writing(self, tmp_path, capsys, grid, code, message):
        out = tmp_path / "r"
        out.mkdir()
        assert run_cli("run", "--protocol", "tracking", "--analog", "on", "--cycles", "2",
                       "--levels", "1", f"--sigma-total={grid}", "--trials", "10",
                       "--seed", "1", "--out", str(out)) == code
        assert message in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_oversized_level_range_is_usage_error(self, tmp_path, capsys):
        """A ``--levels`` range of more than MAX_LEVEL levels is refused while parsing, before it is built."""
        out = tmp_path / "r"
        assert run_cli("run", "--protocol", "tracking", "--analog", "off", "--cycles", "2",
                       "--levels", "1..11", "--sigma-total", "1.0:1.0:1", "--trials", "10",
                       "--seed", "1", "--out", str(out)) == 1
        assert f"spans 11 levels, more than {MAX_LEVEL}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("levels,grid,message", [
        ("1,1", "0.5:0.5:1", "levels must be distinct"),
        # a step below the grid's spacing of doubles gives 1.0 twice
        ("1", "1:1.0000000000000002:1e-16", "sigma_total_grid must be strictly increasing"),
    ], ids=["levels", "grid"])
    def test_repeated_point_refused(self, tmp_path, capsys, levels, grid, message):
        out = tmp_path / "r"
        code = run_cli("run", "--protocol", "conventional", "--analog", "off", "--cycles", "1",
                       "--levels", levels, f"--sigma-total={grid}", "--trials", "100",
                       "--seed", "1", "--out", str(out))
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_zero_channel_noise_refused(self, tmp_path, capsys):
        # the grid's first point has no channel noise, so no record likelihoods
        out = tmp_path / "r"
        code = run_cli("run", "--protocol", "tracking", "--analog", "on", "--cycles", "2",
                       "--levels", "1", "--sigma-total", "0:1.0:0.5", "--trials", "10",
                       "--seed", "1", "--out", str(out))
        assert code == 2
        assert "sigma_total must be > 0" in capsys.readouterr().err
        assert not out.exists()

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


    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("name", sorted(PINNED_SWEEPS))
    def test_pinned_sweep(self, tmp_path, name, workers):
        args, expected = PINNED_SWEEPS[name]
        assert run_cli("run", *args, "--out", str(tmp_path), "--workers", workers) == 0
        assert (tmp_path / "results.csv").read_text() == expected


class TestResume:
    BASE = ("run", "--protocol", "conventional", "--analog", "off", "--cycles", "2",
            "--levels", "1,2", "--sigma-total", "1.0:1.1:0.1", "--trials", "600")
    # a base on which p runs: it differs from q only through ancilla noise
    NOISY = ("--protocol", "tracking", "--sigma-ancilla", "0.1")

    def test_matching_resume_completes_file(self, tmp_path):
        out = tmp_path / "r"
        args = (*self.BASE, "--seed", "5", "--out", str(out))
        assert run_cli(*args) == 0
        full = (out / "results.csv").read_bytes()
        manifest = (out / "manifest.json").read_bytes()
        lines = full.splitlines(keepends=True)
        (out / "results.csv").write_bytes(b"".join(lines[:3]))
        assert run_cli(*args, "--workers", "2") == 0
        assert (out / "results.csv").read_bytes() == full
        # the manifest that started the sweep vouches for the resumed rows too
        assert (out / "manifest.json").read_bytes() == manifest

    @pytest.mark.parametrize(
        "extra,fields",
        [
            (("--seed", "6"), ["master_seed"]),
            (("--seed", "5", "--trials", "700"), ["trials_per_point"]),
            (("--seed", "5", "--max-failures-stop", "10"), ["max_failures_stop"]),
            (("--seed", "6", "--quadrature", "p"), ["master_seed", "quadrature"]),
            (("--seed", "5", "--quadrature", "p"), ["quadrature"]),
            (("--seed", "5", "--protocol", "tracking"), ["protocol"]),
            (("--seed", "5", "--analog", "on"), ["analog"]),
            (("--seed", "5", "--cycles", "3"), ["cycles"]),
            (("--seed", "5", "--levels", "1,2,3"), ["levels"]),
            (("--seed", "5", "--sigma-total", "1.0:1.2:0.1"), ["sigma_total_grid"]),
        ],
    )
    def test_different_config_refused(self, tmp_path, capsys, extra, fields):
        out = tmp_path / "r"
        base = (*self.BASE, *self.NOISY) if "--quadrature" in extra else self.BASE
        assert run_cli(*base, "--seed", "5", "--out", str(out)) == 0
        before = {name: (out / name).read_bytes() for name in ("results.csv", "manifest.json")}
        capsys.readouterr()
        # a repeated flag overrides the earlier one
        assert run_cli(*base, *extra, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "another configuration" in err
        for field in fields:
            assert f"{field} " in err
        assert {name: (out / name).read_bytes() for name in before} == before

    @pytest.mark.parametrize("edit,line", [
        # the second row's sigma becomes the third point's
        (lambda lines: [lines[0], lines[1], lines[2].replace(",1.1,", ",1.0,", 1)], 3),
        # a complete sweep and a row past its last point
        (lambda lines: lines + [lines[1]], 6),
    ], ids=["another-sigma", "beyond-grid"])
    def test_rows_out_of_point_order_refused(self, tmp_path, capsys, edit, line):
        """A resume continues a sweep in point order: a row that is not its point exits 2, writing nothing."""
        out = tmp_path / "r"
        assert run_cli(*self.BASE, "--seed", "5", "--out", str(out)) == 0
        lines = (out / "results.csv").read_text().splitlines(keepends=True)
        (out / "results.csv").write_text("".join(edit(lines)))
        before = {name: (out / name).read_bytes() for name in ("results.csv", "manifest.json")}
        capsys.readouterr()
        assert run_cli(*self.BASE, "--seed", "5", "--out", str(out)) == 2
        assert f"results.csv: line {line}: row " in capsys.readouterr().err
        assert {name: (out / name).read_bytes() for name in before} == before

    def test_blank_line_refused(self, tmp_path, capsys):
        """A blank line, which the program never writes, exits 2 naming its own line, writing nothing."""
        out = tmp_path / "r"
        assert run_cli(*self.BASE, "--seed", "5", "--out", str(out)) == 0
        lines = (out / "results.csv").read_text().splitlines(keepends=True)
        (out / "results.csv").write_text("".join([lines[0], "\n"] + lines[1:]))
        before = {name: (out / name).read_bytes() for name in ("results.csv", "manifest.json")}
        capsys.readouterr()
        assert run_cli(*self.BASE, "--seed", "5", "--out", str(out)) == 2
        assert "results.csv: line 2: blank line" in capsys.readouterr().err
        assert {name: (out / name).read_bytes() for name in before} == before

    @pytest.mark.parametrize("manifest", ["[1, 2]", '{"config": 3}', "{}", "not json"],
                             ids=["list", "config-int", "empty", "not-json"])
    def test_malformed_manifest_exits_2(self, tmp_path, capsys, manifest):
        out = tmp_path / "r"
        assert run_cli(*self.BASE, "--seed", "5", "--out", str(out)) == 0
        (out / "manifest.json").write_text(manifest)
        before = {name: (out / name).read_bytes() for name in ("results.csv", "manifest.json")}
        capsys.readouterr()
        assert run_cli(*self.BASE, "--seed", "5", "--out", str(out)) == 2
        assert "malformed manifest" in capsys.readouterr().err
        assert {name: (out / name).read_bytes() for name in before} == before

    def test_stream_v1_manifest_refused(self, tmp_path, capsys):
        """Rows from before the stream version was recorded came from stream 1."""
        out = tmp_path / "r"
        assert run_cli(*self.BASE, "--seed", "5", "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["stream_version"] == 2
        del manifest["config"]["stream_version"]
        (out / "manifest.json").write_text(json.dumps(manifest))
        before = {name: (out / name).read_bytes() for name in ("results.csv", "manifest.json")}
        capsys.readouterr()
        assert run_cli(*self.BASE, "--seed", "5", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "another configuration" in err and "stream_version 1 -> 2" in err
        assert {name: (out / name).read_bytes() for name in before} == before

    def test_per_quadrature_ancilla_manifest_refused(self, tmp_path, capsys):
        """A manifest with one ancilla sigma per quadrature lacks ``sigma_ancilla``: its rows are not resumed."""
        out = tmp_path / "r"
        assert run_cli(*self.BASE, "--seed", "5", "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        del manifest["config"]["sigma_ancilla"]
        manifest["config"].update(sigma_ancilla_q=0.0, sigma_ancilla_p=0.0)
        (out / "manifest.json").write_text(json.dumps(manifest))
        before = {name: (out / name).read_bytes() for name in ("results.csv", "manifest.json")}
        capsys.readouterr()
        assert run_cli(*self.BASE, "--seed", "5", "--out", str(out)) == 2
        assert "sigma_ancilla None -> 0.0" in capsys.readouterr().err
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

    @pytest.mark.parametrize("cycles,levels,message", [
        ("1", "1", "tracking needs cycles >= 2, got 1"),
        ("2", "0", "level must be >= 1, got 0"),
        ("2", "3..1", "at least one level"),
    ])
    def test_refused_value_exits_2(self, tmp_path, capsys, cycles, levels, message):
        out = tmp_path / "r"
        assert run_cli("resources", "--cycles", cycles, "--levels", levels,
                       "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert not out.exists()


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
        """One figure from two sweeps, each in its own directory."""
        for proto in ("conventional", "tracking"):
            assert run_cli(
                "run", "--protocol", proto, "--analog", "on", "--cycles", "2",
                "--levels", "1,2,3", "--sigma-total", "1.0:1.2:0.1", "--trials", "300",
                "--seed", "9", "--out", str(tmp_path / proto),
            ) == 0
        fig = tmp_path / "fig.svg"
        assert run_cli("plot", "--in", str(tmp_path / "conventional" / "results.csv"),
                       str(tmp_path / "tracking" / "results.csv"), "--out", str(fig)) == 0
        svg = fig.read_text()
        assert svg.count(" L1<") + svg.count(" L2<") + svg.count(" L3<") == 6

    def test_sweeps_differing_in_cycles_two_series_per_level(self, tmp_path):
        """Each file's levels are its own series, labelled with its directory, though the sweeps share protocol and levels."""
        for cycles in ("2", "3"):
            assert run_cli(
                "run", "--protocol", "tracking", "--analog", "on", "--cycles", cycles,
                "--levels", "1,2", "--sigma-total", "1.0:1.2:0.1", "--trials", "300",
                "--seed", "9", "--out", str(tmp_path / f"c{cycles}"),
            ) == 0
        fig = tmp_path / "fig.svg"
        assert run_cli("plot", "--in", str(tmp_path / "c2" / "results.csv"),
                       str(tmp_path / "c3" / "results.csv"), "--out", str(fig)) == 0
        svg = fig.read_text()
        assert svg.count("<polyline") == 4
        for cycles in ("2", "3"):
            for level in ("1", "2"):
                assert svg.count(f">c{cycles}: tracking/analog L{level}<") == 1

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

    def test_markup_in_title_and_labels_escaped(self, tmp_path):
        """A title, and a label's directory, holding ``<``, ``&`` or a character XML cannot hold give well-formed SVG.

        XML 1.0 holds no control character but tab, newline and carriage
        return, escaped or not: each is drawn as U+FFFD.
        """
        paths = []
        for name in ("plain", "r&d", "x\x02y"):
            out = tmp_path / name
            assert run_cli("run", "--protocol", "conventional", "--analog", "off", "--cycles", "1",
                           "--levels", "1", "--sigma-total", "1.0:1.1:0.1", "--trials", "200",
                           "--seed", "3", "--out", str(out)) == 0
            paths.append(str(out / "results.csv"))
        figures = {
            "title": ([paths[0]], "p_fail < 1% & L2", "p_fail < 1% & L2"),
            "control-title": ([paths[0]], "a\x01b", "a\ufffdb"),
            "label": (paths[:2], "", "r&d: conventional/digital L1"),
            "control-label": ([paths[0], paths[2]], "", "x\ufffdy: conventional/digital L1"),
        }
        for kind, (infiles, title, shown) in figures.items():
            fig = tmp_path / f"{kind}.svg"
            assert run_cli("plot", "--in", *infiles, "--out", str(fig), "--title", title) == 0
            texts = [element.text for element in ElementTree.parse(fig).iter("{http://www.w3.org/2000/svg}text")]
            assert shown in texts

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

    @pytest.mark.parametrize("report", [
        "{}", "[]", '{"sigma_star": 1.0, "crossings": [{"level": 1}], "spread": 0.0}',
    ], ids=["empty", "list", "bad-crossing"])
    def test_malformed_threshold_report_exits_2(self, tmp_path, capsys, report):
        from gkptrack.harness import CSV_HEADER

        results = tmp_path / "r.csv"
        results.write_text(CSV_HEADER + "\nconventional,on,2,1,1.0,10,1,0.1,0.0,0.2,7\n")
        (tmp_path / "rep.json").write_text(report)
        assert run_cli("plot", "--in", str(results), "--out", str(tmp_path / "f.svg"),
                       "--threshold", str(tmp_path / "rep.json")) == 2
        assert "malformed threshold report" in capsys.readouterr().err
        assert not (tmp_path / "f.svg").exists()
