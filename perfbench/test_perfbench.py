"""Smoke tests of the sweep benchmark itself, at tiny size.

Run with ``python3 -m pytest perfbench/test_perfbench.py``.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--workload", "conventional-digital", "--seed", "5", "--seconds", "1", "--trials", "300"]


def bench(*args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=170)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(trace, section):
    proc = bench(*TINY, "--trace", str(trace))
    out = result(proc)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    printed = {}
    for line in proc.stdout.splitlines():
        if line.startswith("  ") and " = " in line:
            name, rest = line.strip().split(" = ")
            printed[name] = rest.split()[1]
    assert printed == {**expected, "point_error_ratio": "ratio"}
    assert "kernel: " in proc.stdout and '"seed": 5' in proc.stdout


def test_traced_counts_repeat_for_one_seed():
    first, second = (result(bench(*TINY, "--trace", "1"))["metrics"] for _ in range(2))
    for name in ("harness.blocks", "codes.c6_folds", "gkp.normal_draws", "codes.tie_ratio"):
        assert first[name]["value"] == second[name]["value"], name
    assert first["codes.c6_folds"]["value"] > 0 and first["codes.tie_ratio"]["value"] > 0


def test_refuses_kernel_override():
    proc = bench(*TINY, env=dict(os.environ, GKPTRACK_KERNEL="pure"))
    assert proc.returncode == 2 and not proc.stdout


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(*TINY, cwd=tmp_path)
    assert proc.returncode != 0 and not proc.stdout
