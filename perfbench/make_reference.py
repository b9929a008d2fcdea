"""Regenerate ``perfbench/reference.json``: one long sweep per workload.

Usage::

    PYTHONPATH=src python3 perfbench/make_reference.py [--trials N] [--seed S]

Each workload's grid is swept through ``gkptrack.cli.main`` with ``N`` trials
per point and no early stop; the benchmark accepts a point when its failure
rate lies within ``run.Z_BAND`` binomial standard deviations of these counts.
Runs on whichever kernel ``get_backend()`` resolves (the compiled one makes
the default size take minutes instead of hours).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import tempfile
from pathlib import Path

from gkptrack import cli, harness
from gkptrack.kernels import get_backend

from run import REFERENCE, WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=2_000_000)
    parser.add_argument("--seed", type=int, default=20180412)
    args = parser.parse_args()
    payload = {"kernel": get_backend().name, "seed": args.seed, "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in WORKLOADS.items():
            out = Path(tmp) / name
            argv = dataclasses.replace(workload, max_failures_stop=None).argv(args.seed, out, args.trials)
            if cli.main(argv) != 0:
                raise SystemExit(f"reference sweep failed: {argv}")
            payload["workloads"][name] = [
                {"level": e.level, "sigma_total": e.sigma_total, "trials": e.trials, "failures": e.failures}
                for e in harness.read_results(out / "results.csv")
            ]
    REFERENCE.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
