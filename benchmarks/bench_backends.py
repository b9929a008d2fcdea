"""Throughput of the Monte Carlo kernel on six fixed configurations.

Usage::

    python benchmarks/bench_backends.py [--trials-scale X]

Each configuration runs one block of trials, on one thread, off the same
keyed Philox stream, so its failure count is reproducible; the script prints
the best trials/s of three runs and that count, after one single-trial run
of every configuration has loaded the lazily imported modules.  ``perfbench/run.py``'s kernel probe loads
``CONFIGS``, ``make_generator`` and ``time_block`` from this file.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from gkptrack.kernels import ProtocolConfig, get_backend

CONFIGS = [
    ("conventional digital L1", ProtocolConfig("conventional", False, 1, 2, 0.55), 40_000),
    ("conventional analog  L1", ProtocolConfig("conventional", True, 1, 2, 0.55), 40_000),
    ("conventional analog  L2", ProtocolConfig("conventional", True, 2, 2, 0.55), 12_000),
    ("tracking     analog  L2", ProtocolConfig("tracking", True, 2, 2, 0.50), 12_000),
    ("tracking     analog  L3", ProtocolConfig("tracking", True, 3, 2, 0.50), 4_000),
    ("tracking     digital L3", ProtocolConfig("tracking", False, 3, 2, 0.47), 4_000),
]


def make_generator():
    return np.random.Generator(np.random.Philox(key=np.array([9, 9], dtype=np.uint64)))


def time_block(backend, params, trials):
    gen = make_generator()
    t0 = time.perf_counter()
    result = backend.run_block(params, gen, trials)
    return result, trials / (time.perf_counter() - t0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials-scale", type=float, default=1.0,
                        help="multiply per-config trial counts (default 1.0)")
    args = parser.parse_args()

    backend = get_backend()
    for _, params, _ in CONFIGS:
        backend.run_block(params, make_generator(), 1)
    header = f"{'configuration':28s} {'trials/s':>12s} {'failures':>10s}"
    print(header)
    print("-" * len(header))
    for label, params, base_trials in CONFIGS:
        trials = max(1, int(base_trials * args.trials_scale))
        runs = [time_block(backend, params, trials) for _ in range(3)]
        (failures, _), rate = runs[0][0], max(rate for _, rate in runs)
        print(f"{label:28s} {rate:12,.0f} {failures:10d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
