"""Throughput comparison of the pure-Python and compiled Monte Carlo kernels.

Usage::

    python benchmarks/bench_backends.py [--trials-scale X]

For every configuration the two kernels are driven from identically keyed
random streams, so their failure counts must agree exactly; the script
asserts that while timing them.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from gkptrack.kernels import ProtocolConfig, compiled_available, get_backend

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

    pure = get_backend("pure")
    compiled = get_backend("compiled") if compiled_available() else None
    if compiled is None:
        print("compiled kernel not built; showing pure-Python throughput only")

    header = f"{'configuration':28s} {'pure trials/s':>14s} {'compiled trials/s':>18s} {'speedup':>8s}"
    print(header)
    print("-" * len(header))
    for label, params, base_trials in CONFIGS:
        trials = max(1, int(base_trials * args.trials_scale))
        pure_result, pure_rate = time_block(pure, params, trials)
        if compiled is None:
            print(f"{label:28s} {pure_rate:14,.0f} {'-':>18s} {'-':>8s}")
            continue
        comp_result, comp_rate = time_block(compiled, params, trials * 25)
        if pure_result != compiled.run_block(params, make_generator(), trials):
            raise AssertionError(f"kernel mismatch for {label}: {pure_result}")
        print(f"{label:28s} {pure_rate:14,.0f} {comp_rate:18,.0f} {comp_rate / pure_rate:7.1f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
