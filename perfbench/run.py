"""Sweep benchmark for gkptrack: times ``gkptrack run`` sweeps from source.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

For one workload the benchmark builds the ``gkptrack run`` arguments from the
seed, then repeats that closed-loop sweep through ``gkptrack.cli.main`` until
``--seconds`` are used up, each sweep into a fresh directory under a
temporary directory it removes afterwards.  It checks every point it wrote
(failure count inside a binomial band around ``reference.json``, and every
repeat byte-identical to the first) and prints one JSON object as its last
line: end-to-end metrics with ``--trace 0``, per-layer metrics from a traced
sweep with ``--trace 1``.  See ``perfbench/README.md``.

Exit codes: 0 all checks passed, 1 a check failed, 2 the benchmark cannot run
(no ``src/gkptrack`` next to it, or ``GKPTRACK_KERNEL`` set).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

#: half-width of the accepted failure band, in binomial standard deviations
Z_BAND = 5.0
#: fewest fresh processes timed for ``setup_s``; one more follows each sweep
SETUP_SPAWNS = 5
#: workers of the traced pass's thread-pool sweeps, capped at the core count
POOL_WORKERS = 2
#: share of each ``bench_backends.CONFIGS`` trial count run by the kernel probe
PROBE_SCALE = 0.05
SETUP_CODE = "import gkptrack.cli\nfrom gkptrack.kernels import get_backend\nget_backend()"


@dataclass(frozen=True)
class Workload:
    name: str
    protocol: str
    analog: bool
    cycles: int
    levels: str
    sigma_total: str
    trials: int
    max_failures_stop: int | None = None

    def argv(self, seed: int, out: Path, trials: int | None = None, workers: int = 1) -> list[str]:
        args = [
            "run", "--protocol", self.protocol, "--analog", "on" if self.analog else "off",
            "--cycles", str(self.cycles), "--levels", self.levels,
            "--sigma-total", self.sigma_total, "--trials", str(trials or self.trials),
            "--seed", str(seed), "--out", str(out), "--workers", str(workers),
        ]
        if self.max_failures_stop is not None:
            args += ["--max-failures-stop", str(self.max_failures_stop)]
        return args


# Why each workload exists is recorded in BENCHMARK.json and README.md.  Timed
# sweeps use one worker: with the pure kernel, two threads contend for the GIL
# on a 2-core VM and their run-to-run spread was 25-32%, against 4-8% for one.
# The thread pool is timed in the traced pass instead (POOL_WORKERS), which
# alternates one-worker and pool sweeps and traces one more pool sweep.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("tracking-analog", "tracking", True, 2, "1,2", "1.01:1.01:1", 16384),
        Workload("conventional-digital", "conventional", False, 3, "1,2", "1.6:1.8:0.1", 2048),
        Workload("tracking-digital-early-stop", "tracking", False, 2, "1", "1.0:1.0:1", 49152,
                 max_failures_stop=200),
    )
}

END_TO_END_UNITS = {"sweep_s": "s", "trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if "_per_" in name:
        return "1/s"
    if name.endswith(("_s", "_s_p50", "_s_p90")):
        return "s"
    if name.endswith(("_ratio", "_speedup")):
        return "ratio"
    return "count"


# --- environment -------------------------------------------------------------

def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "gkptrack").rglob("*")):
        if path.suffix in (".py", ".pyx"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def time_setup() -> float:
    """Wall time of a fresh process that imports ``gkptrack.cli`` and resolves the kernel.

    The benchmark process has imported the package already, so the bytecode
    cache is warm, as it is for a user's second run.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, timeout=120, check=True)
    return perf_counter() - t0


# --- sweeps and checks ---------------------------------------------------------

def run_sweep(cli, workload: Workload, seed: int, out: Path, trials: int | None,
              workers: int = 1) -> tuple[float, bytes]:
    """One ``gkptrack run`` call: wall seconds and the results.csv it wrote."""
    argv = workload.argv(seed, out, trials, workers)
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = perf_counter()
        code = cli.main(argv)
        seconds = perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"gkptrack {' '.join(argv)} exited with {code}")
    return seconds, (out / "results.csv").read_bytes()


def check_points(harness, workload: Workload, csv_path: Path, reference: dict, trials: int) -> tuple[int, int]:
    """(points checked, points outside the band of their reference probability)."""
    refs = {(r["level"], r["sigma_total"]): r for r in reference[workload.name]}
    points = bad = 0
    for est in harness.read_results(csv_path):
        points += 1
        ref = refs.get((est.level, est.sigma_total))
        if ref is None:
            bad += 1
            continue
        p = ref["failures"] / ref["trials"]
        half = Z_BAND * math.sqrt(p * (1.0 - p) * (1.0 / est.trials + 1.0 / ref["trials"]))
        stopped = workload.max_failures_stop is not None and est.failures >= workload.max_failures_stop
        if abs(est.p_fail - p) > half or not (est.trials == trials or stopped):
            bad += 1
    return points, bad


def kernel_probe(backend) -> tuple[dict[str, float], int, int]:
    """Rates of ``benchmarks/bench_backends.py``'s configs on the resolved kernel.

    When both kernels import, their failure counts must agree exactly; returns
    (metrics, configs compared, mismatches).
    """
    spec = importlib.util.spec_from_file_location("bench_backends", ROOT / "benchmarks" / "bench_backends.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    from gkptrack.kernels import compiled_available, get_backend

    pure = get_backend("pure") if compiled_available() else None
    metrics, compared, mismatched = {}, 0, 0
    for label, params, base_trials in bench.CONFIGS:
        trials = max(1, int(base_trials * PROBE_SCALE))
        result, rate = bench.time_block(backend, params, trials)
        metrics[f"kernels.probe.{'-'.join(label.split())}.trials_per_s"] = rate
        if pure is not None:
            compared += 1
            other = get_backend("compiled") if backend.name == "pure" else pure
            mismatched += result != other.run_block(params, bench.make_generator(), trials)
    return metrics, compared, mismatched


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    import gkptrack
    from gkptrack import cli, harness
    from gkptrack.kernels import get_backend

    if Path(gkptrack.__file__).resolve().parent != SRC / "gkptrack":
        print(f"error: imported gkptrack from {gkptrack.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy

    workload = WORKLOADS[args.workload]
    trials = args.trials or workload.trials
    backend = get_backend()
    env = {
        "workload": workload.name, "seed": args.seed, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "kernel": backend.name, "git_commit": git_commit(), "source_sha256": source_sha256(),
        "trials_per_point": trials,
        "argv": workload.argv(args.seed, Path("OUT"), trials),
    }
    print("env: " + json.dumps(env), flush=True)
    reference = json.loads(REFERENCE.read_text())["workloads"]

    pool = min(POOL_WORKERS, os.cpu_count() or 1)
    attempted = failed = 0
    sweep_times: list[float] = []
    pool_times: list[float] = []
    setup_times: list[float] = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        first_csv = None
        t_start = perf_counter()
        while True:
            out = Path(tmp) / f"sweep-{len(sweep_times)}"
            seconds, csv = run_sweep(cli, workload, args.seed, out, args.trials)
            sweep_times.append(seconds)
            points, bad = check_points(harness, workload, out / "results.csv", reference, trials)
            if first_csv is None:
                first_csv = csv
            elif csv != first_csv:  # determinism contract: same seed, same bytes
                bad = points
            attempted += points
            failed += bad
            if args.trace:  # a pool sweep must write the one-worker bytes too
                pool_s, pool_csv = run_sweep(cli, workload, args.seed, Path(tmp) / f"pool-{len(pool_times)}",
                                             args.trials, pool)
                pool_times.append(pool_s)
                attempted += 1
                failed += pool_csv != first_csv
            else:  # spread over the run, like the sweeps
                setup_times.append(time_setup())
            elapsed = perf_counter() - t_start
            if elapsed * (len(sweep_times) + 1) / len(sweep_times) > args.seconds:
                break
        if not args.trace:
            setup_times += [time_setup() for _ in range(SETUP_SPAWNS - len(setup_times))]
        sweep_s = statistics.median(sweep_times)
        trials_done = sum(e.trials for e in harness.read_results(Path(tmp) / "sweep-0" / "results.csv"))

        if args.trace:
            from tracer import Tracer, layer_metrics

            tracer = Tracer()
            with tracer.installed(), tracer.sweep_span():
                traced_s, traced_csv = run_sweep(cli, workload, args.seed, Path(tmp) / "traced", args.trials, pool)
            attempted += 1
            failed += traced_csv != first_csv
            metrics = layer_metrics(tracer, pool)
            pool_s = statistics.median(pool_times)
            metrics["harness.pool_speedup"] = sweep_s / pool_s
            metrics["trace.overhead_ratio"] = traced_s / pool_s
            probe, compared, mismatched = kernel_probe(backend)
            metrics.update(probe)
            attempted += compared
            failed += mismatched
            if tracer.kernel != "pure":
                print(f"note: kernel {tracer.kernel!r} runs no Python protocol code; the protocols.*,"
                      " codes.* and gkp.* metrics read 0 because their wrappers see no calls")
            units = {name: layer_unit(name) for name in metrics}
        else:
            metrics = {
                "sweep_s": sweep_s,
                "trials_per_s": statistics.median(trials_done / s for s in sweep_times),
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END_UNITS

    print(f"kernel: {backend.name}  sweeps: {len(sweep_times)}  sweep_s: "
          + " ".join(f"{s:.3f}" for s in sweep_times))
    if pool_times:
        print(f"pool sweeps at --workers {pool}: " + " ".join(f"{s:.3f}" for s in pool_times))
    for name, value in metrics.items():
        print(f"  {name} = {value} {units[name]}")
    print(f"  point_error_ratio = {failed / attempted} ratio  ({failed} of {attempted} checks failed)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float,
                        help="measure sweeps for this long (at least one sweep runs)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--trials", type=int, default=None,
                        help="override trials per point (smoke tests)")
    args = parser.parse_args(argv)

    if "GKPTRACK_KERNEL" in os.environ:
        print("error: unset GKPTRACK_KERNEL; the benchmark measures the default kernel", file=sys.stderr)
        return 2
    if not (SRC / "gkptrack" / "__init__.py").is_file():
        print(f"error: no gkptrack sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_workload(args)
    codes = []
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trials:
            cmd += ["--trials", str(args.trials)]
        codes.append(subprocess.run(cmd).returncode)
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
