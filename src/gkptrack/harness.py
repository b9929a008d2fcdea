"""Monte Carlo harness: point estimates, sweeps, threshold location, persistence.

Determinism contract
--------------------
Trials are grouped into fixed-size blocks; block ``b`` of point ``k`` draws
from a counter-based Philox stream keyed by ``(master_seed, k, b)``.  Blocks
may execute on any number of worker threads, but failure counts are combined
in block order (and an early stop is decided in that order), so a sweep's CSV
output is byte-identical for a given ``SweepConfig`` regardless of
parallelism or scheduling.

CSV schema (one row per point)::

    protocol,analog,cycles,level,sigma_total,trials,failures,p_fail,ci_low,ci_high,master_seed

The noise axis is the *total* standard deviation summed over cycles; each
cycle applies ``sigma_total / cycles``.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .kernels import STREAM_VERSION, ProtocolConfig, get_backend

DEFAULT_BLOCK_SIZE = 8192
_Z95 = 1.959963984540054

CSV_HEADER = "protocol,analog,cycles,level,sigma_total,trials,failures,p_fail,ci_low,ci_high,master_seed"

_MAX_BLOCKS = 1 << 24
_MAX_POINTS = 1 << 40


def philox_key(master_seed: int, point_index: int, block_index: int) -> np.ndarray:
    """128-bit Philox key for one block of one point."""
    if not (0 <= block_index < _MAX_BLOCKS):
        raise ValueError(f"block index out of range: {block_index}")
    if not (0 <= point_index < _MAX_POINTS):
        raise ValueError(f"point index out of range: {point_index}")
    w0 = master_seed & 0xFFFFFFFFFFFFFFFF
    w1 = (point_index << 24) | block_index
    return np.array([w0, w1], dtype=np.uint64)


def block_generator(master_seed: int, point_index: int, block_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=philox_key(master_seed, point_index, block_index)))


def wilson_interval(failures: int, trials: int) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= failures <= trials:
        raise ValueError("failures must lie in [0, trials]")
    p = failures / trials
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = (_Z95 / denom) * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
    low = 0.0 if failures == 0 else max(0.0, center - half)
    high = 1.0 if failures == trials else min(1.0, center + half)
    return low, high


@dataclass(frozen=True)
class PointEstimate:
    protocol: str
    analog: bool
    cycles: int
    level: int
    sigma_total: float
    trials: int
    failures: int
    p_fail: float
    ci_low: float
    ci_high: float
    master_seed: int

    def csv_row(self) -> str:
        return ",".join(
            [
                self.protocol,
                "on" if self.analog else "off",
                str(self.cycles),
                str(self.level),
                repr(self.sigma_total),
                str(self.trials),
                str(self.failures),
                repr(self.p_fail),
                repr(self.ci_low),
                repr(self.ci_high),
                str(self.master_seed),
            ]
        )

    def key(self) -> tuple:
        return (self.protocol, self.analog, self.cycles, self.level, self.sigma_total)


@dataclass(frozen=True)
class SweepConfig:
    protocol: str
    analog: bool
    cycles: int
    sigma_total_grid: tuple[float, ...]
    levels: tuple[int, ...]
    trials_per_point: int
    master_seed: int
    max_failures_stop: int | None = None
    quadrature: str = "q"
    sigma_ancilla_q: float = 0.0
    sigma_ancilla_p: float = 0.0

    def __post_init__(self) -> None:
        if list(self.sigma_total_grid) != sorted(self.sigma_total_grid):
            raise ValueError("sigma_total_grid must be sorted ascending")
        if self.trials_per_point < 1:
            raise ValueError("trials_per_point must be >= 1")
        if not self.sigma_total_grid or not self.levels:
            raise ValueError("a sweep needs at least one sigma_total and one level")
        # settings a point would refuse are refused here, with the same
        # message, before a sweep writes anything
        if not all(sigma >= 0.0 for sigma in self.sigma_total_grid):
            raise ValueError("sigma_total must be >= 0")
        for _, level, sigma in self.points():
            # estimate_point's config; ProtocolConfig refuses cycles < 1 itself
            ProtocolConfig(self.protocol, self.analog, level, self.cycles, sigma / max(self.cycles, 1),
                           self.sigma_ancilla_q, self.sigma_ancilla_p, self.quadrature)

    def points(self):
        """(point_index, level, sigma_total) in deterministic order."""
        idx = 0
        for level in self.levels:
            for sigma in self.sigma_total_grid:
                yield idx, level, sigma
                idx += 1


def _in_order(fn, items, workers: int):
    """Yield ``fn(item)`` for each item, in item order.

    With several workers and items, calls run on a thread pool with at most
    ``workers`` of them in flight; the next item is submitted only when the
    consumer asks for the next result.  Closing the generator early cancels
    the calls that have not started and waits for the running ones.
    """
    if workers <= 1 or len(items) <= 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=workers) as ex:
        window = deque(ex.submit(fn, item) for item in items[:workers])
        rest = iter(items[workers:])
        try:
            while window:
                yield window.popleft().result()
                item = next(rest, None)
                if item is not None:
                    window.append(ex.submit(fn, item))
        finally:
            # the results, or errors, of calls past an early close are never
            # read, as with one worker, where those calls never run
            for future in window:
                future.cancel()


def estimate_point(
    protocol: str,
    analog: bool,
    cycles: int,
    level: int,
    sigma_total: float,
    trials: int,
    master_seed: int,
    point_index: int = 0,
    *,
    quadrature: str = "q",
    sigma_ancilla_q: float = 0.0,
    sigma_ancilla_p: float = 0.0,
    max_failures_stop: int | None = None,
    workers: int | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    backend=None,
) -> PointEstimate:
    """Estimate one failure probability with a Wilson 95% interval.

    Deterministic for a fixed ``(master_seed, point_index)`` regardless of
    ``workers``, which defaults to one thread.  The kernel's batched path
    releases the GIL only inside numpy calls on small chunks: on a 2-core VM
    two threads ran a tracking analog L2 point (two 40k-trial blocks) at
    0.91-0.94x the speed of one, and digital points at 1.1-1.5x.
    ``max_failures_stop`` ends the run after the first block, in block order,
    at which the cumulative failure count reaches the threshold; that block
    is scheduling-independent, so the estimate is too.

    The stop is tested at block boundaries, as results arrive in block order.
    Blocks are submitted in order with at most ``workers`` in flight and none
    is submitted once the stop is reached, so at most ``workers - 1`` blocks
    past the stopping block are computed (and discarded).  ``p_fail = k / n``
    is taken over whole blocks; under this data-dependent stop it carries a
    small upward bias and the Wilson interval is nominal only.
    """
    if sigma_total < 0.0:
        raise ValueError("sigma_total must be >= 0")
    backend = backend if backend is not None else get_backend()
    params = ProtocolConfig(
        protocol=protocol,
        analog=analog,
        level=level,
        cycles=cycles,
        sigma_cycle=sigma_total / cycles,
        sigma_ancilla_q=sigma_ancilla_q,
        sigma_ancilla_p=sigma_ancilla_p,
        quadrature=quadrature,
    )
    blocks = [
        (b, min(block_size, trials - b * block_size))
        for b in range((trials + block_size - 1) // block_size)
    ]

    def run(block) -> int:
        b, n = block
        gen = block_generator(master_seed, point_index, b)
        return backend.run_block(params, gen, n)[0]

    workers = workers or 1
    failures = 0
    used_trials = 0
    with contextlib.closing(_in_order(run, blocks, workers)) as per_block:
        for (b, n), f in zip(blocks, per_block):
            failures += f
            used_trials += n
            if max_failures_stop is not None and failures >= max_failures_stop:
                break
    low, high = wilson_interval(failures, used_trials)
    return PointEstimate(
        protocol=protocol,
        analog=analog,
        cycles=cycles,
        level=level,
        sigma_total=sigma_total,
        trials=used_trials,
        failures=failures,
        p_fail=failures / used_trials,
        ci_low=low,
        ci_high=high,
        master_seed=master_seed,
    )


class CsvSink:
    """Append-only CSV persistence with resume support.

    A row counts as written once its newline is: on resume, a last line
    without one (a write cut short by a crash) is dropped, so its point is
    computed again.  A malformed complete row still raises.
    """

    def __init__(self, path):
        self.path = str(path)
        self._seen: set[tuple] = set()
        if os.path.exists(self.path):
            _drop_partial_last_line(self.path)
        if os.path.exists(self.path) and os.path.getsize(self.path) > 0:
            for est in read_results(self.path):
                self._seen.add(est.key())
        else:
            with open(self.path, "w") as fh:
                fh.write(CSV_HEADER + "\n")

    def has(self, estimate_key: tuple) -> bool:
        return estimate_key in self._seen

    def write(self, est: PointEstimate) -> None:
        with open(self.path, "a") as fh:
            fh.write(est.csv_row() + "\n")
        self._seen.add(est.key())


def _drop_partial_last_line(path) -> None:
    with open(path, "rb+") as fh:
        data = fh.read()
        complete = data.rfind(b"\n") + 1
        if complete < len(data):
            fh.truncate(complete)


def sweep(
    cfg: SweepConfig,
    sink: CsvSink | None = None,
    *,
    workers: int | None = None,
    backend=None,
    progress=None,
) -> list[PointEstimate]:
    """Run the full grid; streams completed points to ``sink`` in order.

    Points already present in the sink are skipped, so an interrupted sweep
    resumes where it stopped and still produces the identical file.
    """
    results = []
    for point_index, level, sigma in cfg.points():
        key = (cfg.protocol, cfg.analog, cfg.cycles, level, sigma)
        if sink is not None and sink.has(key):
            continue
        est = estimate_point(
            cfg.protocol,
            cfg.analog,
            cfg.cycles,
            level,
            sigma,
            cfg.trials_per_point,
            cfg.master_seed,
            point_index,
            quadrature=cfg.quadrature,
            sigma_ancilla_q=cfg.sigma_ancilla_q,
            sigma_ancilla_p=cfg.sigma_ancilla_p,
            max_failures_stop=cfg.max_failures_stop,
            workers=workers,
            backend=backend,
        )
        if sink is not None:
            sink.write(est)
        if progress is not None:
            progress(est)
        results.append(est)
    return results


def read_results(path) -> list[PointEstimate]:
    """Parse a results CSV; malformed rows raise with their line number."""
    out = []
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != CSV_HEADER:
            raise ValueError(f"{path}: line 1: unexpected header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 11:
                raise ValueError(f"{path}: line {lineno}: expected 11 fields, got {len(parts)}")
            try:
                out.append(
                    PointEstimate(
                        protocol=parts[0],
                        analog={"on": True, "off": False}[parts[1]],
                        cycles=int(parts[2]),
                        level=int(parts[3]),
                        sigma_total=float(parts[4]),
                        trials=int(parts[5]),
                        failures=int(parts[6]),
                        p_fail=float(parts[7]),
                        ci_low=float(parts[8]),
                        ci_high=float(parts[9]),
                        master_seed=int(parts[10]),
                    )
                )
            except (ValueError, KeyError) as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from exc
    return out


# --- threshold location --------------------------------------------------------

class NoCrossingError(ValueError):
    """Raised when no pair of level curves crosses inside the grid."""


@dataclass(frozen=True)
class CrossingPair:
    level_a: int
    level_b: int
    sigma_cross: float


@dataclass(frozen=True)
class ThresholdEstimate:
    sigma_star: float
    crossing_pairs: tuple[CrossingPair, ...]
    spread: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "sigma_star": self.sigma_star,
                "crossings": [
                    {"level_a": c.level_a, "level_b": c.level_b, "sigma_cross": c.sigma_cross}
                    for c in self.crossing_pairs
                ],
                "spread": self.spread,
            },
            indent=2,
        )


def find_threshold(estimates) -> ThresholdEstimate:
    """Locate the common crossing of consecutive level curves.

    For each consecutive level pair the crossing of ``log p_fail`` is found
    by piecewise-linear interpolation over sigma; points with zero failures
    are skipped (no log).  The threshold is the mean crossing, with the
    max-min spread quantifying how concentrated the crossings are.  Result is
    invariant under reordering of the input list.
    """
    configs = {(e.protocol, e.analog, e.cycles) for e in estimates}
    if len(configs) > 1:
        raise ValueError(f"estimates mix several protocol configurations: {sorted(configs)}")
    curves: dict[int, dict[float, PointEstimate]] = {}
    for e in estimates:
        curves.setdefault(e.level, {})[e.sigma_total] = e
    levels = sorted(curves)
    if len(levels) < 2:
        raise NoCrossingError("no crossing in grid: need at least two levels")
    crossings = []
    for la, lb in zip(levels, levels[1:]):
        sigmas = sorted(set(curves[la]) & set(curves[lb]))
        diffs = []
        for s in sigmas:
            ea, eb = curves[la][s], curves[lb][s]
            if ea.failures == 0 or eb.failures == 0:
                continue
            diffs.append((s, math.log(ea.p_fail) - math.log(eb.p_fail)))
        for (s0, d0), (s1, d1) in zip(diffs, diffs[1:]):
            if d0 == 0.0:
                crossings.append(CrossingPair(la, lb, s0))
                break
            if (d0 < 0.0) != (d1 < 0.0):
                crossings.append(CrossingPair(la, lb, s0 + (s1 - s0) * (-d0) / (d1 - d0)))
                break
    if not crossings:
        raise NoCrossingError("no crossing in grid")
    values = [c.sigma_cross for c in crossings]
    return ThresholdEstimate(
        sigma_star=sum(values) / len(values),
        crossing_pairs=tuple(crossings),
        spread=max(values) - min(values),
    )


def manifest_config(cfg: SweepConfig) -> dict:
    """The ``config`` section of ``manifest.json``: the settings a sweep ran with."""
    return {
        "protocol": cfg.protocol,
        "analog": cfg.analog,
        "cycles": cfg.cycles,
        "sigma_total_grid": list(cfg.sigma_total_grid),
        "levels": list(cfg.levels),
        "trials_per_point": cfg.trials_per_point,
        "master_seed": cfg.master_seed,
        "max_failures_stop": cfg.max_failures_stop,
        "quadrature": cfg.quadrature,
        "sigma_ancilla_q": cfg.sigma_ancilla_q,
        "sigma_ancilla_p": cfg.sigma_ancilla_p,
        # the kernel's stream contract (gkptrack.kernels), not a setting
        "stream_version": STREAM_VERSION,
    }


#: config fields that change a row's values without changing its key; rows of
#: other protocols, cycles, levels or sigmas may share a results file
_RESUME_FIELDS = (
    "trials_per_point",
    "master_seed",
    "max_failures_stop",
    "quadrature",
    "sigma_ancilla_q",
    "sigma_ancilla_p",
    "stream_version",
)


def check_resume(manifest_path, results_path, cfg: SweepConfig) -> None:
    """Refuse to add ``cfg``'s rows to results written under other run settings.

    Raises ``ValueError`` naming each field of :data:`_RESUME_FIELDS` in which
    the stored manifest differs from ``cfg``, or when results exist without a
    manifest to check them against.
    """
    if not os.path.exists(manifest_path):
        if os.path.exists(results_path):
            raise ValueError(f"{results_path} exists but {manifest_path} does not; "
                             "cannot tell which configuration wrote it")
        return
    with open(manifest_path) as fh:
        stored = json.load(fh).get("config", {})
    # manifests from before the field was recorded were written under stream 1
    stored.setdefault("stream_version", 1)
    wanted = manifest_config(cfg)
    diffs = [
        f"{name} {stored.get(name)!r} -> {wanted[name]!r}"
        for name in _RESUME_FIELDS
        if stored.get(name) != wanted[name]
    ]
    if diffs:
        raise ValueError(f"{manifest_path} was written for another configuration ("
                         + ", ".join(diffs) + "); use a new output directory")


def write_manifest(path, cfg: SweepConfig, backend_name: str, workers: int | None) -> None:
    payload = {
        "config": manifest_config(cfg),
        "version": __version__,
        # the Philox/ziggurat stream and the pure kernel's batched path are numpy's
        "numpy": np.__version__,
        "backend": backend_name,
        "workers": workers,
        "created_unix": time.time(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
