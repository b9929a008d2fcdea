"""Monte Carlo harness: point estimates, sweeps, threshold location, persistence.

Determinism contract
--------------------
Trials are grouped into blocks of :data:`BLOCK_SIZE`; block ``b`` of point
``k`` draws from a counter-based Philox stream keyed by ``(master_seed, k,
b)``, which holds ``b`` below 2**24, so ``SweepConfig`` refuses more than
2**37 trials a point.  A point's blocks are a ``range`` and a sweep's points
indices into its grid; neither is listed.  Blocks may execute on any number
of worker threads, but failure counts are combined in block order (and an
early stop is decided in that order), so a sweep's CSV output is
byte-identical for a given ``SweepConfig`` regardless of parallelism or
scheduling.

CSV schema: a header of :class:`PointEstimate`'s field names, then one row
per point, in point order, holding its fields in that order, a bool as
``on`` or ``off``, a float as its ``repr`` and an int or str as its ``str``.

The noise axis is the *total* standard deviation summed over cycles; each
cycle applies ``sigma_total / cycles``.

One :class:`SweepConfig` carries a run's settings from the command line to
the kernel: ``estimate_point(cfg, point_index)`` takes the point's level and
sigma from its grid and its trials, seed and early stop from it,
:meth:`SweepConfig.point_params` builds the point's
:class:`~gkptrack.kernels.ProtocolConfig`, and ``manifest.json`` records its
fields.  A setting is refused in one place, when the config is made:
``SweepConfig`` refuses every value that it or the ``ProtocolConfig`` of any
of its points would refuse, before a sweep writes anything.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__
from .kernels import STREAM_VERSION, ProtocolConfig, as_bool, as_index, as_real, get_backend

#: trials per block, part of the stream contract: a block's counts depend on its size
BLOCK_SIZE = 8192
#: most ``workers`` a run takes, ``ThreadPoolExecutor``'s own default cap; with
#: several, each worker's block of more than one chunk adds a helper thread
MAX_WORKERS = 32
_Z95 = 1.959963984540054

_MAX_BLOCKS = 1 << 24
_MAX_POINTS = 1 << 40


def philox_key(master_seed: int, point_index: int, block_index: int) -> np.ndarray:
    """128-bit Philox key for one block of one point."""
    master_seed = as_index("master_seed", master_seed)
    point_index = as_index("point_index", point_index)
    block_index = as_index("block_index", block_index)
    if not (0 <= block_index < _MAX_BLOCKS):
        raise ValueError(f"block index out of range: {block_index}")
    if not (0 <= point_index < _MAX_POINTS):
        raise ValueError(f"point index out of range: {point_index}")
    # a seed outside the key's 64-bit word would alias another seed's stream
    if not (0 <= master_seed < 1 << 64):
        raise ValueError(f"master_seed must lie in [0, 2**64), got {master_seed}")
    w1 = (point_index << 24) | block_index
    return np.array([master_seed, w1], dtype=np.uint64)


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


# results.csv text of a PointEstimate field's value, and the value of its
# text, by the field's annotation
_TO_TEXT = {"bool": lambda value: "on" if value else "off", "float": repr, "int": str, "str": str}
_FROM_TEXT = {"bool": {"on": True, "off": False}.__getitem__, "float": float, "int": int, "str": str}


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
        return ",".join(_TO_TEXT[f.type](getattr(self, f.name)) for f in fields(self))


CSV_HEADER = ",".join(f.name for f in fields(PointEstimate))


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
    sigma_ancilla: float = 0.0

    def __post_init__(self) -> None:
        # stored as Python values, so a numpy value never reaches manifest.json
        for name, convert in (("analog", as_bool), ("cycles", as_index), ("trials_per_point", as_index),
                              ("master_seed", as_index), ("sigma_ancilla", as_real)):
            object.__setattr__(self, name, convert(name, getattr(self, name)))
        object.__setattr__(self, "levels", tuple(as_index("level", level) for level in self.levels))
        object.__setattr__(self, "sigma_total_grid", tuple(as_real("sigma_total", x) for x in self.sigma_total_grid))
        if self.max_failures_stop is not None:
            object.__setattr__(self, "max_failures_stop", as_index("max_failures_stop", self.max_failures_stop))
        # each point is one (level, sigma_total): no two may be equal
        if any(a >= b for a, b in zip(self.sigma_total_grid, self.sigma_total_grid[1:])):
            raise ValueError("sigma_total_grid must be strictly increasing")
        if len(set(self.levels)) != len(self.levels):
            raise ValueError(f"levels must be distinct, got {self.levels}")
        if self.trials_per_point < 1:
            raise ValueError("trials_per_point must be >= 1")
        # a point's blocks beyond the Philox keys' block index would have no stream
        if self.trials_per_point > _MAX_BLOCKS * BLOCK_SIZE:
            raise ValueError(f"trials_per_point must be <= {_MAX_BLOCKS * BLOCK_SIZE} (2**37), "
                             f"got {self.trials_per_point}")
        # the seed the blocks' Philox keys would refuse
        philox_key(self.master_seed, 0, 0)
        if self.max_failures_stop is not None and self.max_failures_stop < 1:
            raise ValueError(f"max_failures_stop must be >= 1, got {self.max_failures_stop}")
        if not self.sigma_total_grid or not self.levels:
            raise ValueError("a sweep needs at least one sigma_total and one level")
        # every point's kernel config is built here, so a value any point would
        # refuse is refused before a sweep writes anything; a grid value <= 0
        # is named as such, not by the sigma_cycle it would give
        if not all(sigma > 0.0 for sigma in self.sigma_total_grid):
            raise ValueError("sigma_total must be > 0")
        for index in range(len(self.levels) * len(self.sigma_total_grid)):
            self.point_params(index)

    def point_params(self, index: int) -> ProtocolConfig:
        """The kernel config of point ``index``, the one place its noise is split over cycles."""
        level, sigma_total = self.point(index)
        # ProtocolConfig refuses cycles < 1 itself, so the split must not divide by zero
        return ProtocolConfig(self.protocol, self.analog, level, self.cycles,
                              sigma_total / max(self.cycles, 1), self.sigma_ancilla, self.quadrature)

    def point(self, index: int) -> tuple[int, float]:
        """(level, sigma_total) of point ``index``: levels outer, sigmas inner."""
        count = len(self.levels) * len(self.sigma_total_grid)
        if not 0 <= index < count:
            raise ValueError(f"point index {index} outside the sweep's {count} points")
        level, sigma = divmod(index, len(self.sigma_total_grid))
        return self.levels[level], self.sigma_total_grid[sigma]


def _check_workers(workers) -> None:
    # refused before any pool exists: a point submits ``workers`` blocks at once
    if not 1 <= as_index("workers", workers) <= MAX_WORKERS:
        raise ValueError(f"workers must lie in [1, {MAX_WORKERS}], got {workers}")


# the run of the sweep running on each thread
_runs = threading.local()


@contextlib.contextmanager
def _run(cfg: SweepConfig, stop: int, workers: int):
    """The run of the sweep running ``cfg`` on this thread, or a new one of the points below ``stop``, closed on exit."""
    outer = getattr(_runs, "run", None)
    if outer is not None and outer.cfg is cfg and outer.workers == workers:
        yield outer
        return
    with _Run(cfg, stop, workers) as run:
        _runs.run = run
        try:
            yield run
        finally:
            _runs.run = outer


class _Run:
    """What the points of one sweep, or one point alone, share on the thread that runs them; a context manager.

    With one worker the blocks run on this thread, in point and block order,
    on the kernel's normals pipeline, which asks :meth:`ahead` for the block
    after each; with several, one thread pool, made for the first point of
    more than one block, runs the blocks of every point.
    """

    def __init__(self, cfg: SweepConfig, stop: int, workers: int) -> None:
        self.cfg = cfg
        self.workers = workers
        self._stop = stop
        # a point's blocks
        self.blocks = -(-cfg.trials_per_point // BLOCK_SIZE)
        # the pipeline or the pool, closed on exit
        self._stack = contextlib.ExitStack()
        self._pool = None
        # with one worker: the block running, and the one made ahead, ((point, block), generator)
        self._running = None
        self._made = None

    def __enter__(self) -> _Run:
        if self.workers == 1:
            # loaded here: importing the command line loads no kernel
            from .kernels import pure

            self._stack.enter_context(pure.pipeline(self.ahead))
        return self

    def __exit__(self, *exc) -> None:
        self._stack.close()

    def trials(self, block: int) -> int:
        """Trials of block ``block`` of a point: all but the last are full."""
        return min(BLOCK_SIZE, self.cfg.trials_per_point - block * BLOCK_SIZE)

    def generator(self, point: int, block: int) -> np.random.Generator:
        """The generator of block ``block`` of point ``point``: the one :meth:`ahead` made, if it made it."""
        if self.workers > 1:
            # the pool's threads make their blocks' generators, and none is made ahead
            return block_generator(self.cfg.master_seed, point, block)
        made, self._made = self._made, None
        self._running = (point, block)
        if made is not None and made[0] == (point, block):
            return made[1]
        return block_generator(self.cfg.master_seed, point, block)

    def ahead(self):
        """``(params, generator, trials)`` of the block after the running one, if it is certain to run; else ``None``.

        Without an early stop the next block always runs.  With one, the
        running block may stop its point, so only the next point's first
        block is certain, and only once the running block is its point's last.
        """
        point, block = self._running
        if block + 1 < self.blocks and self.cfg.max_failures_stop is None:
            block += 1
        elif block + 1 == self.blocks and point + 1 < self._stop:
            point, block = point + 1, 0
        else:
            return None
        generator = block_generator(self.cfg.master_seed, point, block)
        self._made = ((point, block), generator)
        return self.cfg.point_params(point), generator, self.trials(block)

    def in_order(self, fn, items):
        """Yield ``fn(item)`` for each item, in item order.

        With several workers and items, calls run on the pool with at most
        ``workers`` of them in flight; the next item is submitted only when the
        consumer asks for the next result.  Closing the generator early cancels
        the calls that have not started and waits for the running ones.
        """
        if self.workers <= 1 or len(items) <= 1:
            yield from map(fn, items)
            return
        if self._pool is None:
            self._pool = self._stack.enter_context(ThreadPoolExecutor(max_workers=self.workers))
        window = deque(self._pool.submit(fn, item) for item in items[:self.workers])
        try:
            for item in items[self.workers:]:
                yield window.popleft().result()
                window.append(self._pool.submit(fn, item))
            while window:
                yield window.popleft().result()
        finally:
            # the results, or errors, of calls past an early close are never
            # read, as with one worker, where those calls never run; a point
            # ends with its last block, so the blocks in flight share a point
            for future in window:
                future.cancel()
            wait(window)


def estimate_point(
    cfg: SweepConfig,
    point_index: int,
    *,
    workers: int = 1,
    backend=None,
) -> PointEstimate:
    """Estimate the failure probability of ``cfg``'s point ``point_index`` with a Wilson 95% interval.

    The point's level and sigma are ``cfg.point(point_index)``, which refuses
    an index outside the sweep; its trials, seed and early stop are
    ``cfg``'s.  Deterministic for a fixed ``(cfg.master_seed, point_index)``
    regardless of ``workers``, which defaults to one thread; ``workers``
    outside 1 to :data:`MAX_WORKERS` raises ``ValueError``.  Called by
    :func:`sweep` on its thread, the point runs in the sweep's run: with one
    worker on the sweep's normals pipeline, which draws each block's normals
    while the block before decodes, across points too; with several on the
    sweep's thread pool.  Alone, the point makes its own.  The kernel's
    batched path releases the GIL only inside numpy calls on small chunks,
    and with several workers each block of more than one chunk runs a helper
    thread of its own: on a 2-core VM two workers ran a point's 8,192-trial
    blocks at 0.63-0.83x the speed of one on tracking analog L2 and L3, and
    at 1.2x on conventional digital L2 (3 cycles).
    ``cfg.max_failures_stop`` ends the run after the first block, in block
    order, at which the cumulative failure count reaches the threshold; that
    block is scheduling-independent, so the estimate is too.

    The stop is tested at block boundaries, as results arrive in block order.
    Blocks are submitted in order with at most ``workers`` in flight and none
    is submitted once the stop is reached, so at most ``workers - 1`` blocks
    past the stopping block are computed (and discarded); the blocks are a
    ``range``, so a stop at block 0 costs one block at any trial count.  With
    one worker no block past the stop is drawn either: the pipeline draws a
    block ahead only once the block before it did not stop its point.
    ``p_fail = k / n`` is taken over whole blocks; under this data-dependent
    stop it carries a small upward bias and the Wilson interval is nominal
    only.
    """
    _check_workers(workers)
    level, sigma_total = cfg.point(point_index)
    backend = backend if backend is not None else get_backend()
    params = cfg.point_params(point_index)
    failures = 0
    with _run(cfg, point_index + 1, workers) as run:
        blocks = range(run.blocks)

        def block(b: int) -> int:
            return backend.run_block(params, run.generator(point_index, b), run.trials(b))

        with contextlib.closing(run.in_order(block, blocks)) as per_block:
            for b, f in zip(blocks, per_block):
                failures += f
                if cfg.max_failures_stop is not None and failures >= cfg.max_failures_stop:
                    break
    # blocks 0..b ran: all of them full but the point's last
    used_trials = min(cfg.trials_per_point, (b + 1) * BLOCK_SIZE)
    low, high = wilson_interval(failures, used_trials)
    return PointEstimate(
        protocol=cfg.protocol,
        analog=cfg.analog,
        cycles=cfg.cycles,
        level=level,
        sigma_total=sigma_total,
        trials=used_trials,
        failures=failures,
        p_fail=failures / used_trials,
        ci_low=low,
        ci_high=high,
        master_seed=cfg.master_seed,
    )


class CsvSink:
    """Append-only results.csv of one sweep.

    ``rows`` holds the file's complete rows in file order; :func:`sweep`
    checks that they are its first points and continues after them.  A row
    counts as written once its newline is: on opening, a last line without one
    (a write cut short by a crash) is dropped, so its point is computed again.
    A malformed complete row raises.
    """

    def __init__(self, path):
        self.path = str(path)
        if os.path.exists(self.path):
            _drop_partial_last_line(self.path)
        if os.path.exists(self.path) and os.path.getsize(self.path) > 0:
            self.rows = read_results(self.path)
        else:
            self.rows = []
            with open(self.path, "w") as fh:
                fh.write(CSV_HEADER + "\n")

    def write(self, est: PointEstimate) -> None:
        with open(self.path, "a") as fh:
            fh.write(est.csv_row() + "\n")
        self.rows.append(est)


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
    workers: int = 1,
    backend=None,
    progress=None,
) -> list[PointEstimate]:
    """Run the grid in point order; streams completed points to ``sink``.

    The sink's rows must be the sweep's first points, in order, so an
    interrupted sweep continues at the first point it lacks and still
    produces the identical file.  A row that is not its point, or a row
    beyond the grid, raises ``ValueError`` naming its line before anything is
    computed or written.  Returns the points computed.
    """
    count = len(cfg.levels) * len(cfg.sigma_total_grid)
    done = sink.rows if sink is not None else []
    for index, row in enumerate(done):
        have = (row.protocol, row.analog, row.cycles, row.level, row.sigma_total)
        if index >= count or have != (cfg.protocol, cfg.analog, cfg.cycles, *cfg.point(index)):
            raise ValueError(f"{sink.path}: line {index + 2}: row {have} is not point {index} of "
                             f"the sweep's {count} points; use a new output directory")
    _check_workers(workers)
    results = []
    with _run(cfg, count, workers):
        for point_index in range(len(done), count):
            est = estimate_point(cfg, point_index, workers=workers, backend=backend)
            if sink is not None:
                sink.write(est)
            if progress is not None:
                progress(est)
            results.append(est)
    return results


def read_results(path) -> list[PointEstimate]:
    """Parse a results CSV; malformed rows and blank lines raise with their line number."""
    columns = fields(PointEstimate)
    out = []
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != CSV_HEADER:
            raise ValueError(f"{path}: line 1: unexpected header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                # never written; refusing it keeps row i on line i + 2, as sweep names it
                raise ValueError(f"{path}: line {lineno}: blank line")
            parts = line.split(",")
            if len(parts) != len(columns):
                raise ValueError(f"{path}: line {lineno}: expected {len(columns)} fields, got {len(parts)}")
            try:
                out.append(PointEstimate(*(_FROM_TEXT[f.type](text) for f, text in zip(columns, parts))))
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
        return json.dumps({"sigma_star": self.sigma_star,
                           "crossings": [asdict(c) for c in self.crossing_pairs],
                           "spread": self.spread}, indent=2)

    @classmethod
    def from_json(cls, text: str) -> ThresholdEstimate:
        """The estimate :meth:`to_json` wrote as ``text``; other JSON raises ``ValueError``."""
        payload = json.loads(text)
        try:
            return cls(payload["sigma_star"], tuple(CrossingPair(**c) for c in payload["crossings"]),
                       payload["spread"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed threshold report: {exc!r}") from exc


def find_threshold(estimates) -> ThresholdEstimate:
    """Locate the common crossing of consecutive level curves.

    For each consecutive level pair the crossing of ``log p_fail`` is its
    first exact meeting at a shared sigma or first change of sign, found by
    piecewise-linear interpolation over sigma; points with zero failures
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
        # the last point has no neighbour to interpolate towards
        for (s0, d0), (s1, d1) in zip(diffs, diffs[1:] + [(None, 0.0)]):
            if d0 == 0.0:
                crossings.append(CrossingPair(la, lb, s0))
                break
            if d1 != 0.0 and (d0 < 0.0) != (d1 < 0.0):
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
    # the kernel's stream contract (gkptrack.kernels) is recorded with them
    return {**asdict(cfg), "stream_version": STREAM_VERSION}


def check_resume(manifest_path, results_path, cfg: SweepConfig) -> None:
    """Refuse to continue in an output directory that holds another sweep.

    One directory holds one sweep: every key of the stored manifest's
    ``config`` must equal :func:`manifest_config` of ``cfg``.  Raises
    ``ValueError`` naming each field that differs, when the manifest is not a
    JSON object with a ``config`` object, or when results exist without a
    manifest to check them against.
    """
    if not os.path.exists(manifest_path):
        if os.path.exists(results_path):
            raise ValueError(f"{results_path} exists but {manifest_path} does not; "
                             "cannot tell which configuration wrote it")
        return
    try:
        with open(manifest_path) as fh:
            # manifests from before the field was recorded were written under stream 1
            stored = {"stream_version": 1, **json.load(fh)["config"]}
    except (ValueError, TypeError, KeyError) as exc:
        raise ValueError(f"malformed manifest {manifest_path}: {exc!r}") from exc
    # compared as stored: JSON turns the config's tuples into lists
    wanted = json.loads(json.dumps(manifest_config(cfg)))
    diffs = [
        f"{name} {stored.get(name)!r} -> {wanted.get(name)!r}"
        for name in {**wanted, **stored}
        if stored.get(name) != wanted.get(name)
    ]
    if diffs:
        raise ValueError(f"{manifest_path} was written for another configuration ("
                         + ", ".join(diffs) + "); use a new output directory")


def write_manifest(path, cfg: SweepConfig, backend_name: str, workers: int) -> None:
    payload = {
        "config": manifest_config(cfg),
        "version": __version__,
        # the Philox/ziggurat stream and the pure kernel's batched path are numpy's
        "numpy": np.__version__,
        "backend": backend_name,
        "workers": workers,
        "created_unix": time.time(),
    }
    # serialized first: a value JSON refuses leaves no cut file behind
    text = json.dumps(payload, indent=2) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
