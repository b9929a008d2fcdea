"""In-process tracer for the traced pass of the sweep benchmark.

The tracer wraps module attributes of ``gkptrack`` for the duration of one
``with Tracer(...).installed():`` block and restores them afterwards; no file
of the package changes.  It records two kinds of data:

* spans, at sweep, point, block, Philox-setup and CSV-write level, each with
  a parent id, kept in memory in :attr:`Tracer.spans`;
* for the fine-grained functions called millions of times per sweep
  (trials, likelihoods, C4 tables, C6 folds, decodes), per-function call
  counts and summed *self* time, i.e. duration minus the time of wrapped
  calls made inside it, kept per thread (the harness runs the blocks of a
  point on a thread pool) and merged on read.

:func:`layer_metrics` turns both into the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import contextlib
import itertools
import statistics
import threading
from dataclasses import dataclass, field
from time import perf_counter

from gkptrack import cli, codes, harness, protocols
from gkptrack.kernels import pure

#: fine-grained functions: metric stem -> (module, attribute)
FINE = {
    "trial": (pure, "run_trial"),
    "joint_likelihood": (protocols, "joint_likelihood"),
    "decode": (protocols, "decode"),
    "log_gauss": (protocols, "log_gauss"),
    "digital_likelihoods": (protocols, "digital_likelihoods"),
    "c4_table": (codes, "block_pair_likelihoods"),
    "c6_fold": (codes, "c6_level_up"),
}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    trials: int = 0


@dataclass
class _ThreadState:
    # self-time stack of the open fine-grained calls: child time per frame
    stack: list = field(default_factory=list)
    # stem -> [calls, self seconds]
    calls: dict = field(default_factory=dict)
    normal_draws: int = 0
    uniform_draws: int = 0


class CountingGenerator:
    """Proxy around a numpy ``Generator`` counting the draws the pure kernel makes."""

    def __init__(self, generator, state: _ThreadState) -> None:
        self._generator = generator
        self._state = state

    def standard_normal(self, *args, **kwargs):
        self._state.normal_draws += 1
        return self._generator.standard_normal(*args, **kwargs)

    def random(self, *args, **kwargs):
        self._state.uniform_draws += 1
        return self._generator.random(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._generator, name)


class _TracedBackend:
    """The ``backend=`` object handed to ``harness.sweep``: one span per block."""

    def __init__(self, backend, tracer: "Tracer") -> None:
        self._backend = backend
        self._tracer = tracer
        self.name = backend.name

    def run_block(self, params, generator, trials):
        span = self._tracer.open_span("block", self._tracer.current_point, trials)
        try:
            return self._backend.run_block(params, generator, trials)
        finally:
            span.end = perf_counter()


class Tracer:
    """Spans and per-function self times of one traced sweep."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.current_point: int | None = None
        self.root: int | None = None
        self.kernel = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()

    # --- recording ------------------------------------------------------

    def open_span(self, name: str, parent: int | None, trials: int = 0) -> Span:
        span = Span(next(self._ids), parent, name, perf_counter(), trials=trials)
        self.spans.append(span)
        return span

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            with self._lock:
                self._states.append(state)
            self._local.state = state
            return state

    def _fine(self, stem: str, fn):
        state_of = self._state

        def wrapper(*args, **kwargs):
            state = state_of()
            stack = state.stack
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += duration
                rec = state.calls.get(stem)
                if rec is None:
                    rec = state.calls[stem] = [0, 0.0]
                rec[0] += 1
                rec[1] += duration - child
            return result

        return wrapper

    def _point(self, fn):
        def wrapper(*args, **kwargs):
            span = self.open_span("point", self.root)
            self.current_point = span.id
            try:
                est = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self.current_point = None
            span.trials = est.trials
            return est

        return wrapper

    def _philox(self, fn):
        def wrapper(*args, **kwargs):
            span = self.open_span("philox_setup", self.current_point)
            try:
                gen = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
            return CountingGenerator(gen, self._state()) if self.kernel == "pure" else gen

        return wrapper

    def _csv_write(self, fn):
        def wrapper(sink, est):
            span = self.open_span("csv_write", self.root)
            try:
                return fn(sink, est)
            finally:
                span.end = perf_counter()

        return wrapper

    def _get_backend(self, fn):
        def wrapper(*args, **kwargs):
            backend = fn(*args, **kwargs)
            self.kernel = backend.name
            return _TracedBackend(backend, self)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap the traced attributes; restore the originals on exit."""
        patches = [
            (harness, "estimate_point", self._point),
            (harness, "block_generator", self._philox),
            (harness.CsvSink, "write", self._csv_write),
            (cli, "get_backend", self._get_backend),
        ] + [(mod, attr, lambda fn, stem=stem: self._fine(stem, fn))
             for stem, (mod, attr) in FINE.items()]
        originals = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
        try:
            for obj, attr, make in patches:
                setattr(obj, attr, make(getattr(obj, attr)))
            yield self
        finally:
            for obj, attr, original in originals:
                setattr(obj, attr, original)

    @contextlib.contextmanager
    def sweep_span(self):
        span = self.open_span("sweep", None)
        self.root = span.id
        try:
            yield span
        finally:
            span.end = perf_counter()
            self.root = None

    # --- reading --------------------------------------------------------

    def calls(self) -> dict[str, tuple[int, float]]:
        merged: dict[str, list] = {stem: [0, 0.0] for stem in FINE}
        for state in self._states:
            for stem, (count, self_s) in state.calls.items():
                merged[stem][0] += count
                merged[stem][1] += self_s
        return {stem: (c, s) for stem, (c, s) in merged.items()}

    def draws(self) -> tuple[int, int]:
        return (sum(s.normal_draws for s in self._states),
                sum(s.uniform_draws for s in self._states))


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def layer_metrics(tracer: Tracer, workers: int) -> dict[str, float]:
    """Per-layer metrics of one traced sweep run with ``workers`` (see ``perfbench/README.md``)."""
    by_parent: dict[int | None, list[Span]] = {}
    for span in tracer.spans:
        by_parent.setdefault(span.parent, []).append(span)
    points = [s for s in tracer.spans if s.name == "point"]
    blocks = [s for s in tracer.spans if s.name == "block"]
    block_s = [b.end - b.start for b in blocks]
    busy = sum(block_s)
    computed = sum(b.trials for b in blocks)
    used = sum(p.trials for p in points)
    harness_self = pool_idle = 0.0
    for p in points:
        children = by_parent.get(p.id, [])
        wall = p.end - p.start
        harness_self += wall - _covered((c.start, c.end) for c in children)
        # the harness runs a one-block point on the calling thread, else on a pool
        point_blocks = [c for c in children if c.name == "block"]
        threads = min(workers, len(point_blocks))
        pool_idle += threads * wall - sum(c.end - c.start for c in point_blocks)
    calls = tracer.calls()
    # the run path's only uniform draw is the decode's fair coin on an exact tie
    normal, uniform = tracer.draws()
    decodes = calls["decode"][0]
    lik_calls = calls["log_gauss"][0] + calls["digital_likelihoods"][0]
    lik_s = calls["log_gauss"][1] + calls["digital_likelihoods"][1]
    return {
        "harness.points": len(points),
        "harness.blocks": len(blocks),
        "harness.trials_computed": computed,
        "harness.trials_used": used,
        "harness.useful_ratio": used / computed,
        "harness.self_s": harness_self,
        "harness.pool_idle_s": pool_idle,
        "harness.philox_setup_s": sum(s.end - s.start for s in tracer.spans if s.name == "philox_setup"),
        "harness.csv_write_s": sum(s.end - s.start for s in tracer.spans if s.name == "csv_write"),
        "kernels.busy_s": busy,
        "kernels.block_s_p50": _quantile(block_s, 0.5),
        "kernels.block_s_p90": _quantile(block_s, 0.9),
        "kernels.trials_per_busy_s": computed / busy,
        "protocols.trials": calls["trial"][0],
        "protocols.trial_self_s": calls["trial"][1],
        "protocols.joint_likelihood_calls": calls["joint_likelihood"][0],
        "protocols.joint_likelihood_s": calls["joint_likelihood"][1],
        "codes.decodes": decodes,
        "codes.decode_self_s": calls["decode"][1],
        "codes.c4_tables": calls["c4_table"][0],
        "codes.c4_table_s": calls["c4_table"][1],
        "codes.c6_folds": calls["c6_fold"][0],
        "codes.c6_fold_s": calls["c6_fold"][1],
        "codes.tie_ratio": uniform / decodes if decodes else 0.0,
        "gkp.normal_draws": normal,
        "gkp.uniform_draws": uniform,
        "gkp.likelihood_calls": lik_calls,
        "gkp.likelihood_s": lik_s,
    }
