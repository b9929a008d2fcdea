"""The pure kernel's trial-batched path against the scalar trial loop.

Every case compares failure counts and the generator's final Philox state
with a loop over the reference protocol functions on an identically keyed
generator: equal states mean the batched path drew exactly the normals and
tie coins the scalar loop draws.
"""

import itertools
import subprocess
import sys

import numpy as np
import pytest

from gkptrack import protocols
from gkptrack.kernels import ProtocolConfig, batched, get_backend, pure


def make_gen(seed):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 5], dtype=np.uint64)))


def plain(value):
    """A generator state with arrays turned into lists, so states compare with ``==``."""
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def scalar_loop(params, gen, trials):
    failures = failures_p = 0
    for _ in range(trials):
        if params.quadrature == "both":
            out_q, out_p = protocols.run_trial_both(params, gen)
            failures += out_q.failed
            failures_p += out_p.failed
        else:
            failures += protocols.run_trial(params, gen).failed
    return failures, failures_p


def assert_stream_exact(params, trials, seed, run=None):
    run = run or get_backend("pure").run_block
    expected_gen, gen = make_gen(seed), make_gen(seed)
    expected = scalar_loop(params, expected_gen, trials)
    assert run(params, gen, trials) == expected
    assert plain(gen.bit_generator.state) == plain(expected_gen.bit_generator.state)
    return expected


def draws_per_trial(params):
    return sum(count for _, _, count in batched._sub_trials(params))


TRIALS_BY_LEVEL = {1: 300, 2: 80, 3: 15}
ANCILLAS = {"perfect": (0.0, 0.0), "noisy": (0.12, 0.08)}


@pytest.mark.parametrize(
    "protocol,quadrature,level,ancilla",
    list(itertools.product(("conventional", "tracking"), ("q", "p", "both"), (1, 2, 3), ANCILLAS)),
)
def test_matches_scalar_loop(protocol, quadrature, level, ancilla):
    cycles = 3 if level < 3 else 2
    params = ProtocolConfig(protocol, True, level, cycles, 0.45, *ANCILLAS[ancilla], quadrature)
    seed = 10 * level + len(quadrature) + (protocol == "tracking")
    assert_stream_exact(params, TRIALS_BY_LEVEL[level], seed)


def test_level4():
    params = ProtocolConfig("tracking", True, 4, 2, 0.42, 0.1, 0.1, "both")
    assert_stream_exact(params, 4, 3)


@pytest.mark.parametrize("offset", [None, -1, 0, 1])
@pytest.mark.parametrize("quadrature", ["q", "both"])
def test_chunk_boundaries(offset, quadrature):
    """One trial, and one chunk's worth minus one, exactly and plus one."""
    params = ProtocolConfig("tracking", True, 2, 2, 0.5, 0.1, 0.15, quadrature)
    chunk = batched.CHUNK_DRAWS // draws_per_trial(params)
    assert chunk > 2
    trials = 1 if offset is None else chunk + offset
    assert_stream_exact(params, trials, 40 + (offset or 7))


def test_routing(monkeypatch):
    """Analog configs with channel noise run batched; digital ones never do."""
    calls = []
    original = batched.run_block

    def spy(params, gen, trials):
        calls.append(params)
        return original(params, gen, trials)

    monkeypatch.setattr(batched, "run_block", spy)
    analog = ProtocolConfig("conventional", True, 1, 2, 0.5)
    digital = ProtocolConfig("conventional", False, 1, 2, 0.5)
    assert_stream_exact(analog, 50, 1)
    assert_stream_exact(digital, 50, 2)
    assert calls == [analog]


def test_loaded_lazily():
    """Importing the CLI and resolving the kernel loads neither the pure kernel nor its batched path."""
    code = ("import sys, gkptrack.cli\n"
            "from gkptrack.kernels import get_backend\n"
            "get_backend()\n"
            "print(' '.join(sorted(sys.modules)))")
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, timeout=60).stdout.split()
    assert "gkptrack.cli" in loaded
    assert "gkptrack.kernels.pure" not in loaded
    assert "gkptrack.kernels.batched" not in loaded


class CountingReplays:
    """Counts scalar re-runs and the tie coins that made a replay rewind."""

    def __init__(self, monkeypatch):
        self.reruns = 0
        self.rewinds = 0
        trial_failures = pure.trial_failures
        replay_random = batched._Replay.random

        def counted_trial(params, gen):
            self.reruns += 1
            return trial_failures(params, gen)

        def counted_random(replay):
            self.rewinds += not replay.live
            return replay_random(replay)

        monkeypatch.setattr(pure, "trial_failures", counted_trial)
        monkeypatch.setattr(batched._Replay, "random", counted_random)


@pytest.mark.parametrize(
    "params,trials",
    [
        (ProtocolConfig("tracking", True, 2, 3, 0.45, 0.15, 0.1, "both"), 120),
        (ProtocolConfig("conventional", True, 1, 3, 0.55, 0.0, 0.0, "both"), 400),
        (ProtocolConfig("tracking", True, 1, 2, 0.5, 0.12, 0.08, "p"), 600),
    ],
)
def test_every_trial_replayed(monkeypatch, params, trials):
    """With an infinite tolerance every trial goes through the scalar replay."""
    monkeypatch.setattr(batched, "TIE_TOLERANCE", float("inf"))
    counter = CountingReplays(monkeypatch)
    assert_stream_exact(params, trials, 8)
    assert counter.reruns == trials


@pytest.mark.parametrize(
    "params,trials",
    [
        (ProtocolConfig("conventional", False, 2, 2, 0.55), 1500),
        (ProtocolConfig("tracking", False, 1, 2, 0.5, 0.1, 0.1, "both"), 1500),
    ],
)
def test_tie_coins_rewind(monkeypatch, params, trials):
    """Digital decodes tie exactly; each coin rewinds the generator and ends the chunk."""
    counter = CountingReplays(monkeypatch)
    failures = assert_stream_exact(params, trials, 9, run=batched.run_block)
    assert failures[0] > 0
    assert counter.rewinds > 100
