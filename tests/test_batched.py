"""The kernel's trial-batched path against the scalar trial loop, stream v2.

Every case compares failure counts and the final Philox states of both the
noise generator and the coin generator with a loop over the reference
protocol functions on identically keyed generators: equal states mean the
batched path drew exactly the normals and tie coins the scalar loop draws.
The loop below spells out the stream contract of :mod:`gkptrack.kernels`:
one coin generator per block, ``Generator(bit_generator.jumped())``.
"""

import itertools
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from gkptrack import protocols
from gkptrack.kernels import ProtocolConfig, PureBackend, pure


def make_gen(seed):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 5], dtype=np.uint64)))


def plain(value):
    """A generator state with arrays turned into lists, so states compare with ``==``."""
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def coins_of(gen):
    return np.random.Generator(gen.bit_generator.jumped())


def scalar_loop(params, gen, coins, trials):
    failures = failures_p = 0
    for _ in range(trials):
        f, f_p = protocols.run_trial(params, gen, coins)
        failures += f
        failures_p += f_p
    return failures, failures_p


class CountingCoins:
    """A coin generator that counts the uniforms drawn from it."""

    def __init__(self, generator):
        self.generator = generator
        self.bit_generator = generator.bit_generator
        self.draws = 0

    def random(self, size=None):
        self.draws += 1 if size is None else size
        return self.generator.random(size)


def assert_stream_exact(params, trials, seed):
    """Equal counts and final generator states; returns the counts and the coins drawn."""
    expected_gen, gen = make_gen(seed), make_gen(seed)
    expected_coins = CountingCoins(coins_of(expected_gen))
    expected = scalar_loop(params, expected_gen, expected_coins, trials)
    made = []
    coin_generator = pure.coin_generator

    def counting_coin_generator(generator):
        made.append(CountingCoins(coin_generator(generator)))
        return made[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pure, "coin_generator", counting_coin_generator)
        assert pure.run_block(params, gen, trials) == expected
    (coins,) = made  # one coin generator per block
    assert plain(gen.bit_generator.state) == plain(expected_gen.bit_generator.state)
    assert plain(coins.bit_generator.state) == plain(expected_coins.bit_generator.state)
    assert coins.draws == expected_coins.draws
    return expected, coins.draws


def draws_per_trial(params):
    return sum(count for _, _, count in pure._sub_trials(params))


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


@pytest.mark.parametrize(
    "protocol,quadrature,level,ancilla",
    list(itertools.product(("conventional", "tracking"), ("q", "p", "both"), (1, 2, 3), ANCILLAS)),
)
def test_digital_matches_scalar_loop(protocol, quadrature, level, ancilla):
    cycles = 3 if level < 3 else 2
    params = ProtocolConfig(protocol, False, level, cycles, 0.45, *ANCILLAS[ancilla], quadrature)
    seed = 10 * level + len(quadrature) + (protocol == "tracking")
    assert_stream_exact(params, TRIALS_BY_LEVEL[level], seed)


@pytest.mark.parametrize(
    "protocol,level,ancilla,sigma",
    list(itertools.product(("conventional", "tracking"), (1, 2, 3), ANCILLAS,
                           (0.005, 0.02, 0.03, 0.04, 0.05, 0.9, 1.5))),
)
def test_extreme_sigmas(protocol, level, ancilla, sigma):
    """Where flip/match ratios underflow (sigma <= 0.05) and where they approach 1."""
    params = ProtocolConfig(protocol, True, level, 2, sigma, *ANCILLAS[ancilla], "both")
    assert_stream_exact(params, TRIALS_BY_LEVEL[level] // 3, 5 * level + (protocol == "tracking"))


@pytest.mark.parametrize(
    "params,replayed",
    [
        # odd-parity C4 blocks whose every flip ratio underflows: a table peak of 0
        (ProtocolConfig("tracking", True, 2, 2, 0.005, 0.3, 0.3, "both"), True),
        # the losing top sums underflow to exactly zero: sure without a replay
        (ProtocolConfig("conventional", True, 3, 2, 0.05, quadrature="both"), False),
    ],
)
def test_underflow_replays(monkeypatch, params, replayed):
    """Underflowed tables replay where a decision could rest on them, and only there."""
    reruns = []
    run_trial = pure.run_trial

    def counted_trial(params, gen, coins):
        reruns.append(gen)
        return run_trial(params, gen, coins)

    monkeypatch.setattr(pure, "run_trial", counted_trial)
    assert_stream_exact(params, 40, 6)
    assert bool(reruns) == replayed


def test_level4():
    params = ProtocolConfig("tracking", True, 4, 2, 0.42, 0.1, 0.1, "both")
    assert_stream_exact(params, 4, 3)


@pytest.mark.parametrize("offset", [None, -1, 0, 1])
@pytest.mark.parametrize("quadrature", ["q", "both"])
def test_chunk_boundaries(offset, quadrature):
    """One trial, and one chunk's worth minus one, exactly and plus one."""
    params = ProtocolConfig("tracking", True, 2, 2, 0.5, 0.1, 0.15, quadrature)
    chunk = pure.CHUNK_DRAWS // draws_per_trial(params)
    assert chunk > 2
    trials = 1 if offset is None else chunk + offset
    assert_stream_exact(params, trials, 40 + (offset or 7))


def test_routing(monkeypatch):
    """Configs with channel noise run batched, analog and digital; noiseless ones never do."""
    calls = []
    original = pure._run_chunk

    def spy(params, *args):
        calls.append(params)
        return original(params, *args)

    monkeypatch.setattr(pure, "_run_chunk", spy)
    analog = ProtocolConfig("conventional", True, 1, 2, 0.5)
    digital = ProtocolConfig("tracking", False, 1, 2, 0.5)
    noiseless = ProtocolConfig("tracking", False, 1, 2, 0.0)
    assert_stream_exact(analog, 50, 1)
    assert_stream_exact(digital, 50, 2)
    assert assert_stream_exact(noiseless, 50, 3) == ((0, 0), 0)
    assert calls == [analog, digital]


def test_noiseless_block_costs_nothing(monkeypatch):
    """A noiseless block returns without a scalar trial, and moves neither generator."""
    calls = []
    run_trial = pure.run_trial

    def counted_trial(params, gen, coins):
        calls.append(params)
        return run_trial(params, gen, coins)

    monkeypatch.setattr(pure, "run_trial", counted_trial)
    # the scalar loop at sigma_cycle 0 draws nothing, so the states stay as made
    assert assert_stream_exact(ProtocolConfig("tracking", True, 2, 3, 0.0), 100_000, 12) == ((0, 0), 0)
    assert calls == []


def test_loaded_lazily():
    """Importing the CLI and resolving the kernel does not load the kernel module."""
    code = ("import sys, gkptrack.cli\n"
            "from gkptrack.kernels import get_backend\n"
            "get_backend()\n"
            "print(' '.join(sorted(sys.modules)))")
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, timeout=60).stdout.split()
    assert "gkptrack.cli" in loaded
    assert "gkptrack.kernels.pure" not in loaded


@pytest.mark.parametrize(
    "params,trials",
    [
        (ProtocolConfig("tracking", True, 2, 3, 0.45, 0.15, 0.1, "both"), 120),
        (ProtocolConfig("conventional", True, 1, 3, 0.55, 0.0, 0.0, "both"), 400),
        (ProtocolConfig("tracking", True, 1, 2, 0.5, 0.12, 0.08, "p"), 600),
    ],
)
def test_every_trial_replayed(monkeypatch, params, trials):
    """With an infinite tolerance every analog trial goes through the scalar replay."""
    monkeypatch.setattr(pure, "TIE_TOLERANCE", float("inf"))
    reruns = []
    run_trial = pure.run_trial

    def counted_trial(params, gen, coins):
        reruns.append(gen)
        return run_trial(params, gen, coins)

    monkeypatch.setattr(pure, "run_trial", counted_trial)
    assert_stream_exact(params, trials, 8)
    assert len(reruns) == trials


TIE_HEAVY = [
    (ProtocolConfig("conventional", False, 2, 2, 0.55), 1500),
    (ProtocolConfig("tracking", False, 1, 2, 0.5, 0.1, 0.1, "both"), 1500),
]


@pytest.mark.parametrize("params,trials", TIE_HEAVY)
def test_tie_heavy_digital(params, trials):
    """Digital decodes tie exactly and often: each tie draws one coin, in trial order."""
    (failures, _), coins = assert_stream_exact(params, trials, 9)
    assert failures > 0
    assert coins > 100


CHUNK_CONFIGS = TIE_HEAVY + [
    (ProtocolConfig("tracking", False, 3, 2, 0.47, 0.1, 0.0, "both"), 30),
    (ProtocolConfig("conventional", True, 2, 3, 0.5, quadrature="both"), 100),
]


# 4,096 normals also split CHUNK_CONFIGS' analog block into two chunks
@pytest.mark.parametrize("chunk_draws", [1, 7, 4096, pure.CHUNK_DRAWS])
@pytest.mark.parametrize("params,trials", CHUNK_CONFIGS)
def test_chunk_size_invariant(monkeypatch, chunk_draws, params, trials):
    """Counts and both generators' final states do not depend on the chunk size."""
    monkeypatch.setattr(pure, "CHUNK_DRAWS", chunk_draws)
    assert_stream_exact(params, trials, 11)


def test_digital_decoder_interns_exact_tables():
    """A C4 table depends on its bits only: 16 patterns give the 5 distinct tables."""
    decoder = pure.DigitalDecoder(ProtocolConfig("conventional", False, 2, 2, 0.5))
    assert len(decoder._tables[0]) == 5
    # one column of leaf bits per decode
    bits = np.array([[0, 0, 0, 0] * 3, [0, 0, 0, 1] * 3, [1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]]).T
    first, tie = decoder.decide(bits)
    # all-odd sub-blocks are uniform, so the top table ties exactly
    assert first.tolist()[0] is False and tie.tolist() == [False, True, False]


def test_unkeyed_fold_matches(monkeypatch):
    """Folds over too many sub-tables for an int64 key give the same decisions."""
    params, trials = CHUNK_CONFIGS[2]
    monkeypatch.setattr(pure, "_KEYED_TABLES", 0)
    assert_stream_exact(params, trials, 11)


def test_floor_on_table_peaks():
    """A decode whose table peaks multiply to less than 1e-250 is not sure, however clear its gap."""
    # two decodes, one column each; odd parity: every word disagrees somewhere
    bits = np.array([[0, 0, 0, 1]] * 2).T
    flip = np.array([[1e-300, 2e-300, 3e-300, 4e-300], [1e-200, 2e-200, 3e-200, 4e-200]]).T
    # classes 00, 01, 10, 11 get 4, 2, 3 and 1 times the row's scale: decision 0
    first, unsure = pure._decide(bits, np.zeros(2), 1.0, flip)
    assert first.tolist() == [False, False]
    assert unsure.tolist() == [True, False]


SHARED_DECODER_CONFIGS = [
    ProtocolConfig("conventional", False, 2, 3, 0.55, quadrature="both"),
    ProtocolConfig("tracking", False, 3, 2, 0.47, 0.1, 0.0, "both"),
]


def run_blocks(run_block, params, blocks, trials):
    """Counts and final states of the noise and coin generators of each block of a point."""
    made = []
    coin_generator = pure.coin_generator

    def kept_coin_generator(generator):
        made.append(coin_generator(generator))
        return made[-1]

    out = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pure, "coin_generator", kept_coin_generator)
        for b in range(blocks):
            gen = make_gen(60 + b)
            counts = run_block(params, gen, trials)
            out.append((counts, plain(gen.bit_generator.state), plain(made[-1].bit_generator.state)))
    return out


@pytest.mark.parametrize("params", SHARED_DECODER_CONFIGS)
def test_shared_decoder_matches_fresh(params):
    """A backend's decoder, shared by the blocks of a point, decides as a fresh one per block."""
    backend = PureBackend()
    shared = run_blocks(backend.run_block, params, 4, 700)
    assert shared == run_blocks(pure.run_block, params, 4, 700)
    (decoder,) = backend._decoders.values()
    assert backend._decoder(params) is decoder


def test_shared_decoder_under_threads():
    """Threads interning into one decoder at once lose no table and change no count."""
    params = SHARED_DECODER_CONFIGS[1]
    expected = [pure.run_block(params, make_gen(70 + b), 300) for b in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # each round races six threads over the first tables of a new backend
        for _ in range(4):
            backend = PureBackend()
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(backend.run_block, params, make_gen(70 + b), 300) for b in range(6)]
                assert [future.result(timeout=120) for future in futures] == expected
            (decoder,) = backend._decoders.values()
            for numbers, tables in zip(decoder._numbers, decoder._tables):
                # every table interned once, under the number the dictionary gives it
                assert len(numbers) == len(tables)
                assert all(numbers[table.as_tuple()] == i for i, table in enumerate(tables))
            assert len(decoder._first_bits) == len(decoder._tables[-1])
    finally:
        sys.setswitchinterval(interval)


class FixedNormals:
    """A generator whose first normals are given values and the rest zeros."""

    def __init__(self, values):
        self.values = list(values)
        self.bit_generator = make_gen(0).bit_generator

    def standard_normal(self, size=None):
        if size is None:
            return self.values.pop(0) if self.values else 0.0
        out = np.zeros(size)
        head = self.values[:size]
        out[: len(head)] = head
        del self.values[:size]
        return out


# binned at sigma 1.0, this value lands 2.5e-15 past the bin edge sqrt(pi)/2
OUTSIDE_BIN = -70.01192711076787


@pytest.mark.parametrize("protocol", ["conventional", "tracking"])
@pytest.mark.parametrize("position", [0, 7])
def test_record_outside_bin_range(protocol, position):
    """A binned deviation that rounds past the bin edge raises the scalar loop's error."""
    params = ProtocolConfig(protocol, True, 1, 2, 1.0)
    values = [0.0] * position + [OUTSIDE_BIN]
    with pytest.raises(ValueError, match="outside the bin range") as scalar:
        scalar_loop(params, FixedNormals(values), coins_of(make_gen(0)), 2)
    with pytest.raises(ValueError) as batched_error:
        pure.run_block(params, FixedNormals(values), 2)
    assert str(batched_error.value) == str(scalar.value)


@pytest.mark.parametrize("protocol", ["conventional", "tracking"])
def test_huge_sigma_raises_scalar_error(protocol):
    """At sigma 1e200 binning leaves records far outside the bin range: both paths raise the same error."""
    params = ProtocolConfig(protocol, True, 1, 2, 1e200)
    with pytest.raises(ValueError, match="outside the bin range") as scalar:
        scalar_loop(params, make_gen(3), coins_of(make_gen(3)), 5)
    with pytest.raises(ValueError) as batched_error:
        pure.run_block(params, make_gen(3), 5)
    assert str(batched_error.value) == str(scalar.value)
