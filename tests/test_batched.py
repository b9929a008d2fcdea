"""The kernel's trial-batched path against the scalar trial loop, stream v2.

Every case compares failure counts and the final Philox states of both the
noise generator and the coin generator with a loop over the scalar trial,
``oracle.run_trial``, on identically keyed generators: equal states mean the
batched path drew exactly the normals and tie coins the scalar loop draws.
The loop below spells out the stream contract of :mod:`gkptrack.kernels`:
one coin generator per block, ``Generator(bit_generator.jumped())``.
"""

import copy
import gc
import itertools
import re
import subprocess
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from gkptrack import codes, harness, protocols
from gkptrack.gkp import LikelihoodPair
from gkptrack.kernels import MAX_SIGMA, ProtocolConfig, get_backend, pure
import oracle


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
    return sum(oracle.run_trial(params, gen, coins) for _ in range(trials))


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
    """Equal counts and final generator states; returns the count and the coins drawn."""
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
    """The normals one scalar trial draws."""
    gen = FixedNormals([])
    oracle.run_trial(params, gen, coins_of(make_gen(0)))
    return gen.draws


TRIALS_BY_LEVEL = {1: 300, 2: 80, 3: 15}
ANCILLAS = {"perfect": 0.0, "noisy": 0.12}


def checked_config(protocol, analog, level, cycles, sigma, ancilla, quadrature):
    """The config of a grid case, or None for a refused one, whose refusal is checked here.

    The conventional protocol refuses ancilla noise, and p, which differs from
    q only through ancilla noise, is refused without it.
    """
    fields = (protocol, analog, level, cycles, sigma, ANCILLAS[ancilla], quadrature)
    if protocol == "conventional" and ancilla == "noisy":
        with pytest.raises(ValueError, match="the conventional protocol uses perfect ancillas"):
            ProtocolConfig(*fields)
        return None
    if quadrature == "p" and ancilla == "perfect":
        with pytest.raises(ValueError, match="quadrature 'p' differs from 'q' only through ancilla noise"):
            ProtocolConfig(*fields)
        return None
    return ProtocolConfig(*fields)


SCALAR_LOOP_CASES = list(itertools.product(("conventional", "tracking"), ("q", "p"), (1, 2, 3), ANCILLAS))


@pytest.mark.parametrize("protocol,quadrature,level,ancilla", SCALAR_LOOP_CASES)
def test_matches_scalar_loop(protocol, quadrature, level, ancilla):
    cycles = 3 if level < 3 else 2
    params = checked_config(protocol, True, level, cycles, 0.45, ancilla, quadrature)
    seed = 10 * level + 1 + (protocol == "tracking")
    if params is not None:
        assert_stream_exact(params, TRIALS_BY_LEVEL[level], seed)


@pytest.mark.parametrize("protocol,quadrature,level,ancilla", SCALAR_LOOP_CASES)
def test_digital_matches_scalar_loop(protocol, quadrature, level, ancilla):
    cycles = 3 if level < 3 else 2
    params = checked_config(protocol, False, level, cycles, 0.45, ancilla, quadrature)
    seed = 10 * level + 1 + (protocol == "tracking")
    if params is not None:
        assert_stream_exact(params, TRIALS_BY_LEVEL[level], seed)


@pytest.mark.parametrize(
    "protocol,level,ancilla,sigma",
    list(itertools.product(("conventional", "tracking"), (1, 2, 3), ANCILLAS,
                           (0.005, 0.02, 0.03, 0.04, 0.05, 0.9, 1.5))),
)
def test_extreme_sigmas(protocol, level, ancilla, sigma):
    """Where flip/match ratios underflow (sigma <= 0.05) and where they approach 1, in q and in p."""
    for quadrature in ("q", "p"):
        params = checked_config(protocol, True, level, 2, sigma, ancilla, quadrature)
        if params is not None:
            assert_stream_exact(params, TRIALS_BY_LEVEL[level] // 3, 5 * level + (protocol == "tracking"))


@pytest.mark.parametrize(
    "params,replayed",
    [
        # odd-parity C4 blocks whose every flip ratio underflows: a table peak of 0
        (ProtocolConfig("tracking", True, 2, 2, 0.005, 0.3, "p"), True),
        # the losing top sums underflow to exactly zero: sure without a replay
        (ProtocolConfig("conventional", True, 3, 2, 0.05), False),
    ],
)
def test_underflow_replays(monkeypatch, params, replayed):
    """Underflowed tables replay where a decision could rest on them, and only there."""
    reruns = []
    run_trial = pure.run_trial

    def counted_trial(*args):
        reruns.append(args)
        return run_trial(*args)

    monkeypatch.setattr(pure, "run_trial", counted_trial)
    assert_stream_exact(params, 40, 6)
    assert bool(reruns) == replayed


def test_level4():
    for quadrature in ("q", "p"):
        assert_stream_exact(ProtocolConfig("tracking", True, 4, 2, 0.42, 0.1, quadrature), 4, 3)


@pytest.mark.parametrize("offset", [None, -1, 0, 1])
@pytest.mark.parametrize("quadrature", ["q", "p"])
def test_chunk_boundaries(offset, quadrature):
    """One trial, and one chunk's worth minus one, exactly and plus one."""
    params = ProtocolConfig("tracking", True, 2, 2, 0.5, 0.1, quadrature)
    chunk = pure.CHUNK_DRAWS // draws_per_trial(params)
    assert chunk > 2
    trials = 1 if offset is None else chunk + offset
    assert_stream_exact(params, trials, 40 + (offset or 7))


def test_routing(monkeypatch):
    """Analog and digital configs run batched."""
    calls = []
    original = pure._run_chunk

    def spy(params, *args):
        calls.append(params)
        return original(params, *args)

    monkeypatch.setattr(pure, "_run_chunk", spy)
    analog = ProtocolConfig("conventional", True, 1, 2, 0.5)
    digital = ProtocolConfig("tracking", False, 1, 2, 0.5)
    assert_stream_exact(analog, 50, 1)
    assert_stream_exact(digital, 50, 2)
    assert calls == [analog, digital]


def test_loaded_lazily():
    """Importing the CLI and resolving the kernel loads no kernel, plot or resources module, and no XML escape."""
    code = ("import sys, gkptrack.cli\n"
            "from gkptrack.kernels import get_backend\n"
            "get_backend()\n"
            "print(' '.join(sorted(sys.modules)))")
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, timeout=60).stdout.split()
    assert "gkptrack.cli" in loaded
    assert "gkptrack.kernels.pure" not in loaded
    # loaded by their commands alone: they pull in fractions, decimal and csv
    assert "gkptrack.svgplot" not in loaded and "gkptrack.resources" not in loaded
    # xml.sax.saxutils would load urllib.request at every start
    assert "urllib.request" not in loaded


@pytest.mark.parametrize(
    "params,trials",
    [
        (ProtocolConfig("tracking", True, 2, 3, 0.45, 0.15, "q"), 120),
        (ProtocolConfig("conventional", True, 1, 3, 0.55), 400),
        (ProtocolConfig("tracking", True, 1, 2, 0.5, 0.08, "p"), 600),
    ],
)
def test_every_trial_replayed(monkeypatch, params, trials):
    """With an infinite tolerance every analog trial goes through the scalar replay."""
    monkeypatch.setattr(pure, "TIE_TOLERANCE", float("inf"))
    reruns = []
    run_trial = pure.run_trial

    def counted_trial(*args):
        reruns.append(args)
        return run_trial(*args)

    monkeypatch.setattr(pure, "run_trial", counted_trial)
    assert_stream_exact(params, trials, 8)
    assert len(reruns) == trials


TIE_HEAVY = [
    (ProtocolConfig("conventional", False, 2, 2, 0.55), 1500),
    (ProtocolConfig("tracking", False, 1, 2, 0.5, 0.1, "p"), 1500),
]


@pytest.mark.parametrize("params,trials", TIE_HEAVY)
def test_tie_heavy_digital(params, trials):
    """Digital decodes tie exactly and often: each tie draws one coin, in trial order."""
    failures, coins = assert_stream_exact(params, trials, 9)
    assert failures > 0
    assert coins > 100


CHUNK_CONFIGS = TIE_HEAVY + [
    (ProtocolConfig("tracking", False, 3, 2, 0.47, 0.1, "q"), 30),
    (ProtocolConfig("conventional", True, 2, 6, 0.5), 100),
    # tie coins across the five cycles of each trial
    (ProtocolConfig("conventional", False, 1, 5, 0.55), 600),
    # four noisy-ancilla corrections a trial, in q and in p
    (ProtocolConfig("tracking", True, 1, 5, 0.45, 0.12, "q"), 100),
    (ProtocolConfig("tracking", True, 1, 5, 0.45, 0.12, "p"), 100),
]


# analog and digital chunk normals; 4,096 also split CHUNK_CONFIGS' analog
# blocks (72 and 52 normals a trial) into two chunks each and its digital
# ones into 9, 6, 2 and 3
@pytest.mark.parametrize("chunk_draws", [
    pytest.param((size, size), id=str(size)) for size in (1, 7, 4096)
] + [pytest.param((pure.CHUNK_DRAWS, pure.DIGITAL_CHUNK_DRAWS), id=str(pure.CHUNK_DRAWS))])
@pytest.mark.parametrize("params,trials", CHUNK_CONFIGS)
def test_chunk_size_invariant(monkeypatch, chunk_draws, params, trials):
    """Counts and both generators' final states do not depend on the chunk size."""
    monkeypatch.setattr(pure, "CHUNK_DRAWS", chunk_draws[0])
    monkeypatch.setattr(pure, "DIGITAL_CHUNK_DRAWS", chunk_draws[1])
    assert_stream_exact(params, trials, 11)


def test_digital_block_in_equal_chunks(monkeypatch):
    """A block runs in as few equal chunks as fit its normals, digital and analog alike."""
    sizes = []
    original = pure._run_chunk

    def spy(params, z, coins, decoder):
        sizes.append(len(z))
        return original(params, z, coins, decoder)

    monkeypatch.setattr(pure, "_run_chunk", spy)
    # 36 normals a trial: 3,640 trials fit the digital chunk, 227 the analog one
    pure.run_block(ProtocolConfig("conventional", False, 2, 3, 0.5), make_gen(1), 8192)
    assert sizes == [2731, 2731, 2730]
    sizes.clear()
    pure.run_block(ProtocolConfig("conventional", True, 2, 3, 0.5), make_gen(1), 500)
    assert sizes == [167, 167, 166]


def test_digital_decoder_interns_exact_tables():
    """A C4 table depends on its bits only: 16 patterns give the 5 distinct tables."""
    decoder = pure.DigitalDecoder(ProtocolConfig("conventional", False, 2, 2, 0.5))
    assert len(decoder._tables[0]) == 5
    # L2 is folded whole: every key of its 5**3 triples has a number
    assert decoder._by_key[0].shape == (125,)
    assert len(decoder._first_bits) == len(decoder._tables[1])
    # one column of leaf bits per decode
    bits = np.array([[0, 0, 0, 0] * 3, [0, 0, 0, 1] * 3, [1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]]).T
    first, tie = decoder.decide(bits)
    # all-odd sub-blocks are uniform, so the top table ties exactly
    assert first.tolist()[0] is False and tie.tolist() == [False, True, False]


@pytest.fixture
def empty_slot(monkeypatch):
    """An empty digital-decoder slot, so a test that counts folds or builds sees its own decoder's; restored after."""
    monkeypatch.setattr(pure, "_decoder", None)


def _track_builds(monkeypatch):
    """Weak references to every :class:`~gkptrack.kernels.pure.DigitalDecoder` made from here on, in build order."""
    built = []
    init = pure.DigitalDecoder.__init__

    def tracked_init(self, params):
        init(self, params)
        built.append(weakref.ref(self))

    monkeypatch.setattr(pure.DigitalDecoder, "__init__", tracked_init)
    return built


def _count_folds(monkeypatch):
    """The sub-table count of each batch folded by ``codes.c6_level_up_rows``."""
    folded = []
    rows = codes.c6_level_up_rows

    def counted_rows(tables, i0, i1, i2):
        folded.append(len(tables))
        return rows(tables, i0, i1, i2)

    monkeypatch.setattr(codes, "c6_level_up_rows", counted_rows)
    return folded


def test_unkeyed_fold_matches(monkeypatch, empty_slot):
    """A level too big to fold whole, over a level folded whole, gives the same decisions."""
    params, trials = CHUNK_CONFIGS[2]
    folded = _count_folds(monkeypatch)
    # the 5**3 L2 triples fit, the L3 triples do not: each chunk folds its L3
    monkeypatch.setattr(pure, "_DENSE_KEYS", 5 ** 3)
    assert_stream_exact(params, trials, 11)
    k = folded[1]
    assert folded[0] == 5 and k > 5 and set(folded[1:]) == {k}


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "keyed"])
def test_dense_fold_matches_keyed(monkeypatch, empty_slot, dense):
    """Levels folded whole and read by key decide as levels folded per chunk."""
    params = CHUNK_CONFIGS[2][0]
    folded = _count_folds(monkeypatch)
    if not dense:
        monkeypatch.setattr(pure, "_DENSE_KEYS", 0)
    # 144 normals a trial: chunks of 8 trials, each of which may add tables
    monkeypatch.setattr(pure, "DIGITAL_CHUNK_DRAWS", 8 * 144)
    assert_stream_exact(params, 120, 11)
    if dense:
        # L2 and L3 folded once each, when the decoder is made
        assert len(folded) == 2 and folded[0] == 5 and folded[1] > 5
    else:
        # C4 has 5 tables; each chunk folds its own L2 tables
        assert folded[0] == 5 and len(set(folded) - {5}) > 1


@pytest.mark.parametrize("protocol", ["conventional", "tracking"])
@pytest.mark.parametrize("sigma", [0.02, 0.3, 0.5, 1.0, 3.0])
def test_c4_tables_by_match_counts(protocol, sigma):
    """Each of the 16 C4 patterns gets the scalar decoder's table, though only 5 are computed."""
    params = ProtocolConfig(protocol, False, 1, 2, sigma)
    pair = protocols.digital_pair(params)
    if sigma == 0.02:
        assert pair.l_flip == -np.inf
    decoder = pure.DigitalDecoder(params)
    for i, bits in enumerate(itertools.product((0, 1), repeat=4)):
        expected = codes.block_pair_likelihoods(codes.c4_table(), bits, [pair] * 4)
        assert tuple(decoder._tables[0][decoder._c4[i]].tolist()) == expected
    assert len(set(pure._C4_FIRST)) == 5


def test_floor_on_table_peaks(monkeypatch):
    """A decode whose table peaks multiply to less than 1e-250 is not sure, however clear its gap."""
    # two decodes, one column each; odd parity: every word disagrees somewhere
    bits = np.array([[0, 0, 0, 1]] * 2).T
    flip = np.array([[1e-300, 2e-300, 3e-300, 4e-300], [1e-200, 2e-200, 3e-200, 4e-200]]).T
    # classes 00, 01, 10, 11 get 4, 2, 3 and 1 times the row's scale: decision 0
    first, unsure = pure._decide(bits, np.zeros(2), 1.0, flip)
    assert first.tolist() == [False, False]
    assert unsure.tolist() == [True, False]
    # L2 decodes whose every level's smallest peak lies above the floor, but
    # not their product: the floor holds across the stages
    rng = np.random.default_rng(26)
    bits = rng.integers(0, 2, (12, 20_000))
    flip = 10.0 ** rng.uniform(-300, -100, bits.shape)
    # underflowed products and peaks are the point here, as in run_block
    with np.errstate(divide="ignore"):
        c4 = pure._c4_tables(bits, 1.0, flip)
        c4_least = np.log(c4.max(axis=0)).min(axis=0)
        l2_least = np.log(pure._fold(c4 / c4.max(axis=0)).max(axis=0)[0])
        below = (np.minimum(c4_least, l2_least) > pure._LOG_FLOOR) & (c4_least + l2_least < pure._LOG_FLOOR)
        decodes = (bits[:, below], np.zeros(np.count_nonzero(below)), 1.0, flip[:, below])
        assert len(decodes[1]) > 2_000
        assert pure._decide(*decodes)[1].all()
        # without the floor, each of them is sure
        monkeypatch.setattr(pure, "_LOG_FLOOR", -np.inf)
        assert not pure._decide(*decodes)[1].any()


@pytest.mark.parametrize("scalar_match", [False, True], ids=["match", "match-1"])
def test_c4_stage_matches_scalar_tables(scalar_match):
    """The log of each C4 table, plus its leaves' scales, is the scalar block table."""
    rng = np.random.default_rng(40)
    bits = rng.integers(0, 2, (12, 300))
    match = 1.0 if scalar_match else rng.uniform(0.5, 1.0, bits.shape)
    flip = 10.0 ** rng.uniform(-30, 0, bits.shape)
    scale = rng.uniform(-20, -1, bits.shape)
    tables = np.log(pure._c4_tables(bits, match, flip))
    assert tables.shape == (4, 3, 300)
    for row in range(bits.shape[1]):
        for block in range(3):
            leaves = slice(4 * block, 4 * block + 4)
            l_match = np.log(np.broadcast_to(match, bits.shape)[leaves, row]) + scale[leaves, row]
            l_flip = np.log(flip[leaves, row]) + scale[leaves, row]
            expected = codes.block_pair_likelihoods(codes.c4_table(), bits[leaves, row].tolist(),
                                                    [LikelihoodPair(*pair) for pair in zip(l_match, l_flip)])
            np.testing.assert_allclose(tables[:, block, row] + scale[leaves, row].sum(), expected, rtol=1e-12)


def test_fold_stage_matches_scalar_fold():
    """A fold of peak-divided tables, with the peaks' logs added back, is the scalar fold."""
    rng = np.random.default_rng(41)
    log_tables = rng.uniform(-80, -5, (4, 3, 300))
    tables = np.exp(log_tables)
    scale, least = pure._divide_by_peaks(tables, np.zeros(300), 0.0)
    assert (tables.max(axis=0) == 1.0).all()
    folded = np.log(pure._fold(tables))
    assert folded.shape == (4, 1, 300)
    for row in range(300):
        expected = codes.c6_level_up([tuple(log_tables[:, block, row].tolist()) for block in range(3)])
        np.testing.assert_allclose(folded[:, 0, row] + scale[row], expected, rtol=1e-12)


def test_first_pair_stage_agrees_with_scalar_where_sure():
    """Where the first-pair stage is sure, it decides as ``codes.first_bit``; ties and floored decodes are not sure."""
    rng = np.random.default_rng(42)
    rows = np.arange(2_000)
    log_tables = rng.uniform(-40, -5, (4, 1, len(rows)))
    # exact ties; and first-bit-1 sums that underflow, a sure 0
    log_tables[2:, :, rows % 4 == 1] = log_tables[:2, :, rows % 4 == 1]
    log_tables[2:, :, rows % 4 == 2] = -800.0
    log_scale = rng.uniform(-50, 0, len(rows))
    tables = np.exp(log_tables)
    scale, least = pure._divide_by_peaks(tables, log_scale, 0.0)
    with np.errstate(divide="ignore"):
        first, unsure = pure._first_pair(tables, scale, np.where(rows % 4 == 3, pure._LOG_FLOOR - 1.0, least))
    assert unsure[rows % 4 == 1].all() and unsure[rows % 4 == 3].all()
    assert not unsure[rows % 2 == 0].any()
    for row in np.flatnonzero(~unsure):
        assert first[row] == codes.first_bit((log_tables[:, 0, row] + log_scale[row]).tolist())


SHARED_DECODER_CONFIGS = [
    ProtocolConfig("conventional", False, 2, 3, 0.55),
    ProtocolConfig("tracking", False, 3, 2, 0.47, 0.1, "q"),
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


def fresh_block(params, generator, trials):
    """``pure.run_block`` on a decoder made for this block alone; the slot is left as it was."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pure, "_decoder", None)
        return pure.run_block(params, generator, trials)


@pytest.mark.parametrize("params", SHARED_DECODER_CONFIGS)
def test_shared_decoder_matches_fresh(monkeypatch, empty_slot, params):
    """The slot's decoder, shared by the blocks of a point, decides as a fresh one per block."""
    built = _track_builds(monkeypatch)
    shared = run_blocks(get_backend().run_block, params, 4, 700)
    (decoder,) = built
    assert pure.digital_decoder(params) is decoder()
    assert shared == run_blocks(fresh_block, params, 4, 700)
    assert len(built) == 5


def test_shared_decoder_under_threads(monkeypatch):
    """Threads racing over L4 chunks build one decoder, and change no count and no generator state."""
    params = ProtocolConfig("tracking", False, 4, 2, 0.47, 0.1, "q")
    made = {}
    coin_generator = pure.coin_generator

    def kept_coin_generator(generator):
        made[generator] = coin_generator(generator)
        return made[generator]

    def block(run_block, b):
        gen = make_gen(70 + b)
        counts = run_block(params, gen, 100)
        return counts, plain(gen.bit_generator.state), plain(made[gen].bit_generator.state)

    built = _track_builds(monkeypatch)
    interval = sys.getswitchinterval()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pure, "coin_generator", kept_coin_generator)
        expected = [block(fresh_block, b) for b in range(6)]
        sys.setswitchinterval(1e-6)
        try:
            # each round races six threads over the L4 chunks from an empty slot
            for _ in range(4):
                patch.setattr(pure, "_decoder", None)
                built.clear()
                with ThreadPoolExecutor(max_workers=6) as pool:
                    futures = [pool.submit(block, pure.run_block, b) for b in range(6)]
                    assert [future.result(timeout=120) for future in futures] == expected
                (decoder,) = built
                decoder = decoder()
                assert pure.digital_decoder(params) is decoder
                # L2 and L3 are folded whole, L4 chunk by chunk
                assert len(decoder._tables) == 3 and decoder._first_bits is None
        finally:
            sys.setswitchinterval(interval)


def test_decoder_never_changes():
    """L4 blocks leave every array of the slot's decoder as it was made."""
    params = ProtocolConfig("conventional", False, 4, 1, 0.55)
    decoder = pure.digital_decoder(params)

    def arrays():
        return copy.deepcopy((decoder._c4, decoder._tables, decoder._by_key, decoder._first_bits))

    made = arrays()
    for b in range(4):
        pure.run_block(params, make_gen(80 + b), 300)
    assert pure.digital_decoder(params) is decoder
    np.testing.assert_equal(arrays(), made)


def test_one_decoder_alive_after_each_point(monkeypatch, empty_slot):
    """A digital sweep builds one decoder a point, on two workers, and keeps none of an earlier point's."""
    built = _track_builds(monkeypatch)
    cfg = harness.SweepConfig(protocol="tracking", analog=False, cycles=2, sigma_total_grid=(0.8, 0.9, 1.0),
                              levels=(2,), trials_per_point=harness.BLOCK_SIZE + 300, master_seed=3)
    alive = []

    def progress(est):
        gc.collect()
        alive.append(sum(ref() is not None for ref in built))

    # one backend for the whole sweep, as ``gkptrack run`` passes
    harness.sweep(cfg, workers=2, backend=get_backend(), progress=progress)
    assert len(built) == 3 and alive == [1, 1, 1]


class FixedNormals:
    """A generator whose first normals are given values and the rest zeros; counts scalar draws.

    As a numpy ``Generator`` does, it fills a contiguous ``out`` array in place.
    """

    def __init__(self, values):
        self.values = list(values)
        self.bit_generator = make_gen(0).bit_generator
        self.draws = 0

    def standard_normal(self, out=None):
        if out is None:
            self.draws += 1
            return self.values.pop(0) if self.values else 0.0
        flat = out.reshape(-1)
        flat[:] = 0.0
        head = self.values[: flat.size]
        flat[: len(head)] = head
        del self.values[: flat.size]
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


class FailingNormals(FixedNormals):
    """Zero normals whose second chunk's fill raises."""

    def standard_normal(self, out=None):
        if self.draws:
            raise RuntimeError("normals unavailable")
        self.draws += 1
        return super().standard_normal(out)


def test_pipelined_blocks(monkeypatch):
    """Multi-chunk blocks draw their normals on a helper thread that lives only while the block runs.

    The helper is alive while the first of three or more chunks decodes, and
    gone when the block returns or raises; counts and both generators' final
    states are the scalar loop's, and an error the scalar loop raises in the
    second chunk, or one the helper meets, is raised.
    """
    monkeypatch.setattr(pure, "DIGITAL_CHUNK_DRAWS", 4096)
    threads = []
    original = pure._run_chunk

    def spy(params, z, coins, decoder):
        threads.append(threading.active_count())
        return original(params, z, coins, decoder)

    monkeypatch.setattr(pure, "_run_chunk", spy)
    before = threading.active_count()
    # 24 normals a trial: 341 trials a chunk, 3 chunks
    analog = ProtocolConfig("tracking", True, 2, 2, 0.5)
    assert_stream_exact(analog, 1000, 21)
    assert len(threads) == 3 and threads[0] == before + 1
    assert threading.active_count() == before
    # 36 normals a trial: 113 trials a chunk, 3 chunks
    threads.clear()
    digital = ProtocolConfig("conventional", False, 2, 3, 0.55)
    assert_stream_exact(digital, 300, 22)
    assert len(threads) == 3 and threads[0] == before + 1
    assert threading.active_count() == before
    # 8 normals a trial: 1,024 trials a chunk, 4 chunks, so the helper waits
    # for a buffer when the block stops; the record outside the bin range
    # lies in the second chunk's seventh trial
    params = ProtocolConfig("tracking", True, 1, 2, 1.0)
    values = [0.0] * (8 * (1024 + 6)) + [OUTSIDE_BIN]
    with pytest.raises(ValueError, match="outside the bin range") as scalar:
        scalar_loop(params, FixedNormals(values), coins_of(make_gen(0)), 4096)
    threads.clear()
    with pytest.raises(ValueError) as batched_error:
        pure.run_block(params, FixedNormals(values), 4096)
    assert str(batched_error.value) == str(scalar.value)
    assert threads == [before + 1] * 2
    assert threading.active_count() == before
    with pytest.raises(RuntimeError, match="normals unavailable"):
        pure.run_block(params, FailingNormals([]), 4096)
    assert threading.active_count() == before


def test_pipelined_blocks_under_threads(monkeypatch):
    """Six threads running multi-chunk blocks at once, each with its helper, change no count and no generator state.

    Every trial of the third config replays, so its decode replays re-form
    records in their thread's buffers mid-block while other threads decode.
    """
    monkeypatch.setattr(pure, "DIGITAL_CHUNK_DRAWS", 4096)
    # the first two run 3 chunks a block (test_pipelined_blocks); the third
    # draws 16 normals a trial: 512 trials a chunk, 2 chunks
    cases = [
        (ProtocolConfig("tracking", True, 2, 2, 0.5), 1000),
        (ProtocolConfig("conventional", False, 2, 3, 0.55), 300),
        (ProtocolConfig("tracking", True, 1, 2, 50.0, 20.0), 1000),
    ]
    made = {}
    coin_generator = pure.coin_generator

    def kept_coin_generator(generator):
        made[generator] = coin_generator(generator)
        return made[generator]

    def block(b):
        params, trials = cases[b % 3]
        gen = make_gen(90 + b)
        counts = pure.run_block(params, gen, trials)
        return counts, plain(gen.bit_generator.state), plain(made[gen].bit_generator.state)

    monkeypatch.setattr(pure, "coin_generator", kept_coin_generator)
    expected = [block(b) for b in range(6)]
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(block, b) for b in range(6)]
                assert [future.result(timeout=120) for future in futures] == expected
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before


@pytest.mark.parametrize("protocol", ["conventional", "tracking"])
def test_huge_sigma_raises_scalar_error(protocol):
    """Sigma 1e200, at which binning would leave records far outside the bin range, is refused; the bound itself runs."""
    with pytest.raises(ValueError, match=re.escape(f"sigma_cycle must be <= {MAX_SIGMA}, got 1e+200")):
        ProtocolConfig(protocol, True, 1, 2, 1e200)
    assert_stream_exact(ProtocolConfig(protocol, True, 1, 2, MAX_SIGMA), 50, 3)


class DrawCountingGenerator:
    """A block's generator that counts the normals drawn from it and records the threads that draw them."""

    def __init__(self, generator):
        self.generator = generator
        self.normals = 0
        self.threads = set()

    def standard_normal(self, out):
        self.normals += out.size
        self.threads.add(threading.current_thread())
        return self.generator.standard_normal(out=out)

    def __getattr__(self, name):
        return getattr(self.generator, name)


def counted_blocks(monkeypatch, replace=None):
    """Every generator a sweep makes, by (point, block), made through ``harness.block_generator``.

    ``replace`` maps a (point, block) to the generator to hand out in place of
    the block's own.
    """
    made = {}
    block_generator = harness.block_generator

    def counted(master_seed, point, block):
        own = (replace or {}).get((point, block)) or block_generator(master_seed, point, block)
        made[point, block] = DrawCountingGenerator(own)
        return made[point, block]

    monkeypatch.setattr(harness, "block_generator", counted)
    return made


def normals_threads():
    return [thread for thread in threading.enumerate() if thread.name == "gkptrack-normals"]


# tracking digital, 6 blocks a point: L1 points stop at block 0, (L3, 0.8) at
# block 2 and (L3, 0.85) at block 0
STOPPING = harness.SweepConfig("tracking", False, 2, (0.8, 0.85), (1, 3), 6 * harness.BLOCK_SIZE, 8,
                               max_failures_stop=500)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_early_stop_draws_no_discarded_block(monkeypatch, workers):
    """With one worker a sweep makes and draws only the blocks it decodes; with several, at most workers - 1 more a point."""
    made = counted_blocks(monkeypatch)
    results = harness.sweep(STOPPING, workers=workers)
    assert [est.trials // harness.BLOCK_SIZE for est in results] == [1, 1, 3, 1]
    decoded = {(point, block) for point, est in enumerate(results)
               for block in range(est.trials // harness.BLOCK_SIZE)}
    for point, block in decoded:
        draws = 2 * codes.block_size(STOPPING.point(point)[0])
        assert made[point, block].normals == harness.BLOCK_SIZE * draws
    extra = made.keys() - decoded
    if workers == 1:
        assert not extra
    for point in range(len(results)):
        assert len([key for key in extra if key[0] == point]) <= workers - 1


# tracking analog L1: 8 normals a trial, 8 chunks a block; 2 blocks a point
HELPED = harness.SweepConfig("tracking", True, 2, (1.9, 2.0, 2.1), (1,), 2 * harness.BLOCK_SIZE, 12)


def test_one_helper_per_sweep(monkeypatch):
    """A one-worker sweep starts one helper, which draws every block's normals and has ended when the sweep returns."""
    starts = []
    start = threading.Thread.start

    def counted_start(thread):
        starts.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    made = counted_blocks(monkeypatch)
    before = threading.active_count()
    expected = [harness.estimate_point(HELPED, point) for point in range(3)]
    # each point alone starts its own helper
    assert starts == ["gkptrack-normals"] * 3
    made.clear()
    starts.clear()
    assert harness.sweep(HELPED) == expected
    assert starts == ["gkptrack-normals"]
    (helper,) = set.union(*(generator.threads for generator in made.values()))
    assert len(made) == 6 and helper.name == "gkptrack-normals" and not helper.is_alive()
    assert threading.active_count() == before


class InterruptedBackend:
    """The kernel, but a ``KeyboardInterrupt`` in place of block ``at``."""

    name = "pure"

    def __init__(self, at):
        self.at = at
        self.calls = 0

    def run_block(self, params, generator, trials):
        self.calls += 1
        if self.calls == self.at + 1:
            raise KeyboardInterrupt
        return get_backend().run_block(params, generator, trials)


def test_helper_ends_when_sweep_raises(monkeypatch):
    """The sweep's helper has ended when a block raises, as an interrupt in the backend or as the kernel's error."""
    before = threading.active_count()
    backend = InterruptedBackend(3)
    with pytest.raises(KeyboardInterrupt):
        harness.sweep(HELPED, backend=backend)
    assert backend.calls == 4
    assert threading.active_count() == before and not normals_threads()
    # block 3, point 1's second, holds a record outside the bin range
    made = counted_blocks(monkeypatch, {(1, 1): FixedNormals([OUTSIDE_BIN])})
    with pytest.raises(ValueError, match="outside the bin range"):
        harness.sweep(HELPED)
    # block 4 was queued, certain to run, while block 3 decoded
    assert sorted(made) == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)]
    (helper,) = set.union(*(generator.threads for generator in made.values()))
    assert not helper.is_alive()
    assert threading.active_count() == before and not normals_threads()


def test_block_out_of_pipeline_order_raises():
    """A block other than the one a pipeline queued next is refused, not decoded on that block's normals."""
    params = ProtocolConfig("tracking", True, 1, 2, 0.5)
    expected = pure.run_block(params, make_gen(2), 100)
    with pure.pipeline(lambda: (params, make_gen(1), 100)):
        assert pure.run_block(params, make_gen(2), 100) == expected
        with pytest.raises(RuntimeError, match="out of the order"):
            pure.run_block(params, make_gen(3), 100)
    assert not normals_threads()
