"""Reference code of the tests: the scalar trial loop, exact digital failure rates, codewords, an exhaustive ML decoder.

:func:`run_trial` is the scalar conventional and tracking trial, one normal
at a time, whose loop the kernel's stream tests compare with: counts and the
final states of the noise and coin generators.  It simulates with its own
:func:`sample_channel`, :func:`bin_measurement` and :func:`sqec_step`, and
decodes with the package's likelihoods and :func:`gkptrack.codes.decode`.
:func:`exact_digital_p_fail` is a digital config's failure probability
with no sampling noise, which the kernel's counts must agree with.
:func:`oracle_ml_decode` is the brute-force decoder that
:func:`gkptrack.codes.decode` must agree with; the codeword helpers classify
and draw codewords of the concatenated C4/C6 code.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from gkptrack.codes import (
    PAIR_VALUE,
    PairLikelihoods,
    _decide_first_bit,
    _word_sum,
    block_size,
    c4_table,
    c6_level_up_rows,
    c6_table,
    decode,
    logsumexp_sorted,
)
from gkptrack.gkp import SQRT_PI, LikelihoodPair
from gkptrack.kernels import ProtocolConfig
from gkptrack.kernels.pure import _TIE, DigitalDecoder, _distinct, _first_bits
from gkptrack.protocols import _analog_pair, digital_pair, joint_likelihood

_C4 = c4_table()
_C6 = c6_table()
_WORD_CLASS = {
    table.name: {w: cls for cls, words in table.codewords.items() for w in words}
    for table in (_C4, _C6)
}


def concat_word_class(level: int, word: tuple[int, ...]) -> tuple[int, int] | None:
    """Logical pair value of a measured word, or None if it is no codeword."""
    if level == 1:
        return _WORD_CLASS["C4"].get(tuple(word))
    sub = block_size(level - 1)
    pairs = []
    for j in range(3):
        cls = concat_word_class(level - 1, tuple(word[j * sub : (j + 1) * sub]))
        if cls is None:
            return None
        pairs.append(cls)
    # reassemble the C6 string: positions 1..3 carry first bits, 4..6 second bits
    s = (pairs[0][0], pairs[1][0], pairs[2][0], pairs[0][1], pairs[1][1], pairs[2][1])
    return _WORD_CLASS["C6"].get(s)


def concat_word_first_bit(level: int, word: tuple[int, ...]) -> int:
    cls = concat_word_class(level, word)
    if cls is None:
        raise ValueError("word is not a codeword of the concatenated code")
    return cls[0]


def random_codeword(level: int, rng, cls: tuple[int, int] | None = None) -> tuple[int, ...]:
    """Uniformly random codeword of a level, optionally within one class."""
    if cls is None:
        cls = PAIR_VALUE[int(rng.integers(0, 4))]
    if level == 1:
        words = _C4.codewords[cls]
        return words[int(rng.integers(0, len(words)))]
    s_options = _C6.codewords[cls]
    s = s_options[int(rng.integers(0, len(s_options)))]
    parts = [random_codeword(level - 1, rng, cls=(s[j], s[j + 3])) for j in range(3)]
    return tuple(b for part in parts for b in part)


def oracle_ml_decode(
    level: int,
    leaf_bits: Sequence[int],
    leaf_lp: Sequence[LikelihoodPair],
    rng,
) -> int:
    """Exhaustive maximum-likelihood reference decoder (levels 1 and 2 only).

    Enumerates every flip pattern over the block, keeps the hypotheses whose
    implied transmitted word is a valid codeword, accumulates exact class
    likelihoods, and decides the first-pair bit like
    :func:`gkptrack.codes.decode` (same coin rule on ties).
    """
    if level not in (1, 2):
        raise ValueError(f"oracle supports levels 1 and 2, got {level}")
    n = block_size(level)
    if len(leaf_bits) != n or len(leaf_lp) != n:
        raise ValueError(f"level {level} expects {n} leaves, got {len(leaf_bits)}/{len(leaf_lp)}")
    lm = [lp.l_match for lp in leaf_lp]
    lf = [lp.l_flip for lp in leaf_lp]
    terms: dict[tuple[int, int], list[float]] = {cls: [] for cls in sorted(_C4.codewords)}
    for flips in range(1 << n):
        word = tuple(leaf_bits[i] ^ ((flips >> i) & 1) for i in range(n))
        cls = concat_word_class(level, word)
        if cls is None:
            continue
        terms[cls].append(_word_sum(word, leaf_bits, lm, lf))
    table = PairLikelihoods(*(logsumexp_sorted(terms[PAIR_VALUE[ci]]) for ci in range(4)))
    return _decide_first_bit(table, rng)


# --- exact digital failure rates ---


def odd_bin_mass(sigma: float) -> float:
    """Probability that a N(0, sigma^2) value bins to an odd lattice index: a digital leaf's flip.

    Bins ``k`` and ``-k`` have equal mass, so this is twice the sum over odd
    ``k >= 1``; unlike ``1 - gkp.p_corr``, the bins two or more away from
    the centre count by their parity.
    """
    u = SQRT_PI / (sigma * math.sqrt(2.0))
    terms = []
    for k in itertools.count(1, 2):
        inner = math.erfc((k - 0.5) * u)
        if inner == 0.0:
            return math.fsum(terms)
        terms.append(inner - math.erfc((k + 0.5) * u))


def odd_parity(p: float, count: int) -> float:
    """Probability of an odd number of ``count`` independent events of probability ``p`` each."""
    return (1.0 - (1.0 - 2.0 * p) ** count) / 2.0


def exact_digital_p_fail(cfg: ProtocolConfig) -> float:
    """Failure probability of a digital trial of ``cfg``, perfect ancillas only, with no sampling noise.

    Every leaf of a digital decode carries one likelihood pair and flips on
    its own: with the odd-bin mass ``P`` of N(0, sigma_cycle^2), or for a
    tracking leaf, the parity of ``cycles`` records, with ``odd_parity(P,
    cycles)``.  So a decode's table is one of few, and their distribution
    folds up level by level exactly: the 16 C4 bit patterns are weighted
    onto the kernel's :class:`~gkptrack.kernels.pure.DigitalDecoder` numbers,
    every triple of each level is folded by
    :func:`gkptrack.codes.c6_level_up_rows` and equal tables are merged.  A
    top table whose first bit is 1 fails a decode, a tie half the time (its
    coin).  A conventional trial fails on an odd count of failed cycle
    decodes.
    """
    if cfg.analog or cfg.sigma_ancilla > 0.0:
        raise ValueError("exact failure rates cover digital configs with perfect ancillas only")
    flip = odd_bin_mass(cfg.sigma_cycle)
    if cfg.protocol == "tracking":
        flip = odd_parity(flip, cfg.cycles)
    decoder = DigitalDecoder(cfg)
    flips = np.array([bin(pattern).count("1") for pattern in range(16)])
    weights = np.bincount(decoder._c4, flip ** flips * (1.0 - flip) ** (4 - flips))
    tables = decoder._tables[0]
    for _ in range(cfg.level - 1):
        k = len(tables)
        keys = np.arange(k ** 3)
        triples = keys // (k * k), keys // k % k, keys % k
        tables, number = _distinct(c6_level_up_rows(tables, *triples))
        weights = np.bincount(number, weights[triples[0]] * weights[triples[1]] * weights[triples[2]])
    first = _first_bits(tables)
    p_decode = weights[first == 1].sum() + 0.5 * weights[first == _TIE].sum()
    return float(p_decode if cfg.protocol == "tracking" else odd_parity(p_decode, cfg.cycles))


# --- the scalar trial loop ---
# The package simulates and bins trials only in its kernel
# (gkptrack.kernels.pure); this loop is the scalar reference of it.  Normals
# come one at a time from ``rng`` in the draw order of the stream contract
# (gkptrack.kernels), tie coins from ``coins``.  The
# transmitted codeword is fixed to all-zeros; linearity of the code makes
# failure statistics identical for any codeword.


def lattice_index(x: float) -> int:
    """Index of the sqrt(pi) lattice point nearest to ``x``, half ties down."""
    return math.ceil(x / SQRT_PI - 0.5)


def sample_channel(sigma: float, rng) -> float:
    """Draw one Gaussian displacement with standard deviation ``sigma``.

    ``sigma = 0``, a perfect ancilla's, returns exactly 0.0 without consuming
    a draw, a rule of the documented draw order (:mod:`gkptrack.kernels`).
    ``sigma`` is not checked here: :class:`gkptrack.kernels.ProtocolConfig`
    refuses a negative or non-finite one, and a zero channel sigma.
    """
    if sigma == 0.0:
        return 0.0
    return sigma * rng.standard_normal()


def bin_measurement(x: float) -> tuple[int, float]:
    """Bin a raw quadrature value: ``(bit, deviation)``.

    The bit is the parity of the nearest lattice multiple of sqrt(pi),
    :func:`lattice_index`; the deviation is the signed residue
    ``x - s * sqrt(pi)`` in ``(-sqrt(pi)/2, +sqrt(pi)/2]``.  With a reference
    bit of 0, the bit of a displacement is its hidden flip.
    """
    s = lattice_index(x)
    return s & 1, x - s * SQRT_PI


# Single-qubit-level error correction on one GKP qubit, one quadrature.
#
# One correction cycle measures the qubit's deviation in each quadrature
# through a fresh ancilla, then displaces the qubit back toward the lattice:
# first a |0>-type ancilla, the CNOT target of the data qubit, reads the p
# quadrature; then a |+>-type ancilla, the CNOT control of the data qubit, reads
# q.  Displacements cannot undo a bit flip: if the accumulated deviation had
# already crossed a half-bin boundary, shifting back lands on the wrong lattice
# point and the hidden flip parity toggles.
#
# State convention: a qubit's position is represented as
# ``flip * sqrt(pi) + deviation`` modulo the 2*sqrt(pi) stabilizer shift, so
# even lattice shifts are silently dropped and odd shifts toggle the flip bit.
# Measured deviations are stored signed; decoders only consume magnitudes.
#
# Deviation propagation through a CNOT: the target's q deviation gains the
# control's q deviation, the control's p deviation loses the target's p
# deviation, and flip parities are untouched.  With ``d`` the data qubit's
# accumulated deviation in the simulated quadrature, ``a1`` the first (|0>)
# ancilla's and ``a2`` the second (|+>) ancilla's deviation in that quadrature:
#
# * q: the first CNOT adds ``a1`` to the data q deviation; the second ancilla
#   reads ``a2 + (d + a1)``, and after the shift the data q deviation is
#   ``-a2``;
# * p: the first ancilla reads ``a1 - d``, and after the shift the data p
#   deviation is ``a1``; the second CNOT then subtracts ``a2`` from it, leaving
#   ``a1 - a2``.
#
# So after one cycle Var_q = sigma_a^2 and Var_p = 2 sigma_a^2 for ancilla
# noise sigma_a.  Draw order (the kernel, gkptrack.kernels.pure, replicates
# it): ``a1`` then ``a2``; a zero ancilla sigma consumes no draw.


def sqec_step(dev: float, quadrature: str, sigma_ancilla: float, rng) -> tuple[float, float, int]:
    """One correction cycle of one quadrature (``"q"`` or ``"p"``).

    Returns ``(residual, record, flip)``: the data qubit's deviation after
    the correction, the measured deviation binned into
    ``(-sqrt(pi)/2, +sqrt(pi)/2]``, and 1 iff the correction toggled the
    hidden flip parity.
    """
    a1 = sample_channel(sigma_ancilla, rng)
    a2 = sample_channel(sigma_ancilla, rng)
    if quadrature == "q":
        measured = a2 + (dev + a1)
        residual = -a2
    else:
        measured = a1 - dev
        residual = a1 - a2
    flip, record = bin_measurement(measured)
    return residual, record, flip


def run_trial(cfg: ProtocolConfig, rng, coins) -> int:
    """One trial's failure indicator, 1 if it failed."""
    return (_conventional if cfg.protocol == "conventional" else _tracking)(cfg, rng, coins)


def _conventional(cfg: ProtocolConfig, rng, coins) -> int:
    """Failure indicator of one conventional trial, in q: its decoded parity."""
    n = block_size(cfg.level)
    sigma = cfg.sigma_cycle
    digital_lp = None if cfg.analog else digital_pair(cfg)
    decoded = 0
    for _ in range(cfg.cycles):
        bits = []
        lps = []
        for _i in range(n):
            bit, deviation = bin_measurement(sample_channel(sigma, rng))
            bits.append(bit)
            lps.append(LikelihoodPair(*_analog_pair(deviation, sigma)) if cfg.analog else digital_lp)
        bit, _table = decode(cfg.level, bits, lps, coins)
        decoded ^= bit
    return decoded


def _tracking(cfg: ProtocolConfig, rng, coins) -> int:
    """Failure indicator of one tracking trial: n-1 recorded single-qubit corrections + one decode."""
    n = block_size(cfg.level)
    sigma = cfg.sigma_cycle
    dev = [0.0] * n
    flip = [0] * n
    records: list[list[float]] = [[] for _ in range(n)]
    digital_lp = None if cfg.analog else digital_pair(cfg)
    for _cycle in range(cfg.cycles - 1):
        for i in range(n):
            dev[i], record, flipped = sqec_step(dev[i] + sample_channel(sigma, rng), cfg.quadrature,
                                                cfg.sigma_ancilla, rng)
            records[i].append(record)
            flip[i] ^= flipped
    bits = []
    lps = []
    for i in range(n):
        bit, record = bin_measurement(dev[i] + sample_channel(sigma, rng))
        bits.append(flip[i] ^ bit)
        records[i].append(record)
        lps.append(joint_likelihood(records[i], sigma, True) if cfg.analog else digital_lp)
    bit, _table = decode(cfg.level, bits, lps, coins)
    return bit
