"""The kernel: blocks of trials, trial-batched on numpy, stream-exact with the scalar loop.

A block with channel noise (``sigma_cycle > 0``: conventional or tracking,
analog or digital, any quadrature, ancilla noise and level) runs in chunks of
trials, and a chunk always runs all its trials.  It draws the same normals
and tie coins as a loop over the scalar reference
:func:`gkptrack.protocols.run_trial`, and reaches the same decisions, counts
and final generator states.  A noiseless block draws nothing and never
fails, so :func:`run_block` returns at once.  Tie coins come from
:func:`coin_generator`, one per block (stream contract in
:mod:`gkptrack.kernels`).

Each chunk takes all its normals in one ``standard_normal`` call, which
yields the values the scalar loop's one-at-a-time calls would, in the
documented draw order (:mod:`gkptrack.protocols`): per trial and quadrature,
per cycle, per qubit the channel normal followed, in recorded tracking
cycles, by the ancilla normals ``a1`` and ``a2`` when the ancilla sigma is
above zero; q before p for ``quadrature == "both"``.

Layout.  The chunk's ``(trial, draw)`` normals are transposed once, so every
later array is leaf-major: a per-qubit quantity is a contiguous
``(leaf, trial)`` block, a tracking quadrature's records one preallocated
``(cycle, leaf, trial)`` array, and a conventional config decodes
``(leaf, cycle, trial)`` arrays whose rows are its ``(cycle, trial)`` decodes.
Every pass runs over the trial axis; the decode gathers and reduces on the
leading axes only.  Binning and the recorded deviations use the scalar
code's IEEE operations in its order (:func:`_bin`), so the measured bits and
the records are bitwise the scalar values.  No bin feeds back into a
deviation, so a tracking quadrature forms every cycle's measured values
first and bins them in one pass; with perfect ancillas the scalar adds of
``0.0`` are left out, as they change no bin and no ``|record|``.  A qubit's
bit is the parity of its summed lattice indices.

Digital decodes are exact.  Every leaf of a digital decode carries the same
likelihood pair, so a C4 block's table depends only on its four bits and a C6
fold only on its three sub-tables.  :class:`DigitalDecoder` computes each
table with the scalar :func:`gkptrack.codes.block_pair_likelihoods` (16 bit
patterns) and :func:`gkptrack.codes.c6_level_up` (once per distinct triple of
sub-tables), numbers the distinct tables of each level, and decides each top
table once by :func:`gkptrack.codes.first_bit`.  A decode is then a few array
lookups, and it ties exactly where the scalar decoder does.  One decoder
serves every block of a config that the same backend runs.

Analog decodes compute the likelihoods, the parity convolution, the C4
tables, the C6 folds and the first-bit decision over the whole chunk in the
scaled probability domain, with no log-add-exp, which costs some thirty
multiplies in numpy.  A leaf carries scaled match and flip likelihoods: 1 and
``rho = exp(l_flip - l_match)``, which is
``exp((2 sqrt(pi) a - pi) / (2 sigma^2))`` for a binned deviation ``a`` and
lies in ``[0, 1]`` on the bin range, up to rounding.  A decode's log scale is
the sum of its leaves' match log densities, taken from the sum of squares:
``-(sum a^2) / (2 sigma^2) - K log(sigma sqrt(2 pi))`` over its ``K``
records (:func:`_flip_ratios`).  The tracking parity convolution is
``even, odd = even + odd * rho, even * rho + odd``.  C4 classes are sums of
products of the leaf factors' pair products, C6 folds sums of products.  Each
level's tables are divided by their peaks, whose logs join the decode's
scale, so ``l0 = log(t00 + t01) + scale`` and ``l1 = log(t10 + t11) + scale``
are the scalar decoder's log-domain values.

These values may differ from the scalar ``math`` results in the last bits,
some 1e-15 relative to the log-domain magnitudes.  Only the sign of
``l1 - l0`` matters, so a decode is sure when its gap is above
:data:`TIE_TOLERANCE` relative to ``1 + |l0| + |l1|``, six orders of
magnitude above that rounding, or when exactly one of ``t00 + t01`` and
``t10 + t11`` underflowed to zero: the other is at least 1 after the
division by the peak.  Underflow is the one place where the probability
domain loses more than rounding: a product that underflows moves a table
entry by up to 1e-323 divided by the peaks it is divided by afterwards.
While the product of every level's smallest peak stays above 1e-250
(``_LOG_FLOOR``), that moves a top entry by less than some 1e-73 times 12
per level; a decode below the floor is not sure.  A decode that is not
sure, or that holds a record outside the bin range (``|a| > sqrt(pi)/2``
after rounding, which the scalar code refuses, flagged per decode), makes
its trial run again by the scalar reference
(:func:`gkptrack.protocols.run_trial`) on a :class:`_Replay` that serves
the trial's pre-drawn normals.  So every decision equals the scalar
loop's, and every error the scalar loop raises is raised.  Replays are rare
except at the extremes: near-ties at very high noise (tracking L3 at
``sigma_cycle`` 1.5 replays every trial), and flip ratios that underflow in
odd-parity blocks (tracking at ``sigma_cycle`` 0.005 with ancilla sigmas 0.3
replays 23-93% of its trials from L1 to L3).

Tie coins come from the block's coin generator in trial order (stream
contract in :mod:`gkptrack.kernels`).  A chunk's digital ties take one
``random`` call, in (trial, quadrature, cycle) order; an analog decode that
ties exactly is one the scalar replay decides, and replays run in trial
order.  So the counts and the final states of both generators equal the
scalar loop's, whatever the chunk size.
"""

from __future__ import annotations

import itertools
import math
import threading

import numpy as np

from .. import codes, protocols
from ..codes import C6_PAIR_TRIPLES, PAIR_VALUE, block_size, c4_table
from ..gkp import HALF_SQRT_PI, SQRT_PI, digital_likelihoods
from ..protocols import run_trial
from . import ProtocolConfig

#: normals drawn per chunk, analog or digital.  On tracking analog L1-L3
#: blocks of 8,192 trials (2-core VM, numpy 2.4.6, two runs), chunks of 4,096
#: normals ran at 0.69-0.79x the speed of this size, 16,384 at 0.79-0.92x and
#: 32,768 at 0.79-0.85x.  Digital chunks of 32,768 normals ran at 0.78-0.92x
#: its speed on conventional L1-L2 and tracking L1 blocks and at 0.92-1.13x
#: on L3 blocks: their 256 KB arrays take fresh pages on every chunk.
CHUNK_DRAWS = 8192
#: relative gap ``|l1 - l0| / (1 + |l0| + |l1|)`` at or below which the
#: scalar reference decides an analog trial
TIE_TOLERANCE = 1e-9
# log of the floor on the product of every level's smallest table peak, below
# which an analog decode may rest on underflowed products: such decodes replay
_LOG_FLOOR = np.log(1e-250)

# C4 words by class, then word, as indices 2*w1 + w2 and 2*w3 + w4 into the
# pair products of leaves 1, 2 and of leaves 3, 4
_C4_LEFT, _C4_RIGHT = np.array([[2 * w[0] + w[1], 2 * w[2] + w[3]]
                                for ci in range(4) for w in c4_table().codewords[PAIR_VALUE[ci]]]).T
# a leaf's bit against a codeword bit of 0, then of 1
_BIT_VALUES = np.arange(2).reshape(2, 1, 1)
# C6 words by class, then word, as sub-pair indices of sub-block 0, 1 and 2
_C6_SLOTS = np.array(C6_PAIR_TRIPLES).transpose(2, 0, 1).reshape(3, -1)
#: :class:`DigitalDecoder`'s first-bit code of a top table that ties exactly
_TIE = 2
# sub-table counts below this number a triple by one int64 key (k**3 < 2**63);
# at most 125**3 tables reach C6 level 3, so only folds at level 5 and above
# can need np.unique(axis=0), which makes digital L2/L3 blocks 1.7-2.4x slower
_KEYED_TABLES = 1 << 21


def coin_generator(generator) -> np.random.Generator:
    """The tie-coin generator of a block whose normals come from ``generator``."""
    return np.random.Generator(generator.bit_generator.jumped())


def run_block(params: ProtocolConfig, generator, trials: int, decoder=None) -> tuple[int, int]:
    """Run ``trials`` trials off one generator; returns failure counts.

    The first count is for the scored quadrature; the second is the
    p-quadrature count when ``quadrature == "both"`` and zero otherwise.
    Tie coins come from the block's :func:`coin_generator`.  A digital
    config decodes on ``decoder``, a :class:`DigitalDecoder` of ``params``,
    or on a new one when it is ``None``.
    """
    coins = coin_generator(generator)
    if params.sigma_cycle == 0.0:
        # a noiseless trial draws nothing and never fails
        return 0, 0
    sub_trials = _sub_trials(params)
    draws = sum(count for _, _, count in sub_trials)
    chunk = max(1, CHUNK_DRAWS // draws)
    if not params.analog and decoder is None:
        decoder = DigitalDecoder(params)
    failures = failures_p = 0
    for start in range(0, trials, chunk):
        f, f_p = _run_chunk(params, sub_trials, draws, generator, coins, decoder, min(chunk, trials - start))
        failures += f
        failures_p += f_p
    return failures, failures_p


def _sub_trials(params: ProtocolConfig) -> list[tuple[str, float, int]]:
    """(quadrature, ancilla sigma, normals) of each single-quadrature simulation of a trial."""
    quadratures = ("q", "p") if params.quadrature == "both" else (params.quadrature,)
    n = block_size(params.level)
    out = []
    for quadrature in quadratures:
        sigma_ancilla = params.sigma_ancilla_q if quadrature == "q" else params.sigma_ancilla_p
        if params.protocol == "conventional":
            # teleportation consumes fresh perfect ancillas: no ancilla draws
            count = params.cycles * n
        else:
            per_qubit = 3 if sigma_ancilla > 0.0 else 1
            count = (params.cycles - 1) * n * per_qubit + n
        out.append((quadrature, sigma_ancilla, count))
    return out


def _run_chunk(params, sub_trials, draws, generator, coins, decoder, trials) -> list[int]:
    """Failure counts of the next ``trials`` trials, ordered as :func:`run_block`'s."""
    # one row of normals per draw of a trial, one column per trial
    z = np.ascontiguousarray(generator.standard_normal(trials * draws).reshape(trials, draws).T)
    decodes = params.cycles if params.protocol == "conventional" else 1
    # axes: trial, quadrature (q before p), decode (conventional: one per cycle)
    decided = np.empty((trials, len(sub_trials), decodes), dtype=bool)
    tie = None if decoder is None else np.empty_like(decided)
    unsure = np.zeros(trials, dtype=bool)
    offset = 0
    for k, (quadrature, sigma_ancilla, count) in enumerate(sub_trials):
        zk = z[offset : offset + count]
        offset += count
        # underflowed or non-finite values make an analog decode unsure, not an error
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if params.protocol == "conventional":
                bits, scale, match, flip, outside = _conventional_leaves(params, zk)
            else:
                bits, scale, match, flip, outside = _tracking_leaves(params, quadrature, sigma_ancilla, zk)
            if decoder is None:
                bit, unsure_rows = _decide(bits, scale, match, flip)
                unsure |= (unsure_rows | outside).reshape(decodes, trials).any(axis=0)
            else:
                bit, tie_rows = decoder.decide(bits)
                tie[:, k] = tie_rows.reshape(decodes, trials).T
        decided[:, k] = bit.reshape(decodes, trials).T
    if tie is not None:
        n_ties = np.count_nonzero(tie)
        if n_ties:
            # codes._coin: 0 below one half
            decided[tie] = coins.random(n_ties) >= 0.5
    # truth is 0 in every cycle: a trial fails on an odd count of wrong decodes
    failed = np.bitwise_xor.reduce(decided, axis=2) & ~unsure[:, None]
    counts = [0, 0]
    counts[: len(sub_trials)] = np.count_nonzero(failed, axis=0).tolist()
    for j in np.flatnonzero(unsure).tolist():
        for k, value in enumerate(run_trial(params, _Replay(z[:, j].tolist()), coins)):
            counts[k] += value
    return counts


class _Replay:
    """Generator stand-in that serves one trial's pre-drawn normals to the scalar reference."""

    def __init__(self, normals: list[float]) -> None:
        self._normals = iter(normals)

    def standard_normal(self) -> float:
        return next(self._normals)


class DigitalDecoder:
    """Exact first-pair bits of a digital config's decodes, from interned tables.

    Tables are numbered per level as they are interned; a C6 fold is computed
    once per distinct triple of sub-table numbers.  One decoder may serve
    several threads: a lock keeps them from interning at the same time.
    """

    def __init__(self, params: ProtocolConfig) -> None:
        if params.protocol == "conventional":
            pair = digital_likelihoods(params.sigma_cycle)
        else:
            pair = protocols.joint_likelihood([None] * params.cycles, params.sigma_cycle, False)
        self._lock = threading.Lock()
        self._top = params.level - 1
        # per level (0 for C4): table values -> number, number -> table, and
        # above C4 the fold's sub-table numbers -> number
        self._numbers = [{} for _ in range(params.level)]
        self._tables = [[] for _ in range(params.level)]
        self._folds = [{} for _ in range(params.level)]
        # first bit of each top table, or _TIE; as a list and as an array
        self._first_bits: list[int] = []
        self._first_bit_array = np.empty(0, dtype=np.int8)
        leaves = [pair] * 4
        self._c4 = np.array([
            self._intern(0, codes.block_pair_likelihoods(c4_table(), bits, leaves))
            for bits in itertools.product((0, 1), repeat=4)
        ])

    def decide(self, bits):
        """First-pair bits of decodes, and which of them tie exactly.

        ``bits`` holds one column of leaf bits per decode, leaves in
        :func:`gkptrack.codes.decode` order: ``(leaf, row)``.
        """
        numbers = self._c4[(bits[0::4] << 3) | (bits[1::4] << 2) | (bits[2::4] << 1) | bits[3::4]]
        for level in range(1, self._top + 1):
            numbers = self._fold(level, numbers[0::3], numbers[1::3], numbers[2::3])
        with self._lock:
            if len(self._first_bit_array) < len(self._first_bits):
                self._first_bit_array = np.array(self._first_bits, dtype=np.int8)
            first = self._first_bit_array[numbers[0]]
        return first == 1, first == _TIE

    def _fold(self, level: int, n0, n1, n2):
        """Numbers of the level tables folded from sub-table numbers ``n0``, ``n1`` and ``n2``."""
        # tables are only added, so k bounds every number interned before this call
        k = len(self._tables[level - 1])
        if k < _KEYED_TABLES:
            keys = (n0 * k + n1) * k + n2
            _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
            distinct = np.stack((n0.ravel()[first], n1.ravel()[first], n2.ravel()[first]), axis=1)
        else:
            distinct, inverse = np.unique(np.stack((n0, n1, n2), axis=-1).reshape(-1, 3),
                                          axis=0, return_inverse=True)
        folds, subs = self._folds[level], self._tables[level - 1]
        numbers = []
        with self._lock:
            for triple in map(tuple, distinct.tolist()):
                number = folds.get(triple)
                if number is None:
                    table = codes.c6_level_up([subs[i] for i in triple])
                    number = folds[triple] = self._intern(level, table)
                numbers.append(number)
        return np.array(numbers)[inverse.reshape(n0.shape)]

    def _intern(self, level: int, table) -> int:
        """The number of ``table`` among the distinct tables of ``level``."""
        numbers = self._numbers[level]
        number = numbers.get(table.as_tuple())
        if number is None:
            number = numbers[table.as_tuple()] = len(self._tables[level])
            self._tables[level].append(table)
            if level == self._top:
                bit = codes.first_bit(table)
                self._first_bits.append(_TIE if bit is None else bit)
        return number


def _bin(x, record: bool):
    """Lattice indices of ``x`` as :func:`gkptrack.gkp.lattice_index`, as int64.

    With ``record``, ``x`` is overwritten with the binned deviations
    ``x - s * SQRT_PI``.  The cast is exact below ``2**63``; beyond it the
    scalar's own records lie far outside the bin range, and its bits are even.
    """
    t = np.divide(x, SQRT_PI)
    t -= 0.5
    s = np.ceil(t, out=np.empty(t.shape, dtype=np.int64), casting="unsafe")
    if record:
        x -= np.multiply(s, SQRT_PI, out=t)
    return s


def _conventional_leaves(params: ProtocolConfig, z):
    """Bits and, analog, scaled leaf likelihoods of every cycle's decode: ``(leaf, cycle * trial)``."""
    n = block_size(params.level)
    trials = z.shape[1]
    dev = np.empty((n, params.cycles, trials))
    np.multiply(z.reshape(params.cycles, n, trials).transpose(1, 0, 2), params.sigma_cycle, out=dev)
    dev = dev.reshape(n, -1)
    bits = _bin(dev, params.analog)
    bits &= 1
    if not params.analog:
        return bits, None, None, None, None
    scale, outside, flip = _flip_ratios(dev, params.sigma_cycle)
    return bits, scale, 1.0, flip, outside


def _tracking_leaves(params: ProtocolConfig, quadrature: str, sigma_ancilla: float, z):
    """Bits and, analog, scaled joint record likelihoods of one tracking quadrature: ``(leaf, trial)``.

    As ``protocols._tracking``, with ``single_qec.sqec_step`` inline.
    No bin feeds back into a deviation, so every cycle's measured value is
    formed first and all are binned at once.
    """
    trials = z.shape[1]
    n = block_size(params.level)
    sigma = params.sigma_cycle
    cycles = params.cycles
    # the recorded cycles' measured values, then the final deviation
    records = np.empty((cycles, n, trials))
    if sigma_ancilla == 0.0:
        # sqec_step with a1 = a2 = 0: the qubit reads its fresh channel
        # deviation, negated in p, and keeps none of it
        factors = np.full((cycles, 1, 1), sigma if quadrature == "q" else -sigma)
        factors[-1] = sigma
        np.multiply(z.reshape(cycles, n, trials), factors, out=records)
    else:
        recorded = z[:-n].reshape(cycles - 1, n, 3, trials)
        dev = None  # data deviation left by the last correction
        for cycle in range(cycles - 1):
            measured = np.multiply(recorded[cycle, :, 0], sigma, out=records[cycle])
            if dev is not None:
                measured += dev
            a1 = recorded[cycle, :, 1] * sigma_ancilla
            a2 = recorded[cycle, :, 2] * sigma_ancilla
            if quadrature == "q":
                measured += a1
                measured += a2
                dev = np.negative(a2, out=a2)
            else:
                np.subtract(a1, measured, out=measured)
                dev = np.subtract(a1, a2, out=a1)
        np.multiply(z[-n:], sigma, out=records[-1])
        records[-1] += dev
    # a qubit's bit: the parity of its lattice indices summed over the cycles
    bits = _bin(records, params.analog).sum(axis=0)
    bits &= 1
    if not params.analog:
        return bits, None, None, None, None
    scale, outside, rho = _flip_ratios(records.reshape(cycles * n, trials), sigma)
    rho = rho.reshape(cycles, n, trials)
    # parity convolution of the records' scaled (match, flip) pairs (1, rho):
    # the scaled probabilities of an even and an odd count of flips
    even, odd = 1.0 + rho[0] * rho[1], rho[0] + rho[1]
    for r in rho[2:]:
        even, odd = even + odd * r, even * r + odd
    return bits, scale, even, odd, outside


def _flip_ratios(record, sigma: float):
    """Per-decode log scale and range flag, and the flip/match ratio of every record.

    ``record`` holds binned deviations, ``(record, decode)``; it is
    overwritten with the ratios ``exp(l_flip - l_match)``, which are
    ``exp((2 sqrt(pi) a - pi) / (2 sigma^2))`` for ``a = |record|``.  The
    scale is the sum of the records' match log densities
    (``protocols._analog_pair``), ``-(sum a^2) / (2 sigma^2) - K log(sigma
    sqrt(2 pi))``; it moves ``1 + |l0| + |l1|`` by some 1e-16 relative and
    never the sign of ``l1 - l0``.  The flag marks decodes with a record
    outside the bin range, or not a number, which the scalar code refuses.
    """
    # sigma * sigma, unlike sigma**2, overflows to inf without raising, so at
    # any sigma the range flag sends a refused record to the scalar's error
    variance = sigma * sigma
    a = np.abs(record, out=record)
    outside = ~(a.max(axis=0) <= HALF_SQRT_PI)
    scale = np.einsum("ij,ij->j", a, a)
    scale *= -0.5 / variance
    scale -= a.shape[0] * math.log(sigma * math.sqrt(2.0 * math.pi))
    a *= SQRT_PI / variance
    a -= np.pi / (2.0 * variance)
    return scale, outside, np.exp(a, out=a)


def _decide(bits, scale, match, flip):
    """First-pair bits of a batch of analog decodes, and which are not sure (module docstring).

    Arrays are ``(leaf, row)``: one column per decode, leaves in
    :func:`gkptrack.codes.decode` order; ``scale`` holds one log scale per
    row.  A leaf's likelihoods are ``exp(scale) * match`` that its bit is
    right and ``exp(scale) * flip`` that it is flipped; ``match`` may be the
    scalar 1.0.
    """
    rows = bits.shape[1]
    # each leaf's scaled likelihood under a codeword bit of 0, then of 1
    x = np.where(bits == _BIT_VALUES, match, flip)
    # pair products of leaves 1, 2 and of leaves 3, 4 of each C4 block, by
    # codeword bits: (2 * w1 + w2, block, row)
    p12 = (x[:, None, 0::4] * x[None, :, 1::4]).reshape(4, -1, rows)
    p34 = (x[:, None, 2::4] * x[None, :, 3::4]).reshape(4, -1, rows)
    del x
    # C4 class sums of the products of their two words: (class, block, row)
    tables = (p12[_C4_LEFT] * p34[_C4_RIGHT]).reshape(4, 2, -1, rows).sum(axis=1)
    least = 0.0  # log of the product of every level's smallest peak
    while True:
        # each table divided by its largest entry; the logs go into the scale
        peak = tables.max(axis=0)
        log_peak = np.log(peak)
        scale = scale + log_peak.sum(axis=0)
        least = least + log_peak.min(axis=0)
        tables /= peak
        if tables.shape[1] == 1:
            break
        # C6 folds of the three sub-blocks' tables: (class, word, block, row)
        words = tables[_C6_SLOTS[0], 0::3] * tables[_C6_SLOTS[1], 1::3] * tables[_C6_SLOTS[2], 2::3]
        tables = words.reshape(4, 4, -1, rows).sum(axis=1)
    # the first-bit sums t00 + t01 and t10 + t11
    sums = tables[:, 0].reshape(2, 2, rows).sum(axis=1)
    l0, l1 = np.log(sums) + scale
    # a sum that underflowed to zero lies below the other, at least 1, by far
    # more than any rounding: a sure decision though its log is -inf
    zero = sums == 0.0
    sure = (np.abs(l1 - l0) > TIE_TOLERANCE * (1.0 + np.abs(l0) + np.abs(l1))) | (zero[0] != zero[1])
    sure &= least >= _LOG_FLOOR
    return l1 > l0, ~sure
