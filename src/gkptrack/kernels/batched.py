"""Trial-batched numpy path of the pure kernel, stream-exact with the scalar loop.

:func:`gkptrack.kernels.pure.run_block` sends every config with
``sigma_cycle > 0`` here.  A block runs in chunks of trials, and a chunk
always runs all its trials.  Each chunk takes all its normals in one
``standard_normal`` call, which yields the values the scalar loop's
one-at-a-time calls would, and reshapes them to the documented draw order
(:mod:`gkptrack.protocols`): per trial and quadrature, per cycle, per qubit
the channel normal followed, in recorded tracking cycles, by the ancilla
normals ``a1`` and ``a2`` when the ancilla sigma is above zero; q before p
for ``quadrature == "both"``.  Binning and the recorded deviations use the
scalar code's IEEE operations in its order, so the measured bits and the
records are bitwise the scalar values.

Digital decodes are exact.  Every leaf of a digital decode carries the same
likelihood pair, so a C4 block's table depends only on its four bits and a C6
fold only on its three sub-tables.  :class:`_DigitalDecoder` computes each
table with the scalar :func:`gkptrack.codes.block_pair_likelihoods` (16 bit
patterns) and :func:`gkptrack.codes.c6_level_up` (once per distinct triple of
sub-tables), numbers the distinct tables of each level, and decides each top
table once by :func:`gkptrack.codes.first_bit`.  A decode is then a few array
lookups, and it ties exactly where the scalar decoder does.

Analog decodes compute the likelihoods, the parity convolution, the C4
tables, the C6 folds and the first-bit decision over the whole chunk in the
scaled probability domain, with no log-add-exp, which costs some thirty
multiplies in numpy.  A leaf carries a log scale, the match log density
of its deviation (summed over a tracking qubit's records), and scaled match
and flip likelihoods: 1 and ``rho = exp(l_flip - l_match)``, which is
``exp((2 sqrt(pi) a - pi) / (2 sigma^2))`` for a binned deviation ``a`` and
lies in ``[0, 1]`` on the bin range, up to rounding.  The tracking parity
convolution is ``even, odd = even + odd * rho, even * rho + odd``.  C4 words
are products of leaf factors and classes their sums; C6 folds are products
and sums.  Each level's tables are divided by their peaks, whose logs join
the decode's scale, so ``l0 = log(t00 + t01) + scale`` and
``l1 = log(t10 + t11) + scale`` are the scalar decoder's log-domain values.

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
sure, or whose values are not finite (a deviation outside the bin range,
which the scalar code refuses, gives NaN), makes its trial run again by the
scalar reference (:func:`gkptrack.kernels.pure.trial_failures`) on a
:class:`_Replay` that serves the trial's pre-drawn normals.  So every
decision equals the scalar loop's.  Replays are rare except at the
extremes: near-ties at very high noise (tracking L3 at ``sigma_cycle`` 1.5
replays every trial), and flip ratios that underflow in odd-parity blocks
(tracking at ``sigma_cycle`` 0.005 with ancilla sigmas 0.3 replays 23-93%
of its trials from L1 to L3).

Tie coins come from the block's coin generator in trial order (stream
contract in :mod:`gkptrack.kernels`).  A chunk's digital ties take one
``random`` call, in (trial, quadrature, cycle) order; an analog decode that
ties exactly is one the scalar replay decides, and replays run in trial
order.  So the counts and the final states of both generators equal the
scalar loop's, whatever the chunk size.
"""

from __future__ import annotations

import itertools

import numpy as np

from .. import codes, protocols
from ..codes import C6_PAIR_TRIPLES, PAIR_VALUE, block_size, c4_table
from ..gkp import SQRT_PI, digital_likelihoods, log_gauss
from . import ProtocolConfig, pure

#: normals drawn per analog chunk: its largest temporary stays at or below
#: 512 KB.  A digital chunk holds no likelihoods and draws four times as many.
CHUNK_DRAWS = 8192
#: relative gap ``|l1 - l0| / (1 + |l0| + |l1|)`` at or below which the
#: scalar reference decides an analog trial
TIE_TOLERANCE = 1e-9
# log of the floor on the product of every level's smallest table peak, below
# which an analog decode may rest on underflowed products: such decodes replay
_LOG_FLOOR = np.log(1e-250)

# C4 codewords by class index, then word: (4, 2, 4) bits
_C4_WORDS = np.array([c4_table().codewords[PAIR_VALUE[ci]] for ci in range(4)])
# C6 words by class index, then word, as sub-pair indices of the three sub-blocks
_C6_SLOTS = np.array(C6_PAIR_TRIPLES).transpose(2, 0, 1)
#: :class:`_DigitalDecoder`'s first-bit code of a top table that ties exactly
_TIE = 2
# sub-table counts below this number a triple by one int64 key (k**3 < 2**63);
# at most 125**3 tables reach C6 level 3, so only folds at level 5 and above
# can need np.unique(axis=0), which makes digital L2/L3 blocks 1.7-2.4x slower
_KEYED_TABLES = 1 << 21


def run_block(params: ProtocolConfig, generator, trials: int, coins) -> tuple[int, int]:
    """Failure counts of ``trials`` trials, as :func:`gkptrack.kernels.pure.run_block`."""
    sub_trials = _sub_trials(params)
    draws = sum(count for _, _, count in sub_trials)
    chunk = max(1, (CHUNK_DRAWS if params.analog else 4 * CHUNK_DRAWS) // draws)
    decoder = None if params.analog else _DigitalDecoder(params)
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
    normals = generator.standard_normal(trials * draws).reshape(trials, draws)
    decided = []
    ties = []
    unsure = np.zeros(trials, dtype=bool)
    offset = 0
    for quadrature, sigma_ancilla, count in sub_trials:
        z = normals[:, offset : offset + count]
        offset += count
        # underflowed or non-finite tables make a decode unsure, not an error
        with np.errstate(divide="ignore", invalid="ignore"):
            if params.protocol == "conventional":
                bits, *leaves = _conventional_leaves(params, z)
            else:
                bits, *leaves = _tracking_leaves(params, quadrature, sigma_ancilla, z)
            if decoder is None:
                bit, unsure_decode = _decide(bits, *leaves)
                unsure |= unsure_decode.reshape(trials, -1).any(axis=1)
            else:
                bit, tie = decoder.decide(bits)
                ties.append(tie.reshape(trials, -1))
        decided.append(bit.reshape(trials, -1))
    # axes: trial, quadrature (q before p), decode (conventional: one per cycle)
    decided = np.stack(decided, axis=1)
    if ties:
        tie = np.stack(ties, axis=1)
        n_ties = np.count_nonzero(tie)
        if n_ties:
            # codes._coin: 0 below one half
            decided[tie] = coins.random(n_ties) >= 0.5
    # truth is 0 in every cycle: a trial fails on an odd count of wrong decodes
    failed = np.bitwise_xor.reduce(decided, axis=2) & ~unsure[:, None]
    counts = [0, 0]
    counts[: len(sub_trials)] = np.count_nonzero(failed, axis=0).tolist()
    for j in np.flatnonzero(unsure).tolist():
        for k, value in enumerate(pure.trial_failures(params, _Replay(normals[j].tolist()), coins)):
            counts[k] += value
    return counts


class _Replay:
    """Generator stand-in that serves one trial's pre-drawn normals to the scalar reference."""

    def __init__(self, normals: list[float]) -> None:
        self._normals = iter(normals)

    def standard_normal(self) -> float:
        return next(self._normals)


class _DigitalDecoder:
    """Exact first-pair bits of a digital config's decodes, from interned tables.

    Tables are numbered per level in order of first appearance; a C6 fold is
    computed once per distinct triple of sub-table numbers.
    """

    def __init__(self, params: ProtocolConfig) -> None:
        if params.protocol == "conventional":
            pair = digital_likelihoods(params.sigma_cycle)
        else:
            pair = protocols.joint_likelihood([None] * params.cycles, params.sigma_cycle, False)
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
        """First-pair bits of decodes (rows of leaf bits), and which of them tie exactly."""
        rows = bits.shape[0]
        b = bits.reshape(rows, -1, 4)
        numbers = self._c4[(b[..., 0] << 3) | (b[..., 1] << 2) | (b[..., 2] << 1) | b[..., 3]]
        for level in range(1, self._top + 1):
            numbers = self._fold(level, numbers.reshape(rows, -1, 3))
        if len(self._first_bit_array) < len(self._first_bits):
            self._first_bit_array = np.array(self._first_bits, dtype=np.int8)
        first = self._first_bit_array[numbers[:, 0]]
        return first == 1, first == _TIE

    def _fold(self, level: int, triples):
        """Numbers of the level tables folded from ``triples`` of sub-table numbers."""
        flat = triples.reshape(-1, 3)
        k = len(self._tables[level - 1])
        if k < _KEYED_TABLES:
            keys = (flat[:, 0] * k + flat[:, 1]) * k + flat[:, 2]
            _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
            distinct = flat[first]
        else:
            distinct, inverse = np.unique(flat, axis=0, return_inverse=True)
        folds, subs = self._folds[level], self._tables[level - 1]
        numbers = []
        for triple in map(tuple, distinct.tolist()):
            number = folds.get(triple)
            if number is None:
                table = codes.c6_level_up([subs[i] for i in triple])
                number = folds[triple] = self._intern(level, table)
            numbers.append(number)
        return np.array(numbers)[inverse].reshape(triples.shape[:-1])

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


def _lattice_index(x):
    """As :func:`gkptrack.gkp.lattice_index`; the binned deviation is ``x - s * SQRT_PI``."""
    return np.ceil(x / SQRT_PI - 0.5)


def _parity(s):
    return s.astype(np.int64) & 1


def _conventional_leaves(params: ProtocolConfig, z):
    """Bits and, analog, scaled leaf likelihoods of every cycle's decode, one row per (trial, cycle)."""
    n = block_size(params.level)
    dev = params.sigma_cycle * z.reshape(-1, n)
    s = _lattice_index(dev)
    if not params.analog:
        return _parity(s), None, None, None
    scale, flip = _analog_pair(dev - s * SQRT_PI, params.sigma_cycle)
    return _parity(s), scale, 1.0, flip


def _tracking_leaves(params: ProtocolConfig, quadrature: str, sigma_ancilla: float, z):
    """Bits and, analog, scaled joint record likelihoods of one tracking quadrature, as ``_tracking_single``."""
    trials = z.shape[0]
    n = block_size(params.level)
    sigma = params.sigma_cycle
    per_qubit = 3 if sigma_ancilla > 0.0 else 1
    recorded = z[:, : (params.cycles - 1) * n * per_qubit].reshape(trials, params.cycles - 1, n, per_qubit)
    dev = 0.0
    flip = 0
    records = []
    for cycle in range(params.cycles - 1):
        dev = dev + sigma * recorded[:, cycle, :, 0]
        a1 = a2 = 0.0
        if per_qubit == 3:
            a1 = sigma_ancilla * recorded[:, cycle, :, 1]
            a2 = sigma_ancilla * recorded[:, cycle, :, 2]
        # sqec_step: the data qubit after the shift keeps only ancilla noise
        if quadrature == "q":
            measured, dev = a2 + (dev + a1), -a2
        else:
            measured, dev = a1 - dev, a1 - a2
        s = _lattice_index(measured)
        if params.analog:
            records.append(measured - s * SQRT_PI)
        flip = flip ^ _parity(s)
    dev = dev + sigma * z[:, (params.cycles - 1) * n * per_qubit :]
    s = _lattice_index(dev)
    bits = flip ^ _parity(s)
    if not params.analog:
        return bits, None, None, None
    records.append(dev - s * SQRT_PI)
    lm, rho = _analog_pair(np.stack(records), sigma)
    # parity convolution of the records' scaled (match, flip) pairs (1, rho):
    # the scaled probabilities of an even and an odd count of flips
    even, odd = 1.0, rho[0]
    for r in rho[1:]:
        even, odd = even + odd * r, even * r + odd
    return bits, lm.sum(axis=0), even, odd


def _analog_pair(record, sigma: float):
    """Match log densities of binned deviations, as ``protocols._analog_pair``, and flip/match ratios.

    The ratio ``exp(l_flip - l_match)`` is ``exp((2 sqrt(pi) a - pi) / (2 sigma^2))``
    in closed form.  A deviation outside the bin range, which the scalar code
    refuses, yields NaN, so the trial goes to the scalar reference and raises
    there.
    """
    a = np.abs(record)
    a = np.where(a <= SQRT_PI / 2.0, a, np.nan)
    return log_gauss(a, sigma), np.exp(a * (SQRT_PI / sigma**2) - np.pi / (2.0 * sigma**2))


def _decide(bits, scale, match, flip):
    """First-pair bits of a batch of analog decodes, and which are not sure (module docstring).

    Rows are decodes, columns leaves in :func:`gkptrack.codes.decode` order.
    A leaf's likelihoods are ``exp(scale) * match`` that its bit is right and
    ``exp(scale) * flip`` that it is flipped; ``scale``, ``flip`` and
    ``match`` (or the scalar 1.0) are arrays like ``bits``.
    """
    rows = bits.shape[0]
    # scaled likelihood of each leaf under a codeword bit of 0 (last axis 0)
    # or 1, leaves grouped by C4 block
    zero = bits == 0
    leaf = np.stack((np.where(zero, match, flip), np.where(zero, flip, match)), axis=-1).reshape(rows, -1, 4, 2)
    tables = leaf[:, :, np.arange(4), _C4_WORDS].prod(axis=-1).sum(axis=-1)  # (rows, groups, class)
    scale = scale.sum(axis=1)
    least = 0.0  # log of the product of every level's smallest peak
    while True:
        # each table divided by its largest entry; the logs go into the scale
        peak = tables.max(axis=-1)
        log_peak = np.log(peak)
        scale = scale + log_peak.sum(axis=1)
        least = least + log_peak.min(axis=1)
        tables = tables / peak[..., None]
        if tables.shape[1] == 1:
            break
        tables = tables.reshape(rows, -1, 3, 4)
        tables = (tables[:, :, 0, _C6_SLOTS[0]] * tables[:, :, 1, _C6_SLOTS[1]]
                  * tables[:, :, 2, _C6_SLOTS[2]]).sum(axis=-1)
    t0 = tables[:, 0, 0] + tables[:, 0, 1]
    t1 = tables[:, 0, 2] + tables[:, 0, 3]
    l0 = np.log(t0) + scale
    l1 = np.log(t1) + scale
    # a sum that underflowed to zero lies below the other, at least 1, by far
    # more than any rounding: a sure decision though its log is -inf
    sure = (np.abs(l1 - l0) > TIE_TOLERANCE * (1.0 + np.abs(l0) + np.abs(l1))) | ((t0 == 0.0) != (t1 == 0.0))
    sure &= least >= _LOG_FLOOR
    return l1 > l0, ~sure
