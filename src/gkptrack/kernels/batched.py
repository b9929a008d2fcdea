"""Trial-batched numpy path of the pure kernel, stream-exact with the scalar loop.

:func:`gkptrack.kernels.pure.run_block` sends analog configs with
``sigma_cycle > 0`` here.  A block runs in chunks of trials.  Each chunk takes
all its normals in one ``standard_normal`` call, which yields the values the
scalar loop's one-at-a-time calls would, and reshapes them to the documented
draw order (:mod:`gkptrack.protocols`): per trial and quadrature, per cycle,
per qubit the channel normal followed, in recorded tracking cycles, by the
ancilla normals ``a1`` and ``a2`` when the ancilla sigma is above zero; q
before p for ``quadrature == "both"``.

Binning and the recorded deviations use the scalar code's IEEE operations in
its order, so they are bitwise the scalar values.  The likelihoods, the
parity convolution, the C4 tables, the C6 folds and the first-bit decision
are then computed over the whole chunk with numpy's ``exp``/``log``/
``logaddexp``, which may differ from the scalar ``math`` results in the last
bits.  Only the sign of ``l1 - l0`` matters, so a trial whose gap is below
:data:`TIE_TOLERANCE` relative to ``1 + |l0| + |l1|``, or whose values are
not finite, is run again by the scalar reference
(:func:`gkptrack.kernels.pure.trial_failures`) on a :class:`_Replay` that
serves the trial's pre-drawn normals.  Rounding differences are some 1e-15
relative, six orders of magnitude below the tolerance, so every decision,
every count and the generator's final state equal the scalar loop's.

A scalar trial that meets an exact tie asks for a fair coin.  The replay then
rewinds the generator to the chunk's start, redraws the normals the scalar
loop would have consumed up to that point, and lets the coin and the rest of
the trial draw live; the chunk ends with that trial, and the next chunk
starts from the generator's state.  Analog decodes practically never tie;
digital ones do, and run here only when called directly.
"""

from __future__ import annotations

import numpy as np

from .. import protocols
from ..codes import C6_PAIR_TRIPLES, PAIR_VALUE, block_size, c4_table
from ..gkp import SQRT_PI, digital_likelihoods, log_gauss
from . import ProtocolConfig, pure

#: normals drawn per chunk: a chunk's largest temporary stays at or below 256 KB
CHUNK_DRAWS = 4096
#: relative gap ``|l1 - l0| / (1 + |l0| + |l1|)`` at or below which the
#: scalar reference decides the trial
TIE_TOLERANCE = 1e-9

# C4 codewords by class index, then word: (4, 2, 4) bits
_C4_WORDS = np.array([c4_table().codewords[PAIR_VALUE[ci]] for ci in range(4)])
# C6 words by class index, then word, as sub-pair indices of the three sub-blocks
_C6_SLOTS = np.array(C6_PAIR_TRIPLES).transpose(2, 0, 1)


def run_block(params: ProtocolConfig, generator, trials: int) -> tuple[int, int]:
    """Failure counts of ``trials`` trials, as :func:`gkptrack.kernels.pure.run_block`."""
    sub_trials = _sub_trials(params)
    draws = sum(count for _, _, count in sub_trials)
    chunk = max(1, CHUNK_DRAWS // draws)
    failures = failures_p = 0
    done = 0
    while done < trials:
        ran, (f, f_p) = _run_chunk(params, sub_trials, draws, generator, min(chunk, trials - done))
        done += ran
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


def _run_chunk(params, sub_trials, draws, generator, trials) -> tuple[int, list[int]]:
    """Run up to ``trials`` trials; returns how many ran and their failure counts."""
    start = generator.bit_generator.state
    normals = generator.standard_normal(trials * draws).reshape(trials, draws)
    failed = []
    unsure = np.zeros(trials, dtype=bool)
    offset = 0
    for quadrature, sigma_ancilla, count in sub_trials:
        z = normals[:, offset : offset + count]
        offset += count
        # -inf leaves (digital, tiny sigma) give NaN tables: unsure, not an error
        with np.errstate(invalid="ignore"):
            if params.protocol == "conventional":
                bits, lm, lf = _conventional_leaves(params, z)
            else:
                bits, lm, lf = _tracking_leaves(params, quadrature, sigma_ancilla, z)
            decided, unsure_sub = _decide(bits, lm, lf)
        if params.protocol == "conventional":
            # truth is 0 in every cycle: the trial fails on an odd count of wrong cycles
            decided = np.bitwise_xor.reduce(decided.reshape(trials, params.cycles), axis=1)
            unsure_sub = unsure_sub.reshape(trials, params.cycles).any(axis=1)
        failed.append(decided)
        unsure |= unsure_sub

    ran = trials
    counts = [0, 0]
    for j in np.flatnonzero(unsure).tolist():
        replay = _Replay(generator, normals[j].tolist(), start, j * draws)
        for k, value in enumerate(pure.trial_failures(params, replay)):
            counts[k] += value
        if replay.live:
            ran = j + 1
            break
    sure = ~unsure[:ran]
    for k, decided in enumerate(failed):
        counts[k] += int(np.count_nonzero(decided[:ran] & sure))
    return ran, counts


class _Replay:
    """Generator stand-in that serves one trial's pre-drawn normals.

    On a tie coin it puts ``generator`` where the scalar loop would stand
    (the chunk's start state plus every normal consumed before the coin) and
    from then on draws from it.
    """

    def __init__(self, generator, normals: list[float], start_state, drawn_before: int) -> None:
        self._generator = generator
        self._normals = normals
        self._next = 0
        self._start_state = start_state
        self._drawn_before = drawn_before
        self.live = False

    def standard_normal(self) -> float:
        if self.live:
            return self._generator.standard_normal()
        value = self._normals[self._next]
        self._next += 1
        return value

    def random(self) -> float:
        if not self.live:
            self._generator.bit_generator.state = self._start_state
            self._generator.standard_normal(self._drawn_before + self._next)
            self.live = True
        return self._generator.random()


def _bin(x):
    """Lattice index and binned deviation, as :func:`gkptrack.gkp.lattice_index`."""
    s = np.ceil(x / SQRT_PI - 0.5)
    return s, x - s * SQRT_PI


def _parity(s):
    return s.astype(np.int64) & 1


def _conventional_leaves(params: ProtocolConfig, z):
    """Bits and leaf likelihoods of every cycle's decode, one row per (trial, cycle)."""
    n = block_size(params.level)
    dev = params.sigma_cycle * z.reshape(-1, n)
    s, record = _bin(dev)
    if params.analog:
        lm, lf = _analog_pair(record, params.sigma_cycle)
    else:
        pair = digital_likelihoods(params.sigma_cycle)
        lm, lf = pair.l_match, pair.l_flip
    return _parity(s), lm, lf


def _tracking_leaves(params: ProtocolConfig, quadrature: str, sigma_ancilla: float, z):
    """Bits and joint record likelihoods of one tracking quadrature, as ``_tracking_single``."""
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
        s, record = _bin(measured)
        records.append(record)
        flip = flip ^ _parity(s)
    dev = dev + sigma * z[:, (params.cycles - 1) * n * per_qubit :]
    s, record = _bin(dev)
    records.append(record)
    bits = flip ^ _parity(s)
    if not params.analog:
        pair = protocols.joint_likelihood([None] * params.cycles, sigma, False)
        return bits, pair.l_match, pair.l_flip
    even, odd = _analog_pair(records[0], sigma)
    for record in records[1:]:
        e, o = _analog_pair(record, sigma)
        even, odd = np.logaddexp(even + e, odd + o), np.logaddexp(even + o, odd + e)
    return bits, even, odd


def _analog_pair(record, sigma: float):
    """(match, flip) log densities of binned deviations, as ``protocols._analog_pair``.

    A deviation outside the bin range, which the scalar code refuses, yields
    NaN, so the trial goes to the scalar reference and raises there.
    """
    a = np.abs(record)
    a = np.where(a <= SQRT_PI / 2.0, a, np.nan)
    return log_gauss(a, sigma), log_gauss(SQRT_PI - a, sigma)


def _logsumexp(values):
    m = values.max(axis=-1)
    return m + np.log(np.exp(values - m[..., None]).sum(axis=-1))


def _decide(bits, lm, lf):
    """First-pair bits of a batch of decodes, and which are too close to call.

    Rows are decodes, columns leaves in :func:`gkptrack.codes.decode` order;
    ``lm`` and ``lf`` are arrays like ``bits`` or, digital, scalars.
    """
    rows = bits.shape[0]
    # likelihood of each leaf under a codeword bit of 0 (last axis 0) or 1,
    # leaves grouped by C4 block
    zero = bits == 0
    leaf = np.stack((np.where(zero, lm, lf), np.where(zero, lf, lm)), axis=-1).reshape(rows, -1, 4, 2)
    words = leaf[:, :, np.arange(4), _C4_WORDS].sum(axis=-1)  # (rows, groups, class, word)
    tables = np.logaddexp(words[..., 0], words[..., 1])
    while tables.shape[1] > 1:
        tables = tables.reshape(rows, -1, 3, 4)
        sums = (tables[:, :, 0, _C6_SLOTS[0]] + tables[:, :, 1, _C6_SLOTS[1]]
                + tables[:, :, 2, _C6_SLOTS[2]])
        tables = _logsumexp(sums)
    top = tables[:, 0]
    l0 = np.logaddexp(top[:, 0], top[:, 1])
    l1 = np.logaddexp(top[:, 2], top[:, 3])
    sure = np.abs(l1 - l0) > TIE_TOLERANCE * (1.0 + np.abs(l0) + np.abs(l1))
    return l1 > l0, ~sure
