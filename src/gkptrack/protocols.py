"""Full error-correction experiments: conventional and tracking protocols.

Conventional protocol (``cycles`` rounds): every round adds channel noise to
each physical qubit of the block, measures the block transversally
(teleportation consumes a fresh perfect ancilla block, so deviations reset
each round), decodes, and the round's logical error toggles a running
parity.  The run fails when the final parity disagrees with the truth.

Tracking protocol: rounds 1..n-1 replace the block-level correction with
per-qubit single-qubit corrections (:func:`gkptrack.single_qec.sqec_step`)
whose measured deviations are only *recorded*; round n performs the one
block-level correction.  Each qubit then carries n recorded deviations whose
joint flip-parity likelihood (:func:`joint_likelihood`) feeds a single
decode.

Both protocols simulate one quadrature per trial, ``cfg.quadrature``.  Under
the independent Gaussian channel the q and p failure processes are
identically distributed; they differ only in how the tracking protocol's
single-qubit correction propagates ancilla noise (:mod:`gkptrack.single_qec`),
so :class:`~gkptrack.kernels.ProtocolConfig` allows p only there.
The transmitted codeword is fixed to all-zeros; linearity of the code makes
failure statistics identical for any codeword.

:func:`run_trial` is the scalar reference of the Monte Carlo kernel, which
the trial-batched kernel (:mod:`gkptrack.kernels.pure`) reproduces.  It
takes two generators: ``rng`` for the noise normals and ``coins`` for tie
coins (stream contract in :mod:`gkptrack.kernels`).
Normal draw order per trial: per cycle, one channel draw per qubit in qubit
order, followed (tracking, cycles 1..n-1) by that qubit's ancilla draws; an
exactly zero ancilla sigma consumes no draw.  A decode draws one uniform from
``coins`` only on an exact likelihood tie, so the normals' positions in
``rng`` never depend on ties.
"""

from __future__ import annotations

from .codes import block_size, decode, logaddexp2
from .gkp import (
    SQRT_PI,
    LikelihoodPair,
    bin_measurement,
    digital_likelihoods,
    log_gauss,
    sample_channel,
)
from .kernels import ProtocolConfig
from .single_qec import sqec_step


def joint_likelihood(records, sigma: float, analog: bool) -> LikelihoodPair:
    """Joint flip-parity likelihoods of one qubit across n recorded cycles.

    Each record contributes a per-cycle (even, odd) pair: analog from the
    Gaussian density of its deviation, digital from p_corr alone.  Pairs are
    combined by parity convolution, so ``l_match`` is the likelihood of an
    even number of flips across the cycles and ``l_flip`` of an odd number.
    """
    if len(records) == 0:
        raise ValueError("joint_likelihood needs at least one record")
    if analog:
        pairs = [_analog_pair(r, sigma) for r in records]
    else:
        d = digital_likelihoods(sigma)
        pairs = [(d.l_match, d.l_flip)] * len(records)
    even, odd = pairs[0]
    for e, o in pairs[1:]:
        even, odd = logaddexp2(even + e, odd + o), logaddexp2(even + o, odd + e)
    return LikelihoodPair(l_match=even, l_flip=odd)


def _analog_pair(deviation: float, sigma: float) -> tuple[float, float]:
    """Analog (match, flip) log likelihoods of one binned deviation.

    The match entry is the log density of the deviation itself and the flip
    entry that of ``sqrt(pi) - |deviation|``, the displacement that would
    explain the same outcome with the bit flipped.  Two-image model: every
    other lattice image is dropped, the flip image at ``sqrt(pi) +
    |deviation|``, one bin away, included.  So the pair is miscalibrated at
    high noise: for tracking L1 records at sigma 0.6 (q, 2 cycles, 1M
    trials), the most confident bin predicts a flip probability of 0.0397
    against 0.0551 measured, 34 standard errors off.  Summing all images
    calibrates it but moves the analog thresholds by 0.0003 at most;
    changing this likelihood changes seeded analog results, so it needs
    stream version 3.
    """
    a = abs(deviation)
    if not (a <= SQRT_PI / 2.0):
        raise ValueError(f"record {deviation!r} outside the bin range")
    return log_gauss(a, sigma), log_gauss(SQRT_PI - a, sigma)


def digital_pair(cfg: ProtocolConfig) -> LikelihoodPair:
    """The likelihood pair every leaf of a digital decode of ``cfg`` carries.

    A conventional leaf is one measured bit; a tracking leaf the parity of
    ``cfg.cycles`` recorded bits, whose records carry no deviation.
    """
    if cfg.protocol == "conventional":
        return digital_likelihoods(cfg.sigma_cycle)
    return joint_likelihood([None] * cfg.cycles, cfg.sigma_cycle, False)


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
