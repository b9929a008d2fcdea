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

Both protocols simulate one quadrature per trial; under the independent
Gaussian channel the q and p failure processes are independent and
identically distributed, so ``quadrature="both"`` simply runs two
independent single-quadrature simulations back to back (q first) for
cross-checking.  The transmitted codeword is fixed to all-zeros; linearity
of the code makes failure statistics identical for any codeword, and
:func:`run_conventional` accepts an explicit codeword to verify that.

This module is also the scalar reference of the Monte Carlo kernel, which
the trial-batched path (:mod:`gkptrack.kernels.batched`) reproduces.  Every
trial function takes two generators: ``rng`` for the noise normals and
``coins`` for tie coins (stream contract in :mod:`gkptrack.kernels`).
Normal draw order per trial: per cycle, one channel draw per qubit in qubit
order, followed (tracking, cycles 1..n-1) by that qubit's ancilla draws; an
exactly zero sigma consumes no draw.  A decode draws one uniform from
``coins`` only on an exact likelihood tie, so the normals' positions in
``rng`` never depend on ties.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codes import block_size, decode, logaddexp2
from .gkp import (
    SQRT_PI,
    LikelihoodPair,
    digital_likelihoods,
    lattice_index,
    log_gauss,
    sample_channel,
)
from .kernels import ProtocolConfig
from .single_qec import sqec_step


@dataclass(frozen=True)
class TrialOutcome:
    failed: bool
    decoded_bit: int
    true_bit: int


def score_trial(decoded: int, truth: int) -> TrialOutcome:
    """Wrap a decoded-vs-truth comparison into a TrialOutcome."""
    return TrialOutcome(failed=decoded != truth, decoded_bit=decoded, true_bit=truth)


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
    a = abs(deviation)
    if not (a <= SQRT_PI / 2.0):
        raise ValueError(f"record {deviation!r} outside the bin range")
    return log_gauss(a, sigma), log_gauss(SQRT_PI - a, sigma)


def run_conventional(cfg: ProtocolConfig, rng, coins, codeword=None) -> TrialOutcome:
    """One conventional trial; ``codeword`` overrides the all-zeros frame.

    When a codeword (bit sequence of block length) is supplied, its bits are
    XORed into every cycle's measured bits and its first-pair class bit into
    the per-cycle truth, which must leave the failure indicator unchanged.
    """
    if cfg.protocol != "conventional":
        raise ValueError("config is not a conventional-protocol config")
    if cfg.quadrature == "both":
        out_q = _conventional_single(cfg, rng, coins, codeword)
        _conventional_single(cfg, rng, coins, codeword)
        return out_q
    return _conventional_single(cfg, rng, coins, codeword)


def _zero_noise_outcome(cfg: ProtocolConfig) -> TrialOutcome:
    # zero channel noise: trivially clean, no draws consumed.  With the
    # likelihood model keyed to the channel sigma, ancilla noise without
    # channel noise has no defined likelihoods.
    if cfg.sigma_ancilla_q > 0.0 or cfg.sigma_ancilla_p > 0.0:
        raise ValueError("sigma_channel = 0 with ancilla noise leaves likelihoods undefined")
    return score_trial(0, 0)


def _conventional_single(cfg: ProtocolConfig, rng, coins, codeword=None) -> TrialOutcome:
    from .codes import concat_word_first_bit  # local import to avoid cycle at module load

    if cfg.sigma_cycle == 0.0:
        return _zero_noise_outcome(cfg)
    n = block_size(cfg.level)
    sigma = cfg.sigma_cycle
    truth_bit = 0
    if codeword is not None:
        if len(codeword) != n:
            raise ValueError(f"codeword length {len(codeword)} != block size {n}")
        truth_cycle = concat_word_first_bit(cfg.level, tuple(codeword))
    digital_pair = None if cfg.analog else digital_likelihoods(sigma)
    decoded = 0
    truth = 0
    for _ in range(cfg.cycles):
        bits = []
        lps = []
        for _i in range(n):
            dev = sample_channel(sigma, rng)
            s = lattice_index(dev)
            bits.append(s & 1)
            if cfg.analog:
                dm = dev - s * SQRT_PI
                lps.append(LikelihoodPair(*_analog_pair(dm, sigma)))
            else:
                lps.append(digital_pair)
        if codeword is not None:
            bits = [b ^ c for b, c in zip(bits, codeword)]
            truth ^= truth_cycle
        bit, _table = decode(cfg.level, bits, lps, coins)
        decoded ^= bit
    if codeword is not None:
        return score_trial(decoded, truth)
    return score_trial(decoded, truth_bit)


def run_tracking(cfg: ProtocolConfig, rng, coins) -> TrialOutcome:
    """One tracking trial: n-1 recorded single-qubit corrections + one decode."""
    if cfg.protocol != "tracking":
        raise ValueError("config is not a tracking-protocol config")
    if cfg.quadrature == "both":
        out_q = _tracking_single(cfg, rng, coins, "q")
        _tracking_single(cfg, rng, coins, "p")
        return out_q
    return _tracking_single(cfg, rng, coins, cfg.quadrature)


def _tracking_single(cfg: ProtocolConfig, rng, coins, quadrature: str) -> TrialOutcome:
    if cfg.sigma_cycle == 0.0:
        return _zero_noise_outcome(cfg)
    n = block_size(cfg.level)
    sigma = cfg.sigma_cycle
    sig_anc = cfg.sigma_ancilla_q if quadrature == "q" else cfg.sigma_ancilla_p
    dev = [0.0] * n
    flip = [0] * n
    records: list[list[float]] = [[] for _ in range(n)]
    # a digital record carries no deviation, so every qubit shares one pair
    digital_lp = None if cfg.analog else joint_likelihood([None] * cfg.cycles, sigma, False)
    for _cycle in range(cfg.cycles - 1):
        for i in range(n):
            dev[i], record, flipped = sqec_step(dev[i] + sample_channel(sigma, rng), quadrature, sig_anc, rng)
            records[i].append(record)
            flip[i] ^= flipped
    bits = []
    lps = []
    for i in range(n):
        dev[i] = dev[i] + sample_channel(sigma, rng)
        s = lattice_index(dev[i])
        bits.append(flip[i] ^ (s & 1))
        records[i].append(dev[i] - s * SQRT_PI)
        lps.append(joint_likelihood(records[i], sigma, True) if cfg.analog else digital_lp)
    bit, _table = decode(cfg.level, bits, lps, coins)
    return score_trial(bit, 0)


def run_trial(cfg: ProtocolConfig, rng, coins) -> TrialOutcome:
    """Run one trial of whichever protocol the config selects."""
    if cfg.protocol == "conventional":
        return run_conventional(cfg, rng, coins)
    return run_tracking(cfg, rng, coins)


def run_trial_both(cfg: ProtocolConfig, rng, coins) -> tuple[TrialOutcome, TrialOutcome]:
    """Run both quadratures' independent simulations; returns (q, p) outcomes."""
    if cfg.protocol == "conventional":
        return _conventional_single(cfg, rng, coins), _conventional_single(cfg, rng, coins)
    return _tracking_single(cfg, rng, coins, "q"), _tracking_single(cfg, rng, coins, "p")
