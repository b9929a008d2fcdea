"""Record likelihoods and the scalar decision of one decode, for the conventional and tracking protocols.

Conventional protocol (``cycles`` rounds): every round adds channel noise to
each physical qubit of the block, measures the block transversally
(teleportation consumes a fresh perfect ancilla block, so deviations reset
each round), decodes, and the round's logical error toggles a running
parity.  A conventional decode has one record per qubit.

Tracking protocol: rounds 1..n-1 replace the block-level correction with
per-qubit single-qubit corrections whose measured deviations are only
*recorded*; round n performs the one block-level correction.  Each qubit
then carries n recorded deviations whose joint flip-parity likelihood
(:func:`joint_likelihood`) feeds a single decode.

The kernel (:mod:`gkptrack.kernels.pure`) simulates both, one quadrature per
trial, and decides every decode trial-batched.  :func:`decide` is the
scalar decision of one analog decode from its bits and binned records.  The
kernel decides again by it every decode whose batched decision could differ
from it in the last bits, so :func:`decide` defines the stream's analog
decisions; it draws one uniform from ``coins`` only on an exact likelihood
tie (stream contract in :mod:`gkptrack.kernels`).
"""

from __future__ import annotations

from .codes import decode, logaddexp2
from .gkp import SQRT_PI, LikelihoodPair, digital_likelihoods, log_gauss
from .kernels import ProtocolConfig


def joint_likelihood(records, sigma: float, analog: bool) -> LikelihoodPair:
    """Joint flip-parity likelihoods of one qubit across n recorded cycles.

    Each record contributes a per-cycle (even, odd) pair: analog from the
    Gaussian density of its deviation, digital from p_corr alone.  Pairs are
    combined by parity convolution, so ``l_match`` is the likelihood of an
    even number of flips across the cycles and ``l_flip`` of an odd number;
    one analog record's pair is its :func:`_analog_pair`, built as it is.
    """
    if len(records) == 0:
        raise ValueError("joint_likelihood needs at least one record")
    if analog:
        if len(records) == 1:
            return LikelihoodPair(*_analog_pair(records[0], sigma))
        pairs = [_analog_pair(r, sigma) for r in records]
    else:
        pairs = [digital_likelihoods(sigma)] * len(records)
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


def decide(cfg: ProtocolConfig, bits, records, coins) -> int:
    """First-pair bit of one analog decode: :func:`gkptrack.codes.decode` on each qubit's :func:`joint_likelihood`.

    ``bits`` holds a bit per qubit, and ``records`` each qubit's binned
    records in cycle order.  A conventional decode has one record per qubit,
    whose joint likelihood is its :func:`_analog_pair`.  An exact tie draws
    one coin from ``coins``.
    """
    lps = [joint_likelihood(qubit, cfg.sigma_cycle, True) for qubit in records]
    return decode(cfg.level, bits, lps, coins)[0]
