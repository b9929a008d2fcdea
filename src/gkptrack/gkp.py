"""GKP qubit primitives: channel sampling, measurement binning, likelihoods.

A GKP qubit stores a bit in the position of Gaussian peaks spaced sqrt(pi)
apart; even multiples of sqrt(pi) encode 0, odd multiples encode 1.  A
measurement returns a real number which is binned to the nearest lattice
point: the point's parity is the measured bit and the residue is the analog
deviation.  Decoders consume either the full deviation (analog likelihoods)
or only the bit value (digital likelihoods).

Numerical conventions used throughout the package (the kernel's batched
path, :mod:`gkptrack.kernels.batched`, bins with the same operations):

* lattice index of x is ``ceil(x / sqrt(pi) - 0.5)`` - round half *down*, so
  an exact half-bin deviation stays with the lower lattice point and the
  binned deviation lives in ``(-sqrt(pi)/2, +sqrt(pi)/2]``;
* log densities are computed as ``-0.5*t*t - log(sigma) - 0.5*log(2*pi)``
  with ``t = x / sigma``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SQRT_PI = math.sqrt(math.pi)
HALF_SQRT_PI = SQRT_PI / 2.0
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

#: Documented limit of p_corr(sigma) as sigma -> 0+ (p_corr itself rejects 0).
P_CORR_ZERO_SIGMA = 1.0


@dataclass(frozen=True)
class BinnedOutcome:
    """A measured bit plus the residual deviation from the chosen lattice point."""

    bit: int
    deviation: float


@dataclass(frozen=True)
class LikelihoodPair:
    """Log-domain likelihoods of "bit correct as decided" vs "bit flipped"."""

    l_match: float
    l_flip: float


def lattice_index(x: float) -> int:
    """Index of the sqrt(pi) lattice point nearest to ``x``, half ties down."""
    return math.ceil(x / SQRT_PI - 0.5)


def sample_channel(sigma: float, rng) -> float:
    """Draw one Gaussian displacement with standard deviation ``sigma``.

    ``sigma = 0`` returns exactly 0.0 without consuming a draw; the kernels
    rely on that rule to keep random streams aligned across backends.
    """
    if not (sigma >= 0.0) or not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma!r}")
    if sigma == 0.0:
        return 0.0
    return sigma * rng.standard_normal()


def bin_measurement(q_m: float) -> BinnedOutcome:
    """Bin a raw quadrature value to (bit, deviation).

    The bit is the parity of the nearest lattice multiple of sqrt(pi); the
    deviation is the signed residue in ``(-sqrt(pi)/2, +sqrt(pi)/2]``.
    """
    if not math.isfinite(q_m):
        raise ValueError(f"measurement value must be finite, got {q_m!r}")
    s = lattice_index(q_m)
    return BinnedOutcome(bit=s & 1, deviation=q_m - s * SQRT_PI)


def true_flip(delta: float) -> int:
    """1 iff a displacement by ``delta`` carries the peak to an odd lattice shift."""
    if not math.isfinite(delta):
        raise ValueError(f"deviation must be finite, got {delta!r}")
    return lattice_index(delta) & 1


def p_corr(sigma: float) -> float:
    """Probability that a bit is read correctly under Gaussian noise ``sigma``.

    This is the Gaussian mass on the central bin ``(-sqrt(pi)/2, sqrt(pi)/2)``;
    mass that lands two or more bins away (and would fold back onto the
    correct bit) is intentionally not credited, which understates the success
    probability by less than 1e-6 for sigma <= 0.7.  Strictly decreasing in
    sigma; use :data:`P_CORR_ZERO_SIGMA` for the sigma -> 0 limit.
    """
    if not (sigma > 0.0) or not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite and > 0, got {sigma!r}")
    return math.erf(HALF_SQRT_PI / (sigma * math.sqrt(2.0)))


def log_gauss(x: float, sigma: float) -> float:
    """Log density of N(0, sigma^2) at ``x`` (canonical operation order)."""
    t = x / sigma
    return -0.5 * t * t - math.log(sigma) - _HALF_LOG_2PI


def analog_likelihoods(deviation: float, sigma: float) -> LikelihoodPair:
    """Analog likelihood pair for one binned deviation.

    ``l_match`` is the log density of the deviation itself and ``l_flip`` the
    log density of ``sqrt(pi) - |deviation|``, i.e. the displacement that
    would explain the same outcome with the bit flipped.  Two-image model:
    every other lattice image is dropped, the flip image at
    ``sqrt(pi) + |deviation|``, one bin away, included.  So the pair is
    miscalibrated at high noise: for tracking L1 records at sigma 0.6 (q,
    2 cycles, 1M trials), the most confident bin predicts a flip probability
    of 0.0397 against 0.0551 measured, 34 standard errors off.  Summing all
    images calibrates it but moves the analog thresholds by 0.0003 at most;
    changing this likelihood changes seeded analog results, so it needs
    stream version 3.
    """
    if not (sigma > 0.0) or not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite and > 0, got {sigma!r}")
    a = abs(deviation)
    if not (a <= HALF_SQRT_PI):
        raise ValueError(f"deviation {deviation!r} outside the bin range")
    return LikelihoodPair(
        l_match=log_gauss(a, sigma),
        l_flip=log_gauss(SQRT_PI - a, sigma),
    )


def p_incorr(sigma: float) -> float:
    """Complement of :func:`p_corr`, computed via erfc for small-sigma accuracy."""
    if not (sigma > 0.0) or not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite and > 0, got {sigma!r}")
    return math.erfc(HALF_SQRT_PI / (sigma * math.sqrt(2.0)))


def digital_likelihoods(sigma: float) -> LikelihoodPair:
    """Deviation-independent likelihood pair: (log p_corr, log(1 - p_corr)).

    The flip entry uses the erfc form, so it stays accurate (instead of
    cancelling to log(0)) when p_corr rounds to 1.0; below the double
    underflow threshold it becomes -inf, the documented sigma -> 0 limit.
    """
    p = p_corr(sigma)
    q = p_incorr(sigma)
    return LikelihoodPair(
        l_match=math.log(p),
        l_flip=math.log(q) if q > 0.0 else -math.inf,
    )
