"""GKP qubit primitives: the lattice constants and the likelihoods of a measured value.

A GKP qubit stores a bit in the position of Gaussian peaks spaced sqrt(pi)
apart; even multiples of sqrt(pi) encode 0, odd multiples encode 1.  A
measurement returns a real number which is binned to the nearest lattice
point: the point's parity is the measured bit and the residue is the analog
deviation.  Decoders consume either the full deviation (analog likelihoods)
or only the bit value (digital likelihoods).

Numerical conventions used throughout the package (the kernel,
:mod:`gkptrack.kernels.pure`, samples and bins):

* lattice index of x is ``ceil(x / sqrt(pi) - 0.5)`` - round half *down*, so
  an exact half-bin deviation stays with the lower lattice point and the
  binned deviation ``x - index * sqrt(pi)`` lives in ``(-sqrt(pi)/2,
  +sqrt(pi)/2]``;
* log densities are computed as ``-0.5*t*t - log(sigma) - 0.5*log(2*pi)``
  with ``t = x / sigma``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

SQRT_PI = math.sqrt(math.pi)
HALF_SQRT_PI = SQRT_PI / 2.0
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


class LikelihoodPair(NamedTuple):
    """Log-domain likelihoods of "bit correct as decided" vs "bit flipped", a tuple ``(l_match, l_flip)``."""

    l_match: float
    l_flip: float


def p_corr(sigma: float) -> float:
    """Probability that a bit is read correctly under Gaussian noise ``sigma``.

    This is the Gaussian mass on the central bin ``(-sqrt(pi)/2, sqrt(pi)/2)``;
    mass that lands two or more bins away (and would fold back onto the
    correct bit) is intentionally not credited, which understates the success
    probability by less than 1e-6 for sigma <= 0.7.  Strictly decreasing in
    sigma, with the limit 1 as sigma -> 0.
    """
    if not (sigma > 0.0) or not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite and > 0, got {sigma!r}")
    return math.erf(HALF_SQRT_PI / (sigma * math.sqrt(2.0)))


def log_gauss(x: float, sigma: float) -> float:
    """Log density of N(0, sigma^2) at ``x`` (canonical operation order)."""
    t = x / sigma
    return -0.5 * t * t - math.log(sigma) - _HALF_LOG_2PI


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
