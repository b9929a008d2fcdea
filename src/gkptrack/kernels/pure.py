"""Pure-Python kernel: drives the reference protocol implementations.

Every config with ``sigma_cycle > 0`` (conventional or tracking, analog or
digital, any quadrature, ancilla noise and level) runs trial-batched on numpy
(:mod:`gkptrack.kernels.batched`): same normals, same tie coins, same
decisions, counts and final generator states as the scalar loop over
:func:`trial_failures`, which stays the reference and runs
``sigma_cycle == 0``.  Tie coins come from :func:`coin_generator`, one per
block (stream contract in :mod:`gkptrack.kernels`).
"""

from __future__ import annotations

import numpy as np

from ..protocols import run_trial, run_trial_both
from . import ProtocolConfig


def coin_generator(generator) -> np.random.Generator:
    """The tie-coin generator of a block whose normals come from ``generator``."""
    return np.random.Generator(generator.bit_generator.jumped())


def run_block(params: ProtocolConfig, generator, trials: int, decoder=None) -> tuple[int, int]:
    """Run ``trials`` trials off one generator; returns failure counts.

    The first count is for the scored quadrature; the second is the
    p-quadrature count when ``quadrature == "both"`` and zero otherwise.
    Tie coins come from the block's :func:`coin_generator`.  A digital
    config decodes on ``decoder``, a
    :class:`gkptrack.kernels.batched.DigitalDecoder` of ``params``, when one
    is given.
    """
    coins = coin_generator(generator)
    if params.sigma_cycle > 0.0:
        from . import batched

        return batched.run_block(params, generator, trials, coins, decoder)
    failures = 0
    failures_p = 0
    for _ in range(trials):
        f, f_p = trial_failures(params, generator, coins)
        failures += f
        failures_p += f_p
    return failures, failures_p


def trial_failures(params: ProtocolConfig, generator, coins) -> tuple[int, int]:
    """One scalar trial's failure indicators, ordered as :func:`run_block`'s counts."""
    if params.quadrature == "both":
        out_q, out_p = run_trial_both(params, generator, coins)
        return out_q.failed, out_p.failed
    return run_trial(params, generator, coins).failed, 0
