"""Pure-Python kernel: drives the reference protocol implementations.

Analog configs with ``sigma_cycle > 0`` (conventional or tracking, any
quadrature, ancilla noise and level) run trial-batched on numpy
(:mod:`gkptrack.kernels.batched`): same draws, same decisions, same counts
and the same final generator state as the scalar loop, with any trial too
close to call re-run by the scalar loop's :func:`trial_failures`.  On one
thread of a 2-core VM, tracking/analog with two cycles runs ~0.8-1M trials/s
at L1, ~250-310k at L2 and ~80-90k at L3, against ~20k, ~5-8k and ~2k for the
scalar loop; two threads were no faster than one.  Digital configs and
``sigma_cycle == 0`` run the scalar loop.
"""

from __future__ import annotations

from ..protocols import run_trial, run_trial_both
from . import ProtocolConfig


def run_block(params: ProtocolConfig, generator, trials: int) -> tuple[int, int]:
    """Run ``trials`` trials off one generator; returns failure counts.

    The first count is for the scored quadrature; the second is the
    p-quadrature count when ``quadrature == "both"`` and zero otherwise.
    """
    if params.analog and params.sigma_cycle > 0.0:
        from . import batched

        return batched.run_block(params, generator, trials)
    failures = 0
    failures_p = 0
    for _ in range(trials):
        f, f_p = trial_failures(params, generator)
        failures += f
        failures_p += f_p
    return failures, failures_p


def trial_failures(params: ProtocolConfig, generator) -> tuple[int, int]:
    """One scalar trial's failure indicators, ordered as :func:`run_block`'s counts."""
    if params.quadrature == "both":
        out_q, out_p = run_trial_both(params, generator)
        return out_q.failed, out_p.failed
    return run_trial(params, generator).failed, 0
