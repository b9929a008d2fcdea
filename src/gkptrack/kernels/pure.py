"""Pure-Python kernel: drives the reference protocol implementations."""

from __future__ import annotations

from ..protocols import run_trial, run_trial_both
from . import ProtocolConfig


def run_block(params: ProtocolConfig, generator, trials: int) -> tuple[int, int]:
    """Run ``trials`` trials off one generator; returns failure counts.

    The first count is for the scored quadrature; the second is the
    p-quadrature count when ``quadrature == "both"`` and zero otherwise.
    """
    failures = 0
    failures_p = 0
    if params.quadrature == "both":
        for _ in range(trials):
            out_q, out_p = run_trial_both(params, generator)
            failures += out_q.failed
            failures_p += out_p.failed
    else:
        for _ in range(trials):
            failures += run_trial(params, generator).failed
    return failures, failures_p
