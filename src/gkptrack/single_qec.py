"""Single-qubit-level error correction on one GKP qubit, one quadrature.

One correction cycle measures the qubit's deviation in each quadrature
through a fresh ancilla, then displaces the qubit back toward the lattice:
first a |0>-type ancilla, the CNOT target of the data qubit, reads the p
quadrature; then a |+>-type ancilla, the CNOT control of the data qubit, reads
q.  Displacements cannot undo a bit flip: if the accumulated deviation had
already crossed a half-bin boundary, shifting back lands on the wrong lattice
point and the hidden flip parity toggles.

State convention: a qubit's position is represented as
``flip * sqrt(pi) + deviation`` modulo the 2*sqrt(pi) stabilizer shift, so
even lattice shifts are silently dropped and odd shifts toggle the flip bit.
Measured deviations are stored signed; decoders only consume magnitudes.

Deviation propagation through a CNOT: the target's q deviation gains the
control's q deviation, the control's p deviation loses the target's p
deviation, and flip parities are untouched.  With ``d`` the data qubit's
accumulated deviation in the simulated quadrature, ``a1`` the first (|0>)
ancilla's and ``a2`` the second (|+>) ancilla's deviation in that quadrature:

* q: the first CNOT adds ``a1`` to the data q deviation; the second ancilla
  reads ``a2 + (d + a1)``, and after the shift the data q deviation is
  ``-a2``;
* p: the first ancilla reads ``a1 - d``, and after the shift the data p
  deviation is ``a1``; the second CNOT then subtracts ``a2`` from it, leaving
  ``a1 - a2``.

So after one cycle Var_q = sigma_a^2 and Var_p = 2 sigma_a^2 for ancilla
noise sigma_a.  Draw order (the batched kernel, :mod:`gkptrack.kernels.pure`,
replicates it): ``a1`` then ``a2``; a zero ancilla sigma consumes no draw.
"""

from __future__ import annotations

from .gkp import bin_measurement, sample_channel


def sqec_step(dev: float, quadrature: str, sigma_ancilla: float, rng) -> tuple[float, float, int]:
    """One correction cycle of one quadrature (``"q"`` or ``"p"``).

    Returns ``(residual, record, flip)``: the data qubit's deviation after
    the correction, the measured deviation binned into
    ``(-sqrt(pi)/2, +sqrt(pi)/2]``, and 1 iff the correction toggled the
    hidden flip parity.
    """
    a1 = sample_channel(sigma_ancilla, rng)
    a2 = sample_channel(sigma_ancilla, rng)
    if quadrature == "q":
        measured = a2 + (dev + a1)
        residual = -a2
    else:
        measured = a1 - dev
        residual = a1 - a2
    flip, record = bin_measurement(measured)
    return residual, record, flip
