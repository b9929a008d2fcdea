"""Monte Carlo kernel backends.

Two interchangeable kernels run blocks of protocol trials against a numpy
``Generator``: the pure-Python reference (:mod:`gkptrack.protocols` driven in
a loop) and a compiled Cython twin that replicates its draw order and
arithmetic bit for bit.  ``get_backend()`` picks the compiled kernel when the
extension is importable, else falls back to pure Python; the environment
variable ``GKPTRACK_KERNEL`` (``compiled`` or ``pure``) overrides.

The pure kernel runs analog configs with ``sigma_cycle > 0`` trial-batched on
numpy (:mod:`gkptrack.kernels.batched`, loaded on the first such block) and
everything else through the scalar trial loop.  The batched path draws the
same stream and reaches the same decisions, so both kernels' counts stay
bit-identical; see :mod:`gkptrack.kernels.pure` for its speed.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

_QUADRATURES = ("q", "p", "both")


@dataclass(frozen=True)
class ProtocolConfig:
    """Scalar trial parameters, the one config type of every kernel.

    ``sigma_cycle`` is the channel displacement noise added per cycle per
    quadrature; the ancilla fields model imperfect ancilla preparation in the
    single-qubit correction step (zero means perfect ancillas).  All are
    standard deviations.  Only the tracking protocol runs that step.  The
    conventional protocol's teleportation consumes fresh perfect ancillas, so
    it ignores the ancilla sigmas: they draw nothing and change no count
    (with ``sigma_cycle == 0`` a trial still refuses them, as tracking does).
    The compiled kernel reads these fields by name.
    """

    protocol: str  # "conventional" | "tracking"
    analog: bool
    level: int
    cycles: int
    sigma_cycle: float
    sigma_ancilla_q: float = 0.0
    sigma_ancilla_p: float = 0.0
    quadrature: str = "q"

    def __post_init__(self) -> None:
        # every backend refuses an invalid input here, with the same message
        if self.protocol not in ("conventional", "tracking"):
            raise ValueError(f"unknown protocol kind {self.protocol!r}")
        if self.level < 1:
            raise ValueError(f"level must be >= 1, got {self.level}")
        min_cycles = 2 if self.protocol == "tracking" else 1
        if self.cycles < min_cycles:
            raise ValueError(f"{self.protocol} requires cycles >= {min_cycles}, got {self.cycles}")
        if self.quadrature not in _QUADRATURES:
            raise ValueError(f"quadrature must be one of {_QUADRATURES}, got {self.quadrature!r}")
        for name in ("sigma_cycle", "sigma_ancilla_q", "sigma_ancilla_p"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


class PureBackend:
    """Reference kernel: the protocol functions, trial-batched on analog configs."""

    name = "pure"

    def run_block(self, params: ProtocolConfig, generator, trials: int) -> tuple[int, int]:
        from . import pure

        return pure.run_block(params, generator, trials)


class CompiledBackend:
    """Cython kernel; bitwise-identical results to the pure backend."""

    name = "compiled"

    def __init__(self) -> None:
        from . import _fast

        self._fast = _fast

    def run_block(self, params: ProtocolConfig, generator, trials: int) -> tuple[int, int]:
        return self._fast.run_block(params, generator, trials)


def compiled_available() -> bool:
    try:
        from . import _fast  # noqa: F401
    except ImportError:
        return False
    return True


def get_backend(name: str | None = None):
    """Resolve a backend by name, env override, or availability."""
    choice = name or os.environ.get("GKPTRACK_KERNEL")
    if choice is None:
        return CompiledBackend() if compiled_available() else PureBackend()
    if choice == "pure":
        return PureBackend()
    if choice == "compiled":
        return CompiledBackend()
    raise ValueError(f"unknown kernel backend {choice!r}")
