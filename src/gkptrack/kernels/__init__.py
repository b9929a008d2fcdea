"""Monte Carlo kernel backends.

Two interchangeable kernels run blocks of protocol trials against a numpy
``Generator``: the pure-Python reference (:mod:`gkptrack.protocols` driven in
a loop) and a compiled Cython twin that replicates its draw order and
arithmetic bit for bit.  ``get_backend()`` picks the compiled kernel when the
extension is importable, else falls back to pure Python; the environment
variable ``GKPTRACK_KERNEL`` (``compiled`` or ``pure``) overrides.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class KernelParams:
    """Scalar trial parameters shared by both kernel implementations."""

    protocol: str  # "conventional" | "tracking"
    analog: bool
    level: int
    cycles: int
    sigma_cycle: float
    sigma_ancilla_q: float = 0.0
    sigma_ancilla_p: float = 0.0
    quadrature: str = "q"

    def __post_init__(self) -> None:
        # every backend rejects an invalid input as the pure kernel does
        self.protocol_config()

    def protocol_config(self):
        """The equivalent validated :class:`gkptrack.protocols.ProtocolConfig`."""
        # imported here so that loading the backends stays light
        from ..gkp import NoiseParams
        from ..protocols import ProtocolConfig

        return ProtocolConfig(
            kind=self.protocol,
            analog=self.analog,
            level=self.level,
            cycles=self.cycles,
            noise=NoiseParams(
                sigma_channel=self.sigma_cycle,
                sigma_ancilla_q=self.sigma_ancilla_q,
                sigma_ancilla_p=self.sigma_ancilla_p,
            ),
            quadrature=self.quadrature,
        )


class PureBackend:
    """Reference kernel: loops the public protocol functions."""

    name = "pure"

    def run_block(self, params: KernelParams, generator, trials: int) -> tuple[int, int]:
        from . import pure

        return pure.run_block(params, generator, trials)


class CompiledBackend:
    """Cython kernel; bitwise-identical results to the pure backend."""

    name = "compiled"

    def __init__(self) -> None:
        from . import _fast

        self._fast = _fast

    def run_block(self, params: KernelParams, generator, trials: int) -> tuple[int, int]:
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
