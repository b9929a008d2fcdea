"""The Monte Carlo kernel: blocks of protocol trials off a numpy ``Generator``.

One kernel remains, :mod:`gkptrack.kernels.pure`, loaded on the first block.
It runs every config with ``sigma_cycle > 0`` trial-batched on numpy and
reaches the decisions of the scalar trial loop over
:func:`gkptrack.protocols.run_trial`; that loop stays the test oracle.

Stream contract, version :data:`STREAM_VERSION` (recorded in every
``manifest.json``): a block's noise normals come from the block's generator
in the draw order documented in :mod:`gkptrack.protocols`.  Its tie coins
come from one coin generator per block,
``Generator(generator.bit_generator.jumped())``, one uniform per exact
likelihood tie, in trial order (q before p, cycles in order).  So where a
normal sits in the stream does not depend on ties.  Version 1 drew the coins
from the block's generator between the normals.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

_QUADRATURES = ("q", "p", "both")

#: version of the stream contract in the module docstring
STREAM_VERSION = 2


@dataclass(frozen=True)
class ProtocolConfig:
    """Trial parameters, the one config type of the kernel and of the scalar trial loop.

    ``sigma_cycle`` is the channel displacement noise added per cycle per
    quadrature; the ancilla fields model imperfect ancilla preparation in the
    single-qubit correction step (zero means perfect ancillas).  All are
    standard deviations.  Only the tracking protocol runs that step.  The
    conventional protocol's teleportation consumes fresh perfect ancillas, so
    it ignores the ancilla sigmas: they draw nothing and change no count
    (with ``sigma_cycle == 0`` the config still refuses them, as for tracking).

    Every invalid config is refused here, when it is made, so no trial or
    block checks its parameters.
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
        # the record likelihoods are keyed to the channel sigma alone
        if self.sigma_cycle == 0.0 and (self.sigma_ancilla_q > 0.0 or self.sigma_ancilla_p > 0.0):
            raise ValueError("sigma_cycle = 0 with ancilla noise leaves likelihoods undefined")


class PureBackend:
    """The kernel's interface: blocks run by :func:`gkptrack.kernels.pure.run_block`.

    A backend keeps one :class:`gkptrack.kernels.pure.DigitalDecoder` per
    digital config it runs, for its lifetime, so the blocks of a point intern
    their decoding tables once.  ``gkptrack run`` builds one backend per run.
    """

    name = "pure"

    def __init__(self) -> None:
        self._decoders = {}
        self._lock = threading.Lock()

    def run_block(self, params: ProtocolConfig, generator, trials: int) -> tuple[int, int]:
        from . import pure

        return pure.run_block(params, generator, trials, self._decoder(params))

    def _decoder(self, params: ProtocolConfig):
        """The shared decoder of a digital config with channel noise, else ``None``."""
        if params.analog or params.sigma_cycle == 0.0:
            return None
        from .pure import DigitalDecoder

        with self._lock:
            decoder = self._decoders.get(params)
            if decoder is None:
                decoder = self._decoders[params] = DigitalDecoder(params)
        return decoder


def compiled_available() -> bool:
    """Always ``False``: the compiled kernel is retired.

    ``perfbench``'s kernel probe still imports this; it goes with the next
    change to the benchmark (ROADMAP item 1).
    """
    return False


def get_backend() -> PureBackend:
    """A new instance of the one kernel."""
    return PureBackend()
