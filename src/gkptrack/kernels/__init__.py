"""The Monte Carlo kernel: blocks of protocol trials off a numpy ``Generator``.

One kernel remains, the pure kernel (:mod:`gkptrack.kernels.pure`).  It runs
every config with ``sigma_cycle > 0`` trial-batched on numpy
(:mod:`gkptrack.kernels.batched`, loaded on the first such block), which
reaches the decisions of the scalar trial loop over
:mod:`gkptrack.protocols`; that loop stays the test oracle.

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
    """Scalar trial parameters, the one config type of every kernel.

    ``sigma_cycle`` is the channel displacement noise added per cycle per
    quadrature; the ancilla fields model imperfect ancilla preparation in the
    single-qubit correction step (zero means perfect ancillas).  All are
    standard deviations.  Only the tracking protocol runs that step.  The
    conventional protocol's teleportation consumes fresh perfect ancillas, so
    it ignores the ancilla sigmas: they draw nothing and change no count
    (with ``sigma_cycle == 0`` a trial still refuses them, as tracking does).
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
    """The kernel: the protocol functions, trial-batched where there is channel noise.

    A backend keeps one :class:`gkptrack.kernels.batched.DigitalDecoder` per
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
        from .batched import DigitalDecoder

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


def get_backend(name: str | None = None):
    """The kernel called ``name``; ``None`` and ``"pure"`` both give the pure kernel.

    With one kernel left this only validates the name; ``perfbench``'s kernel
    probe and its traced pass still call it (ROADMAP item 1).
    """
    if name in (None, "pure"):
        return PureBackend()
    raise ValueError(f"unknown kernel backend {name!r}")
