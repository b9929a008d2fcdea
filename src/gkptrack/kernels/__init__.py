"""The Monte Carlo kernel: blocks of protocol trials off a numpy ``Generator``.

One kernel remains, :mod:`gkptrack.kernels.pure`, loaded on the first block.
It runs every config trial-batched on numpy and reaches the decisions of
the scalar decoder, :func:`gkptrack.codes.decode`; an analog decode it is
not sure of is decided again by :func:`gkptrack.protocols.decide`.  A scalar
loop of one trial at a time stays the test oracle (``tests/oracle.py``).

Stream contract, version :data:`STREAM_VERSION` (recorded in every
``manifest.json``).  A block's noise normals come from the block's generator
in this draw order: per trial, per cycle, one channel normal per qubit in
qubit order, each followed, in a tracking trial's recorded cycles 1..n-1, by
that qubit's ancilla normals ``a1`` then ``a2``.  An exactly zero ancilla
sigma draws no ancilla normal, and the conventional protocol's
teleportation uses fresh perfect ancillas, so it draws none.  Its tie coins
come from one coin generator per block,
``Generator(generator.bit_generator.jumped())``, one uniform per exact
likelihood tie, in trial order (cycles in order within a trial).  So where a
normal sits in the stream does not depend on ties.  Version 1 drew the coins
from the block's generator between the normals.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

_QUADRATURES = ("q", "p")

#: version of the stream contract in the module docstring
STREAM_VERSION = 2
#: largest ``sigma_cycle`` and ``sigma_ancilla``: at 100 a bit is a coin flip
#: and ``gkp.p_corr`` is 0.0071; far above, doubles lose the bit (lattice
#: indices above 2**53 are even) and binned values leave their bin
MAX_SIGMA = 100.0
#: highest level; a level-10 block holds 78,732 qubits
MAX_LEVEL = 10


def as_index(name: str, value) -> int:
    """``value`` as an ``int``; what ``operator.index`` refuses raises ``ValueError`` naming ``name``.

    So a float is refused, even a whole one, and a numpy integer taken.  A
    float seed would otherwise run the stream of the integer it truncates
    to, and a float count fail deep in a block.
    """
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def as_real(name: str, value) -> float:
    """``value`` as a float64 ``float``, bit for bit; what is no real number raises ``ValueError`` naming ``name``."""
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def as_bool(name: str, value) -> bool:
    """``value``, a ``bool`` or a numpy bool, as a ``bool``; anything else raises ``ValueError`` naming ``name``."""
    if not (isinstance(value, bool) or getattr(value, "dtype", None) == bool):
        raise ValueError(f"{name} must be a bool, got {value!r}")
    return bool(value)


@dataclass(frozen=True)
class ProtocolConfig:
    """Trial parameters, the one config type of the kernel and of the scalar decision.

    A trial simulates one quadrature, ``quadrature``.  ``sigma_cycle`` is the
    channel displacement noise added per cycle, above zero because the record
    likelihoods divide by its square; ``sigma_ancilla`` models imperfect
    ancilla preparation in the tracking protocol's single-qubit correction
    step (zero means perfect ancillas).  Both are standard deviations, at most
    :data:`MAX_SIGMA`.  The conventional protocol's teleportation consumes
    fresh perfect ancillas, so it refuses ancilla noise.  The p quadrature
    differs from q only through that noise (the correction step of
    :func:`gkptrack.kernels.pure._records`), so it is refused without it.

    Every invalid config is refused here, when it is made, so no trial or
    block checks its parameters.
    """

    protocol: str  # "conventional" | "tracking"
    analog: bool
    level: int
    cycles: int
    sigma_cycle: float
    sigma_ancilla: float = 0.0
    quadrature: str = "q"

    def __post_init__(self) -> None:
        if self.protocol not in ("conventional", "tracking"):
            raise ValueError(f"unknown protocol kind {self.protocol!r}")
        for name, convert in (("analog", as_bool), ("level", as_index), ("cycles", as_index),
                              ("sigma_cycle", as_real), ("sigma_ancilla", as_real)):
            object.__setattr__(self, name, convert(name, getattr(self, name)))
        if self.level < 1:
            raise ValueError(f"level must be >= 1, got {self.level}")
        if self.level > MAX_LEVEL:
            raise ValueError(f"level must be <= {MAX_LEVEL}, got {self.level}")
        min_cycles = 2 if self.protocol == "tracking" else 1
        if self.cycles < min_cycles:
            raise ValueError(f"{self.protocol} requires cycles >= {min_cycles}, got {self.cycles}")
        if self.quadrature not in _QUADRATURES:
            raise ValueError(f"quadrature must be one of {_QUADRATURES}, got {self.quadrature!r}")
        if not (math.isfinite(self.sigma_cycle) and self.sigma_cycle > 0.0):
            raise ValueError(f"sigma_cycle must be finite and > 0, got {self.sigma_cycle!r}")
        if not (math.isfinite(self.sigma_ancilla) and self.sigma_ancilla >= 0.0):
            raise ValueError(f"sigma_ancilla must be finite and >= 0, got {self.sigma_ancilla!r}")
        for name in ("sigma_cycle", "sigma_ancilla"):
            if getattr(self, name) > MAX_SIGMA:
                raise ValueError(f"{name} must be <= {MAX_SIGMA}, got {getattr(self, name)!r}")
        if self.sigma_ancilla > 0.0 and self.protocol == "conventional":
            raise ValueError("the conventional protocol uses perfect ancillas, "
                             f"so sigma_ancilla must be 0, got {self.sigma_ancilla!r}")
        if self.quadrature == "p" and self.sigma_ancilla == 0.0:
            raise ValueError("quadrature 'p' differs from 'q' only through ancilla noise, "
                             "so it needs the tracking protocol and sigma_ancilla > 0")


class PureBackend:
    """The kernel's interface: blocks run by :func:`gkptrack.kernels.pure.run_block`.

    It holds no state.  The digital decoder a block needs comes from
    :func:`gkptrack.kernels.pure.digital_decoder`, one per process.
    """

    name = "pure"

    def run_block(self, params: ProtocolConfig, generator, trials: int) -> int:
        from . import pure

        return pure.run_block(params, generator, trials)


def compiled_available() -> bool:
    """Always ``False``: the compiled kernel is retired.

    ``perfbench``'s kernel probe still imports this; it goes with the next
    change to the benchmark (ROADMAP item 1).
    """
    return False


def get_backend() -> PureBackend:
    """A new instance of the one kernel."""
    return PureBackend()
