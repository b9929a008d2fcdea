"""Kernel selection, input validation and the pinned stream of the kernel."""

import re

import numpy as np
import pytest

from gkptrack.kernels import MAX_LEVEL, ProtocolConfig, get_backend


def make_gen(seed=42):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 1], dtype=np.uint64)))


class TestBackendSelection:
    def test_pure_always_available(self):
        assert get_backend().name == "pure"

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ProtocolConfig(protocol="x", analog=True, level=1, cycles=2, sigma_cycle=0.1)
        with pytest.raises(ValueError):
            ProtocolConfig(protocol="tracking", analog=True, level=0, cycles=2, sigma_cycle=0.1)


VALID = dict(protocol="tracking", analog=True, level=1, cycles=2, sigma_cycle=0.5)

# ProtocolConfig's messages: the checks every kernel's config passes
INVALID_INPUTS = [
    (dict(cycles=1), "tracking requires cycles >= 2, got 1"),
    (dict(analog=False, cycles=1), "tracking requires cycles >= 2, got 1"),
    (dict(protocol="conventional", cycles=0), "conventional requires cycles >= 1, got 0"),
    (dict(level=0), "level must be >= 1, got 0"),
    (dict(protocol="surface"), "unknown protocol kind 'surface'"),
    (dict(quadrature="x"), "quadrature must be one of ('q', 'p'), got 'x'"),
    (dict(sigma_cycle=-0.5), "sigma_cycle must be finite and > 0, got -0.5"),
    (dict(sigma_cycle=float("nan")), "sigma_cycle must be finite and > 0, got nan"),
    (dict(sigma_ancilla=-0.1), "sigma_ancilla must be finite and >= 0, got -0.1"),
    # no channel noise: the record likelihoods divide by its square
    (dict(sigma_cycle=0.0), "sigma_cycle must be finite and > 0, got 0.0"),
    (dict(protocol="conventional", analog=False, sigma_cycle=0.0),
     "sigma_cycle must be finite and > 0, got 0.0"),
    # teleportation consumes fresh perfect ancillas: the value would change no count
    (dict(protocol="conventional", sigma_ancilla=0.1),
     "the conventional protocol uses perfect ancillas, so sigma_ancilla must be 0, got 0.1"),
    (dict(quadrature="both"), "quadrature must be one of ('q', 'p'), got 'both'"),
    # p differs from q only through ancilla noise, which these configs lack
    (dict(quadrature="p"), "quadrature 'p' differs from 'q' only through ancilla noise, "
     "so it needs the tracking protocol and sigma_ancilla > 0"),
    (dict(protocol="conventional", analog=False, cycles=1, quadrature="p"),
     "quadrature 'p' differs from 'q' only through ancilla noise, "
     "so it needs the tracking protocol and sigma_ancilla > 0"),
    # sigmas at which a bit is a coin flip and doubles lose it: never run
    (dict(sigma_cycle=1e300), "sigma_cycle must be <= 100.0, got 1e+300"),
    (dict(protocol="conventional", analog=False, sigma_cycle=100.5), "sigma_cycle must be <= 100.0, got 100.5"),
    (dict(sigma_ancilla=1e17), "sigma_ancilla must be <= 100.0, got 1e+17"),
    # what operator.index refuses, a whole float too, would fail deep in a block
    (dict(level=1.0), "level must be an integer, got 1.0"),
    (dict(cycles=2.5), "cycles must be an integer, got 2.5"),
    (dict(protocol="conventional", cycles="2"), "cycles must be an integer, got '2'"),
    # a string sigma raised a bare TypeError, and the truthy "off" ran analog
    (dict(sigma_cycle="0.5"), "sigma_cycle must be a real number, got '0.5'"),
    (dict(analog="off"), "analog must be a bool, got 'off'"),
]


# the one kernel's name, kept as a parameter so that these cases keep their ids
@pytest.mark.parametrize("backend", ["pure"])
@pytest.mark.parametrize("fields,message", INVALID_INPUTS)
def test_invalid_inputs_rejected_alike(backend, fields, message):
    """The kernel refuses invalid inputs with ``ProtocolConfig``'s messages."""
    kernel = get_backend()
    assert kernel.name == backend
    with pytest.raises(ValueError, match=re.escape(message)):
        kernel.run_block(ProtocolConfig(**{**VALID, **fields}), make_gen(), 10)


@pytest.mark.parametrize("level", [MAX_LEVEL + 1, 18])
def test_level_no_run_can_hold_refused(level):
    """A level above MAX_LEVEL is refused when its config is made, so no block of it is ever run.

    One trial of a conventional L18 cycle would draw 516,560,652 normals, 4.1 GB.
    """
    with pytest.raises(ValueError, match=re.escape(f"level must be <= {MAX_LEVEL}, got {level}")):
        ProtocolConfig("conventional", False, level, 1, 0.5)
    assert ProtocolConfig("conventional", False, MAX_LEVEL, 1, 0.5).level == MAX_LEVEL


# (protocol, analog, level, cycles, sigma_cycle, sigma_ancilla, quadrature),
# trials -> run_block's failure count off make_gen(100 + index).  The analog
# entries are those recorded under stream version 1: their decodes
# practically never tie, so moving the tie coins to their own substream left
# them as they were.  The digital entries were re-pinned for stream version 2
# (version 1: 128, 175, 122 and 47, in order, for entries 1, 6, 7 and 11).
# Entries 2, 3, 8, 9 and 10 pinned configs that simulated q then p in every
# trial; their single-quadrature successors were counted by that kernel.
# Entries 1 and 2 run q: p, which the config refuses without ancilla noise,
# gave the same counts.
PINNED_STREAM = [
    (("conventional", True, 1, 2, 0.5), 600, 84),
    (("conventional", False, 1, 3, 0.45, 0.0, "q"), 600, 132),
    (("conventional", True, 2, 2, 0.55, 0.0, "q"), 200, 36),
    (("conventional", False, 2, 2, 0.5, 0.0, "q"), 200, 40),
    (("tracking", True, 1, 2, 0.5, 0.1, "q"), 600, 103),
    (("tracking", True, 1, 3, 0.45, 0.15, "p"), 600, 147),
    (("tracking", False, 1, 2, 0.5, 0.15, "q"), 600, 159),
    (("tracking", False, 1, 3, 0.4, 0.15, "p"), 600, 143),
    (("tracking", True, 1, 2, 0.45, 0.08, "p"), 400, 34),
    (("tracking", False, 1, 2, 0.45, 0.1, "q"), 400, 79),
    (("tracking", True, 2, 3, 0.42, 0.15, "p"), 150, 25),
    (("tracking", False, 2, 2, 0.45, 0.1, "p"), 200, 35),
]


@pytest.mark.parametrize("index", range(len(PINNED_STREAM)))
def test_pure_stream_pinned(index):
    """The kernel's draw order and arithmetic give the recorded counts."""
    fields, trials, expected = PINNED_STREAM[index]
    params = ProtocolConfig(*fields)
    assert get_backend().run_block(params, make_gen(100 + index), trials) == expected
