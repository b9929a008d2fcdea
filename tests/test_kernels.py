"""Kernel selection, input validation and the pinned stream of the kernel."""

import re

import numpy as np
import pytest

from gkptrack.kernels import ProtocolConfig, get_backend


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
    (dict(quadrature="x"), "quadrature must be one of ('q', 'p', 'both'), got 'x'"),
    (dict(sigma_cycle=-0.5), "sigma_cycle must be finite and >= 0, got -0.5"),
    (dict(sigma_cycle=float("nan")), "sigma_cycle must be finite and >= 0, got nan"),
    (dict(sigma_ancilla_p=-0.1), "sigma_ancilla_p must be finite and >= 0, got -0.1"),
    # ancilla noise without channel noise: the record likelihoods are keyed
    # to the channel sigma, so ProtocolConfig refuses it too
    (dict(sigma_cycle=0.0, sigma_ancilla_q=0.1), "leaves likelihoods undefined"),
    (dict(protocol="conventional", sigma_cycle=0.0, sigma_ancilla_p=0.1),
     "leaves likelihoods undefined"),
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


# (protocol, analog, level, cycles, sigma_cycle, sigma_ancilla_q,
#  sigma_ancilla_p, quadrature), trials -> run_block's (failures, failures_p)
# off make_gen(100 + index).  The analog entries are those recorded under
# stream version 1: their decodes practically never tie, so moving the tie
# coins to their own substream left them as they were.  The digital entries
# were re-pinned for stream version 2 (version 1: 128, (38, 43), 175, 122,
# (72, 89) and 47, in order).
PINNED_STREAM = [
    (("conventional", True, 1, 2, 0.5), 600, (84, 0)),
    (("conventional", False, 1, 3, 0.45, 0.0, 0.0, "p"), 600, (132, 0)),
    (("conventional", True, 2, 2, 0.55, 0.1, 0.15, "both"), 200, (39, 29)),
    (("conventional", False, 2, 2, 0.5, 0.0, 0.0, "both"), 200, (45, 33)),
    (("tracking", True, 1, 2, 0.5, 0.1, 0.15, "q"), 600, (103, 0)),
    (("tracking", True, 1, 3, 0.45, 0.1, 0.15, "p"), 600, (147, 0)),
    (("tracking", False, 1, 2, 0.5, 0.15, 0.1, "q"), 600, (159, 0)),
    (("tracking", False, 1, 3, 0.4, 0.1, 0.15, "p"), 600, (143, 0)),
    (("tracking", True, 1, 2, 0.45, 0.12, 0.08, "both"), 400, (45, 37)),
    (("tracking", False, 1, 2, 0.45, 0.1, 0.1, "both"), 400, (82, 88)),
    (("tracking", True, 2, 3, 0.42, 0.1, 0.15, "both"), 150, (18, 28)),
    (("tracking", False, 2, 2, 0.45, 0.15, 0.1, "p"), 200, (35, 0)),
]


@pytest.mark.parametrize("index", range(len(PINNED_STREAM)))
def test_pure_stream_pinned(index):
    """The kernel's draw order and arithmetic give the recorded counts."""
    fields, trials, expected = PINNED_STREAM[index]
    params = ProtocolConfig(*fields)
    assert get_backend().run_block(params, make_gen(100 + index), trials) == expected
