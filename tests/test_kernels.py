"""Backend equivalence: the compiled kernel must match the pure one bitwise."""

import itertools
import re

import numpy as np
import pytest

from gkptrack.kernels import ProtocolConfig, compiled_available, get_backend

requires_compiled = pytest.mark.skipif(
    not compiled_available(), reason="compiled kernel not built"
)


def make_gen(seed=42):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 1], dtype=np.uint64)))


class TestBackendSelection:
    def test_pure_always_available(self):
        assert get_backend("pure").name == "pure"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("GKPTRACK_KERNEL", "pure")
        assert get_backend().name == "pure"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            get_backend("turbo")

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
    # accepted as parameters, refused when a trial runs
    (dict(sigma_cycle=0.0, sigma_ancilla_q=0.1), "leaves likelihoods undefined"),
    (dict(protocol="conventional", sigma_cycle=0.0, sigma_ancilla_p=0.1),
     "leaves likelihoods undefined"),
]


@pytest.mark.parametrize("backend", ["pure", pytest.param("compiled", marks=requires_compiled)])
@pytest.mark.parametrize("fields,message", INVALID_INPUTS)
def test_invalid_inputs_rejected_alike(backend, fields, message):
    """Every backend refuses the same inputs with the same message."""
    with pytest.raises(ValueError, match=re.escape(message)):
        get_backend(backend).run_block(ProtocolConfig(**{**VALID, **fields}), make_gen(), 10)


# (protocol, analog, level, cycles, sigma_cycle, sigma_ancilla_q,
#  sigma_ancilla_p, quadrature), trials -> run_block's (failures, failures_p)
# off make_gen(100 + index), recorded with the pure kernel
PINNED_STREAM = [
    (("conventional", True, 1, 2, 0.5), 600, (84, 0)),
    (("conventional", False, 1, 3, 0.45, 0.0, 0.0, "p"), 600, (128, 0)),
    (("conventional", True, 2, 2, 0.55, 0.1, 0.15, "both"), 200, (39, 29)),
    (("conventional", False, 2, 2, 0.5, 0.0, 0.0, "both"), 200, (38, 43)),
    (("tracking", True, 1, 2, 0.5, 0.1, 0.15, "q"), 600, (103, 0)),
    (("tracking", True, 1, 3, 0.45, 0.1, 0.15, "p"), 600, (147, 0)),
    (("tracking", False, 1, 2, 0.5, 0.15, 0.1, "q"), 600, (175, 0)),
    (("tracking", False, 1, 3, 0.4, 0.1, 0.15, "p"), 600, (122, 0)),
    (("tracking", True, 1, 2, 0.45, 0.12, 0.08, "both"), 400, (45, 37)),
    (("tracking", False, 1, 2, 0.45, 0.1, 0.1, "both"), 400, (72, 89)),
    (("tracking", True, 2, 3, 0.42, 0.1, 0.15, "both"), 150, (18, 28)),
    (("tracking", False, 2, 2, 0.45, 0.15, 0.1, "p"), 200, (47, 0)),
]


@pytest.mark.parametrize("index", range(len(PINNED_STREAM)))
def test_pure_stream_pinned(index):
    """The pure kernel's draw order and arithmetic give the recorded counts."""
    fields, trials, expected = PINNED_STREAM[index]
    params = ProtocolConfig(*fields)
    assert get_backend("pure").run_block(params, make_gen(100 + index), trials) == expected


@requires_compiled
class TestBitIdentity:
    @pytest.mark.parametrize(
        "protocol,analog,level,quadrature",
        list(
            itertools.product(
                ("conventional", "tracking"), (True, False), (1, 2, 3), ("q", "p", "both")
            )
        ),
    )
    def test_matched_streams_matched_counts(self, protocol, analog, level, quadrature):
        params = ProtocolConfig(
            protocol=protocol, analog=analog, level=level, cycles=2,
            sigma_cycle=0.47, quadrature=quadrature,
        )
        pure = get_backend("pure").run_block(params, make_gen(), 300)
        fast = get_backend("compiled").run_block(params, make_gen(), 300)
        assert pure == fast

    def test_with_ancilla_noise(self):
        params = ProtocolConfig(
            protocol="tracking", analog=True, level=2, cycles=3,
            sigma_cycle=0.3, sigma_ancilla_q=0.12, sigma_ancilla_p=0.08,
            quadrature="both",
        )
        assert (
            get_backend("pure").run_block(params, make_gen(7), 400)
            == get_backend("compiled").run_block(params, make_gen(7), 400)
        )

    def test_digital_tie_heavy_config(self):
        # digital decoding exercises the exact-tie coin path constantly
        params = ProtocolConfig(
            protocol="conventional", analog=False, level=2, cycles=2, sigma_cycle=0.55
        )
        assert (
            get_backend("pure").run_block(params, make_gen(9), 2000)
            == get_backend("compiled").run_block(params, make_gen(9), 2000)
        )

    def test_level4(self):
        params = ProtocolConfig(
            protocol="tracking", analog=True, level=4, cycles=2, sigma_cycle=0.45
        )
        assert (
            get_backend("pure").run_block(params, make_gen(5), 60)
            == get_backend("compiled").run_block(params, make_gen(5), 60)
        )

    def test_zero_sigma(self):
        params = ProtocolConfig(
            protocol="conventional", analog=True, level=1, cycles=2, sigma_cycle=0.0
        )
        assert get_backend("compiled").run_block(params, make_gen(), 100) == (0, 0)


@requires_compiled
class TestStreamIdentity:
    def test_normals_match_generator(self):
        from gkptrack.kernels import _fast

        a = _fast._debug_normals(make_gen(3), 64)
        g = make_gen(3)
        b = [g.standard_normal() for _ in range(64)]
        assert a == b

    def test_uniforms_match_generator(self):
        from gkptrack.kernels import _fast

        a = _fast._debug_uniforms(make_gen(3), 64)
        g = make_gen(3)
        b = [g.random() for _ in range(64)]
        assert a == b
