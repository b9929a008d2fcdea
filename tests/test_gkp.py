"""Tests for GKP primitives: the oracle's binning and channel sampling, and the likelihoods."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkptrack.gkp import (
    HALF_SQRT_PI,
    SQRT_PI,
    digital_likelihoods,
    log_gauss,
    p_corr,
)
from gkptrack.protocols import _analog_pair
from oracle import bin_measurement, lattice_index, sample_channel


def gaussian_mass_simpson(sigma: float, lo: float, hi: float, n: int = 200_001) -> float:
    """Quadrature oracle for the central-bin mass, independent of erf."""
    x = np.linspace(lo, hi, n)
    y = np.exp(-(x**2) / (2 * sigma * sigma)) / math.sqrt(2 * math.pi * sigma * sigma)
    h = (hi - lo) / (n - 1)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(h / 3.0 * np.sum(w * y))


class TestSampleChannel:
    def test_zero_sigma_exact(self):
        rng = np.random.default_rng(0)
        assert sample_channel(0.0, rng) == 0.0
        # and consumes no draw
        assert rng.standard_normal() == np.random.default_rng(0).standard_normal()

    def test_moments(self):
        rng = np.random.default_rng(1234)
        n = 1_000_000
        draws = np.array([sample_channel(0.5, rng) for _ in range(n)])
        assert abs(draws.mean()) < 4 * (0.5 / math.sqrt(n))
        assert abs(draws.var() - 0.25) < 0.005 * 0.25


class TestBinning:
    @pytest.mark.parametrize(
        "q, bit, dev",
        [
            (0.0, 0, 0.0),
            (SQRT_PI, 1, 0.0),
            (-0.6 * SQRT_PI, 1, 0.4 * SQRT_PI),
            (2 * SQRT_PI + 0.3, 0, 0.3),
        ],
    )
    def test_examples(self, q, bit, dev):
        out_bit, out_dev = bin_measurement(q)
        assert out_bit == bit
        assert out_dev == pytest.approx(dev, abs=1e-12)

    def test_half_bin_tie_goes_down(self):
        # an exactly representable half-bin value stays with the lower point
        assert bin_measurement(HALF_SQRT_PI) == (0, HALF_SQRT_PI)
        assert lattice_index(HALF_SQRT_PI) == 0
        bit, dev = bin_measurement(-HALF_SQRT_PI)
        assert bit == 1
        assert dev == pytest.approx(HALF_SQRT_PI)

    @given(st.integers(-50, 50), st.floats(-0.499, 0.499))
    def test_idempotence(self, k, frac):
        d = frac * SQRT_PI
        bit, dev = bin_measurement(k * SQRT_PI + d)
        assert dev == pytest.approx(d, abs=1e-9)
        assert bit == k % 2

    @given(st.floats(-20.0, 20.0))
    def test_consistency_with_true_flip(self, delta):
        # with the reference bit 0 the measured bit is the hidden flip: the
        # parity of the lattice shift that takes delta into the central bin
        bit, dev = bin_measurement(delta)
        assert bit == round((delta - dev) / SQRT_PI) % 2

    def test_deviation_range(self):
        rng = np.random.default_rng(7)
        for q in rng.normal(0, 3.0, 2000):
            _, d = bin_measurement(float(q))
            assert -HALF_SQRT_PI < d <= HALF_SQRT_PI


class TestTrueFlip:
    @pytest.mark.parametrize(
        "delta, flip",
        [(0.0, 0), (0.9 * SQRT_PI, 1), (2.1 * SQRT_PI, 0), (-1.2 * SQRT_PI, 1)],
    )
    def test_examples(self, delta, flip):
        assert lattice_index(delta) & 1 == flip
        assert bin_measurement(delta)[0] == flip


class TestPCorr:
    def test_against_quadrature_oracle(self):
        for sigma in (0.3, 0.5, 0.555, 0.607, 0.05):
            oracle = gaussian_mass_simpson(sigma, -HALF_SQRT_PI, HALF_SQRT_PI)
            assert p_corr(sigma) == pytest.approx(oracle, abs=1e-9)

    def test_small_sigma_near_one(self):
        assert 1.0 - p_corr(0.05) < 1e-6

    def test_paper_operating_points(self):
        # misidentification rates at the two reference noise levels
        assert 1.0 - p_corr(0.555) == pytest.approx(0.1103, abs=2e-4)
        assert 1.0 - p_corr(0.607) == pytest.approx(0.1443, abs=2e-4)

    def test_rejects_nonpositive(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                p_corr(bad)

    def test_strictly_decreasing(self):
        # strict everywhere the value has not saturated to 1.0 in doubles
        sigmas = np.linspace(0.05, 2.0, 100)
        values = [p_corr(float(s)) for s in sigmas]
        for a, b in zip(values, values[1:]):
            assert a >= b
            if a < 1.0:
                assert a > b

    @pytest.mark.parametrize("sigma", [0.3, 0.555, 0.607])
    def test_monte_carlo_agreement(self, sigma):
        rng = np.random.default_rng(99)
        n = 1_000_000
        draws = rng.normal(0.0, sigma, n)
        frac = float(np.mean(np.abs(draws) < HALF_SQRT_PI))
        se = math.sqrt(frac * (1 - frac) / n)
        assert abs(frac - p_corr(sigma)) < 4 * se


class TestLikelihoods:
    """The analog pair is :func:`gkptrack.protocols._analog_pair`: (match, flip)."""

    def test_analog_at_mode(self):
        l_match, l_flip = _analog_pair(0.0, 0.4)
        assert l_match == pytest.approx(math.log(1.0 / math.sqrt(2 * math.pi * 0.16)))
        assert l_flip == pytest.approx(log_gauss(SQRT_PI, 0.4))

    def test_analog_symmetry_point(self):
        l_match, l_flip = _analog_pair(HALF_SQRT_PI, 0.5)
        assert l_match == l_flip

    def test_analog_ratio_against_density_oracle(self):
        l_match, l_flip = _analog_pair(0.3, 0.5)

        def density(x):
            return math.exp(-(x * x) / (2 * 0.25)) / math.sqrt(2 * math.pi * 0.25)

        ratio = math.exp(l_match) / math.exp(l_flip)
        assert ratio == pytest.approx(density(0.3) / density(SQRT_PI - 0.3), rel=1e-12)

    @given(st.floats(-0.886, 0.886))
    def test_analog_sign_symmetry(self, d):
        assert _analog_pair(d, 0.5) == _analog_pair(-d, 0.5)

    def test_analog_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            _analog_pair(SQRT_PI, 0.5)

    def test_digital_matches_p_corr(self):
        for sigma in (0.555, 0.607):
            lp = digital_likelihoods(sigma)
            assert lp.l_match == pytest.approx(math.log(p_corr(sigma)))
            assert lp.l_flip == pytest.approx(math.log(1 - p_corr(sigma)))

    def test_digital_small_sigma_flip_diverges(self):
        assert digital_likelihoods(0.08).l_flip < -50


settings.register_profile("default", deadline=None, max_examples=60)
settings.load_profile("default")
