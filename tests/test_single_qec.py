"""Tests for the oracle's single-qubit-level error correction step."""

import math

import numpy as np
import pytest

from gkptrack.gkp import HALF_SQRT_PI, SQRT_PI
from oracle import lattice_index, sqec_step


class CountingRng:
    """numpy Generator proxy that counts ``standard_normal`` draws."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.normals = 0

    def standard_normal(self):
        self.normals += 1
        return self._rng.standard_normal()


class TestSqecP:
    def test_small_deviation_corrected(self):
        rng = np.random.default_rng(0)
        residual, record, flip = sqec_step(0.3, "p", 0.0, rng)
        assert record == pytest.approx(-0.3)
        assert residual == 0.0
        assert flip == 0

    def test_large_deviation_flips(self):
        rng = np.random.default_rng(0)
        residual, record, flip = sqec_step(0.9 * SQRT_PI, "p", 0.0, rng)
        assert residual == 0.0
        assert flip == 1
        assert abs(record) == pytest.approx(0.1 * SQRT_PI)

    def test_conditional_variance(self):
        # the p record misreads the deviation by the first ancilla's deviation
        # alone: Var(record + dev) equals the ancilla variance, flips excluded
        rng = np.random.default_rng(42)
        n = 200_000
        errors = []
        for _ in range(n):
            dev = rng.normal(0, 0.2)
            _, record, flip = sqec_step(dev, "p", 0.1, rng)
            if flip == 0:
                errors.append(record + dev)
        var = float(np.var(errors))
        se = 0.01 * math.sqrt(2.0 / len(errors))
        assert abs(var - 0.01) < 4 * se


class TestSqecQ:
    def test_small_deviation_corrected(self):
        rng = np.random.default_rng(0)
        residual, record, flip = sqec_step(0.2, "q", 0.0, rng)
        assert abs(record) == pytest.approx(0.2)
        assert residual == pytest.approx(0.0)
        assert flip == 0

    def test_large_deviation_flips(self):
        rng = np.random.default_rng(0)
        residual, _, flip = sqec_step(0.7 * SQRT_PI, "q", 0.0, rng)
        assert flip == 1
        assert residual == pytest.approx(0.0)


class TestSqecCycle:
    """One recorded cycle of the tracking loop, in each quadrature."""

    def test_perfect_ancillas_record_and_reset(self):
        rng = np.random.default_rng(0)
        res_q, rec_q, flip_q = sqec_step(0.3, "q", 0.0, rng)
        res_p, rec_p, flip_p = sqec_step(-0.2, "p", 0.0, rng)
        assert abs(rec_q) == pytest.approx(0.3)
        assert abs(rec_p) == pytest.approx(0.2)
        assert (res_q, res_p) == (pytest.approx(0.0), pytest.approx(0.0))
        assert (flip_q, flip_p) == (0, 0)

    def test_flip_recorded_past_half_bin(self):
        rng = np.random.default_rng(0)
        _, record, flip = sqec_step(0.8 * SQRT_PI, "q", 0.0, rng)
        assert flip == 1
        assert abs(record) == pytest.approx(0.2 * SQRT_PI)

    def test_flip_matches_true_flip_for_perfect_ancillas(self):
        rng = np.random.default_rng(3)
        for _ in range(2000):
            dq, dp = rng.normal(0, 0.8, 2)
            res_q, _, flip_q = sqec_step(dq, "q", 0.0, rng)
            res_p, _, flip_p = sqec_step(dp, "p", 0.0, rng)
            # the true flip of a displacement: the parity of its lattice index
            assert flip_q == lattice_index(dq) & 1
            assert flip_p == lattice_index(dp) & 1
            assert res_q == pytest.approx(0.0, abs=1e-12)
            assert res_p == pytest.approx(0.0, abs=1e-12)

    def test_record_in_bin_range(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            for quadrature in ("q", "p"):
                _, record, _ = sqec_step(rng.normal(0, 1.0), quadrature, 0.2, rng)
                assert -HALF_SQRT_PI < record <= HALF_SQRT_PI

    def test_variance_bookkeeping(self):
        # after a cycle: Var(residual q) = sig_a^2, Var(residual p) = 2 sig_a^2
        rng = np.random.default_rng(17)
        sig_a = 0.1
        n = 200_000
        vq, vp = [], []
        for _ in range(n):
            res_q, _, flip_q = sqec_step(rng.normal(0, 0.2), "q", sig_a, rng)
            res_p, _, flip_p = sqec_step(rng.normal(0, 0.2), "p", sig_a, rng)
            if flip_q == 0:
                vq.append(res_q)
            if flip_p == 0:
                vp.append(res_p)
        var_q, var_p = float(np.var(vq)), float(np.var(vp))
        se_q = sig_a**2 * math.sqrt(2.0 / len(vq))
        se_p = 2 * sig_a**2 * math.sqrt(2.0 / len(vp))
        assert abs(var_q - sig_a**2) < 4 * se_q
        assert abs(var_p - 2 * sig_a**2) < 4 * se_p

    @pytest.mark.parametrize("quadrature", ["q", "p"])
    @pytest.mark.parametrize("sigma,draws", [(0.0, 0), (0.1, 2)])
    def test_ancilla_draw_count(self, quadrature, sigma, draws):
        rng = CountingRng(5)
        sqec_step(0.4, quadrature, sigma, rng)
        assert rng.normals == draws
