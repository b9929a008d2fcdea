"""Tests for the conventional and tracking protocol trials."""

import math

import numpy as np
import pytest

from gkptrack.codes import block_size
from gkptrack.codes import decode
from gkptrack.gkp import (
    HALF_SQRT_PI,
    SQRT_PI,
    bin_measurement,
    digital_likelihoods,
    lattice_index,
    log_gauss,
    p_corr,
)
from gkptrack.protocols import ProtocolConfig, joint_likelihood, run_trial
from oracle import concat_word_first_bit, random_codeword


def conv_cfg(sigma, level=1, cycles=2, analog=True, quadrature="q"):
    return ProtocolConfig(
        protocol="conventional", analog=analog, level=level, cycles=cycles,
        sigma_cycle=sigma, quadrature=quadrature,
    )


def track_cfg(sigma, level=1, cycles=2, analog=True, quadrature="q", anc_q=0.0, anc_p=0.0):
    return ProtocolConfig(
        protocol="tracking", analog=analog, level=level, cycles=cycles,
        sigma_cycle=sigma, sigma_ancilla_q=anc_q, sigma_ancilla_p=anc_p,
        quadrature=quadrature,
    )


class TestConfig:
    def test_tracking_needs_two_cycles(self):
        with pytest.raises(ValueError):
            track_cfg(0.3, cycles=1)
        conv_cfg(0.3, cycles=1)  # fine

    def test_bad_kind_and_quadrature(self):
        with pytest.raises(ValueError):
            ProtocolConfig(protocol="nope", analog=True, level=1, cycles=2, sigma_cycle=0.3)
        with pytest.raises(ValueError):
            conv_cfg(0.3, quadrature="x")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            conv_cfg(-0.1)
        with pytest.raises(ValueError):
            track_cfg(0.1, anc_q=-1)

    def test_defaults(self):
        cfg = conv_cfg(0.5)
        assert cfg.sigma_ancilla_q == 0.0 and cfg.sigma_ancilla_p == 0.0
        assert cfg.quadrature == "q"


class TestJointLikelihood:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            joint_likelihood([], 0.5, True)

    def test_single_record_is_plain_pair(self):
        lp = joint_likelihood([0.3], 0.5, True)
        assert lp.l_match == pytest.approx(log_gauss(0.3, 0.5))
        assert lp.l_flip == pytest.approx(log_gauss(SQRT_PI - 0.3, 0.5))

    def test_two_cycle_zero_deviations(self):
        sigma = 0.5
        lp = joint_likelihood([0.0, 0.0], sigma, True)
        f0 = math.exp(log_gauss(0.0, sigma))
        fpi = math.exp(log_gauss(SQRT_PI, sigma))
        assert math.exp(lp.l_match) == pytest.approx(f0 * f0 + fpi * fpi, rel=1e-12)
        assert math.exp(lp.l_flip) == pytest.approx(2 * f0 * fpi, rel=1e-12)
        assert lp.l_match > lp.l_flip

    def test_symmetry_point(self):
        lp = joint_likelihood([HALF_SQRT_PI, HALF_SQRT_PI], 0.5, True)
        assert lp.l_match == lp.l_flip

    def test_three_cycle_parity_oracle(self):
        rng = np.random.default_rng(4)
        sigma = 0.45
        for _ in range(200):
            recs = [float(d) for d in rng.uniform(-HALF_SQRT_PI, HALF_SQRT_PI, 3)]
            lp = joint_likelihood(recs, sigma, True)
            even = odd = 0.0
            for flips in range(8):
                weight = 1.0
                parity = 0
                for i, r in enumerate(recs):
                    if (flips >> i) & 1:
                        weight *= math.exp(log_gauss(SQRT_PI - abs(r), sigma))
                        parity ^= 1
                    else:
                        weight *= math.exp(log_gauss(abs(r), sigma))
                if parity == 0:
                    even += weight
                else:
                    odd += weight
            assert math.exp(lp.l_match) == pytest.approx(even, rel=1e-9)
            assert math.exp(lp.l_flip) == pytest.approx(odd, rel=1e-9)

    def test_digital_matches_composition_formulas(self):
        # two cycles: exactly p^2 + q^2 and 2 p q
        sigma = 0.5
        p, q = p_corr(sigma), 1.0 - p_corr(sigma)
        lp = joint_likelihood([0.1, -0.2], sigma, False)
        assert math.exp(lp.l_match) == pytest.approx(p * p + q * q, rel=1e-12)
        assert math.exp(lp.l_flip) == pytest.approx(2 * p * q, rel=1e-12)
        # and it is exactly the composition of the single-cycle digital pairs
        d = digital_likelihoods(sigma)
        direct_even = np.logaddexp(d.l_match + d.l_match, d.l_flip + d.l_flip)
        assert lp.l_match == pytest.approx(float(direct_even), rel=1e-13)

    def test_digital_ignores_record_values(self):
        a = joint_likelihood([0.0, 0.1, -0.5], 0.5, False)
        b = joint_likelihood([0.3, 0.3, 0.3], 0.5, False)
        assert a == b


class TestZeroNoise:
    @pytest.mark.parametrize("kind", ["conventional", "tracking"])
    def test_never_fails(self, kind):
        rng, coins = np.random.default_rng(0), np.random.default_rng(1)
        cfg = conv_cfg(0.0) if kind == "conventional" else track_cfg(0.0)
        for _ in range(200):
            assert run_trial(cfg, rng, coins) == (0, 0)


class TestConventional:
    def test_two_cycle_identity(self):
        # failure of 2 cycles equals 2 P (1-P) of the single-cycle rate
        rng, coins = np.random.default_rng(77), np.random.default_rng(78)
        sigma_c = 0.5
        n = 60_000
        p1 = sum(run_trial(conv_cfg(sigma_c, cycles=1), rng, coins)[0] for _ in range(n)) / n
        p2 = sum(run_trial(conv_cfg(sigma_c, cycles=2), rng, coins)[0] for _ in range(n)) / n
        expected = 2 * p1 * (1 - p1)
        se = math.sqrt(p2 * (1 - p2) / n) + 2 * abs(1 - 2 * p1) * math.sqrt(p1 * (1 - p1) / n)
        assert abs(p2 - expected) < 4 * se

    def test_xor_composition_in_distribution(self):
        # n-cycle failure vs XOR of independent single-cycle runs (two-sample)
        rng, coins = np.random.default_rng(13), np.random.default_rng(14)
        sigma_c, n = 0.55, 40_000
        direct = sum(run_trial(conv_cfg(sigma_c, cycles=3), rng, coins)[0] for _ in range(n)) / n
        xored = 0
        for _ in range(n):
            parity = 0
            for _ in range(3):
                # the truth is 0, so a one-cycle failure is its decoded bit
                parity ^= run_trial(conv_cfg(sigma_c, cycles=1), rng, coins)[0]
            xored += parity
        xored /= n
        se = math.sqrt(direct * (1 - direct) / n + xored * (1 - xored) / n)
        assert abs(direct - xored) < 4 * se

    def test_random_codeword_equivalence(self):
        # same randomness, a random codeword transmitted each cycle: replaying
        # the trial's stream in the codeword's frame gives the identical
        # failure flag as run_trial's all-zero transmission
        sigma_c, cycles = 0.55, 2
        n = block_size(1)
        for seed in range(2000):
            words = np.random.default_rng(seed)
            cfg = conv_cfg(sigma_c, level=1, cycles=cycles)
            failed, _ = run_trial(cfg, np.random.default_rng(seed + 10_000),
                                  np.random.default_rng(seed + 20_000))

            rng, coins = np.random.default_rng(seed + 10_000), np.random.default_rng(seed + 20_000)
            coded = 0
            for _c in range(cycles):
                word = random_codeword(1, words)
                bits, lps = [], []
                for i in range(n):
                    bit, deviation = bin_measurement(sigma_c * rng.standard_normal())
                    bits.append(bit ^ word[i])
                    lps.append(joint_likelihood([deviation], sigma_c, True))
                bit, _ = decode(1, bits, lps, coins)
                coded ^= bit ^ concat_word_first_bit(1, word)
            assert coded == failed


class TestTracking:
    def test_hidden_flips_are_xor_of_per_cycle_flips(self):
        # with perfect ancillas, a replay of the same stream that accumulates
        # flips as XOR of per-cycle true flips must reproduce the trial
        sigma_c = 0.6
        cycles = 3
        n = block_size(1)
        for seed in range(500):
            cfg = track_cfg(sigma_c, cycles=cycles, level=1)
            failed, _ = run_trial(cfg, np.random.default_rng(seed), np.random.default_rng(seed + 1000))

            rng = np.random.default_rng(seed)
            flips = [0] * n
            records = [[] for _ in range(n)]
            for _c in range(cycles - 1):
                for i in range(n):
                    d = sigma_c * rng.standard_normal()
                    flips[i] ^= lattice_index(d) & 1
                    records[i].append(bin_measurement(d)[1])
            bits = []
            for i in range(n):
                bit, deviation = bin_measurement(sigma_c * rng.standard_normal())
                bits.append(flips[i] ^ bit)
                records[i].append(deviation)
            lps = [joint_likelihood(records[i], sigma_c, True) for i in range(n)]
            bit, _ = decode(1, bits, lps, np.random.default_rng(seed + 1000))
            # the truth is 0, so the failure indicator is the decoded bit
            assert bit == failed

    def test_quadrature_p_runs(self):
        failed, failed_p = run_trial(track_cfg(0.5, quadrature="p"), np.random.default_rng(0),
                                     np.random.default_rng(1))
        assert failed in (0, 1) and failed_p == 0

    def test_both_quadratures_agree_statistically(self):
        rng, coins = np.random.default_rng(3), np.random.default_rng(4)
        cfg = track_cfg(0.55, quadrature="both")
        n = 30_000
        fq = fp = 0
        for _ in range(n):
            oq, op = run_trial(cfg, rng, coins)
            fq += oq
            fp += op
        pq, pp = fq / n, fp / n
        se = math.sqrt(pq * (1 - pq) / n + pp * (1 - pp) / n)
        assert abs(pq - pp) < 4 * se

    def test_ancilla_noise_accepted(self):
        cfg = track_cfg(0.4, anc_q=0.1, anc_p=0.1)
        assert run_trial(cfg, np.random.default_rng(0), np.random.default_rng(1))[0] in (0, 1)
