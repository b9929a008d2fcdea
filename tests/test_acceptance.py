"""Acceptance suite: one test per validation criterion, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The acceptance-scale
Monte Carlo tests carry the ``heavy`` marker, which the default pytest
options deselect; run them with ``pytest -m heavy tests/test_acceptance.py
-v -s`` (minutes of wall time on the pure kernel).  Under stream version 2
digital ties draw their coins from each block's coin substream
(:mod:`gkptrack.kernels`), so digital counts differ from version 1 runs
within their noise.  Every criterion is asserted at its stated tolerance;
nothing is loosened to force a pass.  Five criteria are known to fail, with
the measured values printed and the reasons summarized below (criteria 3, 4
and 5 are heavy, 1 and 9 are not):

* criterion 1 (partly): the exact misidentification rate at sigma 0.607 is
  14.43%, outside the stated 14.3 +- 0.1 window (the 14.3 figure is a rounded
  literature value).
* criterion 3 (analog half): the tracked protocol's analog threshold
  measures ~1.01.  The per-qubit parity-fused likelihoods this protocol
  prescribes are a sufficient statistic, so its decoder is exactly maximum
  likelihood - no decoder of the same records can reach the 1.14 target.
* criteria 4 and 5 (analog parts): consequences of the same gap - the
  tracked/conventional analog failure ratio measures ~1.7 at level 1 and
  grows with level, rather than staying near 1.1.
* criterion 9 (half the patterns): with equal per-qubit likelihoods the
  four-qubit block is provably degenerate only on odd-parity patterns;
  even-parity patterns give a strict inequality, so "all 16 patterns" cannot
  hold.  The part that does hold (odd-parity patterns tie exactly, even-parity
  patterns are decisive toward their own class) is asserted by
  ``tests/test_codes.py::TestBlockPairLikelihoods::test_digital_degeneracy_odd_patterns``.
"""

import itertools
import math
import os
from fractions import Fraction

import numpy as np
import pytest

from gkptrack import codes, resources, single_qec
from gkptrack.gkp import (
    HALF_SQRT_PI,
    LikelihoodPair,
    digital_likelihoods,
    p_corr,
)
from gkptrack.harness import (
    CsvSink,
    SweepConfig,
    estimate_point,
    find_threshold,
    sweep,
    wilson_interval,
)
from oracle import oracle_ml_decode

pytestmark = pytest.mark.acceptance

SEED = 0xACCE

heavy = pytest.mark.heavy


def verdict(num, name, ok, detail):
    print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def se_of(p, n):
    return math.sqrt(max(p * (1.0 - p), 1e-300) / n)


def point(protocol, analog, level, sigma_total, trials, seed_offset, cycles=2):
    return estimate_point(
        protocol, analog, cycles, level, sigma_total, trials,
        master_seed=SEED + seed_offset,
    )


# --- threshold sweeps shared by criteria 2 and 3 -------------------------------

THRESHOLD_TRIALS = 400_000  # per point; criterion demands >= 1e5


@pytest.fixture(scope="module")
def thresholds():
    out = {}
    for name, proto, analog, start in [
        ("conv-dig", "conventional", False, 1.05),
        ("conv-ana", "conventional", True, 1.13),
        ("track-dig", "tracking", False, 0.88),
        ("track-ana", "tracking", True, 0.96),
    ]:
        grid = tuple(round(start + 0.02 * i, 10) for i in range(7))
        cfg = SweepConfig(
            protocol=proto, analog=analog, cycles=2, sigma_total_grid=grid,
            levels=(1, 2, 3), trials_per_point=THRESHOLD_TRIALS,
            master_seed=SEED + 20,
        )
        out[name] = find_threshold(sweep(cfg, None))
    return out


class TestCriteria:
    def test_criterion_01_misidentification_rates(self):
        r555 = (1.0 - p_corr(0.555)) * 100.0
        r607 = (1.0 - p_corr(0.607)) * 100.0
        ok555 = abs(r555 - 11.0) <= 0.1
        ok607 = abs(r607 - 14.3) <= 0.1
        verdict(
            1, "misidentification rates",
            ok555 and ok607,
            f"sigma 0.555 -> {r555:.4f}% (want 11.0 +- 0.1: {'ok' if ok555 else 'out'}), "
            f"sigma 0.607 -> {r607:.4f}% (want 14.3 +- 0.1: {'ok' if ok607 else 'out'})",
        )

    @heavy
    def test_criterion_02_conventional_thresholds(self, thresholds):
        dig, ana = thresholds["conv-dig"], thresholds["conv-ana"]
        ok_d = abs(dig.sigma_star - 1.11) <= 0.03
        ok_a = abs(ana.sigma_star - 1.21) <= 0.03
        verdict(
            2, "conventional thresholds",
            ok_d and ok_a,
            f"digital {dig.sigma_star:.4f} (want 1.11 +- 0.03, spread {dig.spread:.3f}), "
            f"analog {ana.sigma_star:.4f} (want 1.21 +- 0.03, spread {ana.spread:.3f})",
        )

    @heavy
    def test_criterion_03_tracking_thresholds(self, thresholds):
        dig, ana = thresholds["track-dig"], thresholds["track-ana"]
        deg_d = thresholds["conv-dig"].sigma_star - dig.sigma_star
        deg_a = thresholds["conv-ana"].sigma_star - ana.sigma_star
        ok = (
            abs(dig.sigma_star - 0.942) <= 0.03
            and abs(ana.sigma_star - 1.14) <= 0.03
            and abs(deg_d - 0.17) <= 0.04
            and abs(deg_a - 0.07) <= 0.04
        )
        verdict(
            3, "tracking thresholds",
            ok,
            f"digital {dig.sigma_star:.4f} (want 0.942 +- 0.03), "
            f"analog {ana.sigma_star:.4f} (want 1.14 +- 0.03), "
            f"degradation digital {deg_d:.4f} (want 0.17 +- 0.04), "
            f"analog {deg_a:.4f} (want 0.07 +- 0.04)",
        )

    @heavy
    def test_criterion_04_ratio_ordering_and_operating_point(self):
        # tracked/conventional failure ratios at fixed noise, levels 1..3
        sigma_set = (0.724, 0.80)
        trials = {1: 2_000_000, 2: 2_000_000, 3: 3_000_000}
        ratios = {}
        for sig, level in itertools.product(sigma_set, (1, 2, 3)):
            row = {}
            for label, analog in (("ana", True), ("dig", False)):
                pc = point("conventional", analog, level, sig, trials[level], 40)
                pt = point("tracking", analog, level, sig, trials[level], 41)
                r = pt.p_fail / pc.p_fail if pc.p_fail > 0 else float("inf")
                se_r = (
                    r * math.sqrt(
                        (se_of(pc.p_fail, pc.trials) / pc.p_fail) ** 2
                        + (se_of(pt.p_fail, pt.trials) / max(pt.p_fail, 1e-12)) ** 2
                    )
                    if pc.p_fail > 0 and pt.p_fail > 0
                    else float("inf")
                )
                row[label] = (r, se_r)
            ratios[(sig, level)] = row

        ordering_ok = True
        details = []
        for key, row in sorted(ratios.items()):
            (ra, sa), (rd, sd) = row["ana"], row["dig"]
            margin = 4 * math.hypot(sa, sd)
            point_ok = ra <= rd + margin
            ordering_ok &= point_ok
            details.append(
                f"sigma={key[0]} L{key[1]}: analog {ra:.2f}+-{sa:.2f} vs digital {rd:.2f}+-{sd:.2f}"
                f" {'ok' if point_ok else 'VIOLATED'}"
            )
        growth_ok = True
        for sig in sigma_set:
            r1, s1 = ratios[(sig, 1)]["dig"]
            r2, s2 = ratios[(sig, 2)]["dig"]
            r3, s3 = ratios[(sig, 3)]["dig"]
            growth_ok &= (r2 > r1 - 4 * math.hypot(s1, s2)) and (r3 > r2 - 4 * math.hypot(s2, s3))
            growth_ok &= r3 > r1 + 4 * math.hypot(s1, s3)

        # operating point: sigma where the conventional analog level-1 curve
        # passes 0.00375; the tracked value there should be 0.00421 +- 15%
        lo, hi = 0.64, 0.74
        for _ in range(7):
            mid = 0.5 * (lo + hi)
            p_mid = point("conventional", True, 1, mid, 1_500_000, 42).p_fail
            if p_mid < 0.00375:
                lo = mid
            else:
                hi = mid
        sigma_op = 0.5 * (lo + hi)
        p_conv = point("conventional", True, 1, sigma_op, 3_000_000, 43).p_fail
        p_track = point("tracking", True, 1, sigma_op, 3_000_000, 44).p_fail
        op_ok = abs(p_track - 0.00421) <= 0.15 * 0.00421

        verdict(
            4, "ratio ordering and operating point",
            ordering_ok and growth_ok and op_ok,
            f"ordering {'ok' if ordering_ok else 'VIOLATED'} [" + "; ".join(details) + "]; "
            f"digital growth with level {'ok' if growth_ok else 'VIOLATED'}; "
            f"operating point sigma={sigma_op:.4f} conv={p_conv:.5f} "
            f"track={p_track:.5f} (want 0.00421 +- 15%: {'ok' if op_ok else 'out'})",
        )

    @heavy
    def test_criterion_05_practical_noise_gap(self):
        # analog, level 2, sigma 0.724: tracked vs conventional within 4 sigma
        pc = point("conventional", True, 2, 0.724, 2_000_000, 50)
        pt = point("tracking", True, 2, 0.724, 2_000_000, 51)
        joint = math.hypot(se_of(pc.p_fail, pc.trials), se_of(pt.p_fail, pt.trials))
        ana_ok = abs(pt.p_fail - pc.p_fail) <= 4 * joint
        # digital, level 2, sigma 0.692: the tracked curve must sit clearly above
        dc = point("conventional", False, 2, 0.692, 1_000_000, 52)
        dt = point("tracking", False, 2, 0.692, 1_000_000, 53)
        djoint = math.hypot(se_of(dc.p_fail, dc.trials), se_of(dt.p_fail, dt.trials))
        dig_ok = (dt.p_fail - dc.p_fail) > 4 * djoint
        verdict(
            5, "practical-noise gap",
            ana_ok and dig_ok,
            f"analog@0.724 L2: conv {pc.p_fail:.6f} vs track {pt.p_fail:.6f} "
            f"(|diff| {abs(pt.p_fail - pc.p_fail):.2e} vs 4sig {4 * joint:.2e}: "
            f"{'ok' if ana_ok else 'out'}); "
            f"digital@0.692 L2: conv {dc.p_fail:.6f} vs track {dt.p_fail:.6f} "
            f"(gap significant: {'ok' if dig_ok else 'NOT significant'})",
        )

    @heavy
    def test_criterion_06_two_cycle_identity(self):
        ok = True
        parts = []
        for i, sigma_total in enumerate((0.8, 1.0, 1.2)):
            n = 400_000
            p1 = point("conventional", True, 1, sigma_total / 2, n, 60 + i, cycles=1).p_fail
            p2 = point("conventional", True, 1, sigma_total, n, 63 + i, cycles=2).p_fail
            expected = 2 * p1 * (1 - p1)
            se = math.hypot(se_of(p2, n), 2 * abs(1 - 2 * p1) * se_of(p1, n))
            good = abs(p2 - expected) <= 4 * se
            ok &= good
            parts.append(
                f"sigma={sigma_total}: P2 {p2:.5f} vs 2P1(1-P1) {expected:.5f} "
                f"{'ok' if good else 'out'}"
            )
        verdict(6, "two-cycle identity", ok, "; ".join(parts))

    def test_criterion_07_resource_table(self):
        rates = [resources.report(2, l).rate_percent for l in range(1, 6)]
        rates_ok = rates == ["25.0", "43.8", "48.4", "49.6", "49.9"]
        identity_ok = all(
            resources.reduction_rate(n, l)
            == Fraction(
                resources.r_conventional(n, l) - resources.r_tracking(n, l),
                resources.r_conventional(n, l),
            )
            for n in range(2, 101)
            for l in range(1, 9)
        )
        verdict(
            7, "resource table",
            rates_ok and identity_ok,
            f"rates n=2 l=1..5: {rates} (exact: {'ok' if rates_ok else 'wrong'}); "
            f"closed form == count difference for n<=100, l<=8: "
            f"{'ok' if identity_ok else 'wrong'}",
        )

    def test_criterion_08_decoder_oracle_equivalence(self):
        rng = np.random.default_rng(SEED)
        mismatches = 0
        campaigns = ((1, 100_000), (2, 1_000))
        for level, count in campaigns:
            n = codes.block_size(level)
            for i in range(count):
                bits = [int(b) for b in rng.integers(0, 2, n)]
                lps = [
                    LikelihoodPair(float(-abs(rng.normal(0, 1))), float(-abs(rng.normal(0, 3))))
                    for _ in range(n)
                ]
                b1, _ = codes.decode(level, bits, lps, np.random.default_rng(i))
                b2 = oracle_ml_decode(level, bits, lps, np.random.default_rng(i))
                mismatches += b1 != b2
        verdict(
            8, "decoder = exhaustive ML oracle",
            mismatches == 0,
            f"{campaigns[0][1]} level-1 + {campaigns[1][1]} level-2 random instances, "
            f"{mismatches} mismatches",
        )

    def test_criterion_09_digital_block_degeneracy(self):
        lp = digital_likelihoods(0.555)
        lps = [lp] * 4
        failing = []
        for pattern in range(16):
            bits = [(pattern >> i) & 1 for i in range(4)]
            t = codes.block_pair_likelihoods(codes.c4_table(), bits, lps)
            l0 = codes.logaddexp2(t.f00, t.f01)
            l1 = codes.logaddexp2(t.f10, t.f11)
            if l0 != l1:
                failing.append("".join(map(str, bits)))
        verdict(
            9, "digital degeneracy on all 16 patterns",
            not failing,
            f"equality holds on {16 - len(failing)}/16 patterns; "
            f"strict inequality on even-parity patterns {failing}"
            if failing
            else "exact equality on all 16 patterns",
        )

    def test_criterion_10_single_qubit_variance_law(self):
        # the step the tracking protocol runs for every recorded cycle
        sig_a = 0.1
        rng = np.random.default_rng(SEED + 70)
        n = 1_000_000
        vq, vp = [], []
        for _ in range(n):
            res_q, _, flip_q = single_qec.sqec_step(rng.normal(0, 0.2), "q", sig_a, rng)
            res_p, _, flip_p = single_qec.sqec_step(rng.normal(0, 0.2), "p", sig_a, rng)
            if flip_q == 0:
                vq.append(res_q)
            if flip_p == 0:
                vp.append(res_p)
        var_q, var_p = float(np.var(vq)), float(np.var(vp))
        se_q = sig_a**2 * math.sqrt(2.0 / len(vq))
        se_p = 2 * sig_a**2 * math.sqrt(2.0 / len(vp))
        ok = abs(var_q - sig_a**2) <= 4 * se_q and abs(var_p - 2 * sig_a**2) <= 4 * se_p
        verdict(
            10, "single-qubit variance law",
            ok,
            f"Var_q {var_q:.6f} (want {sig_a**2:.4f} +- {4 * se_q:.1e}), "
            f"Var_p {var_p:.6f} (want {2 * sig_a**2:.4f} +- {4 * se_p:.1e}), "
            f"{n} trials",
        )

    @heavy
    def test_criterion_11_determinism(self, tmp_path):
        cfg = SweepConfig(
            protocol="tracking", analog=True, cycles=2,
            sigma_total_grid=(0.95, 1.0), levels=(1, 2),
            trials_per_point=30_000, master_seed=SEED + 80,
        )
        paths = []
        for workers in (1, 4):
            p = tmp_path / f"w{workers}.csv"
            sweep(cfg, CsvSink(p), workers=workers)
            paths.append(p.read_bytes())
        ok = paths[0] == paths[1]
        verdict(
            11, "byte-identical CSVs across thread counts",
            ok,
            f"workers 1 vs 4: {'identical' if ok else 'DIFFER'} "
            f"({len(paths[0])} bytes)",
        )

    @heavy
    def test_smoke_high_level_suppression(self):
        # below threshold, raising the level keeps suppressing failures;
        # reduced trial counts, indicative rather than tolerance-bearing
        sigma_total = 0.85
        trials = 30_000
        ps = []
        for level in (1, 2, 3, 4, 5):
            est = point("tracking", True, level, sigma_total, trials, 90)
            ps.append(est.p_fail)
        ok = all(
            b <= a + 4 * math.hypot(se_of(a, trials), se_of(b, trials))
            for a, b in zip(ps, ps[1:])
        ) and ps[-1] < ps[0] / 3
        print(
            f"\n[smoke] level-4/5 suppression: {'PASS' if ok else 'FAIL'} - "
            f"tracking analog at sigma {sigma_total}: "
            + ", ".join(f"L{l}={p:.5f}" for l, p in zip((1, 2, 3, 4, 5), ps))
        )
        assert ok
