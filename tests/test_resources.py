"""Tests for the qubit-budget formulas (exact arithmetic)."""

import csv
import json
from fractions import Fraction

import pytest

from gkptrack.codes import block_size
from gkptrack.resources import (
    bell_pair_cost,
    logical_prep_cost,
    r_conventional,
    r_tracking,
    reduction_rate,
    report,
    table,
    write_csv,
    write_json,
)


class TestCounts:
    def test_conventional_examples(self):
        assert r_conventional(2, 1) == 32
        assert r_conventional(2, 2) == 384
        assert r_conventional(1, 1) == 16

    def test_tracking_examples(self):
        assert r_tracking(2, 1) == 24
        assert r_tracking(2, 2) == 216
        assert r_tracking(3, 1) == 32

    def test_block_and_prep_costs(self):
        assert block_size(1) == 4
        assert block_size(3) == 36
        assert bell_pair_cost(2) == 192
        assert logical_prep_cost(1) == 4

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            r_tracking(1, 1)
        with pytest.raises(ValueError):
            r_conventional(0, 1)
        with pytest.raises(ValueError):
            block_size(0)

    def test_big_values_exact_ints(self):
        # python ints do not overflow; spot-check a huge case stays exact
        assert r_conventional(100, 12) == 100 * 16 * 12**11


class TestReductionRate:
    def test_examples(self):
        assert reduction_rate(2, 1) == Fraction(1, 4)
        assert reduction_rate(2, 2) == Fraction(7, 16)
        assert reduction_rate(2, 5) == Fraction(511, 1024)

    def test_closed_form_matches_count_difference(self):
        for n in range(2, 101):
            for l in range(1, 9):
                rc, rt = r_conventional(n, l), r_tracking(n, l)
                assert reduction_rate(n, l) == Fraction(rc - rt, rc)

    def test_two_cycle_closed_form(self):
        for l in range(1, 9):
            assert reduction_rate(2, l) == Fraction(1, 2) - Fraction(1, 4 * 4 ** (l - 1))

    def test_monotone_in_n_and_l(self):
        for l in range(1, 8):
            assert reduction_rate(2, l + 1) > reduction_rate(2, l)
        for n in range(2, 100):
            assert reduction_rate(n + 1, 3) > reduction_rate(n, 3)

    def test_percent_rendering(self):
        rates = [report(2, l).rate_percent for l in range(1, 6)]
        assert rates == ["25.0", "43.8", "48.4", "49.6", "49.9"]


class TestReport:
    def test_saved_identity(self):
        r = report(3, 2)
        assert r.saved == r.r_conventional - r.r_tracking
        assert r.reduction_rate == Fraction(r.saved, r.r_conventional)

    def test_csv_and_json(self, tmp_path):
        reports = table(2, range(1, 6))
        write_csv(tmp_path / "r.csv", reports)
        write_json(tmp_path / "r.json", reports)
        with open(tmp_path / "r.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["r_conventional"] == "32"
        assert rows[0]["rate_percent"] == "25.0"
        payload = json.loads((tmp_path / "r.json").read_text())
        assert payload[4]["rate_percent"] == "49.9"
        assert payload[1]["rate"] == {"numerator": 7, "denominator": 16}
