"""Tests for the C4/C6 tables and the maximum-likelihood decoder."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkptrack.gkp import LikelihoodPair, digital_likelihoods
from gkptrack.codes import (
    C6_PAIR_TRIPLES,
    PAIR_VALUE,
    block_pair_likelihoods,
    block_size,
    c4_table,
    c6_level_up,
    c6_level_up_rows,
    c6_table,
    decode,
    logaddexp2,
    logsumexp_sorted,
    PairLikelihoods,
)
from gkptrack.kernels import ProtocolConfig
from gkptrack.protocols import _analog_pair, digital_pair
from oracle import concat_word_class, concat_word_first_bit, oracle_ml_decode, random_codeword


def pair(lm, lf):
    return LikelihoodPair(l_match=lm, l_flip=lf)


def analog_pair(deviation, sigma):
    """The analog likelihood pair of one binned deviation, as the scalar trial builds it."""
    return LikelihoodPair(*_analog_pair(deviation, sigma))


def random_leaves(rng, n):
    bits = [int(b) for b in rng.integers(0, 2, n)]
    lps = [pair(float(-abs(rng.normal(0, 1))), float(-abs(rng.normal(0, 3)))) for _ in range(n)]
    return bits, lps


class TestC4Table:
    def test_exact_table(self):
        t = c4_table()
        assert t.codewords == {
            (0, 0): ((0, 0, 0, 0), (1, 1, 1, 1)),
            (0, 1): ((0, 1, 0, 1), (1, 0, 1, 0)),
            (1, 0): ((0, 0, 1, 1), (1, 1, 0, 0)),
            (1, 1): ((0, 1, 1, 0), (1, 0, 0, 1)),
        }

    def test_distance_and_distinctness(self):
        words = [w for ws in c4_table().codewords.values() for w in ws]
        assert len(set(words)) == 8
        for a, b in itertools.combinations(words, 2):
            assert sum(x != y for x, y in zip(a, b)) >= 2

    def test_class_coset_structure(self):
        for words in c4_table().codewords.values():
            a, b = words
            assert tuple(x ^ y for x, y in zip(a, b)) == (1, 1, 1, 1)


class TestC6Table:
    def test_shape(self):
        t = c6_table()
        assert t.n_units == 6
        assert sorted(t.codewords) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        words = [w for ws in t.codewords.values() for w in ws]
        assert len(words) == 16
        assert len(set(words)) == 16
        assert all(len(ws) == 4 for ws in t.codewords.values())

    def test_z_parity_checks(self):
        for words in c6_table().codewords.values():
            for s in words:
                assert (s[2] ^ s[3] ^ s[4] ^ s[5]) == 0  # IIZZZZ
                assert (s[0] ^ s[1] ^ s[4] ^ s[5]) == 0  # ZZIIZZ

    def test_closed_under_x_stabilizers(self):
        x1 = (0, 0, 1, 1, 1, 1)  # IIXXXX
        x2 = (1, 1, 0, 0, 1, 1)  # XXIIXX
        for words in c6_table().codewords.values():
            ws = set(words)
            for w in words:
                for x in (x1, x2):
                    assert tuple(a ^ b for a, b in zip(w, x)) in ws

    def test_min_interclass_distance(self):
        t = c6_table()
        mind = 6
        for (ca, wa), (cb, wb) in itertools.combinations(t.codewords.items(), 2):
            for a in wa:
                for b in wb:
                    mind = min(mind, sum(x != y for x, y in zip(a, b)))
        assert mind == 2

    def test_contains_all_zeros_in_class_00(self):
        assert (0, 0, 0, 0, 0, 0) in c6_table().codewords[(0, 0)]


class TestBlockPairLikelihoods:
    def test_strong_match_selects_class(self):
        bits = [0, 1, 0, 1]
        lps = [pair(0.0, -50.0)] * 4
        table = block_pair_likelihoods(c4_table(), bits, lps)
        values = table
        assert max(range(4), key=values.__getitem__) == 1  # class (0,1)

    def test_two_term_structure_single_error(self):
        # measured 0010: class (0,0) combines flip-on-3 with flips-elsewhere
        sigma = 0.5
        rng = np.random.default_rng(2)
        devs = rng.uniform(-0.8, 0.8, 4)
        lps = [analog_pair(float(d), sigma) for d in devs]
        lm = [lp.l_match for lp in lps]
        lf = [lp.l_flip for lp in lps]
        table = block_pair_likelihoods(c4_table(), [0, 0, 1, 0], lps)
        expected = logaddexp2(
            lm[0] + lm[1] + lf[2] + lm[3],  # transmitted 0000, single error on 3
            lf[0] + lf[1] + lm[2] + lf[3],  # transmitted 1111, triple error
        )
        assert table.f00 == pytest.approx(expected, rel=1e-12)

    def test_digital_degeneracy_odd_patterns(self):
        # with equal leaves, all four classes tie exactly on odd-parity patterns
        lps = [digital_likelihoods(0.555)] * 4
        for bits_int in range(16):
            bits = [(bits_int >> i) & 1 for i in range(4)]
            t = block_pair_likelihoods(c4_table(), bits, lps)
            l0 = logaddexp2(t.f00, t.f01)
            l1 = logaddexp2(t.f10, t.f11)
            if sum(bits) % 2 == 1:
                assert t.f00 == t.f01 == t.f10 == t.f11
                assert l0 == l1
            else:
                # even patterns are decisive toward the pattern's own class
                assert l0 != l1
                cls = concat_word_class(1, tuple(bits))
                assert (l1 > l0) == (cls[0] == 1)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            block_pair_likelihoods(c4_table(), [0, 0, 0], [digital_likelihoods(0.5)] * 3)

    def test_matches_exhaustive_grouping(self):
        rng = np.random.default_rng(9)
        t = c4_table()
        for _ in range(300):
            bits, lps = random_leaves(rng, 4)
            table = block_pair_likelihoods(t, bits, lps)
            lm = [lp.l_match for lp in lps]
            lf = [lp.l_flip for lp in lps]
            for ci in range(4):
                words = t.codewords[PAIR_VALUE[ci]]
                sums = [
                    sum(lm[i] if w[i] == bits[i] else lf[i] for i in range(4)) for w in words
                ]
                m = max(sums)
                expected = m + math.log(sum(math.exp(s - m) for s in sums))
                assert table[ci] == pytest.approx(expected, rel=1e-12)


class TestC6LevelUp:
    def test_sharp_consistent_tables(self):
        sharp = PairLikelihoods(0.0, -60.0, -60.0, -60.0)
        out = c6_level_up([sharp, sharp, sharp])
        values = out
        assert max(range(4), key=values.__getitem__) == 0

    def test_uniform_stays_uniform(self):
        u = PairLikelihoods(0.0, 0.0, 0.0, 0.0)
        out = c6_level_up([u, u, u])
        assert len(set(out)) == 1

    def test_against_triple_enumeration_oracle(self):
        # independent oracle: filter all 64 pair-triples by the class words
        t6 = c6_table()
        valid = {}
        for cls, words in t6.codewords.items():
            valid[cls] = [
                (2 * s[0] + s[3], 2 * s[1] + s[4], 2 * s[2] + s[5]) for s in words
            ]
        rng = np.random.default_rng(21)
        for _ in range(200):
            subs = [
                PairLikelihoods(*(float(v) for v in -np.abs(rng.normal(0, 2, 4))))
                for _ in range(3)
            ]
            out = c6_level_up(subs)
            t1, t2, t3 = subs
            for ci in range(4):
                sums = [t1[i] + t2[j] + t3[k] for i, j, k in valid[PAIR_VALUE[ci]]]
                m = max(sums)
                expected = m + math.log(sum(math.exp(s - m) for s in sums))
                assert out[ci] == pytest.approx(expected, rel=1e-12)

    def test_requires_three(self):
        u = PairLikelihoods(0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            c6_level_up([u, u])


def assert_rows_fold_every_triple(tables):
    """``c6_level_up_rows`` equals ``c6_level_up`` bit for bit on every triple of rows of ``tables``; returns the rows."""
    k = len(tables)
    keys = np.arange(k ** 3)
    rows = c6_level_up_rows(tables, keys // (k * k), keys // k % k, keys % k)
    pairs = [PairLikelihoods(*row) for row in tables.tolist()]
    expected = np.array([c6_level_up(triple) for triple in itertools.product(pairs, repeat=3)])
    assert rows.shape == expected.shape
    # equal bits, so -0.0 against 0.0 and -inf count too
    assert np.array_equal(rows.view(np.int64), expected.view(np.int64))
    return rows


class TestC6LevelUpRows:
    @pytest.mark.parametrize("protocol", ["conventional", "tracking"])
    @pytest.mark.parametrize("sigma", [0.02, 0.3, 0.5, 1.0, 3.0])
    def test_digital_c4_and_l2_tables(self, protocol, sigma):
        """Every triple of a digital config's C4 tables, then of its distinct L2 tables."""
        lp = digital_pair(ProtocolConfig(protocol, False, 1, 2, sigma))
        if sigma == 0.02:
            assert lp.l_flip == -math.inf
        c4 = np.array([block_pair_likelihoods(c4_table(), bits, [lp] * 4)
                       for bits in itertools.product((0, 1), repeat=4)])
        level2 = assert_rows_fold_every_triple(np.unique(c4, axis=0))
        assert_rows_fold_every_triple(np.unique(level2, axis=0))

    def test_infinite_and_tied_rows(self):
        tables = np.array([
            [-math.inf] * 4,
            [-math.inf, -2.0, -math.inf, -2.0],
            [-1.5, -1.5, -1.5, -1.5],
            [0.0, -0.0, 0.0, -0.0],
            [-0.25, -3.0, -0.25, -3.0],
            [-700.0, -1.0, -1.0, -745.5],
        ])
        rows = assert_rows_fold_every_triple(tables)
        assert rows[0].tolist() == [-math.inf] * 4


class TestDecode:
    def test_level1_clean(self):
        rng = np.random.default_rng(0)
        lps = [analog_pair(0.01, 0.4)] * 4
        bit, _ = decode(1, [0, 0, 0, 0], lps, rng)
        assert bit == 0

    def test_level1_digital_tie_consumes_coin(self):
        lps = [digital_likelihoods(0.5)] * 4
        r1 = np.random.default_rng(123)
        before = r1.random()
        r1 = np.random.default_rng(123)
        bit, _ = decode(1, [0, 0, 1, 0], lps, r1)
        # the coin consumed exactly the draw that produced `before`
        assert bit == (0 if before < 0.5 else 1)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            decode(2, [0] * 4, [digital_likelihoods(0.5)] * 4, np.random.default_rng(0))

    @pytest.mark.parametrize("level,count,seed", [(1, 3000, 10), (2, 150, 11)])
    def test_matches_oracle(self, level, count, seed):
        rng = np.random.default_rng(seed)
        words = np.random.default_rng(seed + 1000)
        n = block_size(level)
        for _ in range(count):
            bits, lps = random_leaves(rng, n)
            b_dec, _ = decode(level, bits, lps, np.random.default_rng(1))
            b_orc = oracle_ml_decode(level, bits, lps, np.random.default_rng(1))
            assert b_dec == b_orc
            # frame independence: measuring in a codeword's frame flips the
            # decision by that codeword's first logical bit
            word = random_codeword(level, words)
            b_word, _ = decode(level, [b ^ w for b, w in zip(bits, word)], lps, np.random.default_rng(1))
            assert b_word == b_dec ^ concat_word_first_bit(level, word)

    def test_oracle_rejects_level3(self):
        with pytest.raises(ValueError):
            oracle_ml_decode(3, [0] * 36, [digital_likelihoods(0.5)] * 36, np.random.default_rng(0))

    def test_oracle_codeword_with_sharp_leaves(self):
        rng = np.random.default_rng(31)
        for level in (1, 2):
            word = random_codeword(level, rng)
            lps = [pair(0.0, -80.0)] * len(word)
            cls = concat_word_class(level, word)
            assert oracle_ml_decode(level, list(word), lps, np.random.default_rng(0)) == cls[0]

    def test_analog_tie_rate_negligible(self):
        # generic analog instances essentially never tie
        rng = np.random.default_rng(5)
        sigma = 0.5
        ties = 0
        n_trials = 20_000
        for _ in range(n_trials):
            devs = rng.uniform(-0.88, 0.88, 4)
            lps = [analog_pair(float(d), sigma) for d in devs]
            bits = [int(b) for b in rng.integers(0, 2, 4)]
            t = block_pair_likelihoods(c4_table(), bits, lps)
            if logaddexp2(t.f00, t.f01) == logaddexp2(t.f10, t.f11):
                ties += 1
        assert ties == 0

    @given(st.floats(-5, 5), st.integers(0, 2**32 - 1))
    def test_scale_invariance(self, shift, seed):
        rng = np.random.default_rng(seed)
        bits, lps = random_leaves(rng, 12)
        b1, t1 = decode(2, bits, lps, np.random.default_rng(seed))
        shifted = [pair(lp.l_match + shift, lp.l_flip + shift) for lp in lps]
        b2, t2 = decode(2, bits, shifted, np.random.default_rng(seed))
        assert b1 == b2

    def test_scale_invariance_on_tie_path(self):
        # shifting digital leaves keeps the exact tie and the same coin
        lps = [digital_likelihoods(0.5)] * 4
        shifted = [pair(lp.l_match + 2.5, lp.l_flip + 2.5) for lp in lps]
        for seed in range(50):
            b1, _ = decode(1, [0, 0, 1, 0], lps, np.random.default_rng(seed))
            b2, _ = decode(1, [0, 0, 1, 0], shifted, np.random.default_rng(seed))
            assert b1 == b2

    def test_word_order_irrelevant(self):
        # class values are functions of the word set, not its ordering
        rng = np.random.default_rng(8)
        bits, lps = random_leaves(rng, 4)
        table = c4_table()
        reversed_words = {cls: tuple(reversed(ws)) for cls, ws in table.codewords.items()}
        shuffled = type(table)(name="C4", n_units=4, codewords=reversed_words)
        t1 = block_pair_likelihoods(table, bits, lps)
        t2 = block_pair_likelihoods(shuffled, bits, lps)
        assert t1 == t2


class TestTieExactness:
    """Float tie detection must agree with exact rational arithmetic."""

    @pytest.mark.parametrize("level", [1, 2])
    def test_digital_ties_match_exact_arithmetic(self, level):
        lp = digital_likelihoods(0.555)
        pm = Fraction(math.exp(lp.l_match))  # exact binary rational of the float
        pf = Fraction(math.exp(lp.l_flip))
        n = block_size(level)
        pm_pow = [pm**k for k in range(n + 1)]
        pf_pow = [pf**k for k in range(n + 1)]

        codewords = []
        for word_bits in itertools.product((0, 1), repeat=n):
            cls = concat_word_class(level, word_bits)
            if cls is not None:
                codewords.append((word_bits, cls))

        lps = [lp] * n
        mismatch = []
        for pattern_int in range(1 << n):
            bits = [(pattern_int >> i) & 1 for i in range(n)]
            sums = {cls: Fraction(0) for cls in PAIR_VALUE.values()}
            for word, cls in codewords:
                k = sum(1 for i in range(n) if word[i] == bits[i])
                sums[cls] += pm_pow[k] * pf_pow[n - k]
            exact_tie = (sums[(0, 0)] + sums[(0, 1)]) == (sums[(1, 0)] + sums[(1, 1)])

            tables = [
                block_pair_likelihoods(c4_table(), bits[i : i + 4], lps[i : i + 4])
                for i in range(0, n, 4)
            ]
            while len(tables) > 1:
                tables = [c6_level_up(tables[j : j + 3]) for j in range(0, len(tables), 3)]
            t = tables[0]
            float_tie = logaddexp2(t.f00, t.f01) == logaddexp2(t.f10, t.f11)
            if float_tie != exact_tie:
                mismatch.append((bits, exact_tie, float_tie))
        assert mismatch == []


class TestHelpers:
    def test_logsumexp_sorted_permutation_stable(self):
        vals = [-1.3, -0.2, -5.5, -0.2]
        for perm in itertools.permutations(vals):
            assert logsumexp_sorted(perm) == logsumexp_sorted(vals)

    def test_logaddexp2_symmetric(self):
        assert logaddexp2(-1.0, -3.0) == logaddexp2(-3.0, -1.0)
        assert logaddexp2(-math.inf, -math.inf) == -math.inf

    def test_block_size(self):
        assert [block_size(l) for l in (1, 2, 3, 4, 5)] == [4, 12, 36, 108, 324]

    def test_random_codeword_valid(self):
        rng = np.random.default_rng(3)
        for level in (1, 2, 3):
            for _ in range(50):
                w = random_codeword(level, rng)
                assert concat_word_class(level, w) is not None

    def test_c6_pair_triples_consistent(self):
        t6 = c6_table()
        for ci in range(4):
            expected = tuple(
                (2 * s[0] + s[3], 2 * s[1] + s[4], 2 * s[2] + s[5])
                for s in t6.codewords[PAIR_VALUE[ci]]
            )
            assert C6_PAIR_TRIPLES[ci] == expected


settings.register_profile("codes", deadline=None, max_examples=40)
settings.load_profile("codes")
