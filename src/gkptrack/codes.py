"""Soft-decision maximum-likelihood decoding of the concatenated C4/C6 code.

Structure
---------
Level 1 encodes a logical qubit pair into four physical qubits (C4, the
[[4,2,2]] detection code).  Each level above combines three level-(l-1)
pairs through the [[6,2,2]] C6 code, so a level-l block holds 4*3^(l-1)
physical qubits.  Decoding is exact maximum likelihood: every block reduces
to a four-entry log-likelihood table over its logical pair value, and those
tables fold upward through the C6 codeword table.  A block's pair table is a
sufficient statistic for everything outside the block, so the recursive fold
equals brute-force enumeration over all physical flip patterns (the
exhaustive reference decoder in ``tests/oracle.py`` checks exactly that).

C6 convention
-------------
The C6 table is generated from the stabilizers X-type {IIXXXX, XXIIXX} and
Z-type {IIZZZZ, ZZIIZZ}.  The three sub-pairs sit at string positions
(1,4), (2,5), (3,6): position ``j`` carries sub-pair j's first logical bit
and position ``j+3`` its second.  The class labels are fixed by the logical
parities ``b1 = s1 xor s3 xor s5`` and ``b2 = s1 xor s2`` (1-based
positions).  This assignment makes the concatenation self-similar: the
per-level failure curves of the resulting code family share a common
crossing point, which is the behaviour the Monte Carlo harness measures.

Floating-point discipline
-------------------------
Digital (deviation-independent) likelihoods produce exact ties, which the
decoder must detect bitwise so that tie-breaking is a fair coin and not a
rounding artifact.  All sums are therefore accumulated in a canonical order:
per codeword, matched units are summed in index order separately from
mismatched units; per class, word sums are combined by a sorted
log-sum-exp.  Mathematically equal configurations then produce identical
doubles.  The trial-batched kernel decodes digital configs with these very
functions on interned tables (:mod:`gkptrack.kernels.pure`), so it meets
the same exact ties, and each tie draws its coin from the block's coin
generator (stream contract in :mod:`gkptrack.kernels`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .gkp import LikelihoodPair

PAIR_INDEX = {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}
PAIR_VALUE = {v: k for k, v in PAIR_INDEX.items()}


@dataclass(frozen=True)
class PairLikelihoods:
    """Four-entry log-likelihood table over a logical qubit pair."""

    f00: float
    f01: float
    f10: float
    f11: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.f00, self.f01, self.f10, self.f11)

    @staticmethod
    def from_tuple(values: Sequence[float]) -> "PairLikelihoods":
        f00, f01, f10, f11 = values
        return PairLikelihoods(f00, f01, f10, f11)


@dataclass(frozen=True)
class CodeTable:
    """Codeword classes of a pair code: each logical pair value's codewords."""

    name: str
    n_units: int
    codewords: dict[tuple[int, int], tuple[tuple[int, ...], ...]]


def block_size(level: int) -> int:
    """Physical qubits in one level-``level`` block."""
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    return 4 * 3 ** (level - 1)


# --- code tables -----------------------------------------------------------

def _build_c4() -> CodeTable:
    codewords = {
        (0, 0): ((0, 0, 0, 0), (1, 1, 1, 1)),
        (0, 1): ((0, 1, 0, 1), (1, 0, 1, 0)),
        (1, 0): ((0, 0, 1, 1), (1, 1, 0, 0)),
        (1, 1): ((0, 1, 1, 0), (1, 0, 0, 1)),
    }
    return CodeTable(name="C4", n_units=4, codewords=codewords)


def _build_c6() -> CodeTable:
    classes: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for w in range(64):
        s = tuple((w >> i) & 1 for i in range(6))
        if (s[2] ^ s[3] ^ s[4] ^ s[5]) or (s[0] ^ s[1] ^ s[4] ^ s[5]):
            continue  # Z-type parity checks IIZZZZ and ZZIIZZ
        key = (s[0] ^ s[2] ^ s[4], s[0] ^ s[1])
        classes.setdefault(key, []).append(s)
    codewords = {key: tuple(sorted(words)) for key, words in classes.items()}
    return CodeTable(name="C6", n_units=6, codewords=codewords)


_C4 = _build_c4()
_C6 = _build_c6()

#: per class (index order), the four C6 words as triples of sub-pair indices
C6_PAIR_TRIPLES: tuple[tuple[tuple[int, int, int], ...], ...] = tuple(
    tuple(
        (2 * w[0] + w[3], 2 * w[1] + w[4], 2 * w[2] + w[5])
        for w in _C6.codewords[PAIR_VALUE[ci]]
    )
    for ci in range(4)
)


def c4_table() -> CodeTable:
    """The [[4,2,2]] table: b1 = k1 xor k3, b2 = k3 xor k4."""
    return _C4


def c6_table() -> CodeTable:
    """The [[6,2,2]] table described in the module docstring."""
    return _C6


# --- canonical log-sum-exp helpers ------------------------------------------

def logaddexp2(a: float, b: float) -> float:
    """Symmetric two-way log-sum-exp (order of arguments cannot matter)."""
    if a == b:
        return a + math.log(2.0) if a != -math.inf else a
    m, d = (a, b - a) if a > b else (b, a - b)
    return m + math.log1p(math.exp(d))


def logsumexp_sorted(values: Sequence[float]) -> float:
    """Log-sum-exp accumulated in descending order after sorting.

    Sorting makes the result a function of the value *multiset*, so
    mathematically tied classes stay bitwise tied.
    """
    vals = sorted(values, reverse=True)
    m = vals[0]
    if m == -math.inf:
        return m
    acc = 1.0
    for v in vals[1:]:
        acc += math.exp(v - m)
    return m + math.log(acc)


def _word_sum(word: tuple[int, ...], leaf_bits: Sequence[int], lm: Sequence[float], lf: Sequence[float]) -> float:
    # matched and mismatched units are summed separately, in index order, so
    # equal-leaf (digital) configurations give identical doubles per
    # match-count regardless of which units matched
    sm = 0.0
    sf = 0.0
    for i, w in enumerate(word):
        if w == leaf_bits[i]:
            sm += lm[i]
        else:
            sf += lf[i]
    return sm + sf


def block_pair_likelihoods(
    table: CodeTable,
    leaf_bits: Sequence[int],
    leaf_lp: Sequence[LikelihoodPair],
) -> PairLikelihoods:
    """Pair table of one block from per-unit bits and likelihood pairs.

    For each pair value, sums the likelihood of every codeword in that class:
    a unit contributes ``l_match`` where the codeword agrees with its
    measured bit and ``l_flip`` where it disagrees.
    """
    if len(leaf_bits) != table.n_units or len(leaf_lp) != table.n_units:
        raise ValueError(
            f"{table.name} expects {table.n_units} units, got "
            f"{len(leaf_bits)} bits / {len(leaf_lp)} pairs"
        )
    lm = [lp.l_match for lp in leaf_lp]
    lf = [lp.l_flip for lp in leaf_lp]
    values = []
    for ci in range(4):
        words = table.codewords[PAIR_VALUE[ci]]
        values.append(logsumexp_sorted([_word_sum(w, leaf_bits, lm, lf) for w in words]))
    return PairLikelihoods.from_tuple(values)


def c6_level_up(sub_pairs: Sequence[PairLikelihoods]) -> PairLikelihoods:
    """Fold three sub-pair tables into the next level's pair table."""
    if len(sub_pairs) != 3:
        raise ValueError(f"c6_level_up expects exactly 3 sub-pair tables, got {len(sub_pairs)}")
    t1, t2, t3 = (sp.as_tuple() for sp in sub_pairs)
    values = []
    for ci in range(4):
        sums = [t1[i1] + t2[i2] + t3[i3] for i1, i2, i3 in C6_PAIR_TRIPLES[ci]]
        values.append(logsumexp_sorted(sums))
    return PairLikelihoods.from_tuple(values)


# --- decoding ----------------------------------------------------------------

def _coin(rng) -> int:
    """Fair coin for exact ties; consumes exactly one uniform draw."""
    return 0 if rng.random() < 0.5 else 1


def first_bit(table: PairLikelihoods) -> int | None:
    """The more likely first-pair bit of a top table; ``None`` on an exact tie."""
    l0 = logaddexp2(table.f00, table.f01)
    l1 = logaddexp2(table.f10, table.f11)
    if l0 > l1:
        return 0
    if l1 > l0:
        return 1
    return None


def _decide_first_bit(table: PairLikelihoods, rng) -> int:
    bit = first_bit(table)
    return _coin(rng) if bit is None else bit


def decode(
    level: int,
    leaf_bits: Sequence[int],
    leaf_lp: Sequence[LikelihoodPair],
    rng,
) -> tuple[int, PairLikelihoods]:
    """Maximum-likelihood decode of one level-``level`` block.

    Leaf order is depth first: the block is three consecutive level-(l-1)
    sub-blocks, down to consecutive four-qubit C4 groups.  Returns the
    first-pair logical bit (exact ties resolved by a fair coin from ``rng``)
    together with the top-level pair table.
    """
    n = block_size(level)
    if len(leaf_bits) != n or len(leaf_lp) != n:
        raise ValueError(f"level {level} expects {n} leaves, got {len(leaf_bits)}/{len(leaf_lp)}")
    tables = [
        block_pair_likelihoods(_C4, leaf_bits[i : i + 4], leaf_lp[i : i + 4])
        for i in range(0, n, 4)
    ]
    while len(tables) > 1:
        tables = [c6_level_up(tables[j : j + 3]) for j in range(0, len(tables), 3)]
    top = tables[0]
    return _decide_first_bit(top, rng), top
