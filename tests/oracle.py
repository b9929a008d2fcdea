"""Reference code of the tests: codeword classification and generation, and an exhaustive ML decoder.

:func:`oracle_ml_decode` is the brute-force decoder that
:func:`gkptrack.codes.decode` must agree with; the codeword helpers classify
and draw codewords of the concatenated C4/C6 code.
"""

from __future__ import annotations

from typing import Sequence

from gkptrack.codes import (
    PAIR_VALUE,
    PairLikelihoods,
    _decide_first_bit,
    _word_sum,
    block_size,
    c4_table,
    c6_table,
    logsumexp_sorted,
)
from gkptrack.gkp import LikelihoodPair

_C4 = c4_table()
_C6 = c6_table()
_WORD_CLASS = {
    table.name: {w: cls for cls, words in table.codewords.items() for w in words}
    for table in (_C4, _C6)
}


def concat_word_class(level: int, word: tuple[int, ...]) -> tuple[int, int] | None:
    """Logical pair value of a measured word, or None if it is no codeword."""
    if level == 1:
        return _WORD_CLASS["C4"].get(tuple(word))
    sub = block_size(level - 1)
    pairs = []
    for j in range(3):
        cls = concat_word_class(level - 1, tuple(word[j * sub : (j + 1) * sub]))
        if cls is None:
            return None
        pairs.append(cls)
    # reassemble the C6 string: positions 1..3 carry first bits, 4..6 second bits
    s = (pairs[0][0], pairs[1][0], pairs[2][0], pairs[0][1], pairs[1][1], pairs[2][1])
    return _WORD_CLASS["C6"].get(s)


def concat_word_first_bit(level: int, word: tuple[int, ...]) -> int:
    cls = concat_word_class(level, word)
    if cls is None:
        raise ValueError("word is not a codeword of the concatenated code")
    return cls[0]


def random_codeword(level: int, rng, cls: tuple[int, int] | None = None) -> tuple[int, ...]:
    """Uniformly random codeword of a level, optionally within one class."""
    if cls is None:
        cls = PAIR_VALUE[int(rng.integers(0, 4))]
    if level == 1:
        words = _C4.codewords[cls]
        return words[int(rng.integers(0, len(words)))]
    s_options = _C6.codewords[cls]
    s = s_options[int(rng.integers(0, len(s_options)))]
    parts = [random_codeword(level - 1, rng, cls=(s[j], s[j + 3])) for j in range(3)]
    return tuple(b for part in parts for b in part)


def oracle_ml_decode(
    level: int,
    leaf_bits: Sequence[int],
    leaf_lp: Sequence[LikelihoodPair],
    rng,
) -> int:
    """Exhaustive maximum-likelihood reference decoder (levels 1 and 2 only).

    Enumerates every flip pattern over the block, keeps the hypotheses whose
    implied transmitted word is a valid codeword, accumulates exact class
    likelihoods, and decides the first-pair bit like
    :func:`gkptrack.codes.decode` (same coin rule on ties).
    """
    if level not in (1, 2):
        raise ValueError(f"oracle supports levels 1 and 2, got {level}")
    n = block_size(level)
    if len(leaf_bits) != n or len(leaf_lp) != n:
        raise ValueError(f"level {level} expects {n} leaves, got {len(leaf_bits)}/{len(leaf_lp)}")
    lm = [lp.l_match for lp in leaf_lp]
    lf = [lp.l_flip for lp in leaf_lp]
    terms: dict[tuple[int, int], list[float]] = {cls: [] for cls in sorted(_C4.codewords)}
    for flips in range(1 << n):
        word = tuple(leaf_bits[i] ^ ((flips >> i) & 1) for i in range(n))
        cls = concat_word_class(level, word)
        if cls is None:
            continue
        terms[cls].append(_word_sum(word, leaf_bits, lm, lf))
    table = PairLikelihoods.from_tuple(
        [logsumexp_sorted(terms[PAIR_VALUE[ci]]) for ci in range(4)]
    )
    return _decide_first_bit(table, rng)
