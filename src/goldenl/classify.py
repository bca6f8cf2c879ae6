"""Combinatorial classification of midpoint trajectories.

For a word k_1 ... k_n, the permutation tau_{k_1} * tau_{k_2} * ... * tau_{k_n}
(rightmost factor acting first) carries each Weierstrass label to the label of
the horizontal trajectory it unwinds to: images 1 and 2 mean the short
cylinder, 3 and 4 the long cylinder, and 5 the saddle connection.

Closed form: tau_k reflects the pentagon's side midpoints, at cyclic positions
c in MIDPOINT_CYCLE, by c -> 2k - c (mod 5). The product sends position c to
2A + (-1)^n * c (mod 5), where A = k_1 - k_2 + k_3 - ... is the alternating
letter sum. Deleting a pair kk keeps A and the parity of n, so reduction to the
base word keeps every verdict.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .errors import VerticalDirectionError
from .field import GoldenVector
from .surface import (
    Axis,
    MIDPOINT_CYCLE,
    Permutation5,
    VERTICAL_RELABELING,
    WEIERSTRASS_LABELS,
    sector_of,
    weierstrass_point,
)
from .words import Word, _check_letters, format_word, vector_to_word


class Classification(Enum):
    SHORT = "short"
    LONG = "long"
    SADDLE_CONNECTION = "saddle"


# Verdicts in the horizontal direction itself (the empty word).
HORIZONTAL_VERDICTS: dict[int, Classification] = {
    1: Classification.SHORT,
    2: Classification.SHORT,
    3: Classification.LONG,
    4: Classification.LONG,
    5: Classification.SADDLE_CONNECTION,
}


# Every product, keyed by (2A mod 5, n mod 2): c -> 2A + (-1)^n * c on cycle positions.
_PRODUCTS = {
    (shift, parity): Permutation5(
        tuple(MIDPOINT_CYCLE[(shift + (-1) ** parity * MIDPOINT_CYCLE.index(x)) % 5] for x in WEIERSTRASS_LABELS)
    )
    for shift in range(5)
    for parity in (0, 1)
}


def word_permutation(word: Word) -> Permutation5:
    """tau_{k_1} * tau_{k_2} * ... * tau_{k_n}, identity for the empty word."""
    _check_letters(word)
    return _PRODUCTS[2 * (sum(word[0::2]) - sum(word[1::2])) % 5, len(word) % 2]


class ClassificationReport(NamedTuple):
    """Verdicts for all five midpoints in one direction."""

    word: Word | None
    tau: Permutation5 | None
    verdicts: dict[int, Classification]

    def counts(self) -> dict[Classification, int]:
        out = {kind: 0 for kind in Classification}
        for verdict in self.verdicts.values():
            out[verdict] += 1
        return out

    def to_json_dict(self) -> dict:
        return {
            "word": None if self.word is None else format_word(self.word),
            "tau": None if self.tau is None else list(self.tau.images),
            "verdicts": {str(label): self.verdicts[label].value for label in WEIERSTRASS_LABELS},
        }


def classify_all(word: Word) -> ClassificationReport:
    perm = word_permutation(word)
    verdicts = {label: HORIZONTAL_VERDICTS[perm(label)] for label in WEIERSTRASS_LABELS}
    return ClassificationReport(word=tuple(word), tau=perm, verdicts=verdicts)


def classify(word: Word, label: int) -> Classification:
    weierstrass_point(label)  # raises ValueError for a bad label
    return HORIZONTAL_VERDICTS[word_permutation(word)(label)]


def classify_vector(v: GoldenVector) -> ClassificationReport:
    """Classify an exact direction vector.

    Horizontal and general directions go through the word machinery. The
    vertical direction has no word; it is classified by reflecting across
    y = x, which relabels the midpoints by (1 5)(2 4) and turns the question
    back into the horizontal one.
    """
    try:
        word = vector_to_word(v)
    except VerticalDirectionError:
        assert sector_of(v) is Axis.VERTICAL
        verdicts = {
            label: HORIZONTAL_VERDICTS[VERTICAL_RELABELING(label)]
            for label in WEIERSTRASS_LABELS
        }
        return ClassificationReport(word=None, tau=None, verdicts=verdicts)
    return classify_all(word)
