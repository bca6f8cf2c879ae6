"""Combinatorial classification of midpoint trajectories.

For a word k_1 ... k_n, the permutation tau_{k_1} * tau_{k_2} * ... * tau_{k_n}
(rightmost factor acting first) carries each Weierstrass label to the label of
the horizontal trajectory it unwinds to: images 1 and 2 mean the short
cylinder, 3 and 4 the long cylinder, and 5 the saddle connection.

Closed form: tau_k reflects the pentagon's side midpoints, at cyclic positions
c in MIDPOINT_CYCLE, by c -> 2k - c (mod 5). The product sends position c to
2A + (-1)^n * c (mod 5), where A = k_1 - k_2 + k_3 - ... is the alternating
letter sum. Deleting a pair kk keeps A and the parity of n, so reduction to the
base word keeps every verdict. The verdicts are surface's, so the flow oracle
that checks this module reads them without loading it.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import VerticalDirectionError
from .field import GoldenVector
from .surface import (
    HORIZONTAL_VERDICTS,
    MIDPOINT_CYCLE,
    WEIERSTRASS_LABELS,
    Classification,
    Permutation5,
    _parity_verdicts,
    weierstrass_point,
)
from .words import Word, _letters, format_word, vector_to_word


# Every product, keyed by (2A mod 5, n mod 2): c -> 2A + (-1)^n * c on cycle positions.
_PRODUCTS = {
    (shift, parity): Permutation5(
        tuple(MIDPOINT_CYCLE[(shift + (-1) ** parity * MIDPOINT_CYCLE.index(x)) % 5] for x in WEIERSTRASS_LABELS)
    )
    for shift in range(5)
    for parity in (0, 1)
}
# Each product's verdict map; a report gets its own copy.
_VERDICTS = {
    key: {label: HORIZONTAL_VERDICTS[perm(label)] for label in WEIERSTRASS_LABELS} for key, perm in _PRODUCTS.items()
}


class ClassificationReport(NamedTuple):
    """Verdicts for all five midpoints in one direction."""

    word: Word | None
    tau: Permutation5 | None
    verdicts: dict[int, Classification]

    def counts(self) -> dict[Classification, int]:
        return {kind: list(self.verdicts.values()).count(kind) for kind in Classification}

    def to_json_dict(self) -> dict:
        return {
            "word": None if self.word is None else format_word(self.word),
            "tau": None if self.tau is None else list(self.tau.images),
            "verdicts": {str(label): self.verdicts[label].value for label in WEIERSTRASS_LABELS},
        }


def classify_all(word: Word) -> ClassificationReport:
    word = _letters(word)
    key = 2 * (sum(word[0::2]) - sum(word[1::2])) % 5, len(word) % 2
    return ClassificationReport(word, _PRODUCTS[key], _VERDICTS[key].copy())


def word_permutation(word: Word) -> Permutation5:
    """tau_{k_1} * tau_{k_2} * ... * tau_{k_n}, identity for the empty word."""
    return classify_all(word).tau


def classify(word: Word, label: int) -> Classification:
    weierstrass_point(label)  # raises ValueError for a bad label
    return classify_all(word).verdicts[label]


def classify_vector(v: GoldenVector) -> ClassificationReport:
    """Classify an exact direction vector.

    Horizontal and general directions go through the word machinery. The
    vertical direction has no word; its verdicts follow from (0, 1) mod 2 by
    the rule that gives the horizontal's from (1, 0): the saddle is the
    midpoint whose class is the direction's, the short pair's classes sum to
    phi times it.
    """
    try:
        return classify_all(vector_to_word(v))
    except VerticalDirectionError:
        return ClassificationReport(word=None, tau=None, verdicts=_parity_verdicts((0, 0, 1, 0)))
