"""Tree words over the alphabet {0, 1, 2, 3} and their direction vectors.

A word k_1 k_2 ... k_n names the direction sigma_{k_n} ... sigma_{k_1} (1, 0).
Both ways between words and directions run on integer pairs (a, b) meaning
a + b*phi, the integer rows of sigma_k; a GoldenVector appears only at the
ends. Reduction deletes adjacent equal letters until none remain; the result
is the base word, and classification only depends on it.
"""

from __future__ import annotations

from .errors import CapExceededError, VerticalDirectionError
from .field import GoldenVector, cleared, golden_mul
from .surface import Axis, SIGMA, SIGMA_INVERSE, Rows, pair_sector, sector_of

Word = tuple[int, ...]

EMPTY_WORD: Word = ()
EMPTY_WORD_TEXT = "e"
DEFAULT_INVERSION_CAP = 10_000


def parse_word(text: str) -> Word:
    """Parse a word: digits 0-3, or the single letter "e" for the empty word."""
    if text == EMPTY_WORD_TEXT:
        return EMPTY_WORD
    if not text or any(ch not in "0123" for ch in text):
        raise ValueError(f"not a word over 0-3 (or 'e'): {text!r}")
    return tuple(int(ch) for ch in text)


def format_word(word: Word) -> str:
    _check_letters(word)
    if not word:
        return EMPTY_WORD_TEXT
    return "".join(str(k) for k in word)


def _check_letters(word: Word) -> None:
    for k in word:
        if k not in (0, 1, 2, 3):
            raise ValueError(f"word letter out of range 0-3: {k}")


def _apply(m: Rows, v: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """The matrix m applied to the integer-pair vector v = (xa, xb, ya, yb)."""
    ((aa, ab), (ba, bb)), ((ca, cb), (da, db)) = m
    xa, xb, ya, yb = v
    (p, q), (r, s) = golden_mul(aa, ab, xa, xb), golden_mul(ba, bb, ya, yb)
    (t, u), (w, z) = golden_mul(ca, cb, xa, xb), golden_mul(da, db, ya, yb)
    return p + r, q + s, t + w, u + z


def word_to_vector(word: Word) -> GoldenVector:
    """Direction vector of a word: apply sigma_k to (1, 0) for each letter in order."""
    _check_letters(word)
    v = (1, 0, 0, 0)
    for k in word:
        v = _apply(SIGMA[k], v)
    return GoldenVector.from_rationals(*v)


def vector_to_word(v: GoldenVector, cap: int = DEFAULT_INVERSION_CAP) -> Word:
    """Recover the unique word without leading 0 that names the direction of v.

    Greedy cone peeling: while the direction is not horizontal, find its sector
    k and pull back by sigma_k inverse. Letters come out last-first, so the
    collected sequence is reversed at the end. Vertical input has no word and
    raises VerticalDirectionError. The cap is the largest number of letters
    allowed; a direction that needs more raises CapExceededError. The input is
    checked once by sector_of; the peeling runs on v cleared to integer pairs,
    which sigma_k inverse keeps in the closed first quadrant.
    """
    k = sector_of(v)
    point = cleared(v)
    reversed_letters: list[int] = []
    while k is not Axis.HORIZONTAL:
        if k is Axis.VERTICAL:
            raise VerticalDirectionError(
                "vertical direction has no word; classify it via the y = x relabeling"
            )
        if len(reversed_letters) >= cap:
            raise CapExceededError(f"direction needs a word longer than {cap} letters")
        reversed_letters.append(k)
        point = _apply(SIGMA_INVERSE[k], point)
        k = pair_sector(point)
    return tuple(reversed(reversed_letters))


def derive_once(word: Word) -> Word:
    """One derivation pass: delete disjoint adjacent equal pairs, left to right."""
    _check_letters(word)
    out: list[int] = []
    i = 0
    while i < len(word):
        if i + 1 < len(word) and word[i] == word[i + 1]:
            i += 2
        else:
            out.append(word[i])
            i += 1
    return tuple(out)


def reduce_word(word: Word) -> Word:
    """The base word: the fixed point of derivation, computed with one stack pass."""
    _check_letters(word)
    stack: list[int] = []
    for k in word:
        if stack and stack[-1] == k:
            stack.pop()
        else:
            stack.append(k)
    return tuple(stack)


def is_base_word(word: Word) -> bool:
    _check_letters(word)
    return all(word[i] != word[i + 1] for i in range(len(word) - 1))
