"""Tree words over the alphabet {0, 1, 2, 3} and their direction vectors.

A word k_1 k_2 ... k_n names the direction sigma_{k_n} ... sigma_{k_1} (1, 0).
It may come as a tuple, a list or any other iterable of the int letters 0-3;
every function reads it once, as a tuple, and checks its letters there.
Reduction deletes adjacent equal letters until none remain; the result is the
base word, and classification only depends on it. Words and directions meet on
integer pairs (a, b) meaning a + b*phi, with a GoldenVector only at the ends.
The direction check for vector_to_word and the flow lives here, not in surface.
As phi*(a + b*phi) = b + (a + b)*phi, each letter costs a few additions;
peeling a letter off a direction adds one exact cone test, two integer signs:

    sigma_0: x += phi*y                     sigma_0^-1: x -= phi*y
    sigma_1: x, y = phi*(x + y), x + phi*y  sigma_1^-1: x, y = phi*(x - y), phi*y - x
    sigma_2: x, y = phi*x + y, phi*(x + y)  sigma_2^-1: x, y = phi*x - y, phi*(y - x)
    sigma_3: y += phi*x                     sigma_3^-1: y -= phi*x
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import groupby

from .errors import CapExceededError, VerticalDirectionError, _check_int
from .field import GoldenVector, _from_point, cleared, golden_sign

Word = tuple[int, ...]

EMPTY_WORD: Word = ()
EMPTY_WORD_TEXT = "e"
DEFAULT_INVERSION_CAP = 10_000
_LETTERS = frozenset((0, 1, 2, 3))
_INT = frozenset((int,))
# Letters as bytes: ASCII digit <-> letter value, each way one C-speed translate.
_FROM_DIGITS = bytes.maketrans(b"0123", bytes(range(4)))
_TO_DIGITS = bytes.maketrans(bytes(range(4)), b"0123")


def parse_word(text: str) -> Word:
    """Parse a word: digits 0-3, or the single letter "e" for the empty word."""
    if text == EMPTY_WORD_TEXT:
        return EMPTY_WORD
    if not text or text.strip("0123"):
        raise ValueError(f"not a word over 0-3 (or 'e'): {text!r}")
    return tuple(text.encode().translate(_FROM_DIGITS))


def format_word(word: Word) -> str:
    word = _letters(word)
    return bytes(word).translate(_TO_DIGITS).decode() if word else EMPTY_WORD_TEXT


def _letters(word: Iterable[int]) -> Word:
    # Read the word once (tuple() returns a tuple as it is), then two C-speed
    # set tests: the types first, since 1.0, True and Fraction(1) equal a
    # letter without being one and an unhashable letter must not reach the set.
    word = tuple(word)
    if _INT.issuperset(map(type, word)) and _LETTERS.issuperset(word):
        return word
    bad = next(k for k in word if type(k) is not int or k not in _LETTERS)
    raise ValueError(f"word letter out of range 0-3: {bad!r}")


def word_to_vector(word: Word) -> GoldenVector:
    """Direction vector of a word: apply sigma_k to (1, 0) for each letter in order."""
    return _from_point(_pairs(word), 1)


def _pairs(word: Word) -> tuple[int, int, int, int]:
    """word_to_vector(word) as integer pairs, in the first quadrant: each sigma_k is nonnegative."""
    xa, xb, ya, yb = 1, 0, 0, 0
    for k in _letters(word):
        if k == 0:
            xa, xb = xa + yb, xb + ya + yb
        elif k == 1:
            xa, xb, ya, yb = xb + yb, xa + xb + ya + yb, xa + yb, xb + ya + yb
        elif k == 2:
            xa, xb, ya, yb = xb + ya, xa + xb + yb, xb + yb, xa + xb + ya + yb
        else:
            ya, yb = xb + ya, xa + xb + yb
    return xa, xb, ya, yb


def vector_to_word(v: GoldenVector, cap: int = DEFAULT_INVERSION_CAP) -> Word:
    """Recover the unique word without leading 0 that names the direction of v.

    Greedy cone peeling: while the direction is not horizontal, find its cone
    k with one exact integer test, inline in _peel's letter loop, and pull
    back by sigma_k inverse. Letters come out last-first, so the collected
    list is reversed at the end. Vertical input has no word and raises
    VerticalDirectionError. The cap is the largest number of letters
    allowed; a direction that needs more raises CapExceededError, and a
    cap that is not a nonnegative int raises ValueError.
    """
    _check_int("cap", cap, 0)
    xa, xb, ya, yb = _direction_pairs(v)
    # Only the input can be vertical: each cone's upper boundary belongs to
    # the next cone, so no pull-back lands on the vertical.
    if not (xa or xb):
        raise VerticalDirectionError("vertical direction has no word; classify it via the y = x relabeling")
    return _peel(xa, xb, ya, yb, cap)


def _direction_pairs(v: GoldenVector) -> tuple[int, int, int, int]:
    """v cleared to integer pairs, checked to be a nonzero direction in the closed first quadrant."""
    xa, xb, ya, yb = pairs = cleared(v)
    if not (xa or xb or ya or yb):
        raise ValueError("zero vector has no direction")
    if golden_sign(xa, xb) < 0 or golden_sign(ya, yb) < 0:
        raise ValueError(f"direction must lie in the closed first quadrant: {v}")
    return pairs


def _peel(xa: int, xb: int, ya: int, yb: int, cap: int) -> Word:
    """vector_to_word's peel, on the pairs of a direction with x > 0 and y >= 0 and a checked cap.

    Each letter is the cone 0-3 of the direction (x, y), y > 0: cone k is
    spanned by the columns of sigma_k, and a slope on a boundary two cones
    share belongs to the higher one. Cones 3, 2, 1 start at slopes phi, 1,
    phi - 1, so the tests are the signs of y - phi*x, y - x and y + x - phi*x.
    With x > 0 each slope test implies the ones below it, so the middle test
    goes first and a cone costs two. Each is golden_sign's test, inline, on
    2(a + b*phi) = p + b*sqrt(5): it is >= 0 when p, b >= 0, or when the
    larger square has the plus sign.
    """
    letters: list[int] = []
    append = letters.append
    for _ in range(cap):
        if not (ya or yb):
            break
        b = yb - xb
        p = 2 * (ya - xa) + b
        if (b >= 0 or p * p > 5 * b * b) if p >= 0 else b > 0 and 5 * b * b > p * p:
            b = yb - xa - xb
            p = 2 * (ya - xb) + b
            if (b >= 0 or p * p > 5 * b * b) if p >= 0 else b > 0 and 5 * b * b > p * p:
                append(3)
                ya, yb = ya - xb, yb - xa - xb
            else:
                append(2)
                xa, xb, ya, yb = xb - ya, xa + xb - yb, yb - xb, ya + yb - xa - xb
        else:
            b = yb - xa
            p = 2 * (ya + xa - xb) + b
            if (b >= 0 or p * p > 5 * b * b) if p >= 0 else b > 0 and 5 * b * b > p * p:
                append(1)
                xa, xb, ya, yb = xb - yb, xa + xb - ya - yb, yb - xa, ya + yb - xb
            else:
                append(0)
                xa, xb = xa - yb, xb - ya - yb
    if ya or yb:
        raise CapExceededError(f"direction needs a word longer than {cap} letters")
    return tuple(reversed(letters))


def derive_once(word: Word) -> Word:
    """One derivation pass: delete disjoint adjacent equal pairs, left to right,
    so that a run of r equal letters keeps r % 2 of them."""
    return tuple(k for k, run in groupby(_letters(word)) if sum(1 for _ in run) % 2)


def reduce_word(word: Word) -> Word:
    """The base word: the fixed point of derivation, computed with one stack pass."""
    stack: list[int] = []
    for k in _letters(word):
        if stack and stack[-1] == k:
            stack.pop()
        else:
            stack.append(k)
    return tuple(stack)


def is_base_word(word: Word) -> bool:
    word = _letters(word)
    return all(word[i] != word[i + 1] for i in range(len(word) - 1))
