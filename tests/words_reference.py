"""Generic word path: the tests' independent reference for `goldenl.words` and
`goldenl.classify.word_permutation`.

The library folds and peels each letter with a few integer additions and
reads the word's permutation off its alternating letter sum. This module does
the same work the general way: full 2x2 matrix products over Z[phi] from the
SIGMA table and its adjugates, sector bounds multiplied out with golden_mul,
the direction cleared by multiplying Fractions, and the per-letter product of
the TAU table. It shares with the library only those tables, Permutation5,
golden_mul and golden_sign, and the error types and messages; it marks the
horizontal and the vertical with its own HORIZONTAL and VERTICAL.
"""

from __future__ import annotations

from math import lcm

from goldenl.errors import CapExceededError, VerticalDirectionError
from goldenl.field import GoldenVector, golden_mul, golden_sign
from goldenl.surface import SIGMA, TAU, Permutation5, Rows

# Every sigma_k has determinant 1, so its inverse is the adjugate ((d, -b), (-c, a)).
SIGMA_INVERSE: tuple[Rows, ...] = tuple(
    ((d, (-b[0], -b[1])), ((-c[0], -c[1]), a)) for (a, b), (c, d) in SIGMA
)

# Lower slope bounds of the four sector cones: 0, 1/phi = phi - 1, 1, phi.
_SECTOR_BOUNDS = ((0, 0), (-1, 1), (1, 0), (0, 1))

_LETTERS = (0, 1, 2, 3)

# sector_of_pairs's answers for the two axes, which lie in no cone.
HORIZONTAL = "horizontal"
VERTICAL = "vertical"


def _check_letters(word) -> None:
    for k in word:
        if k not in _LETTERS:
            raise ValueError(f"word letter out of range 0-3: {k}")


def _apply(m: Rows, v: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """The matrix m applied to the integer-pair vector v = (xa, xb, ya, yb)."""
    ((aa, ab), (ba, bb)), ((ca, cb), (da, db)) = m
    xa, xb, ya, yb = v
    (p, q), (r, s) = golden_mul(aa, ab, xa, xb), golden_mul(ba, bb, ya, yb)
    (t, u), (w, z) = golden_mul(ca, cb, xa, xb), golden_mul(da, db, ya, yb)
    return p + r, q + s, t + w, u + z


def _cleared(v: GoldenVector) -> tuple[int, int, int, int]:
    den = lcm(v.x.a.denominator, v.x.b.denominator, v.y.a.denominator, v.y.b.denominator)
    return int(v.x.a * den), int(v.x.b * den), int(v.y.a * den), int(v.y.b * den)


def sector_of_pairs(v: tuple[int, int, int, int]):
    """The sector of a nonzero closed-first-quadrant direction on integer pairs:
    the highest cone whose lower slope bound the direction reaches."""
    xa, xb, ya, yb = v
    if not (ya or yb):
        return HORIZONTAL
    if not (xa or xb):
        return VERTICAL
    for k in (3, 2, 1):
        # slope >= bound, compared as y >= bound * x with x > 0
        ba, bb = golden_mul(*_SECTOR_BOUNDS[k], xa, xb)
        if golden_sign(ya - ba, yb - bb) >= 0:
            return k
    return 0


def word_to_vector(word) -> GoldenVector:
    _check_letters(word)
    v = (1, 0, 0, 0)
    for k in word:
        v = _apply(SIGMA[k], v)
    return GoldenVector.from_rationals(*v)


def vector_to_word(v: GoldenVector, cap: int = 10_000) -> tuple[int, ...]:
    point = _cleared(v)
    xa, xb, ya, yb = point
    if not (xa or xb or ya or yb):
        raise ValueError("zero vector has no direction")
    if golden_sign(xa, xb) < 0 or golden_sign(ya, yb) < 0:
        raise ValueError(f"direction must lie in the closed first quadrant: {v}")
    k = sector_of_pairs(point)
    reversed_letters: list[int] = []
    while k != HORIZONTAL:
        if k == VERTICAL:
            raise VerticalDirectionError(
                "vertical direction has no word; classify it via the y = x relabeling"
            )
        if len(reversed_letters) >= cap:
            raise CapExceededError(f"direction needs a word longer than {cap} letters")
        reversed_letters.append(k)
        point = _apply(SIGMA_INVERSE[k], point)
        k = sector_of_pairs(point)
    return tuple(reversed(reversed_letters))


def word_permutation(word) -> Permutation5:
    """tau_{k_1} * tau_{k_2} * ... * tau_{k_n}, multiplied out letter by letter."""
    _check_letters(word)
    acc = Permutation5.identity()
    for k in word:
        acc = acc * TAU[k]
    return acc
