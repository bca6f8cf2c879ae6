"""Static geometry of the golden L translation surface.

The golden L is the union of the square [0, phi]^2 with a 1 x phi rectangle on
the right and a phi x 1 rectangle on top. Opposite boundary edges are glued by
translation, the eight boundary vertices become a single cone point of angle
6*pi, and the five Weierstrass points of the resulting genus-2 surface sit at
the side midpoints of an inscribed pentagon. The L is stated once, in integers,
by its eight corners, its four gluings (source corners and translation) and the
midpoint cycle; its GoldenVectors, the gluing targets, the pentagon and its
midpoints are derived from them, and flow reads the integers themselves.
The midpoints at scale 2, mod 2, are one point on each line of (Z[phi]/2)^2:
TAU, the horizontal verdicts and the y = x relabeling are read off them.
The check that a vector is a direction the flow accepts lives in words. The
verdicts live here, so classify and the flow oracle that checks it read them
and neither loads the other.
"""

from __future__ import annotations

from enum import Enum
from operator import add
from typing import NamedTuple

from .field import GoldenVector, _Frozen, _from_point, golden_mul


class EdgeIdentification(NamedTuple):
    """A glued pair of parallel boundary segments: source + translation = target.

    Source segments lie on the left/bottom boundary and serve as the canonical
    representatives of identified points.
    """

    name: str
    source: tuple[GoldenVector, GoldenVector]
    target: tuple[GoldenVector, GoldenVector]
    translation: GoldenVector


class GoldenL(NamedTuple):
    """Boundary vertices, identifications, and marked points of the golden L."""

    vertices: tuple[GoldenVector, ...]
    identifications: tuple[EdgeIdentification, ...]
    weierstrass: dict[int, GoldenVector]
    inscribed_pentagon: tuple[GoldenVector, ...]

    def to_json_dict(self) -> dict:
        return {
            "vertices": [v.quadruple() for v in self.vertices],
            "identifications": [
                {
                    "name": ident.name,
                    "source": [ident.source[0].quadruple(), ident.source[1].quadruple()],
                    "target": [ident.target[0].quadruple(), ident.target[1].quadruple()],
                    "translation": ident.translation.quadruple(),
                }
                for ident in self.identifications
            ],
            "weierstrass_points": {str(label): point.quadruple() for label, point in self.weierstrass.items()},
            "cone_points": [v.quadruple() for v in self.vertices],
            "inscribed_pentagon": [v.quadruple() for v in self.inscribed_pentagon],
        }


# The L in integers, a point (xa, xb, ya, yb) being (xa + xb*phi, ya + yb*phi): its eight corners, counterclockwise
# from the origin, and its four gluings, each its name, the corners its source edge joins and its translation.
_CORNERS = (
    (0, 0, 0, 0),
    (0, 1, 0, 0),  # (phi, 0)
    (1, 1, 0, 0),  # (phi^2, 0)
    (1, 1, 0, 1),  # (phi^2, phi)
    (0, 1, 0, 1),  # (phi, phi)
    (0, 1, 1, 1),  # (phi, phi^2)
    (0, 0, 1, 1),  # (0, phi^2)
    (0, 0, 0, 1),  # (0, phi)
)
_GLUINGS = (("a", (7, 6), (0, 1, 0, 0)), ("b", (0, 7), (1, 1, 0, 0)), ("c", (0, 1), (0, 0, 1, 1)), ("d", (1, 2), (0, 0, 0, 1)))
# Side midpoints of the inscribed pentagon: side j joins corners j and j + 1. tau_k mirrors at side k.
MIDPOINT_CYCLE = (5, 4, 2, 1, 3)

_VERTICES = tuple(_from_point(p, 1) for p in _CORNERS)
_IDENTIFICATIONS = tuple(
    EdgeIdentification(name, tuple(_VERTICES[k] for k in ends),
                       tuple(_from_point(tuple(map(add, _CORNERS[k], move)), 1) for k in ends), _from_point(move, 1))
    for name, ends, move in _GLUINGS
)
_PENTAGON_CORNERS = (1, 2, 4, 6, 7)
_INSCRIBED_PENTAGON = tuple(_VERTICES[k] for k in _PENTAGON_CORNERS)
# The midpoints at scale 2, each its side's ends summed, in label order 1-5, as the surface JSON and the marked
# points print. Each midpoint by its class mod 2, in F_4^2 = (Z[phi]/2)^2, where phi takes (a, b) to (b, a + b).
_MIDPOINTS2 = dict(sorted(
    (label, tuple(map(add, *(_CORNERS[_PENTAGON_CORNERS[k]] for k in (j, j - 4))))) for j, label in enumerate(MIDPOINT_CYCLE)
))
_WEIERSTRASS = {label: _from_point(p, 2) for label, p in _MIDPOINTS2.items()}
_CLASSES = {tuple(c % 2 for c in p): label for label, p in _MIDPOINTS2.items()}

GOLDEN_L = GoldenL(
    vertices=_VERTICES,
    identifications=_IDENTIFICATIONS,
    weierstrass=_WEIERSTRASS,
    inscribed_pentagon=_INSCRIBED_PENTAGON,
)

WEIERSTRASS_LABELS = (1, 2, 3, 4, 5)


class Classification(Enum):
    SHORT = "short"
    LONG = "long"
    SADDLE_CONNECTION = "saddle"


def _parity_verdicts(pairs: tuple[int, int, int, int]) -> dict[int, Classification]:
    """The verdicts in the direction of integer pairs that are a midpoint's class mod 2, as a word's and an axis's
    are: that midpoint is the saddle, the two whose classes sum to phi * pairs are short, the other two long.
    Pairs that are no midpoint's class raise ValueError."""
    xa, xb, ya, yb = pairs
    saddle, phi_v = (xa % 2, xb % 2, ya % 2, yb % 2), (xb, xa + xb, yb, ya + yb)
    if saddle not in _CLASSES:
        raise ValueError(f"pairs {pairs} are no midpoint's class mod 2")
    return {
        label: Classification.SADDLE_CONNECTION if c == saddle
        else Classification.SHORT if tuple((a + b) % 2 for a, b in zip(c, phi_v)) in _CLASSES
        else Classification.LONG
        for c, label in _CLASSES.items()
    }


# Verdicts in the horizontal direction itself (the empty word).
HORIZONTAL_VERDICTS: dict[int, Classification] = _parity_verdicts((1, 0, 0, 0))


def weierstrass_point(label: int) -> GoldenVector:
    if type(label) is not int or label not in _WEIERSTRASS:
        raise ValueError(f"midpoint label must be 1..5, got {label!r}")
    return _WEIERSTRASS[label]


# A 2x2 matrix over Z[phi] as integer rows ((a, b), (c, d)), each entry a
# pair (p, q) meaning p + q*phi.
Pair = tuple[int, int]
Rows = tuple[tuple[Pair, Pair], tuple[Pair, Pair]]

# The four parabolic shear generators.
SIGMA: tuple[Rows, ...] = (
    (((1, 0), (0, 1)), ((0, 0), (1, 0))),  # ((1, phi), (0, 1))
    (((0, 1), (0, 1)), ((1, 0), (0, 1))),  # ((phi, phi), (1, phi))
    (((0, 1), (1, 0)), ((0, 1), (0, 1))),  # ((phi, 1), (phi, phi))
    (((1, 0), (0, 0)), ((0, 1), (1, 0))),  # ((1, 0), (phi, 1))
)


def _generator(table: tuple, k: int):
    if type(k) is not int or not 0 <= k <= 3:
        raise ValueError(f"generator index must be 0..3, got {k!r}")
    return table[k]


def sigma(k: int) -> Rows:
    return _generator(SIGMA, k)


class Permutation5(_Frozen):
    """A permutation of the labels 1..5, stored as the image tuple.

    images[j - 1] is where label j goes. Composition is (p * q)(j) = p(q(j)),
    so the right factor acts first.
    """

    __slots__ = ("images",)
    images: tuple[int, int, int, int, int]

    def __init__(self, images: tuple[int, int, int, int, int]) -> None:
        images = tuple(images)
        if any(type(j) is not int for j in images) or sorted(images) != [1, 2, 3, 4, 5]:
            raise ValueError(f"not a permutation of 1..5: {images}")
        object.__setattr__(self, "images", images)

    @classmethod
    def identity(cls) -> Permutation5:
        return cls((1, 2, 3, 4, 5))

    def __call__(self, label: int) -> int:
        if type(label) is not int or not 1 <= label <= 5:
            raise ValueError(f"label must be 1..5, got {label!r}")
        return self.images[label - 1]

    def __mul__(self, other: Permutation5) -> Permutation5:
        if not isinstance(other, Permutation5):
            return NotImplemented
        return Permutation5(tuple(self.images[other.images[j] - 1] for j in range(5)))

    def inverse(self) -> Permutation5:
        images = [0] * 5
        for j, image in enumerate(self.images, start=1):
            images[image - 1] = j
        return Permutation5(tuple(images))

    def cycle_string(self) -> str:
        seen: set[int] = set()
        parts: list[str] = []
        for j in range(1, 6):
            cycle = []
            while j not in seen:
                seen.add(j)
                cycle.append(j)
                j = self.images[j - 1]
            if len(cycle) > 1:
                parts.append("(" + " ".join(map(str, cycle)) + ")")
        return "".join(parts) or "()"


def _relabeling(rows: Rows) -> Permutation5:
    """The permutation of the labels that the matrix `rows` mod 2 makes of the midpoints' classes: a row (a, b)
    takes the class (x, y) to a * x + b * y."""
    return Permutation5(tuple(
        _CLASSES[tuple((p + q) % 2 for a, b in rows for p, q in zip(golden_mul(*a, *c[:2]), golden_mul(*b, *c[2:])))]
        for c in _CLASSES
    ))


# How each shear permutes the Weierstrass points, sigma_k mod 2 on their classes:
# tau_0 = (1 2)(3 4), tau_1 = (1 3)(2 5), tau_2 = (1 4)(3 5), tau_3 = (2 3)(4 5).
TAU = tuple(map(_relabeling, SIGMA))


def tau(k: int) -> Permutation5:
    return _generator(TAU, k)


# Reflecting the golden L across y = x swaps the vertical and horizontal
# directions, and x and y on the classes: it relabels the Weierstrass points by (1 5)(2 4).
VERTICAL_RELABELING = _relabeling((((0, 0), (1, 0)), ((1, 0), (0, 0))))


# The two frames a trajectory is drawn in, the golden L itself and the pentagon
# P carries it to, and a drawing's default SVG size and stroke width. They live
# here, not in render, so the CLI can offer them without loading render.
GOLDEN_L_FRAME = "goldenl"
PENTAGON_FRAME = "pentagon"
FRAMES = (GOLDEN_L_FRAME, PENTAGON_FRAME)
DEFAULT_SIZE = 480
DEFAULT_STROKE = 2.0


def surface_description() -> dict:
    """JSON-ready description of the golden L for renderers and external tools."""
    return GOLDEN_L.to_json_dict()
