"""Static geometry of the golden L translation surface.

The golden L is the union of the square [0, phi]^2 with a 1 x phi rectangle on
the right and a phi x 1 rectangle on top. Opposite boundary edges are glued by
translation, the eight boundary vertices become a single cone point of angle
6*pi, and the five Weierstrass points of the resulting genus-2 surface sit at
the side midpoints of an inscribed pentagon.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Union

from .field import GoldenNumber, GoldenVector, _Frozen, cleared, golden_sign

HALF = Fraction(1, 2)
_gv = GoldenVector.from_rationals


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
    cone_representatives: tuple[GoldenVector, ...]
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
            "weierstrass_points": {
                str(label): point.quadruple() for label, point in self.weierstrass.items()
            },
            "cone_points": [v.quadruple() for v in self.cone_representatives],
            "inscribed_pentagon": [v.quadruple() for v in self.inscribed_pentagon],
        }


_VERTICES = (
    _gv(0, 0, 0, 0),
    _gv(0, 1, 0, 0),  # (phi, 0)
    _gv(1, 1, 0, 0),  # (phi^2, 0)
    _gv(1, 1, 0, 1),  # (phi^2, phi)
    _gv(0, 1, 0, 1),  # (phi, phi)
    _gv(0, 1, 1, 1),  # (phi, phi^2)
    _gv(0, 0, 1, 1),  # (0, phi^2)
    _gv(0, 0, 0, 1),  # (0, phi)
)

_IDENTIFICATIONS = (
    EdgeIdentification(
        "a",
        source=(_gv(0, 0, 0, 1), _gv(0, 0, 1, 1)),
        target=(_gv(0, 1, 0, 1), _gv(0, 1, 1, 1)),
        translation=_gv(0, 1, 0, 0),
    ),
    EdgeIdentification(
        "b",
        source=(_gv(0, 0, 0, 0), _gv(0, 0, 0, 1)),
        target=(_gv(1, 1, 0, 0), _gv(1, 1, 0, 1)),
        translation=_gv(1, 1, 0, 0),
    ),
    EdgeIdentification(
        "c",
        source=(_gv(0, 0, 0, 0), _gv(0, 1, 0, 0)),
        target=(_gv(0, 0, 1, 1), _gv(0, 1, 1, 1)),
        translation=_gv(0, 0, 1, 1),
    ),
    EdgeIdentification(
        "d",
        source=(_gv(0, 1, 0, 0), _gv(1, 1, 0, 0)),
        target=(_gv(0, 1, 0, 1), _gv(1, 1, 0, 1)),
        translation=_gv(0, 0, 0, 1),
    ),
)

_WEIERSTRASS = {
    1: _gv(0, 0, HALF, 1),          # (0, phi + 1/2)
    2: _gv(0, HALF, HALF, 1),       # (phi/2, phi + 1/2)
    3: _gv(0, HALF, 0, HALF),       # (phi/2, phi/2)
    4: _gv(HALF, 1, 0, HALF),       # (phi + 1/2, phi/2)
    5: _gv(HALF, 1, 0, 0),          # (phi + 1/2, 0)
}

_INSCRIBED_PENTAGON = (
    _gv(0, 1, 0, 0),
    _gv(1, 1, 0, 0),
    _gv(0, 1, 0, 1),
    _gv(0, 0, 1, 1),
    _gv(0, 0, 0, 1),
)

GOLDEN_L = GoldenL(
    vertices=_VERTICES,
    identifications=_IDENTIFICATIONS,
    weierstrass=_WEIERSTRASS,
    cone_representatives=_VERTICES,
    inscribed_pentagon=_INSCRIBED_PENTAGON,
)

CONE_POINTS = frozenset(_VERTICES)
WEIERSTRASS_LABELS = (1, 2, 3, 4, 5)
# Side midpoints of the inscribed pentagon: side j joins corners j and j + 1. tau_k mirrors at side k.
MIDPOINT_CYCLE = (5, 4, 2, 1, 3)


def weierstrass_point(label: int) -> GoldenVector:
    if type(label) is not int or label not in _WEIERSTRASS:
        raise ValueError(f"midpoint label must be 1..5, got {label}")
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


def sigma(k: int) -> Rows:
    if not 0 <= k <= 3:
        raise ValueError(f"generator index must be 0..3, got {k}")
    return SIGMA[k]


class Permutation5(_Frozen):
    """A permutation of the labels 1..5, stored as the image tuple.

    images[j - 1] is where label j goes. Composition is (p * q)(j) = p(q(j)),
    so the right factor acts first.
    """

    __slots__ = ("images",)
    images: tuple[int, int, int, int, int]

    def __init__(self, images: tuple[int, int, int, int, int]) -> None:
        if sorted(images) != [1, 2, 3, 4, 5]:
            raise ValueError(f"not a permutation of 1..5: {images}")
        object.__setattr__(self, "images", tuple(images))

    @classmethod
    def identity(cls) -> Permutation5:
        return cls((1, 2, 3, 4, 5))

    def __call__(self, label: int) -> int:
        if not 1 <= label <= 5:
            raise ValueError(f"label must be 1..5, got {label}")
        return self.images[label - 1]

    def __mul__(self, other: Permutation5) -> Permutation5:
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
            if j in seen:
                continue
            cycle = [j]
            seen.add(j)
            image = self(j)
            while image != j:
                cycle.append(image)
                seen.add(image)
                image = self(image)
            if len(cycle) > 1:
                parts.append("(" + " ".join(str(c) for c in cycle) + ")")
        return "".join(parts) if parts else "()"


# How each shear permutes the Weierstrass points:
# tau_0 = (1 2)(3 4), tau_1 = (1 3)(2 5), tau_2 = (1 4)(3 5), tau_3 = (2 3)(4 5).
TAU = (
    Permutation5((2, 1, 4, 3, 5)),
    Permutation5((3, 5, 1, 4, 2)),
    Permutation5((4, 2, 5, 1, 3)),
    Permutation5((1, 3, 2, 5, 4)),
)


def tau(k: int) -> Permutation5:
    if not 0 <= k <= 3:
        raise ValueError(f"generator index must be 0..3, got {k}")
    return TAU[k]


# Reflecting the golden L across y = x swaps the vertical and horizontal
# directions and relabels the Weierstrass points by (1 5)(2 4).
VERTICAL_RELABELING = Permutation5((5, 4, 3, 2, 1))


class Axis(Enum):
    HORIZONTAL = "horizontal"
    VERTICAL = "vertical"


Sector = Union[int, Axis]


def _direction_pairs(v: GoldenVector) -> tuple[int, int, int, int]:
    """v cleared to integer pairs, checked to be a nonzero direction in the closed first quadrant."""
    xa, xb, ya, yb = pairs = cleared(v)
    if not (xa or xb or ya or yb):
        raise ValueError("zero vector has no direction")
    if golden_sign(xa, xb) < 0 or golden_sign(ya, yb) < 0:
        raise ValueError(f"direction must lie in the closed first quadrant: {v}")
    return pairs


def sector_of(v: GoldenVector) -> Sector:
    """Sector index of a direction in the closed first quadrant.

    Cone k is spanned by the columns of sigma_k; slopes on a shared boundary
    belong to the higher sector. Horizontal directions are terminal (they lie
    in no cone) and vertical ones are reported as Axis.VERTICAL for the caller
    to handle by the y = x relabeling. The cone is decided on v cleared to
    integer pairs, the same ray.
    """
    return pair_sector(_direction_pairs(v))


def pair_sector(v: tuple[int, int, int, int]) -> Sector:
    """sector_of on integer pairs (xa, xb, ya, yb), without its input checks.

    The caller guarantees a nonzero direction in the closed first quadrant.
    Cones 3, 2, 1 start at slopes phi, 1, phi - 1, so with x > 0 the tests are
    the signs of y - phi*x, y - x and y + x - phi*x.
    """
    xa, xb, ya, yb = v
    if not (ya or yb):
        return Axis.HORIZONTAL
    if not (xa or xb):
        return Axis.VERTICAL
    if golden_sign(ya - xb, yb - xa - xb) >= 0:
        return 3
    if golden_sign(ya - xa, yb - xb) >= 0:
        return 2
    return 1 if golden_sign(ya + xa - xb, yb - xa) >= 0 else 0


# The two frames a trajectory is drawn in, the golden L itself and the pentagon
# P carries it to, and a drawing's default SVG size and stroke width. They live
# here, not in render, so the CLI can offer them without loading render.
GOLDEN_L_FRAME = "goldenl"
PENTAGON_FRAME = "pentagon"
FRAMES = (GOLDEN_L_FRAME, PENTAGON_FRAME)
DEFAULT_SIZE = 480
DEFAULT_STROKE = 2.0


class PentagonTransfer(NamedTuple):
    """Float change of frame from the golden L to the regular pentagon."""

    matrix: tuple[tuple[float, float], tuple[float, float]]


def pentagon_transfer() -> PentagonTransfer:
    """The matrix P = ((1, cos pi/5), (0, sin pi/5)).

    cos(pi/5) = phi/2 exactly; sin(pi/5) exists only as a float, which is why
    the pentagon frame is render-only and never feeds classification.
    """
    import math

    c = GoldenNumber(0, HALF).to_float()
    return PentagonTransfer(((1.0, c), (0.0, math.sin(math.pi / 5.0))))


def surface_description() -> dict:
    """JSON-ready description of the golden L for renderers and external tools."""
    return GOLDEN_L.to_json_dict()
