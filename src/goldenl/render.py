"""SVG rendering of trajectories, in the golden L frame or the pentagon frame.

Both frames draw one exact trajectory, and coordinates only become floats at
the last step. The golden L frame draws its segments as they are. The
pentagon frame folds them onto the billiard table, a regular pentagon with
side 1 (see billiard_path); every bounce, corner and closure is decided on the
trajectory's integer points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import StructuralViolationError
from .field import PHI_FLOAT, cleared, golden_mul
from .flow import DEFAULT_STEP_CAP, Outcome, Trajectory, _STARTS2, trace, trace_direction
from .surface import (
    DEFAULT_SIZE, DEFAULT_STROKE, FRAMES, GOLDEN_L, GOLDEN_L_FRAME, PENTAGON_FRAME, Rows, pentagon_transfer
)
from .words import Word, _apply, word_to_vector

# Regular pentagon with side 1, apex up, centered at the origin.
_CIRCUMRADIUS = 1.0 / (2.0 * math.sin(math.pi / 5.0))
_APOTHEM = 1.0 / (2.0 * math.tan(math.pi / 5.0))

PENTAGON_VERTICES = tuple(
    (
        _CIRCUMRADIUS * math.cos(math.radians(90.0 + 72.0 * k)),
        _CIRCUMRADIUS * math.sin(math.radians(90.0 + 72.0 * k)),
    )
    for k in range(5)
)

# Side midpoints carry the same labels as the Weierstrass points: upper left 1,
# upper right 2, lower left 3, lower right 4, bottom 5.
_MIDPOINT_ANGLES = {1: 126.0, 2: 54.0, 3: 198.0, 4: 342.0, 5: 270.0}
PENTAGON_MIDPOINTS = {
    label: (
        _APOTHEM * math.cos(math.radians(angle)),
        _APOTHEM * math.sin(math.radians(angle)),
    )
    for label, angle in _MIDPOINT_ANGLES.items()
}


def transported_side_events(trajectory: Trajectory) -> int:
    """Pentagon-side crossings of one period of a closed trajectory.

    After the frame change the inscribed pentagon's sides, the boundary two
    doubled across their gluing walls, are the billiard table's sides, so
    this is the predicted bounce count per holonomy period. By rule, not
    search, it is two per wall crossing.

    Two sides lie on the boundary, the sources of gluings a (x = 0,
    phi <= y <= phi^2) and d (y = 0, phi <= x <= phi^2); three are interior
    cuts: C3 from (0, phi) to (phi, 0), C1 from (phi^2, 0) to (phi, phi), and
    C2 from (phi, phi) to (0, phi^2). Every cut has negative slope, so a
    closed-first-quadrant flow crosses each one transversally. Outside the
    pentagon the L is three triangles: T3 below C3, T1 beyond C1, T2 beyond
    C2. Every exit wall bounds T1 (targets of b and d) or T2 (targets of a
    and c), so each run crosses C1 or C2 once before its wall hit. Every
    re-entry lands on a boundary side (a, d) or strictly inside T3 (b, c),
    and then the next run crosses C3 once. The start is a side midpoint, and
    passing it is one of those crossings. A trace that closes by re-entry has
    one wall crossing per segment; one that closes strictly inside a segment,
    at its start point, has one fewer.
    """
    if trajectory.outcome is not Outcome.CLOSED:
        raise ValueError("side events are defined for closed trajectories only")
    points = trajectory.points
    closes_mid = points[-1][1] == points[0][0]
    return 2 * (len(points) - closes_mid)


def _edge_of_midpoint(label: int) -> int:
    # Edge i joins the vertices at 90 + 72i and 162 + 72i degrees, so its
    # midpoint sits at 126 + 72i.
    return round((_MIDPOINT_ANGLES[label] - 126.0) / 72.0) % 5


# The fold. Each side of the inscribed pentagon is named by the Weierstrass point
# at its midpoint, as is the table side P maps it to: 1 and 5 are gluing sources
# a and d, and 3, 4 and 2 are the cuts C3, C1 and C2 of transported_side_events.
_EDGE = {label: _edge_of_midpoint(label) for label in _MIDPOINT_ANGLES}
_RING = [p.to_floats() for p in GOLDEN_L.inscribed_pentagon]
_SIDE_ENDS = {side: (_RING[i], _RING[i - 4]) for i, side in enumerate((5, 4, 2, 1, 3))}
# P carries <u, w> = u^T ((1, phi/2), (phi/2, 1)) w to the table's dot product.
# Every side vector e has <e, e> = 1, so the mirror d -> 2<d, e>e - d has integer
# rows over Z[phi]. Runs leave only by C1, e = (-1, phi), and C2, e = (-phi, 1).
_MIRRORS: dict[int, Rows] = {
    4: (((0, -1), (0, -1)), ((1, 0), (0, 1))),  # ((-phi, -phi), (1, phi))
    2: (((0, 1), (1, 0)), ((0, -1), (0, -1))),  # ((phi, 1), (-phi, -phi))
}
# The table's turn by 72 degrees: the mirror in side 1, e = (0, 1), then in side 4.
_TURN: Rows = (((-1, 0), (0, -1)), ((0, 1), (0, 1)))  # ((-1, -phi), (phi, phi))
_ROTATIONS = tuple(complex(math.cos(0.4 * math.pi * k), math.sin(0.4 * math.pi * k)) for k in range(5))
# The cone points (phi^2, phi) and (phi, phi^2), scaled to 1, lie beyond C1 and
# C2; a run that ends there is drawn to their mirror images in those cuts.
_BEYOND = {(1, 1, 0, 1): (0, 0, 1, 1), (0, 1, 1, 1): (1, 1, 0, 0)}
(_, _P01), (_, _P11) = pentagon_transfer().matrix
_CENTRE = (1.0 + 3.0 * PHI_FLOAT) / 5.0


def _on_table(x: float, y: float) -> complex:
    """P(x - centre), for the inscribed pentagon's centre (c, c): the table point."""
    x, y = x - _CENTRE, y - _CENTRE
    return complex(x + _P01 * y, _P11 * y)


def _exit(hit: tuple, s: int) -> tuple[int, int]:
    """(cut left, side re-entered) of a run ending on a wall at `hit`, at scale s:
    the walls of a (x = phi) and c (y = phi^2) lie beyond C2, those of b (x = phi^2)
    and d (y = phi) beyond C1. Gluings a and d re-enter on sides 1 and 5, b and c below C3."""
    if hit[0] == 0 and hit[1] == s:
        return 2, 1
    if hit[2] == hit[3] == s:
        return 2, 3
    return (4, 3) if hit[0] == hit[1] == s else (4, 5)


def _crossing(side, leaving, turn, begin, end, v, s) -> tuple:
    """(side, leaving, turn, at the midpoint, table point) for a run crossing a side.
    It is at the midpoint exactly when the run's line passes it; the point is only drawn."""
    wxa, wxb, wya, wyb = (c * (s // 2) for c in _STARTS2[side])
    at_midpoint = golden_mul(wxa - begin[0], wxb - begin[1], v[2], v[3]) == golden_mul(
        wya - begin[2], wyb - begin[3], v[0], v[1]
    )
    bx, by = begin[0] / s + begin[1] / s * PHI_FLOAT, begin[2] / s + begin[3] / s * PHI_FLOAT
    dx, dy = end[0] / s + end[1] / s * PHI_FLOAT - bx, end[2] / s + end[3] / s * PHI_FLOAT - by
    (ax, ay), (cx, cy) = _SIDE_ENDS[side]
    f = ((ax - bx) * (cy - ay) - (ay - by) * (cx - ax)) / (dx * (cy - ay) - dy * (cx - ax))
    return side, leaving, turn, at_midpoint, _on_table(bx + f * dx, by + f * dy)


def _outgoing(v, side: int, leaving: bool, k: int):
    """The table direction leaving a bounce at turn k, pulled back by P to integer pairs."""
    d = _apply(_MIRRORS[side], v) if leaving else v
    for _ in range(k):
        d = _apply(_TURN, d)
    return d


@dataclass(frozen=True)
class BilliardPath:
    """A billiard orbit in the unit-side regular pentagon, folded from an exact trajectory."""

    start_label: int
    points: tuple[tuple[float, float], ...]
    outcome: str  # "closed" | "corner"

    @property
    def segment_count(self) -> int:
        return len(self.points) - 1


def billiard_path(trajectory: Trajectory) -> BilliardPath:
    """Fold an exact golden L trajectory onto the pentagon billiard table.

    The L is the double pentagon: the inscribed one, drawn by P, and one made
    of T1, T2 and T3 that folds onto the table by a reflection. So a bounce is
    a side crossing, and the table turns by 2 * (edge(s) - edge(s')) steps of
    72 degrees from a run that leaves by side s to the next, which re-enters by
    s'. Midpoints 2 and 4 start on C2 and C1 heading out; mirroring their
    picture in the table axis through the start launches them inward. A closed
    trajectory repeats, turned, until a bounce is back at the start midpoint
    with the first outgoing direction, both tested exactly.
    """
    label, s, points = trajectory.start_label, trajectory.scale, trajectory.points
    v = cleared(trajectory.direction)
    outside = label in (2, 4)
    closed = trajectory.outcome is Outcome.CLOSED
    cone = tuple(c // s for c in points[-1][1])
    runs = list(points)
    if closed and points[-1][1] == points[0][0]:
        # Closed strictly inside a segment: the last run ends at the start and
        # the first leaves it, so together they are one run through the start.
        runs[0] = (runs.pop()[0], runs[0][1])
    # Each run re-enters after the previous wall and leaves before its own, so
    # the start is crossing 0, or 1 from midpoints 2 and 4, of a closed orbit.
    crossings = []
    for i, (begin, end) in enumerate(runs):
        if i or closed:
            left, entered = _exit(runs[i - 1][1], s)
            turn = 2 * (_EDGE[left] - _EDGE[entered]) % 5
            crossings.append(_crossing(entered, False, turn, begin, end, v, s))
        if closed or i < len(runs) - 1 or cone in _BEYOND:
            crossings.append(_crossing(_exit(end, s)[0], True, 0, begin, end, v, s))

    # One period or five close a closed orbit; the horizontal class takes two and a half.
    first, n, k, drawn = _outgoing(v, label, outside, 0), len(crossings), 0, []
    for step in range(outside + 1, outside + 5 * n + 1) if closed else range(outside, n):
        side, leaving, turn, at_midpoint, q = crossings[step % n]
        k = (k + turn) % 5
        if closed and at_midpoint and (_EDGE[side] + k) % 5 == _EDGE[label]:
            if _outgoing(v, side, leaving, k) == first:
                break
        drawn.append(q * _ROTATIONS[k])
    else:
        if closed:
            raise StructuralViolationError(f"billiard from midpoint {label} did not close in five periods")
        xa, xb, ya, yb = _BEYOND.get(cone, cone)
        drawn.append(_on_table(xa + xb * PHI_FLOAT, ya + yb * PHI_FLOAT) * _ROTATIONS[k])
    if outside:
        axis = math.radians(2.0 * _MIDPOINT_ANGLES[label])
        drawn = [complex(math.cos(axis), math.sin(axis)) * z.conjugate() for z in drawn]
    start = PENTAGON_MIDPOINTS[label]
    points = (start, *((z.real, z.imag) for z in drawn), *((start,) if closed else ()))
    return BilliardPath(label, points, "closed" if closed else "corner")


# SVG assembly


def _svg_header(width: float, height: float) -> str:
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.2f} {height:.2f}">\n'
    )


def _polygon(points: list[tuple[float, float]], css_class: str, stroke: float) -> str:
    coords = " ".join(f"{x:.3f},{y:.3f}" for x, y in points)
    return (
        f'<polygon class="{css_class}" points="{coords}" '
        f'fill="none" stroke="#444444" stroke-width="{stroke:.2f}"/>\n'
    )


def _line(a: tuple[float, float], b: tuple[float, float], stroke: float) -> str:
    return (
        f'<line class="trajectory" x1="{a[0]:.3f}" y1="{a[1]:.3f}" '
        f'x2="{b[0]:.3f}" y2="{b[1]:.3f}" stroke="#c02020" stroke-width="{stroke:.2f}"/>\n'
    )


def _dot(p: tuple[float, float], radius: float, css_class: str) -> str:
    return (
        f'<circle class="{css_class}" cx="{p[0]:.3f}" cy="{p[1]:.3f}" '
        f'r="{radius:.2f}" fill="#1040a0"/>\n'
    )


def golden_l_svg(trajectory: Trajectory, size: int = DEFAULT_SIZE, stroke: float = DEFAULT_STROKE) -> str:
    """Draw the golden L, its marked points, and an exact trajectory."""
    raw_extent = GOLDEN_L.vertices[2].x.to_float()  # phi squared
    margin = 0.06 * size
    scale = (size - 2.0 * margin) / raw_extent

    def place(x: float, y: float) -> tuple[float, float]:
        return (margin + x * scale, margin + (raw_extent - y) * scale)

    parts = [_svg_header(size, size)]
    parts.append(_polygon([place(*v.to_floats()) for v in GOLDEN_L.vertices], "surface-outline", stroke))
    pentagon = [place(*v.to_floats()) for v in GOLDEN_L.inscribed_pentagon]
    parts.append(_polygon(pentagon, "inscribed-pentagon", stroke / 2.0))
    # Kernel points: a / s is correctly rounded like float(Fraction(a, s)), so floats match to_floats.
    s = trajectory.scale
    for (bxa, bxb, bya, byb), (exa, exb, eya, eyb) in trajectory.points:
        begin = place(bxa / s + bxb / s * PHI_FLOAT, bya / s + byb / s * PHI_FLOAT)
        end = place(exa / s + exb / s * PHI_FLOAT, eya / s + eyb / s * PHI_FLOAT)
        parts.append(_line(begin, end, stroke))
    for label, point in GOLDEN_L.weierstrass.items():
        parts.append(_dot(place(*point.to_floats()), 2.0 * stroke, f"marked-point marked-point-{label}"))
    parts.append("</svg>\n")
    return "".join(parts)


def pentagon_svg(
    word: Word,
    label: int,
    size: int = DEFAULT_SIZE,
    stroke: float = DEFAULT_STROKE,
    cap: int = DEFAULT_STEP_CAP,
) -> str:
    """Draw the pentagon billiard orbit for a word from one labeled midpoint.

    The word is traced once, with at most `cap` flow steps, and folded onto
    the table.
    """
    path = billiard_path(trace_direction(label, word_to_vector(word), cap))
    margin = 0.06 * size
    scale = (size - 2.0 * margin) / (2.0 * _CIRCUMRADIUS)

    def place(p: tuple[float, float]) -> tuple[float, float]:
        return (
            margin + (p[0] + _CIRCUMRADIUS) * scale,
            margin + (_CIRCUMRADIUS - p[1]) * scale,
        )

    parts = [_svg_header(size, size)]
    parts.append(_polygon([place(v) for v in PENTAGON_VERTICES], "surface-outline", stroke))
    for begin, end in zip(path.points, path.points[1:]):
        parts.append(_line(place(begin), place(end), stroke))
    for mid_label, point in PENTAGON_MIDPOINTS.items():
        parts.append(_dot(place(point), 2.0 * stroke, f"marked-point marked-point-{mid_label}"))
    parts.append("</svg>\n")
    return "".join(parts)


def render_trajectory(
    word: Word,
    label: int,
    frame: str = GOLDEN_L_FRAME,
    size: int = DEFAULT_SIZE,
    stroke: float = DEFAULT_STROKE,
    cap: int = DEFAULT_STEP_CAP,
) -> str:
    """SVG for a word and midpoint in the requested frame, tracing at most `cap` flow steps."""
    if size < 1 or stroke <= 0:
        raise ValueError(f"size must be at least 1 and stroke positive, got {size} and {stroke}")
    if frame == GOLDEN_L_FRAME:
        return golden_l_svg(trace(label, word, cap), size, stroke)
    if frame == PENTAGON_FRAME:
        return pentagon_svg(word, label, size, stroke, cap)
    raise ValueError(f"frame must be one of {FRAMES}, got {frame!r}")
