"""SVG rendering of trajectories, in the golden L frame or the pentagon frame.

The golden L frame draws the exact trajectory (coordinates only become floats
at the last step). The pentagon frame replays the direction through the frame
change P and follows the billiard in a regular pentagon with side 1 by float
reflection; it is a visual aid and never feeds back into classification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CapExceededError
from .field import PHI_FLOAT, GoldenVector
from .flow import DEFAULT_STEP_CAP, Outcome, Trajectory, trace
from .surface import GOLDEN_L, pentagon_transfer
from .words import Word, format_word, word_to_vector

GOLDEN_L_FRAME = "goldenl"
PENTAGON_FRAME = "pentagon"
FRAMES = (GOLDEN_L_FRAME, PENTAGON_FRAME)

DEFAULT_SIZE = 480
DEFAULT_STROKE = 2.0
DEFAULT_MAX_BOUNCES = 20_000
CORNER_TOLERANCE = 1e-9
CLOSE_TOLERANCE = 1e-7

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


def pentagon_direction(word: Word) -> tuple[float, float]:
    """The float pentagon-frame image P * v of a word's direction."""
    v = word_to_vector(word)
    (p00, p01), (p10, p11) = pentagon_transfer().matrix
    x, y = v.to_floats()
    return (p00 * x + p01 * y, p10 * x + p11 * y)


def pentagon_length(h: GoldenVector) -> float:
    """Euclidean length of P * h, the pentagon-frame image of a holonomy."""
    (p00, p01), (p10, p11) = pentagon_transfer().matrix
    x, y = h.to_floats()
    return math.hypot(p00 * x + p01 * y, p10 * x + p11 * y)


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


@dataclass(frozen=True)
class BilliardPath:
    """A float billiard orbit in the unit-side regular pentagon."""

    start_label: int
    points: tuple[tuple[float, float], ...]
    outcome: str  # "closed" | "corner" | "capped"
    length: float

    @property
    def segment_count(self) -> int:
        return len(self.points) - 1


def _normalize(v: tuple[float, float]) -> tuple[float, float]:
    n = math.hypot(*v)
    if n == 0.0:
        raise ValueError("billiard direction must be nonzero")
    return (v[0] / n, v[1] / n)


def billiard_path(
    label: int,
    direction: tuple[float, float],
    max_bounces: int = DEFAULT_MAX_BOUNCES,
) -> BilliardPath:
    """Reflect a ray around the pentagon until it closes or meets a corner.

    Closure means bouncing off the start midpoint with the starting outgoing
    direction. It can only happen at a bounce: the midpoint lies on the
    boundary, and the open chord between two boundary hits of a strictly
    convex pentagon lies inside it. Corners within CORNER_TOLERANCE end the
    path as a saddle hit.
    """
    if label not in PENTAGON_MIDPOINTS:
        raise ValueError(f"midpoint label must be 1..5, got {label}")
    start = PENTAGON_MIDPOINTS[label]
    d0 = _normalize(direction)
    # The direction is defined up to sign; launch into the pentagon. The
    # outward edge normal at a midpoint is the midpoint's own radial direction.
    normal = _normalize(start)
    if d0[0] * normal[0] + d0[1] * normal[1] > 0.0:
        d0 = (-d0[0], -d0[1])
    p = start
    d = d0
    points = [start]
    total = 0.0
    skip_edge = label_edge = _edge_of_midpoint(label)
    for _ in range(max_bounces):
        hit = _next_edge_hit(p, d, skip_edge)
        if hit is None:
            raise ValueError(f"billiard ray escaped the pentagon at {p} along {d}")
        t, edge_index, _u = hit
        q = (p[0] + t * d[0], p[1] + t * d[1])
        points.append(q)
        total += t
        if _near_corner(q, CORNER_TOLERANCE):
            return BilliardPath(label, tuple(points), "corner", total)
        d = _reflect(d, edge_index)
        # Closure at a bounce point: back at the start midpoint, same outgoing ray.
        if (
            edge_index == label_edge
            and math.hypot(q[0] - start[0], q[1] - start[1]) < CLOSE_TOLERANCE
            and _close(d, d0, CLOSE_TOLERANCE)
        ):
            return BilliardPath(label, tuple(points), "closed", total)
        p = q
        skip_edge = edge_index
    return BilliardPath(label, tuple(points), "capped", total)


def _edge_of_midpoint(label: int) -> int:
    # Edge i joins the vertices at 90 + 72i and 162 + 72i degrees, so its
    # midpoint sits at 126 + 72i.
    return round((_MIDPOINT_ANGLES[label] - 126.0) / 72.0) % 5


def _next_edge_hit(
    p: tuple[float, float], d: tuple[float, float], skip_edge: int
) -> tuple[float, int, float] | None:
    best: tuple[float, int, float] | None = None
    for i in range(5):
        if i == skip_edge:
            continue
        a = PENTAGON_VERTICES[i]
        b = PENTAGON_VERTICES[(i + 1) % 5]
        ex, ey = b[0] - a[0], b[1] - a[1]
        denom = d[0] * ey - d[1] * ex
        if abs(denom) < 1e-15:
            continue
        wx, wy = a[0] - p[0], a[1] - p[1]
        t = (wx * ey - wy * ex) / denom
        u = (wx * d[1] - wy * d[0]) / denom
        if t <= 1e-12 or u < -1e-9 or u > 1.0 + 1e-9:
            continue
        if best is None or t < best[0]:
            best = (t, i, u)
    return best


def _near_corner(q: tuple[float, float], tolerance: float) -> bool:
    return any(math.hypot(q[0] - v[0], q[1] - v[1]) < tolerance for v in PENTAGON_VERTICES)


def _reflect(d: tuple[float, float], edge_index: int) -> tuple[float, float]:
    a = PENTAGON_VERTICES[edge_index]
    b = PENTAGON_VERTICES[(edge_index + 1) % 5]
    ex, ey = _normalize((b[0] - a[0], b[1] - a[1]))
    along = d[0] * ex + d[1] * ey
    return (2.0 * along * ex - d[0], 2.0 * along * ey - d[1])


def _close(u: tuple[float, float], w: tuple[float, float], tolerance: float) -> bool:
    return math.hypot(u[0] - w[0], u[1] - w[1]) < tolerance


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
    max_bounces: int = DEFAULT_MAX_BOUNCES,
) -> str:
    """Draw the pentagon billiard orbit for a word from one labeled midpoint.

    A float billiard that neither closes nor meets a corner within
    `max_bounces` is refused with CapExceededError rather than drawn.
    """
    path = billiard_path(label, pentagon_direction(word), max_bounces)
    if path.outcome == "capped":
        raise CapExceededError(
            f"pentagon billiard for word {format_word(word)} from midpoint {label} "
            f"did not close within {max_bounces} bounces"
        )
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
    cap: int | None = None,
) -> str:
    """SVG for a word and midpoint in the requested frame."""
    if size < 1 or stroke <= 0:
        raise ValueError(f"size must be at least 1 and stroke positive, got {size} and {stroke}")
    if frame == GOLDEN_L_FRAME:
        trajectory = trace(label, word, cap if cap is not None else DEFAULT_STEP_CAP)
        return golden_l_svg(trajectory, size, stroke)
    if frame == PENTAGON_FRAME:
        return pentagon_svg(word, label, size, stroke, cap if cap is not None else DEFAULT_MAX_BOUNCES)
    raise ValueError(f"frame must be one of {FRAMES}, got {frame!r}")
