"""Float reflection billiard in the regular pentagon: the tests' independent reference.

The library draws the pentagon frame by folding the exact golden L trajectory
onto the table (`goldenl.render.billiard_path`). This module reaches the same
pictures another way, by reflecting a float ray off the table's sides until it
comes back to its start or meets a corner within a tolerance. That billiard
shares no code with the fold: it states the regular pentagon by its angles,
where the library draws the table as P's image of the golden L.

`fold_by_segments` is a second reference for longer words, past the float
billiard's bounce cap: the fold's own turns, period rule and mirrors, but each
crossing found by intersecting a segment's exact ends, as floats, with a side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import goldenl.render as render
from goldenl.field import PHI_FLOAT, GoldenVector
from goldenl.flow import _END, _STAIR, Outcome, Trajectory
from goldenl.surface import MIDPOINT_CYCLE
from goldenl.words import Word, word_to_vector

DEFAULT_MAX_BOUNCES = 20_000
CORNER_TOLERANCE = 1e-9
CLOSE_TOLERANCE = 1e-7
# The table side of each midpoint. The library's fold names each inscribed side by the Weierstrass point at its
# midpoint, and P carries side j of MIDPOINT_CYCLE onto table side j + 2, from vertex j + 2 to j + 3. By label: upper
# left 1, upper right 2, lower left 3, lower right 4, bottom 5. The +2 cancels in a turn, so flow's _REENTRY reads
# MIDPOINT_CYCLE.
_EDGE = {label: (MIDPOINT_CYCLE.index(label) + 2) % 5 for label in sorted(MIDPOINT_CYCLE)}
# The frame change P from the golden L to the table, as floats from its angle.
PENTAGON_TRANSFER = ((1.0, math.cos(math.pi / 5.0)), (0.0, math.sin(math.pi / 5.0)))
# The regular pentagon with side 1, apex up, centred at the origin: vertex k at 90 + 72k
# degrees, and the midpoint of side i, from vertex i to i + 1, at 126 + 72i; label's side is _EDGE[label].
CIRCUMRADIUS = 1.0 / (2.0 * math.sin(math.pi / 5.0))
APOTHEM = 1.0 / (2.0 * math.tan(math.pi / 5.0))
PENTAGON_VERTICES = tuple(
    (CIRCUMRADIUS * math.cos(math.radians(90.0 + 72.0 * k)), CIRCUMRADIUS * math.sin(math.radians(90.0 + 72.0 * k)))
    for k in range(5)
)
PENTAGON_MIDPOINTS = {
    label: (APOTHEM * math.cos(math.radians(angle)), APOTHEM * math.sin(math.radians(angle)))
    for label, angle in ((label, 126.0 + 72.0 * edge) for label, edge in _EDGE.items())
}


def pentagon_direction(word: Word) -> tuple[float, float]:
    """The float pentagon-frame image P * v of a word's direction."""
    v = word_to_vector(word)
    (p00, p01), (p10, p11) = PENTAGON_TRANSFER
    x, y = v.to_floats()
    return (p00 * x + p01 * y, p10 * x + p11 * y)


def pentagon_length(h: GoldenVector) -> float:
    """Euclidean length of P * h, the pentagon-frame image of a holonomy."""
    (p00, p01), (p10, p11) = PENTAGON_TRANSFER
    x, y = h.to_floats()
    return math.hypot(p00 * x + p01 * y, p10 * x + p11 * y)


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
    skip_edge = label_edge = _EDGE[label]
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


def _crossing(side: int, begin: tuple[float, float], end: tuple[float, float]) -> complex:
    """The table point where the run from begin to end crosses an inscribed side."""
    (bx, by), (ex, ey) = begin, end
    dx, dy = ex - bx, ey - by
    (ax, ay), (cx, cy) = render._SIDE_ENDS[side][:2]
    f = ((ax - bx) * (cy - ay) - (ay - by) * (cx - ax)) / (dx * (cy - ay) - dy * (cx - ax))
    return render._on_pentagon(bx + f * dx, by + f * dy)


def fold_by_segments(t: Trajectory) -> list[tuple[float, float]]:
    """billiard_path(t).points from the trajectory's points at its scale: each
    run's exact ends as floats, intersected with the sides it crosses."""
    label, walk, s = t.start_label, t.walk, t.scale
    runs = [
        tuple((xa / s + xb / s * PHI_FLOAT, ya / s + yb / s * PHI_FLOAT) for xa, xb, ya, yb in segment)
        for segment in t.points
    ]
    outside, closed, beyond = label in (2, 4), t.outcome is Outcome.CLOSED, render._BEYOND.get(t._cone)
    if closed and walk[-1] == _END:
        # The last run, from the last wall to the start, and the first are one run.
        runs[0] = (runs[-1][0], runs[0][1])
        del runs[-1]
        walk = walk[:-1]
    crossings, previous = [], walk[-1]
    for (begin, end), wall in zip(runs, walk):
        if previous != _END:
            turn, entered = render._REENTRY[previous]
            crossings.append((turn, _crossing(entered, begin, end)))
        if wall != _END or beyond:
            cut = render._LEAVES[wall][0] if wall != _END else beyond[0]
            crossings.append((0, _crossing(cut, begin, end)))
        previous = wall
    n, v = len(crossings), t.direction
    halves = 5 if v.x.is_zero or v.y.is_zero else 10 if sum(turn for turn, _ in crossings) % 5 else 2
    k, drawn = 0, []
    for step in range(outside + 1, outside + halves * n // 2) if closed else range(outside, n):
        turn, q = crossings[step % n]
        k = (k + turn) % 5
        drawn.append(q * render._ROTATIONS[k])
    if not closed:
        corner = _STAIR[beyond[1] if beyond else t._cone].to_floats()
        drawn.append(render._on_pentagon(*corner) * render._ROTATIONS[k])
    if outside:
        drawn = [render._MIRRORS[label] * z.conjugate() for z in drawn]
    start = PENTAGON_MIDPOINTS[label]
    return [start, *((z.real, z.imag) for z in drawn), *([start] if closed else [])]
