"""SVG rendering of trajectories, in the golden L frame or the pentagon frame.

Both frames draw one exact trajectory, and coordinates only become floats at
the last step. The golden L frame draws its segments as they are. The
pentagon frame folds them onto the billiard table, a regular pentagon with
side 1 (see billiard_path); every bounce, corner and closure is decided in
integers, on the trajectory's walk, the h of its chords and its direction. Each
frame's outline and marked points are formatted once per size and stroke,
and a drawing's lines in one format operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

from .errors import StructuralViolationError
from .field import PHI_FLOAT, cleared, golden_mul
from .flow import DEFAULT_STEP_CAP, Outcome, Trajectory, _END, _STAIR, trace
from .surface import (
    DEFAULT_SIZE, DEFAULT_STROKE, FRAMES, GOLDEN_L, GOLDEN_L_FRAME, MIDPOINT_CYCLE, PENTAGON_FRAME, Rows,
    pentagon_transfer,
)
# word_to_vector is bound here only because perfbench/selftest.py checks that its wrapper reaches it.
from .words import Word, word_to_vector  # noqa: F401

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
    passing it is one of those crossings. The walk counts the wall crossings.
    """
    if trajectory.outcome is not Outcome.CLOSED:
        raise ValueError("side events are defined for closed trajectories only")
    walk = trajectory.walk
    return 2 * (len(walk) - walk.count(_END))


def _edge_of_midpoint(label: int) -> int:
    # Edge i joins the vertices at 90 + 72i and 162 + 72i degrees, so its
    # midpoint sits at 126 + 72i.
    return round((_MIDPOINT_ANGLES[label] - 126.0) / 72.0) % 5


# The fold. Each side of the inscribed pentagon is named by the Weierstrass point
# at its midpoint, as is the table side P maps it to: 1 and 5 are gluing sources
# a and d, and 3, 4 and 2 are the cuts C3, C1 and C2 of transported_side_events.
_EDGE = {label: _edge_of_midpoint(label) for label in _MIDPOINT_ANGLES}
_RING = [p.to_floats() for p in GOLDEN_L.inscribed_pentagon]
_SIDE_ENDS = {side: (_RING[i], _RING[i - 4]) for i, side in enumerate(MIDPOINT_CYCLE)}
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
# (cut left, side re-entered) of a run, by its walk byte: the walls of a (x = phi)
# and c (y = phi^2) lie beyond C2, those of b (x = phi^2) and d (y = phi) beyond C1.
# Gluings a and d re-enter on sides 1 and 5, b and c below C3. Walls in walk order b, d, a, c.
_LEAVES = ((4, 3), (4, 5), (2, 1), (2, 3))
# The cone points _STAIR[1] and [3] lie beyond C1 and C2; a run that ends there leaves
# by that cut and is drawn to the cone point's mirror image in it, _STAIR[4] or [0].
_BEYOND = {1: (4, 4), 3: (2, 0)}
(_, _P01), (_, _P11) = pentagon_transfer().matrix
_CENTRE = (1.0 + 3.0 * PHI_FLOAT) / 5.0


def _on_table(x: float, y: float) -> complex:
    """P(x - centre), for the inscribed pentagon's centre (c, c): the table point."""
    x, y = x - _CENTRE, y - _CENTRE
    return complex(x + _P01 * y, _P11 * y)


def _float_ends(trajectory: Trajectory) -> list[float]:
    """Every segment's begin and end as floats, flat: x1, y1, x2, y2, ... Each
    a / s is correctly rounded, like float(Fraction(a, s)), so these match
    GoldenVector.to_floats."""
    s = trajectory.scale
    # The coefficient pairs (a, b) of each coordinate a + b*phi over s, in turn.
    pairs = [c for segment in trajectory.points for point in segment for c in point]
    return [a / s + b / s * PHI_FLOAT for a, b in zip(pairs[0::2], pairs[1::2])]


def _crossing(side: int, bx: float, by: float, ex: float, ey: float) -> complex:
    """The table point where the run from (bx, by) to (ex, ey) crosses a side; it is only drawn."""
    dx, dy = ex - bx, ey - by
    (ax, ay), (cx, cy) = _SIDE_ENDS[side]
    f = ((ax - bx) * (cy - ay) - (ay - by) * (cx - ax)) / (dx * (cy - ay) - dy * (cx - ax))
    return _on_table(bx + f * dx, by + f * dy)


def _apply(m: Rows, v: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """The matrix m applied to the integer-pair vector v = (xa, xb, ya, yb)."""
    ((aa, ab), (ba, bb)), ((ca, cb), (da, db)) = m
    xa, xb, ya, yb = v
    (p, q), (r, s) = golden_mul(aa, ab, xa, xb), golden_mul(ba, bb, ya, yb)
    (t, u), (w, z) = golden_mul(ca, cb, xa, xb), golden_mul(da, db, ya, yb)
    return p + r, q + s, t + w, u + z


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
    label, walk = trajectory.start_label, trajectory.walk
    v = cleared(trajectory.direction)
    outside = label in (2, 4)
    closed = trajectory.outcome is Outcome.CLOSED
    beyond = _BEYOND.get(trajectory._cone)
    ends = _float_ends(trajectory)
    if closed and walk[-1] == _END:
        # Closed strictly inside a segment: the last run ends at the start and
        # the first leaves it, so together they are one run through the start.
        ends[:2] = ends[-4:-2]
        del ends[-4:]
        walk = walk[:-1]
    # A run lies on one chord, so it passes a side's midpoint exactly when its
    # h, stepped along the walk from the start's, is that midpoint's.
    _, _, deltas, _, starts = trajectory._table
    midpoint_h = {m: h for m, (h, _) in starts.items()}
    h = midpoint_h[label]
    # Each run re-enters after the previous wall and leaves before its own, so
    # the start is crossing 0, or 1 from midpoints 2 and 4, of a closed orbit.
    # The first run re-enters only on a closed orbit, after its last wall.
    crossings, previous = [], walk[-1]
    for bx, by, ex, ey, wall in zip(ends[0::4], ends[1::4], ends[2::4], ends[3::4], walk):
        if previous != _END:
            left, entered = _LEAVES[previous]
            turn = 2 * (_EDGE[left] - _EDGE[entered]) % 5
            q = _crossing(entered, bx, by, ex, ey)
            crossings.append((entered, False, turn, h == midpoint_h[entered], q))
        if wall != _END or beyond:
            cut = _LEAVES[wall][0] if wall != _END else beyond[0]
            q = _crossing(cut, bx, by, ex, ey)
            crossings.append((cut, True, 0, h == midpoint_h[cut], q))
        if wall != _END:
            h = h[0] + deltas[wall][0], h[1] + deltas[wall][1]
        previous = wall

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
        drawn.append(_on_table(*_STAIR[beyond[1] if beyond else trajectory._cone].to_floats()) * _ROTATIONS[k])
    if outside:
        axis = math.radians(2.0 * _MIDPOINT_ANGLES[label])
        mirror = complex(math.cos(axis), math.sin(axis))
        drawn = [mirror * z.conjugate() for z in drawn]
    start = PENTAGON_MIDPOINTS[label]
    points = (start, *((z.real, z.imag) for z in drawn), *((start,) if closed else ()))
    return BilliardPath(label, points, "closed" if closed else "corner")


# SVG output

# The golden L frame's fixed parts as floats: outline, inscribed pentagon, marked points, extent phi^2.
_L_OUTLINES = (
    ("surface-outline", [v.to_floats() for v in GOLDEN_L.vertices], 1.0),
    ("inscribed-pentagon", _RING, 0.5),
)
_L_MARKED = {label: p.to_floats() for label, p in GOLDEN_L.weierstrass.items()}
_L_EXTENT = GOLDEN_L.vertices[2].x.to_float()
_TABLE_OUTLINES = (("surface-outline", PENTAGON_VERTICES, 1.0),)
# Per frame: the side of the square drawn and its upper left corner, the
# outlines as (class, polygon, stroke factor) triples and the marked points.
_FRAMES = {
    GOLDEN_L_FRAME: (_L_EXTENT, 0.0, _L_EXTENT, _L_OUTLINES, _L_MARKED),
    PENTAGON_FRAME: (2.0 * _CIRCUMRADIUS, -_CIRCUMRADIUS, _CIRCUMRADIUS, _TABLE_OUTLINES, PENTAGON_MIDPOINTS),
}


@lru_cache(maxsize=16, typed=True)
def _frame(frame: str, size: int, stroke: float) -> tuple:
    """What every size x size picture of one frame shares: the placement of
    frame coordinates, (margin, left, top, scale), the text before the
    trajectory's lines, the line format and the text after them. The frame's
    square fills the picture inside a 6% margin. Raises ValueError unless size
    is an int >= 1 and stroke a positive finite number, or for an unknown frame;
    the cache is typed, so a float size never reuses an int's entry."""
    if not isinstance(size, int) or size < 1 or not (math.isfinite(stroke) and stroke > 0):
        raise ValueError(f"size must be at least 1 and stroke a positive finite number, got {size} and {stroke}")
    if frame not in FRAMES:
        raise ValueError(f"frame must be one of {FRAMES}, got {frame!r}")
    extent, left, top, outlines, marked = _FRAMES[frame]
    margin = 0.06 * size
    scale = (size - 2.0 * margin) / extent

    def place(p: tuple[float, float]) -> tuple[float, float]:
        return margin + (p[0] - left) * scale, margin + (top - p[1]) * scale

    head = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" height="{size:.0f}" '
        f'viewBox="0 0 {size:.2f} {size:.2f}">\n'
    ]
    for css_class, polygon, factor in outlines:
        coords = " ".join("{:.3f},{:.3f}".format(*place(p)) for p in polygon)
        head.append(
            f'<polygon class="{css_class}" points="{coords}" '
            f'fill="none" stroke="#444444" stroke-width="{factor * stroke:.2f}"/>\n'
        )
    line = (
        '<line class="trajectory" x1="%.3f" y1="%.3f" x2="%.3f" y2="%.3f" '
        f'stroke="#c02020" stroke-width="{stroke:.2f}"/>\n'
    )
    tail = []
    for label, point in marked.items():
        cx, cy = place(point)
        tail.append(
            f'<circle class="marked-point marked-point-{label}" cx="{cx:.3f}" cy="{cy:.3f}" '
            f'r="{2.0 * stroke:.2f}" fill="#1040a0"/>\n'
        )
    tail.append("</svg>\n")
    return (margin, left, top, scale), "".join(head), line, "".join(tail)


def _svg(frame: str, ends: list[float], size: int, stroke: float) -> str:
    """A size x size picture of one frame with the trajectory's lines, given as
    one flat list x1, y1, x2, y2, ... of frame coordinates."""
    (margin, left, top, scale), head, line, tail = _frame(frame, size, stroke)
    placed = ends[:]
    placed[0::2] = [margin + (x - left) * scale for x in ends[0::2]]
    placed[1::2] = [margin + (top - y) * scale for y in ends[1::2]]
    # Every line in one format operation; %.3f prints a float as {:.3f} does.
    return head + line * (len(placed) // 4) % tuple(placed) + tail


def golden_l_svg(trajectory: Trajectory, size: int = DEFAULT_SIZE, stroke: float = DEFAULT_STROKE) -> str:
    """Draw the golden L, its marked points, and an exact trajectory.
    Raises ValueError unless size is an int >= 1 and stroke a positive finite number."""
    return _svg(GOLDEN_L_FRAME, _float_ends(trajectory), size, stroke)


def billiard_svg(trajectory: Trajectory, size: int = DEFAULT_SIZE, stroke: float = DEFAULT_STROKE) -> str:
    """Draw the pentagon table, its side midpoints, and a trajectory folded onto it.
    Raises ValueError unless size is an int >= 1 and stroke a positive finite number."""
    points = billiard_path(trajectory).points
    ends = list(chain.from_iterable(chain.from_iterable(zip(points, points[1:]))))  # x1, y1, x2, y2, ...
    return _svg(PENTAGON_FRAME, ends, size, stroke)


def pentagon_svg(
    word: Word,
    label: int,
    size: int = DEFAULT_SIZE,
    stroke: float = DEFAULT_STROKE,
    cap: int = DEFAULT_STEP_CAP,
) -> str:
    """billiard_svg for a word traced from one labeled midpoint with at most `cap` flow steps."""
    return billiard_svg(trace(label, word, cap), size, stroke)


def render_trajectory(
    word: Word,
    label: int,
    frame: str = GOLDEN_L_FRAME,
    size: int = DEFAULT_SIZE,
    stroke: float = DEFAULT_STROKE,
    cap: int = DEFAULT_STEP_CAP,
) -> str:
    """SVG for a word and midpoint in the requested frame, tracing once with at most `cap` flow steps."""
    _frame(frame, size, stroke)  # checks the size, stroke and frame before tracing
    # Looked up per call, so a wrapper bound over either name is the one that runs.
    draw = golden_l_svg if frame == GOLDEN_L_FRAME else billiard_svg
    return draw(trace(label, word, cap), size, stroke)
