"""SVG rendering of trajectories, in the golden L frame or the pentagon frame.

Both frames draw one exact trajectory, and coordinates only become floats at
the last step. The golden L frame draws its segments as they are. The pentagon
frame's billiard table, a regular pentagon with side 1, is the image of the L's
inscribed pentagon under one linear map P, which only _on_pentagon states: the
table's vertices, side midpoints and mirrors are P's images of the L's points.
The trajectory folds onto the table (see billiard_path) from its walk alone:
flow, which owns the walk's encoding, states the sides each byte's run leaves
and re-enters by, and the turn; each run's chord h comes from the walk's steps,
and where it bounces is one affine map of h per side, set up once per
direction, so no point is built. Where a closed path closes follows by rule
from the walk's turns and the direction. Each frame's outline and marked points
are formatted once per size and stroke, both frames' lines in chunks, and each
bounce point of the table's polyline is placed and formatted once.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from itertools import chain

from .field import PHI_FLOAT, _Frozen
from .flow import DEFAULT_STEP_CAP, Outcome, Trajectory, _BEYOND, _END, _LEAVES, _REENTRY, _STAIR, _shown, trace
from .surface import DEFAULT_SIZE, DEFAULT_STROKE, FRAMES, GOLDEN_L, GOLDEN_L_FRAME, MIDPOINT_CYCLE, PENTAGON_FRAME
# word_to_vector is bound here only because perfbench/selftest.py checks that its wrapper reaches it.
from .words import Word, word_to_vector  # noqa: F401

# P = ((1, cos pi/5), (0, sin pi/5)), with cos pi/5 = phi/2, carries the inscribed pentagon onto the table, apex up
# and centred at the origin. sin pi/5 is not in Q(phi), so the table is drawn in floats and never feeds a verdict.
_P01, _P11 = PHI_FLOAT / 2.0, math.sin(math.pi / 5.0)
_CENTRE = (1.0 + 3.0 * PHI_FLOAT) / 5.0


def _on_pentagon(x: float, y: float) -> complex:
    """P(x - centre), for the inscribed pentagon's centre (c, c): the table point."""
    x, y = x - _CENTRE, y - _CENTRE
    return complex(x + _P01 * y, _P11 * y)


# The table is P's image of the L: its vertices the inscribed ring's, apex first, its midpoints the L's marked points.
_RING = [p.to_floats() for p in GOLDEN_L.inscribed_pentagon]
PENTAGON_VERTICES = tuple((z.real, z.imag) for z in (_on_pentagon(*_RING[(k + 3) % 5]) for k in range(5)))
_CIRCUMRADIUS = PENTAGON_VERTICES[0][1]
_L_MARKED = {label: p.to_floats() for label, p in GOLDEN_L.weierstrass.items()}
PENTAGON_MIDPOINTS = {k: (z.real, z.imag) for k, z in zip(_L_MARKED, (_on_pentagon(*p) for p in _L_MARKED.values()))}


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


# The fold names each inscribed side by the Weierstrass point at its midpoint: the ends of each side by label, in
# the L and on the table, and the table's five turns.
_SIDE_ENDS = {
    side: (a, c, _on_pentagon(*a), _on_pentagon(*c)) for side, a, c in zip(MIDPOINT_CYCLE, _RING, _RING[1:] + _RING[:1])
}
_ROTATIONS = tuple(complex(math.cos(0.4 * math.pi * k), math.sin(0.4 * math.pi * k)) for k in range(5))
_SQRT5 = math.sqrt(5.0)
# The reflections in the table axes through midpoints 2 and 4 (billiard_path): u / conj(u) for the midpoint u.
_MIRRORS = {label: complex(x, y) / complex(x, -y) for label, (x, y) in PENTAGON_MIDPOINTS.items() if label in (2, 4)}


def _float_ends(trajectory: Trajectory) -> list[float]:
    """Every segment's begin and end as floats, flat: x1, y1, x2, y2, ... Each
    a / s is correctly rounded, like float(Fraction(a, s)), so these match
    GoldenVector.to_floats."""
    s = trajectory.scale
    # The coefficient pairs (a, b) of each coordinate a + b*phi over s, in turn.
    pairs = list(chain.from_iterable(chain.from_iterable(trajectory.points)))
    return [a / s + b / s * PHI_FLOAT for a, b in zip(pairs[0::2], pairs[1::2])]


def _side_maps(pairs: tuple[int, int, int, int], den: int) -> dict[int, tuple[complex, complex]]:
    """Per side that v, the direction with integer pairs `pairs` over den, crosses:
    (alpha, beta) such that the chord h = v x p meets it at the table point alpha + h * beta."""
    vxa, vxb, vya, vyb = pairs
    vx, vy = vxa / den + vxb / den * PHI_FLOAT, vya / den + vyb / den * PHI_FLOAT
    maps = {}
    for side, ((ax, ay), (cx, cy), a, c) in _SIDE_ENDS.items():
        # The chord meets side A -> C at A + t(C - A), t = (h - v x A) / (v x (C - A)).
        if dv := vx * (cy - ay) - vy * (cx - ax):  # 0 for a side parallel to v, never crossed
            d = c - a  # P(C - A)
            maps[side] = a - (vx * ay - vy * ax) / dv * d, d / dv
    return maps


class BilliardPath(_Frozen):
    """A billiard orbit in the unit-side regular pentagon, folded from an exact
    trajectory, with outcome "closed" or "corner"; a field._Frozen value."""

    __slots__ = ("start_label", "points", "outcome")

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
    picture in the table axis through the start launches them inward. Each
    run lies on one chord h of the walk, and P is linear, so its crossing
    with a side is that side's affine map of h (_side_maps).

    A closed trajectory repeats, turned, for a number of periods set by rule.
    The table's sides lie at multiples of 36 degrees, and P maps the first
    quadrant onto table angles 0 to 36 degrees, so only the horizontal and the
    vertical run parallel to a side; those close after two and a half periods.
    In any other direction no two (bounce, turn) states of one period land on
    the same table state, so the path closes after the order of the period's
    turn sum in Z/5: one period when it is 0 mod 5, five when it is not.
    """
    drawn, closed = _fold(trajectory)
    return BilliardPath(trajectory.start_label, tuple((z.real, z.imag) for z in drawn), "closed" if closed else "corner")


def _fold(trajectory: Trajectory) -> tuple[list[complex], bool]:
    """billiard_path's points as table points x + yi, and whether the path
    closed, read from the walk, the direction's table and the start label."""
    label, walk, cone = trajectory.start_label, trajectory.walk, trajectory._cone
    (p2, b2), _, deltas, starts, _, _, pairs = trajectory._table
    outside, closed, beyond = label in (2, 4), cone is None, _BEYOND.get(cone)
    if closed and walk[-1] == _END:
        # Closed strictly inside a segment: the last run ends at the start and
        # the first leaves it, so together they are one run, on the first chord.
        walk = walk[:-1]
    # h starts on the start's chord and each wall adds its step; in the (p, b) form at scale 2 it is
    # (p + b * sqrt 5) / 4. Past float range, v and every h are divided alike by a power of 2.
    den = 4 << max(0, max(map(abs, pairs)).bit_length() - 960)
    maps = _side_maps(pairs, den >> 2)
    (x, y), _ = starts[label]
    p, b = x + p2, y + b2
    # Each run re-enters after the previous wall and leaves before its own, so
    # the start is crossing 0, or 1 from midpoints 2 and 4, of a closed orbit.
    # The first run re-enters only on a closed orbit, after its last wall.
    crossings, previous = [], walk[-1]
    for wall in walk:
        h = p / den + b / den * _SQRT5
        if previous != _END:
            turn, entered = _REENTRY[previous]
            alpha, beta = maps[entered]
            crossings.append((turn, alpha + h * beta))
        if wall != _END:
            alpha, beta = maps[_LEAVES[wall][0]]
            crossings.append((0, alpha + h * beta))
            dp, db = deltas[wall]
            p, b = p + dp, b + db
        previous = wall
    if beyond:  # the last run leaves by the cut its cone point lies beyond
        alpha, beta = maps[beyond[0]]
        crossings.append((0, alpha + h * beta))

    # A closed path's period count, in half periods; a closed walk has two crossings a run, so n is even.
    n, axis = len(crossings), not (pairs[0] or pairs[1]) or not (pairs[2] or pairs[3])
    halves = 5 if axis else 10 if sum(turn for turn, _ in crossings) % 5 else 2
    k, drawn = 0, []
    for step in range(outside + 1, outside + halves * n // 2) if closed else range(outside, n):
        turn, q = crossings[step % n]
        k = (k + turn) % 5
        drawn.append(q * _ROTATIONS[k])
    if not closed:
        drawn.append(_on_pentagon(*_STAIR[beyond[1] if beyond else cone].to_floats()) * _ROTATIONS[k])
    if outside:
        mirror = _MIRRORS[label]
        drawn = [mirror * z.conjugate() for z in drawn]
    start = complex(*PENTAGON_MIDPOINTS[label])
    return [start, *drawn, start] if closed else [start, *drawn], closed


# SVG output

# The golden L frame's fixed parts as floats: outline, inscribed pentagon, marked points (_L_MARKED), extent phi^2.
_L_OUTLINES = (
    ("surface-outline", [v.to_floats() for v in GOLDEN_L.vertices], 1.0),
    ("inscribed-pentagon", _RING, 0.5),
)
_L_EXTENT = GOLDEN_L.vertices[2].x.to_float()
_TABLE_OUTLINES = (("surface-outline", PENTAGON_VERTICES, 1.0),)
# Per frame: the side of the square drawn and its upper left corner, the
# outlines as (class, polygon, stroke factor) triples and the marked points.
_FRAMES = {
    GOLDEN_L_FRAME: (_L_EXTENT, 0.0, _L_EXTENT, _L_OUTLINES, _L_MARKED),
    PENTAGON_FRAME: (2.0 * _CIRCUMRADIUS, -_CIRCUMRADIUS, _CIRCUMRADIUS, _TABLE_OUTLINES, PENTAGON_MIDPOINTS),
}
# Both frames' lines are formatted this many at a time (_svg): a long picture
# is held about twice while it is joined, not four times, and every picture
# of up to this many lines is formatted in one piece.
_CHUNK_LINES = 8192


def _frame(frame: str, size: int, stroke: float) -> tuple:
    """What every size x size picture of one frame shares (_frame_parts).
    Raises ValueError for an unknown frame or unless size is an int from 1 to
    the largest float and stroke a positive int or float up to half that, so
    every printed coordinate and width (up to twice the stroke) is finite. The
    exact checks come before the cache, which would raise TypeError on an unhashable argument."""
    top = sys.float_info.max  # compared exactly, so a huge int size or stroke converts to no float
    if type(size) is not int or not 1 <= size <= top or not (type(stroke) in (int, float) and 0 < stroke <= top / 2):
        got = f"{_shown(size, repr)} and {_shown(stroke, repr)}"  # a size or stroke can pass the int digits limit
        raise ValueError(f"size must be at least 1 and stroke positive, in float range, got {got}")
    if frame not in FRAMES:
        raise ValueError(f"frame must be one of {FRAMES}, got {frame!r}")
    return _frame_parts(frame, size, stroke)


@lru_cache(maxsize=16)
def _frame_parts(frame: str, size: int, stroke: float) -> tuple:
    """The placement of frame coordinates, (margin, left, top, scale), the text
    before the trajectory's lines, the line format and the text after them,
    for a size and stroke that _frame has checked. The frame's square fills
    the picture inside a 6% margin."""
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
    spec = "%.3f" if frame == GOLDEN_L_FRAME else "%s"  # the table's lines take formatted points (_svg)
    line = (
        f'<line class="trajectory" x1="{spec}" y1="{spec}" x2="{spec}" y2="{spec}" '
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


def _svg(frame: str, trajectory: Trajectory, size: int, stroke: float) -> str:
    """A size x size picture of one frame with a trajectory's lines, read after
    _frame checks size and stroke. The L's segments share no ends; the table's
    path is a polyline, line i from point i to i + 1, so each point is placed and
    formatted once, and a chunk's lines are one join of the line's pieces and the
    point strings. Both frames write lines in chunks of _CHUNK_LINES, joined once."""
    (margin, left, top, scale), head, line, tail = _frame(frame, size, stroke)
    parts = [head]
    # %.3f prints a float as {:.3f} does.
    if frame == GOLDEN_L_FRAME:
        ends = _float_ends(trajectory)
        ends[0::2] = [margin + (x - left) * scale for x in ends[0::2]]
        ends[1::2] = [margin + (top - y) * scale for y in ends[1::2]]
        n = len(ends) // 4
        for i in range(0, n, _CHUNK_LINES):
            k = min(_CHUNK_LINES, n - i)
            parts.append(line * k % tuple(ends[4 * i:4 * (i + k)]))
        del ends  # not held through the join
    else:
        # Each chunk of the table's lines is formatted from its own points,
        # sharing its end point with the next, between the line's pieces.
        points, (a, b, c, d, e) = _fold(trajectory)[0], line.split("%s")
        for i in range(0, len(points) - 1, _CHUNK_LINES):
            chunk = points[i:i + _CHUNK_LINES + 1]
            xs = ("%.3f " * len(chunk) % tuple([margin + (z.real - left) * scale for z in chunk])).split()
            ys = ("%.3f " * len(chunk) % tuple([margin + (top - z.imag) * scale for z in chunk])).split()
            text = [a, None, b, None, c, None, d, None, e] * (len(chunk) - 1)  # None for x1, y1, x2 and y2
            text[1::9], text[3::9], text[5::9], text[7::9] = xs[:-1], ys[:-1], xs[1:], ys[1:]
            parts.append("".join(text))
    parts.append(tail)
    return "".join(parts)


def golden_l_svg(trajectory: Trajectory, size: int = DEFAULT_SIZE, stroke: float = DEFAULT_STROKE) -> str:
    """Draw the golden L, its marked points, and an exact trajectory.
    Raises ValueError for a size or stroke that _frame rejects."""
    return _svg(GOLDEN_L_FRAME, trajectory, size, stroke)


def billiard_svg(trajectory: Trajectory, size: int = DEFAULT_SIZE, stroke: float = DEFAULT_STROKE) -> str:
    """Draw the pentagon table, its side midpoints, and a trajectory folded onto it.
    Raises ValueError for a size or stroke that _frame rejects."""
    return _svg(PENTAGON_FRAME, trajectory, size, stroke)


def pentagon_svg(
    word: Word,
    label: int,
    size: int = DEFAULT_SIZE,
    stroke: float = DEFAULT_STROKE,
    cap: int = DEFAULT_STEP_CAP,
) -> str:
    """render_trajectory in the pentagon frame: a word traced from a labeled midpoint with at most `cap` flow steps."""
    return render_trajectory(word, label, PENTAGON_FRAME, size, stroke, cap)


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
