"""Exact straight-line flow on the golden L.

The flow moves in a fixed direction v from the closed first quadrant. The L
is a down-set of the first quadrant, so each line in direction v meets it in
one chord, from a left or bottom edge to a right or top edge, and the
transverse coordinate h = v x p = v.x*p.y - v.y*p.x is constant along the
chord and names it. A trajectory is a walk on h, an interval exchange on a
transversal, and no step builds a point:

- Walked from (phi^2, 0) to (0, phi^2), the exit boundary runs through walls
  b, d, a and c, and h never decreases along it. So a chord leaves through
  the wall whose span of h holds its h, found by two sign tests against the
  corners where walls meet. A wall parallel to v spans one h and is never hit.
- A crossing re-enters through the glued twin of its wall, a fixed
  translation back, so it adds the wall's constant v x back to h.
- The orbit runs into the cone point exactly when h is that of a corner where
  two walls meet. The axis runs along an edge, from midpoints 5 and 1, start
  on the h of an end corner.
- The flow is invertible off the cone point and h names the chord, so the
  orbit closes exactly when h comes back to its start value. A start at its
  chord's lower end (midpoints 1 and 5 lie on glued edges) is that re-entry
  point; any other start is met strictly inside one more segment.

With the start points scaled by 2 and the direction cleared to integer pairs,
h is an integer pair (a, b) meaning a + b*phi, and (p, b) with p = 2a + b
gives 2h = p + b*sqrt(5). The kernel keeps h as its offset (x, y) in that
form from the middle corner, so the first sign test reads the state as it is
and the second subtracts the offset of one outer corner. Each test is
decided inline by golden_sign's rule: same signs settle it at once, mixed
signs compare the squares. Each of the four walls has its own branch, which
appends its byte and adds its step to h. A direction is set up once per
call, in one frame of such offsets in the form the kernel reads, with its
pairs: every h a trace starts from or steps by is v x p for a fixed point p,
a small integer combination of half steps along the axes, so it is a sum of
the h's of those four half steps, each read off the pairs by golden_mul's
rule. A trajectory keeps only what its trace decides, the whole walk, the
integer holonomy, the corner hit and the direction's frame. On the first
read of its points it sets up their scale from the pairs and replays them.
The L's corners and gluings are surface's integers doubled to scale 2, and
every point, a trace's or a caller's, is checked against them on integers:
GoldenNumbers are only cleared on the way in and built on the way out.

A closed orbit through a midpoint meets exactly one other, its twin, half a
period on: the hyperelliptic involution J fixes both and turns the orbit
around, so the arc back has the same holonomy. The half-walk belongs to the
oracle, which needs only holonomies and steps the kernel itself: a walk that
stops on its twin's chord gives both midpoints twice the displacement so far
(its cap rule is _oracle's), a midpoint not yet known is walked on its own,
and a walk into the cone point builds no holonomy. What its walks look for,
the midpoints' chords, is in the frame too, so a walk only unpacks it. So it
walks about half of each cylinder's core orbit and builds no trajectory. It
reads a word's pairs from words._pairs. Its walks only collect holonomies;
_cylinder_verdicts, the one check, decides every report's verdicts, and the
report keeps the pairs and the holonomies it passed; no read of it walks.
The check is in closed form: psi_w carries the horizontal cylinders onto v's,
v = word_to_vector(w), so their holonomies are phi*v and phi^2*v, two each
(Veech 1989). A vector is walked as given and checked against its word's.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from enum import Enum
from functools import cached_property
from itertools import chain
from math import lcm
from operator import add, sub
from threading import Lock

from .errors import CapExceededError, StructuralViolationError, _check_int
from .field import GoldenVector, _Frozen, _from_point, _lowest, cleared, golden_mul, golden_sign
from .surface import _CORNERS, _GLUINGS, _MIDPOINTS2, GOLDEN_L, MIDPOINT_CYCLE, Classification, weierstrass_point
from .words import DEFAULT_INVERSION_CAP, Word, _direction_pairs, _pairs, _peel, format_word, word_to_vector

DEFAULT_STEP_CAP = 1_000_000


def point_in_surface(p: GoldenVector) -> bool:
    """Membership in the closed L-shaped polygon, the union of the boxes from
    the origin to its corners (phi^2, phi) and (phi, phi^2)."""
    return _canonical(cleared(p), lcm(p.x._v[2], p.y._v[2])) is not None


def canonicalize(p: GoldenVector) -> GoldenVector:
    """Canonical representative of a surface point: a point on a glued right/top edge maps to its left/bottom
    twin, and every cone point representative to the origin, the distinguished one."""
    scale = lcm(p.x._v[2], p.y._v[2])
    q = _canonical(cleared(p), scale)
    if q is None:
        raise ValueError(f"point lies outside the golden L: {_shown(p)}")
    return _from_point(q, 2 * scale)


# Integer points. Pairs (a, b) are a + b*phi; points are 4-tuples
# (xa, xb, ya, yb), each integer divided by one fixed scale.

Point = tuple[int, int, int, int]


def _between(lo: Point, p: Point, hi: Point) -> bool:
    """lo <= p <= hi in both coordinates, for integer points with lo <= hi."""
    d, e = tuple(map(sub, p, lo)), tuple(map(sub, hi, p))
    # Per coordinate, p - lo and hi - p are never both negative, so their signs agree or one is 0.
    return golden_sign(*d[:2]) * golden_sign(*e[:2]) >= 0 and golden_sign(*d[2:]) * golden_sign(*e[2:]) >= 0


def _canonical(q: Point, scale: int) -> Point | None:
    """The one membership test: None if the integer point q over `scale` is outside the L, else canonicalize's
    representative of it at scale 2 * scale, against the L's points at scale 2 times `scale`. A point lies on a
    gluing's target edge when its translate back lies on the source edge, axis-aligned with lo <= hi, so in its box."""
    p, at = tuple(2 * c for c in q), scale.__mul__
    if not any(_between((0, 0, 0, 0), p, tuple(map(at, corner))) for corner in _STAIR2[1:4:2]):
        return None
    if any(p == tuple(map(at, cone)) for cone in _CONES2):
        return 0, 0, 0, 0
    for lo, hi, move in _GLUINGS2.values():
        back = tuple(map(sub, p, map(at, move)))
        if _between(tuple(map(at, lo)), back, tuple(map(at, hi))):
            return back
    return p


# surface's integer statement of the L, doubled to scale 2: its corners, all the cone point, and each gluing
# by name, its source edge's ends and its translation.
_CONES2 = tuple(tuple(2 * c for c in corner) for corner in _CORNERS)
_GLUINGS2 = {name: (_CONES2[i], _CONES2[j], tuple(2 * c for c in move)) for name, (i, j), move in _GLUINGS}
# The exit boundary: the L's vertices 2 to 6, counterclockwise from (phi^2, 0)
# to (0, phi^2), and the walls between them, b, d, a and c, each with the
# translation back to its glued twin on the axis x = 0 or y = 0. Wall k runs
# from corner k to corner k + 1. A walk byte is an index into _EXITS, or _END
# for a last segment that ends at the start or the cone point.
_STAIR, _STAIR2 = GOLDEN_L.vertices[2:7], _CONES2[2:7]
_EXITS = tuple((lo[:2] == hi[:2], tuple(-c for c in move)) for lo, hi, move in map(_GLUINGS2.get, "bdac"))
_END = len(_EXITS)
# Per walk byte, (cut left, side re-entered) of a run, each inscribed pentagon side named by its midpoint: 1 and 5
# lie on gluing sources a and d, 4, 2 and 3 are the cuts C1, C2 and C3. The walls of a (x = phi) and c (y = phi^2)
# lie beyond C2, those of b and d beyond C1; gluings a and d re-enter on sides 1 and 5, b and c below C3.
_LEAVES = ((4, 3), (4, 5), (2, 1), (2, 3))
# Per walk byte, (turn, side re-entered) of the run after that wall: the billiard table turns by 2 * (cycle
# position of the cut left - that of the side re-entered) steps of 72 degrees (render.billiard_path).
_REENTRY = tuple((2 * (MIDPOINT_CYCLE.index(cut) - MIDPOINT_CYCLE.index(side)) % 5, side) for cut, side in _LEAVES)
# The cone points _STAIR[1] and [3] lie beyond C1 and C2; a run that ends there leaves
# by that cut and is drawn to the cone point's mirror image in it, _STAIR[4] or [0].
_BEYOND = {1: (4, 4), 3: (2, 0)}
# What a finished orbit's points are checked against, at scale 2: per midpoint,
# its start and its glued twins, the start plus each gluing translation whose
# source edge holds it; the cone points; and the gluing translations, either way.
_TWINS2 = {
    label: frozenset([s, *(tuple(map(add, s, m)) for lo, hi, m in _GLUINGS2.values() if _between(lo, s, hi))])
    for label, s in _MIDPOINTS2.items()
}
# Twice the step from one midpoint to another at scale 2, by (to, from).
_SHIFTS2 = {(m, s): tuple(2 * (a - b) for a, b in zip(_MIDPOINTS2[m], _MIDPOINTS2[s])) for m in _MIDPOINTS2 for s in _MIDPOINTS2}
_JUMPS2 = frozenset(jump for _, back in _EXITS for jump in (back, tuple(-c for c in back)))
# Midpoints with a glued twin, 1 and 5, lie on glued edges, so they are the lower
# end of their chord in every direction but the one along their edge, an edge run.
_ON_GLUED_EDGE = tuple(label for label, twins in _TWINS2.items() if len(twins) > 1)


def _direction_table(pairs: Point) -> tuple:
    """The frame of the direction with integer pairs `pairs`, set up once in
    the form the kernel _run reads: the h of the middle corner of _STAIR[1:4];
    the offsets from it of the outer two; per exit wall, what crossing it adds
    to h; per midpoint, its chord's offset and the _STAIR index of the corner
    an edge run from it ends at, or None; the oracle's look data, the first
    parts of the five offsets and each chord of a midpoint that is no edge run
    to the lowest such label on it; and the pairs. Every h, at scale 2 in the
    (p, b) form, is v x p for a point p of _EXITS, _STAIR2 or _MIDPOINTS2, a small
    integer combination of half steps along the axes, so the frame sums their
    h's. The callers check that the pairs are a direction in the first quadrant.
    """
    vxa, vxb, vya, vyb = pairs
    # The h of the half steps (0, 1/2), (0, phi/2), (1/2, 0) and (phi/2, 0), by golden_mul.
    y1, y1b, yf, yfb = 2 * vxa + vxb, vxb, vxa + 3 * vxb, vxa + vxb
    x1, x1b, xf, xfb = -2 * vya - vyb, -vyb, -vya - 3 * vyb, -vya - vyb
    # r, t, a and c, the h of (phi^2, 0), (0, phi), (phi, 0) and (0, phi^2):
    # _STAIR2[0] and _STAIR2[4] among them, and minus what crossing walls b,
    # d, a and c adds, whose translations back in _EXITS they undo. The
    # corners of _STAIR2[1:4] are r + t, a + t (the middle one) and a + c.
    r, rb, t, tb = 2 * (x1 + xf), 2 * (x1b + xfb), 2 * yf, 2 * yfb
    a, ab, c, cb = 2 * xf, 2 * xfb, 2 * (y1 + yf), 2 * (y1b + yfb)
    # _MIDPOINTS2 less the middle corner: midpoint 1 at (0, 1/2 + phi), 5 at
    # (1/2 + phi, 0), 2 and 4 a half step of phi in from them, and 3 at
    # (phi/2, phi/2). Only on the vertical (y1 = 0) is midpoint 1 on a corner's
    # chord, c's along the edge x = 0, and only on the horizontal 5, on r's.
    o1, o5 = (y1 - a, y1b - ab), (x1 - t, x1b - tb)
    o2, o3, o4 = (o1[0] + xf, o1[1] + xfb), (-xf - yf, -xfb - yfb), (o5[0] + yf, o5[1] + yfb)
    e1, e5 = None if y1 or y1b else 4, None if x1 or x1b else 0
    starts = {1: (o1, e1), 2: (o2, None), 3: (o3, None), 4: (o4, None), 5: (o5, e5)}
    # A display keeps the last value of a repeated key, the lowest label; an edge holds no other midpoint.
    twins = {o5: 5, o4: 4, o3: 3, o2: 2, o1: 1}
    if e1 is not None or e5 is not None:  # an edge run starts on a corner, on no closed orbit
        del twins[o5 if e1 is None else o1]
    near = {o1[0], o2[0], o3[0], o4[0], o5[0]}
    steps = (-r, -rb), (-t, -tb), (-a, -ab), (-c, -cb)
    return (a + t, ab + tb), (r - a, rb - ab, c - t, cb - tb), steps, starts, near, twins, pairs


def _replay_table(pairs: Point) -> tuple[int, tuple]:
    """The point scale of the direction with integer pairs `pairs`, and per
    exit wall whether it is vertical, the factor that takes a chord's h to its
    re-entry coordinate, and the translation back, at that scale.

    Points are scaled by 2 times the lcm of the direction coordinate norms.
    Chord h re-enters at y = h / v.x on x = 0 or at x = h / -v.y on y = 0;
    multiplying by the divisor's conjugate and by the integer scale / (2 *
    norm) makes that exact. The wall hit is the re-entry point minus the
    translation back.
    """
    vxa, vxb, vya, vyb = pairs
    norm_x = vxa * vxa + vxa * vxb - vxb * vxb
    norm_y = vya * vya + vya * vyb - vyb * vyb
    factor = lcm(abs(norm_x) or 1, abs(norm_y) or 1)
    rows = []
    for vertical, back in _EXITS:
        (da, db), norm = ((vxa, vxb), norm_x) if vertical else ((-vya, -vyb), norm_y)
        q = factor // norm if norm else 0  # a wall the flow runs parallel to is never crossed
        rows.append((vertical, (q * (da + db), -q * db), tuple(map(factor.__mul__, back))))
    return 2 * factor, tuple(rows)


class Outcome(Enum):
    CLOSED = "closed"
    HIT_CONE_POINT = "cone_point"


class Trajectory(_Frozen):
    """A maximal flow orbit from a Weierstrass point in one direction; a field._Frozen value.

    It stores what the trace decides. `walk` has one byte per segment: the
    index in _EXITS of the wall its end crosses, or _END for a last segment
    that ends at the start or the cone point. `_holonomy2` is the holonomy at
    scale 2; `_cone` the _STAIR index of the corner hit, or None; `_table` the
    direction's table. Eq, hash and repr read `_fields`, which leave the
    table out. `scale`, `outcome`, `cone_point` and the GoldenVectors `start`
    and `holonomy` are read off them; `scale` and the replay rows are set up
    from the table's pairs on first read. `points`, each segment's (begin,
    end) integer points (xa, xb, ya, yb) with every integer divided by
    `scale`, is replayed from the walk on first read and cached; every library
    path that draws or checks a trajectory reads it. `segments`, the same as
    GoldenVector pairs, is built from it on first read. Cached reads live in
    `vars(t)`, and a copy or pickle keeps them.
    """

    __slots__ = ("start_label", "direction", "walk", "_holonomy2", "_cone", "_table", "__dict__")

    _fields = ("start_label", "direction", "walk", "_holonomy2", "_cone")

    @cached_property
    def _replay(self) -> tuple[int, tuple]:
        return _replay_table(self._table[-1])

    @property
    def scale(self) -> int:
        return self._replay[0]

    @property
    def outcome(self) -> Outcome:
        return Outcome.CLOSED if self._cone is None else Outcome.HIT_CONE_POINT

    @property
    def cone_point(self) -> GoldenVector | None:
        return None if self._cone is None else _STAIR[self._cone]

    @property
    def start(self) -> GoldenVector:
        return weierstrass_point(self.start_label)

    @cached_property
    def holonomy(self) -> GoldenVector:
        return _from_point(self._holonomy2, 2)

    @cached_property
    def points(self) -> tuple[tuple[Point, Point], ...]:
        corner, _, deltas, starts, _, _, _ = self._table
        scale, rows = self._replay
        p, b = map(add, starts[self.start_label][0], corner)
        # Per wall: the step of h, whether the wall is vertical, the factor m
        # that takes h to the re-entry coordinate, and the translation back.
        steps = [(*delta, vertical, *m, *back) for delta, (vertical, m, back) in zip(deltas, rows)]
        k = scale // 2
        start = _MIDPOINTS2[self.start_label]
        begin = tuple(c * k for c in start)
        points = []
        for wall in self.walk:
            if wall == _END:  # always the last byte
                end = start if self._cone is None else _STAIR2[self._cone]
                points.append((begin, tuple(c * k for c in end)))
                break
            dp, db, vertical, ma, mb, xa, xb, ya, yb = steps[wall]
            p += dp
            b += db
            # The re-entry coordinate h * m, with h = (p - b) / 2 + b*phi, by golden_mul inline.
            ha, bb = (p - b) // 2, b * mb
            ua, ub = ha * ma + bb, ha * mb + b * ma + bb
            if vertical:
                points.append((begin, (-xa, -xb, ua - ya, ub - yb)))
                begin = 0, 0, ua, ub
            else:
                points.append((begin, (ua - xa, ub - xb, -ya, -yb)))
                begin = ua, ub, 0, 0
        return tuple(points)

    @cached_property
    def segments(self) -> tuple[tuple[GoldenVector, GoldenVector], ...]:
        return tuple((_from_point(b, self.scale), _from_point(e, self.scale)) for b, e in self.points)

    @property
    def segment_count(self) -> int:
        return len(self.walk)

    def to_json_dict(self, word: Word | None = None) -> dict:
        # Coordinates and the holonomy at the points' scale print as Fraction(a, s); each distinct one once.
        s, points, flat = self.scale, self.points, chain.from_iterable
        holonomy = [c * (s // 2) for c in self._holonomy2]
        text = {a: "%d/%d" % _lowest(a, s) for a in {*flat(flat(points)), *holonomy}}.__getitem__
        return {
            "word": None if word is None else format_word(word),
            "midpoint": self.start_label,
            "direction": self.direction.quadruple(),
            "outcome": self.outcome.value,
            "segments": [{"from": list(map(text, b)), "to": list(map(text, e))} for b, e in points],
            "segment_count": self.segment_count,
            "holonomy": list(map(text, holonomy)),
            "cone_point": None if self.cone_point is None else self.cone_point.quadruple(),
        }


def _run(table: tuple, h: tuple[int, int], look: bool, cap: int) -> tuple:
    """The step loop: from the chord h, an offset from the middle corner in
    (p, b) form at scale 2, cross at most `cap` walls until h comes back or
    the cone point. With `look`, the oracle's walk also ends on another
    midpoint's chord, its twin's, met after j crossings with 2j + 2 <= cap.
    It only unpacks the frame `table`. Returns the walk, the offset of its
    last chord, the corner hit or None, and the twin it stopped at or None."""
    # h is kept as its offset (x, y) from the middle corner, and the outer
    # corners as theirs, so the first sign test reads the state as it is.
    _, (u1, v1, u3, v3), ((dx0, dy0), (dx1, dy1), (dx2, dy2), (dx3, dy3)), _, near, twins, _ = table
    x0, y0 = x, y = h
    if not look:  # a trace looks only for its start's chord
        near, twins = (x0,), None
    cone = twin = None
    walk = bytearray()
    append = walk.append
    for _ in range(cap):
        # Below, at or above the middle corner; then below, at or above the
        # next. Each test is golden_sign's on twice the offset from a corner,
        # x + y*sqrt(5) from the middle one and s + t*sqrt(5) from an outer one:
        # it is >= 0 when both parts are >= 0, or when the larger square has the plus sign.
        if (y >= 0 or x * x > 5 * y * y) if x >= 0 else y > 0 and 5 * y * y > x * x:
            if not (x or y):
                cone = 2
                break
            s, t = x - u3, y - v3
            if (t >= 0 or s * s > 5 * t * t) if s >= 0 else t > 0 and 5 * t * t > s * s:
                if not (s or t):
                    cone = 3
                    break
                append(3)
                x += dx3
                y += dy3
            else:
                append(2)
                x += dx2
                y += dy2
        else:
            s, t = x - u1, y - v1
            if (t >= 0 or s * s > 5 * t * t) if s >= 0 else t > 0 and 5 * t * t > s * s:
                if not (s or t):
                    cone = 1
                    break
                append(1)
                x += dx1
                y += dy1
            else:
                append(0)
                x += dx0
                y += dy0
        if x in near:
            if x == x0 and y == y0:
                break
            if twins and 2 * len(walk) + 2 <= cap:
                twin = twins.get((x, y))
                if twin is not None:
                    break
    return walk, (x, y), cone, twin


def _finish(walk: bytearray, h: tuple[int, int], h0: tuple[int, int], label: int, table: tuple, cap: int) -> None:
    """End a walk from midpoint `label`, whose chord is h0, that _run ended
    on the chord h without a twin stop, both offsets in the direction's frame
    `table`. Append _END when one more segment ends it; then, past `cap`
    segments, raise CapExceededError, or StructuralViolationError if the walk
    left the L.

    Back on the start's chord, a start on a glued edge is this re-entry point;
    any other start, or the cone point, ends one more segment. So a walk that
    ran out of steps has more than cap segments. Checked once, not per step: a
    walk that takes a wrong wall leaves the L and would otherwise pass for a
    cap overrun.
    """
    if not (walk and h == h0 and label in _ON_GLUED_EDGE):
        walk.append(_END)
    if len(walk) <= cap:
        return
    last, scale = _MIDPOINTS2[label], 2
    if len(walk) > 1:  # where the chord h enters the L, through the glued twin of the last wall
        p, b = map(add, h, table[0])
        scale, rows = _replay_table(table[-1])
        vertical, (ma, mb), _ = rows[walk[-2]]
        ua, ub = golden_mul((p - b) // 2, b, ma, mb)
        last = (0, 0, ua, ub) if vertical else (ua, ub, 0, 0)
    at = _shown(_from_point(last, scale))
    where = f"midpoint {label}, direction {_shown(_from_point(table[-1], 1))}, after {_shown(cap)} steps at {at}"
    if _canonical(last, scale) is None:
        raise StructuralViolationError(f"trajectory left the golden L: {where}")
    raise CapExceededError(f"trajectory did not terminate: {where}")


def _walk(label: int, table: tuple, cap: int) -> tuple:
    """The trace's walk: the whole orbit from midpoint `label` in the
    direction with frame `table`, in at most `cap` segments, ended by
    _finish. Returns the walk, its holonomy at scale 2 and the corner hit or
    None. The oracle does not walk through here: it steps _run itself, and
    builds no holonomy for the cone hit."""
    weierstrass_point(label)  # raises ValueError for a bad label
    h0, cone = table[3][label]
    walk, h, hit, _ = _run(table, h0, False, cap if cone is None else 0)
    _finish(walk, h, h0, label, table, cap)
    # The translations of the crossings. Per wall at scale 2, a crossing adds
    # (2, 2, 0, 0), (0, 0, 0, 2), (0, 2, 0, 0) or (0, 0, 2, 2).
    n0, n1, n2, n3 = walk.count(0), walk.count(1), walk.count(2), walk.count(3)
    holonomy = 2 * n0, 2 * (n0 + n2), 2 * n3, 2 * (n1 + n3)
    cone = hit if cone is None else cone
    if cone is not None:  # plus the step from the start to the corner hit
        holonomy = tuple(map(sub, map(add, holonomy, _STAIR2[cone]), _MIDPOINTS2[label]))
    return walk, holonomy, cone


def trace_direction(label: int, v: GoldenVector, cap: int = DEFAULT_STEP_CAP) -> Trajectory:
    """Flow from Weierstrass point `label` in direction v until closure or cone hit.

    A trace has at most `cap` segments. Closure can land exactly on the start
    point at a re-entry, or strictly inside a segment; in the latter case the
    last segment is truncated at the start point. A cap that is not a
    nonnegative int raises ValueError.
    """
    _check_int("cap", cap, 0)
    table = _direction_table(_direction_pairs(v))
    walk, holonomy, cone = _walk(label, table, cap)
    return Trajectory(label, v, bytes(walk), holonomy, cone, table)


def trace(label: int, word: Word, cap: int = DEFAULT_STEP_CAP) -> Trajectory:
    return trace_direction(label, word_to_vector(word), cap)


def _oracle(pairs: Point, check: Point, cap: int) -> OracleReport:
    """The report in the direction with checked integer pairs `pairs`: each
    midpoint's holonomy at scale 2 from half of each closed orbit, and the
    verdicts that _cylinder_verdicts, the one check, gives them against the
    pairs `check` of the direction's word.

    A walk stops on the chord of its twin, the other midpoint of its orbit,
    only after j crossings with 2j + 2 <= cap. Both whole walks then fit the
    cap, with at most 2j + 2 segments: the arcs cross the walls equally often
    give or take one. (The orbit leaves the square [0, phi]^2 up or right and
    comes back through the top or right outer wall, in turn; J swaps those two
    pairs of sides and fixes the other two walls.) Any midpoint not yet known
    is walked on its own, to the same holonomy or the same error.

    It sets the direction's frame up once, look data included, and steps the
    kernel _run on it itself. In one pass over the labels in order it walks
    each midpoint not yet known and reads holonomies off the wall counts n by
    _walk's rule, 2n for (2n0, 2(n0 + n2), 2n3, 2(n1 + n3)): 4n plus twice the
    step from the start to the twin for both midpoints of a twin stop, 2n for
    a closed walk, and None, no holonomy built, for the cone hit. A walk that
    stops at no twin ends by _finish, as the trace's does.
    """
    _check_int("cap", cap, 0)
    table = _direction_table(pairs)
    starts, known, holonomies = table[3], {}, {}
    for label in starts:
        if label not in known:  # else met by an earlier walk's twin stop
            h0, edge_run = starts[label]
            walk, h, hit, twin = _run(table, h0, True, cap if edge_run is None else 0)
            if twin is not None:  # stopped at the twin, half a period on
                n0, n1, n2, n3 = walk.count(0), walk.count(1), walk.count(2), walk.count(3)
                s0, s1, s2, s3 = _SHIFTS2[twin, label]
                known[twin] = known[label] = 4 * n0 + s0, 4 * (n0 + n2) + s1, 4 * n3 + s2, 4 * (n1 + n3) + s3
            else:
                _finish(walk, h, h0, label, table, cap)
                if hit is None and edge_run is None:  # else the cone hit, no holonomy built
                    n0, n1, n2, n3 = walk.count(0), walk.count(1), walk.count(2), walk.count(3)
                    known[label] = 2 * n0, 2 * (n0 + n2), 2 * n3, 2 * (n1 + n3)
        holonomies[label] = known.get(label)
    return OracleReport(pairs, _cylinder_verdicts(check, holonomies), holonomies)


class OracleReport(_Frozen):
    """Joint result of flowing all five midpoints in one direction, a field._Frozen value that holds dicts
    and so has no hash: the direction's integer pairs, the verdicts and `_holonomies`, the map the cylinder
    check passed, label -> holonomy at scale 2, None for the cone hit. `direction` and the rest are read off them."""

    __slots__ = ("_pairs", "verdicts", "_holonomies")

    _fields = ("direction", "verdicts", "_holonomies")

    @property
    def direction(self) -> GoldenVector:
        return _from_point(self._pairs, 1)

    @property
    def saddle_label(self) -> int:
        return next(l for l, v in self.verdicts.items() if v is Classification.SADDLE_CONNECTION)

    @property
    def short_holonomy(self) -> GoldenVector:
        return next(_from_point(self._holonomies[l], 2) for l, v in self.verdicts.items() if v is Classification.SHORT)

    @property
    def long_holonomy(self) -> GoldenVector:
        return next(_from_point(self._holonomies[l], 2) for l, v in self.verdicts.items() if v is Classification.LONG)


def oracle_report_direction(v: GoldenVector, cap: int = DEFAULT_STEP_CAP) -> OracleReport:
    """Classify every midpoint by flowing it in direction v as given, checking
    the holonomies against the pairs of v's word's vector, on v's ray, or
    (0, 0, 1, 0) for the vertical, peeling the pairs v is cleared to once. A
    word past vector_to_word's default cap raises its CapExceededError first."""
    pairs = _direction_pairs(v)
    return _oracle(pairs, _pairs(_peel(*pairs, DEFAULT_INVERSION_CAP)) if pairs[0] or pairs[1] else (0, 0, 1, 0), cap)


# The three verdicts, read once: on Python 3.11 each read of an Enum member off its class costs about 0.1 us.
_SHORT, _LONG, _SADDLE = Classification.SHORT, Classification.LONG, Classification.SADDLE_CONNECTION


def _closed_forms(pairs: Point) -> tuple[Point, Point]:
    """The cylinder holonomies phi*v (short) and phi^2*v (long) at scale 2, for v with integer pairs `pairs`."""
    a, b, c, d = pairs
    short = 2 * b, 2 * (a + b), 2 * d, 2 * (c + d)  # by golden_mul
    return short, (short[1], short[0] + short[1], short[3], short[2] + short[3])  # phi*short


def _cylinder_verdicts(pairs: Point, holonomies: dict[int, Point | None]) -> dict[int, Classification]:
    """The verdicts from each midpoint's holonomy at scale 2, or None for a
    cone hit, in label order, checked against the word's vector v with
    integer pairs `pairs`; the oracle builds no holonomy for the cone hit.

    psi_w, the affine automorphism with derivative sigma_w, carries the
    horizontal cylinders, holonomies phi and phi^2, onto v's (Veech 1989): one
    midpoint hits the cone point, two close with holonomy phi*v (short) and two
    with phi^2*v (long). Anything else is a structural violation of the
    simulator or the geometry tables, never bad input. One pass compares each
    holonomy with the two closed forms, in label order; then it raises on a
    count other than four closed and one cone hit, on the first label whose
    holonomy is neither form, and on a split other than two and two, in that
    order. It is the one rule from holonomy to verdict: every OracleReport's
    verdicts are what it returns.
    """
    short, long = _closed_forms(pairs)
    verdicts, saddles, shorts, neither = {}, 0, 0, None
    for label, h in holonomies.items():
        if h is None:
            verdicts[label], saddles = _SADDLE, saddles + 1
        elif h == short:
            verdicts[label], shorts = _SHORT, shorts + 1
        elif h == long:
            verdicts[label] = _LONG
        elif neither is None:
            neither = label
    if saddles != 1 or len(holonomies) != 5:
        raise StructuralViolationError(f"expected 4 closed orbits and 1 cone hit, got {len(holonomies) - saddles} and {saddles}")
    if neither is not None:
        h, v = _shown(_from_point(holonomies[neither], 2)), _shown(_from_point(pairs, 1))
        raise StructuralViolationError(f"holonomy {h} of midpoint {neither} is neither phi*v nor phi^2*v for v = {v}")
    if shorts != 2:
        raise StructuralViolationError("holonomy magnitudes do not split two and two")
    return verdicts


_DIGITS_LIMIT_LOCK = Lock()


def _shown(value: object, show: Callable[[object], str] = str) -> str:
    """show(value), str or repr, for an error message, which must not raise in
    place of the error it describes. A long word's coefficients pass the
    4,300 digits Python converts between int and str by default; then the
    limit is lifted for the conversion and given back, under a lock, so that
    two threads cannot leave it lifted."""
    try:
        return show(value)
    except ValueError:  # past the limit, so this Python has one and its setter
        with _DIGITS_LIMIT_LOCK:
            limit = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(0)
            try:
                return show(value)
            finally:
                sys.set_int_max_str_digits(limit)


def oracle_report(word: Word, cap: int = DEFAULT_STEP_CAP) -> OracleReport:
    pairs = _pairs(word)
    return _oracle(pairs, pairs, cap)


def oracle_classify(word: Word, cap: int = DEFAULT_STEP_CAP) -> dict[int, Classification]:
    """Flow-based verdict map, the independent check on the tau computation."""
    return oracle_report(word, cap).verdicts


def validate_trajectory_structure(trajectory: Trajectory) -> None:
    """Check the wall-crossing bookkeeping of a finished trajectory's points.

    The orbit begins at its start or a glued twin; each segment runs forward
    along the direction; consecutive segments connect by a gluing translation;
    a closed orbit ends at its start or a glued twin, a cone-hit orbit at a
    cone point. Holds for the reversal too (reversed segments, negated direction).
    Every check compares integer points at the trajectory's scale. A parallel step t*v,
    t in Q(phi), runs forward (t > 0) when its first nonzero coordinate has v's sign there.
    """
    points, scale, v = trajectory.points, trajectory.scale, trajectory.direction
    if not points:
        raise StructuralViolationError("trajectory has no segments")
    vxa, vxb, vya, vyb = trajectory._table[-1]
    sign = golden_sign(vxa, vxb) or golden_sign(vya, vyb)
    for begin, end in points:
        dxa, dxb, dya, dyb = end[0] - begin[0], end[1] - begin[1], end[2] - begin[2], end[3] - begin[3]
        # Forward, hence nonzero: v's sign. Parallel: step.x * v.y == step.y * v.x.
        forward = (golden_sign(dxa, dxb) or golden_sign(dya, dyb)) == sign
        if not forward or golden_mul(dxa, dxb, vya, vyb) != golden_mul(dya, dyb, vxa, vxb):
            where = f"{_shown(_from_point(begin, scale))} -> {_shown(_from_point(end, scale))}"
            raise StructuralViolationError(f"segment {where} does not run forward along {_shown(v)}")
    k = scale // 2
    jumps = {(a * k, b * k, c * k, d * k) for a, b, c, d in _JUMPS2}
    for (_, (exa, exb, eya, eyb)), ((nxa, nxb, nya, nyb), _) in zip(points, points[1:]):
        jump = (nxa - exa, nxb - exb, nya - eya, nyb - eyb)
        if jump not in jumps:
            where = _shown(_from_point(jump, scale))
            raise StructuralViolationError(f"segments jump by {where}, not a gluing translation")
    first, final = points[0][0], points[-1][1]
    twins = {(a * k, b * k, c * k, d * k) for a, b, c, d in _TWINS2[trajectory.start_label]}
    if first not in twins:
        raise StructuralViolationError(f"orbit begins at {_shown(_from_point(first, scale))}, not at its start")
    if trajectory.outcome is Outcome.CLOSED and final not in twins:
        raise StructuralViolationError(f"closed orbit ends at {_shown(_from_point(final, scale))}, not at its start")
    if trajectory.outcome is Outcome.HIT_CONE_POINT and final not in {(a * k, b * k, c * k, d * k) for a, b, c, d in _CONES2}:
        raise StructuralViolationError(f"cone-hit orbit ends at {_shown(_from_point(final, scale))}, not a cone point")
