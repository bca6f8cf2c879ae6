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
h is an integer pair (a, b) meaning a + b*phi. The kernel keeps it as (p, b)
with p = 2a + b, so 2h = p + b*sqrt(5), and decides its two sign tests
inline by golden_sign's rule: same signs settle it at once, mixed signs
compare p**2 with 5*b**2. A trajectory keeps only what its trace decides,
the walk, the integer holonomy, the corner hit and the direction's table, and
replays its integer points on first read; the oracle never reads them and
keeps its verdicts. Points are checked against the L's fixed points at scale 2.

The oracle walks each closed orbit once. The core orbit of a cylinder passes
through two midpoints, so after a closed trace one pass over the h of its
chords finds the other, whose walk is the same crossings rotated to start on
its chord, with the same holonomy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, compress, count
from math import gcd, lcm
from operator import add, mul, sub

from .classify import Classification
from .errors import CapExceededError, StructuralViolationError
from .field import GoldenNumber, GoldenVector, PHI, PHI_SQUARED, cleared, golden_mul, golden_sign
from .surface import CONE_POINTS, GOLDEN_L, WEIERSTRASS_LABELS, _direction_pairs, weierstrass_point
from .words import Word, format_word, word_to_vector

DEFAULT_STEP_CAP = 1_000_000


def point_in_surface(p: GoldenVector) -> bool:
    """Membership in the closed L-shaped polygon."""
    x_ok = p.x.sign() >= 0
    y_ok = p.y.sign() >= 0
    in_wide = x_ok and y_ok and p.x <= PHI_SQUARED and p.y <= PHI
    in_tall = x_ok and y_ok and p.x <= PHI and p.y <= PHI_SQUARED
    return in_wide or in_tall


def canonicalize(p: GoldenVector) -> GoldenVector:
    """Canonical representative of a surface point.

    Points on a glued right/top edge map to their left/bottom twin; all cone
    point representatives map to the origin, the distinguished one. Target
    edges are axis-aligned with lo <= hi in both coordinates, so lying on one
    is lying in its bounding box.
    """
    if not point_in_surface(p):
        raise ValueError(f"point lies outside the golden L: {p}")
    if p in CONE_POINTS:
        return GOLDEN_L.vertices[0]
    for ident in GOLDEN_L.identifications:
        lo, hi = ident.target
        if lo.x <= p.x <= hi.x and lo.y <= p.y <= hi.y:
            return p - ident.translation
    return p


# Integer points. Pairs (a, b) are a + b*phi; points are 4-tuples
# (xa, xb, ya, yb), each integer divided by one fixed scale.

Point = tuple[int, int, int, int]


def _int_point(p: GoldenVector, scale: int) -> Point:
    coords = p.x.a * scale, p.x.b * scale, p.y.a * scale, p.y.b * scale
    if any(c.denominator != 1 for c in coords):
        raise ValueError(f"{p} is not integral at scale {scale}")
    return tuple(map(int, coords))


def _from_point(point: Point, scale: int) -> GoldenVector:
    xa, xb, ya, yb = (Fraction(c, scale) for c in point)
    return GoldenVector(GoldenNumber(xa, xb), GoldenNumber(ya, yb))


def _h(v: Point, p: Point) -> tuple[int, int]:
    """The transverse coordinate v x p of an integer point."""
    xa, xb = golden_mul(v[0], v[1], p[2], p[3])
    ya, yb = golden_mul(v[2], v[3], p[0], p[1])
    return xa - ya, xb - yb


def _between(lo: Point, p: Point, hi: Point) -> bool:
    """lo <= p <= hi in both coordinates, for integer points with lo <= hi."""
    d, e = tuple(map(sub, p, lo)), tuple(map(sub, hi, p))
    # Per coordinate, p - lo and hi - p are never both negative, so their signs agree or one is 0.
    return golden_sign(*d[:2]) * golden_sign(*e[:2]) >= 0 and golden_sign(*d[2:]) * golden_sign(*e[2:]) >= 0


# The exit boundary: the L's vertices 2 to 6, counterclockwise from (phi^2, 0)
# to (0, phi^2), and the walls between them, b, d, a and c, each with the
# translation back to its glued twin on the axis x = 0 or y = 0. Wall k runs
# from corner k to corner k + 1. A walk byte is an index into _EXITS, or _END
# for a last segment that ends at the start or the cone point.
_STAIR = GOLDEN_L.vertices[2:7]
# Each gluing at scale 2, by name: its source edge's ends and its translation.
_GLUINGS2 = {g.name: tuple(_int_point(p, 2) for p in (*g.source, g.translation)) for g in GOLDEN_L.identifications}
_EXITS = tuple((lo[:2] == hi[:2], tuple(-c for c in move)) for lo, hi, move in map(_GLUINGS2.get, "bdac"))
_END = len(_EXITS)
_END_BYTE = bytes([_END])
_STAIR2 = tuple(_int_point(p, 2) for p in _STAIR)
_STARTS2 = {label: _int_point(weierstrass_point(label), 2) for label in WEIERSTRASS_LABELS}
# What a finished orbit's points are checked against, at scale 2: per midpoint,
# its start and its glued twins, the start plus each gluing translation whose
# source edge holds it; the cone points; and the gluing translations, either way.
_TWINS2 = {
    label: frozenset([s, *(tuple(map(add, s, m)) for lo, hi, m in _GLUINGS2.values() if _between(lo, s, hi))])
    for label, s in _STARTS2.items()
}
_CONES2 = frozenset(_int_point(p, 2) for p in CONE_POINTS)
_JUMPS2 = frozenset(jump for _, back in _EXITS for jump in (back, tuple(-c for c in back)))
_BACK_COLUMNS = tuple(zip(*(back for _, back in _EXITS)))
# Midpoints 1 and 5 lie on glued edges, so they are the lower end of their
# chord in every direction but the one along their edge, an edge run.
_ON_GLUED_EDGE = (1, 5)


@lru_cache(maxsize=64)
def _direction_table(v: GoldenVector) -> tuple:
    """What every trace in direction v shares, with h at scale 2 and in the
    (p, b) form of _root5: the point scale; the h of the corners where walls
    meet, _STAIR[1:4]; per exit wall, what crossing it adds to h and how to
    replay it; per midpoint, its h and the _STAIR index of the corner an edge
    run from it ends at, or None. Raises ValueError for a direction outside
    the closed first quadrant.

    Points are scaled by 2 times the lcm of the direction coordinate norms.
    Chord h re-enters at y = h / v.x on x = 0 or at x = h / -v.y on y = 0;
    multiplying by the divisor's conjugate and by the integer scale / (2 *
    norm) makes that exact. The wall hit is the re-entry point minus the
    translation back.
    """
    direction = vxa, vxb, vya, vyb = _direction_pairs(v)
    norm_x = vxa * vxa + vxa * vxb - vxb * vxb
    norm_y = vya * vya + vya * vyb - vyb * vyb
    factor = lcm(abs(norm_x) or 1, abs(norm_y) or 1)
    rows, deltas = [], []
    for vertical, back in _EXITS:
        (da, db), norm = ((vxa, vxb), norm_x) if vertical else ((-vya, -vyb), norm_y)
        q = factor // norm if norm else 0  # a wall the flow runs parallel to is never crossed
        rows.append((vertical, (q * (da + db), -q * db), tuple(c * factor for c in back)))
        deltas.append(_h(direction, back))
    stair = [_root5(_h(direction, p)) for p in _STAIR2]
    ends = {stair[0]: 0, stair[4]: 4}
    starts = {label: (h := _root5(_h(direction, p)), ends.get(h)) for label, p in _STARTS2.items()}
    return 2 * factor, tuple(stair[1:4]), tuple(map(_root5, deltas)), tuple(rows), starts


def _root5(h: tuple[int, int]) -> tuple[int, int]:
    """h = a + b*phi as (p, b) with 2h = p + b*sqrt(5), the form golden_sign decides."""
    a, b = h
    return 2 * a + b, b


def _reentry(row: tuple, ha: int, hb: int) -> Point:
    """Where chord h enters the L through the glued twin of a row's wall."""
    vertical, (ma, mb), _ = row
    ua, ub = golden_mul(ha, hb, ma, mb)
    return (0, 0, ua, ub) if vertical else (ua, ub, 0, 0)


class Outcome(Enum):
    CLOSED = "closed"
    HIT_CONE_POINT = "cone_point"


@dataclass(frozen=True)
class Trajectory:
    """A maximal flow orbit from a Weierstrass point in one direction.

    It stores what the trace decides. `walk` has one byte per segment: the
    index in _EXITS of the wall its end crosses, or _END for a last segment
    that ends at the start or the cone point. `_holonomy2` is the holonomy at
    scale 2, which the oracle checks; `_cone` the _STAIR index of the corner
    hit, or None; `_table` the direction's table, out of eq, hash and repr.
    `scale`, `outcome`, `cone_point` and the GoldenVectors `start` and
    `holonomy` are read off them.
    `points`, each segment's (begin, end) integer points (xa, xb, ya, yb) with
    every integer divided by `scale`, is replayed from the walk on first read
    and cached; every library path that draws or checks a trajectory reads it.
    `segments`, the same as GoldenVector pairs, is built from it on first read.
    """

    start_label: int
    direction: GoldenVector
    walk: bytes
    _holonomy2: Point
    _cone: int | None
    _table: tuple = field(compare=False, repr=False)

    @property
    def scale(self) -> int:
        return self._table[0]

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
        _, _, deltas, rows, starts = self._table
        (p, b), _ = starts[self.start_label]
        # Per wall: the step of h, whether the wall is vertical, the factor m
        # that takes h to the re-entry coordinate, and the translation back.
        steps = [(*delta, vertical, *m, *back) for delta, (vertical, m, back) in zip(deltas, rows)]
        k = self.scale // 2
        start = _STARTS2[self.start_label]
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
            # The re-entry coordinate h * m, with h = (p - b) / 2 + b*phi: _reentry inline.
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
        # Coordinates print as Fraction(a, scale) does; each distinct one is printed once.
        s = self.scale
        text = {a: f"{a // (g := gcd(a, s))}/{s // g}" for a in {a for b, e in self.points for a in b + e}}
        return {
            "word": None if word is None else format_word(word),
            "midpoint": self.start_label,
            "direction": self.direction.quadruple(),
            "outcome": self.outcome.value,
            "segments": [{"from": [text[a] for a in b], "to": [text[a] for a in e]} for b, e in self.points],
            "segment_count": self.segment_count,
            "holonomy": self.holonomy.quadruple(),
            "cone_point": None if self.cone_point is None else self.cone_point.quadruple(),
        }


def trace_direction(label: int, v: GoldenVector, cap: int = DEFAULT_STEP_CAP) -> Trajectory:
    """Flow from Weierstrass point `label` in direction v until closure or cone hit.

    Each of at most `cap` steps is one segment. Closure can land exactly on
    the start point at a re-entry, or strictly inside a segment; in the latter
    case the last segment is truncated at the start point.
    """
    table = scale, breaks, deltas, rows, starts = _direction_table(v)
    start = weierstrass_point(label)  # raises ValueError for a bad label
    (p0, b0), cone = starts[label]
    p, b = p0, b0
    (p1, b1), (p2, b2), (p3, b3) = breaks
    walk = bytearray()
    for _ in range(cap if cone is None else 0):
        # Below, at or above the middle corner; then below, at or above the
        # next. Each test is golden_sign's on 2(h - corner) = x + y*sqrt(5):
        # it is >= 0 when x, y >= 0, or when the larger square has the plus sign.
        x, y = p - p2, b - b2
        if (y >= 0 or x * x > 5 * y * y) if x >= 0 else y > 0 and 5 * y * y > x * x:
            if not (x or y):
                cone = 2
                break
            wall, x, y = 2, p - p3, b - b3
        else:
            wall, x, y = 0, p - p1, b - b1
        if (y >= 0 or x * x > 5 * y * y) if x >= 0 else y > 0 and 5 * y * y > x * x:
            if not (x or y):
                cone = wall + 1
                break
            wall += 1
        walk.append(wall)
        dp, db = deltas[wall]
        p += dp
        b += db
        if p == p0 and b == b0:
            break

    # Back on the start's chord: a start on a glued edge is this re-entry
    # point; any other is met inside one more segment, within the cap.
    returned = bool(walk) and p == p0 and b == b0
    glued = label in _ON_GLUED_EDGE
    if not (cone is not None and cap or returned and (glued or len(walk) < cap)):
        # Checked once the cap runs out, not per step: a walk that takes a
        # wrong wall leaves the L and would otherwise pass for a cap overrun.
        last = _from_point(_reentry(rows[walk[-1]], (p - b) // 2, b), scale) if walk else start
        where = f"midpoint {label}, direction {v}, after {cap} steps at {last}"
        if not point_in_surface(last):
            raise StructuralViolationError(f"trajectory left the golden L: {where}")
        raise CapExceededError(f"trajectory did not terminate: {where}")
    if not (returned and glued):
        walk.append(_END)
    # The translations of the crossings, and from the start to a cone point.
    counts = list(map(walk.count, range(_END)))
    holonomy = tuple(-sum(map(mul, counts, column)) for column in _BACK_COLUMNS)
    if cone is not None:
        holonomy = tuple(map(sub, map(add, holonomy, _STAIR2[cone]), _STARTS2[label]))
    return Trajectory(label, v, bytes(walk), holonomy, cone, table)


def trace(label: int, word: Word, cap: int = DEFAULT_STEP_CAP) -> Trajectory:
    return trace_direction(label, word_to_vector(word), cap)


def _midpoint_orbits(v: GoldenVector, cap: int) -> dict[int, Trajectory]:
    """The trajectories from the five midpoints in direction v, by label,
    walking each closed orbit once.

    The core orbit of a cylinder passes through two midpoints, the fixed
    points of the hyperelliptic involution inside it. A pass over the h of a
    closed orbit's chords finds the first midpoint not yet traced that starts
    on one of them, its twin. From chord j the twin's walk is the orbit's
    crossings rotated to start at j, plus _END for a start inside the L, with
    the same holonomy. A twin is derived only where the kernel's cap would
    accept it. Any midpoint not derived is traced, to the same trajectory or
    the same error.
    """
    orbits = {}
    for label in WEIERSTRASS_LABELS:
        if label in orbits:
            continue
        t = orbits[label] = trace_direction(label, v, cap)
        if t.outcome is not Outcome.CLOSED:
            continue
        _, _, deltas, _, starts = t._table
        dps, dbs = zip(*deltas)
        untraced = {h: m for m, (h, cone) in starts.items() if m not in orbits and cone is None}
        crossings = t.walk.rstrip(_END_BYTE)
        n = len(crossings)
        # The p of each chord's h picks candidates, one cheap pass; the b of a
        # candidate, from the crossings before it, says whether a midpoint starts there.
        (p0, b0), _ = starts[label]
        candidates = {p for p, _ in untraced}
        chord_ps = accumulate(map(dps.__getitem__, crossings[:-1]), initial=p0)
        for j in compress(count(), map(candidates.__contains__, chord_ps)):
            counts = list(map(crossings[:j].count, range(_END)))
            m = untraced.get((p0 + sum(map(mul, counts, dps)), b0 + sum(map(mul, counts, dbs))))
            if m is None:
                continue
            glued = m in _ON_GLUED_EDGE
            if n < cap or n == cap and glued:
                walk = crossings[j:] + crossings[:j] + (b"" if glued else _END_BYTE)
                orbits[m] = Trajectory(m, v, walk, t._holonomy2, None, t._table)
            break
    return {label: orbits[label] for label in WEIERSTRASS_LABELS}


@dataclass(frozen=True)
class OracleReport:
    """Joint result of flowing all five midpoints in one direction; the saddle
    label and the two cylinder holonomies are read off verdicts and trajectories."""

    direction: GoldenVector
    trajectories: dict[int, Trajectory]
    verdicts: dict[int, Classification]

    @property
    def saddle_label(self) -> int:
        return next(l for l, v in self.verdicts.items() if v is Classification.SADDLE_CONNECTION)

    @property
    def short_holonomy(self) -> GoldenVector:
        return next(self.trajectories[l].holonomy for l, v in self.verdicts.items() if v is Classification.SHORT)

    @property
    def long_holonomy(self) -> GoldenVector:
        return next(self.trajectories[l].holonomy for l, v in self.verdicts.items() if v is Classification.LONG)


def oracle_report_direction(v: GoldenVector, cap: int = DEFAULT_STEP_CAP) -> OracleReport:
    """Classify every midpoint by flowing it, checking the cylinder structure.

    Exactly one midpoint must hit the cone point; the other four must close
    with holonomies parallel to the direction, splitting two and two between
    exactly two magnitudes with ratio phi. Anything else is a structural
    violation of the simulator or the geometry tables, never bad input. The
    checks run on integer pairs at scale 2: the holonomies and magnitudes, and
    the direction cleared.
    """
    trajectories = _midpoint_orbits(v, cap)
    saddles = [l for l, t in trajectories.items() if t.outcome is Outcome.HIT_CONE_POINT]
    closed = {l: t for l, t in trajectories.items() if t.outcome is Outcome.CLOSED}
    if len(saddles) != 1 or len(closed) != 4:
        raise StructuralViolationError(
            f"expected 4 closed orbits and 1 cone hit, got {len(closed)} and {len(saddles)}"
        )
    vxa, vxb, vya, vyb = cleared(v)
    vertical = not (vxa or vxb)
    sizes = {}
    for label, t in closed.items():
        xa, xb, ya, yb = t._holonomy2
        if golden_mul(xa, xb, vya, vyb) != golden_mul(ya, yb, vxa, vxb):
            raise StructuralViolationError(f"holonomy of midpoint {label} is not parallel to {v}")
        sizes[label] = (ya, yb) if vertical else (xa, xb)
    magnitudes = set(sizes.values())
    if len(magnitudes) != 2:
        got = sorted(map(_half, magnitudes))
        raise StructuralViolationError(f"expected exactly 2 holonomy magnitudes, got {got}")
    small, large = magnitudes
    if golden_sign(large[0] - small[0], large[1] - small[1]) < 0:
        small, large = large, small
    if large != (small[1], small[0] + small[1]):  # small * phi
        raise StructuralViolationError(
            f"cylinder holonomies {_half(small)}, {_half(large)} are not in ratio phi"
        )
    short_labels = [l for l, size in sizes.items() if size == small]
    if len(short_labels) != 2:
        raise StructuralViolationError("holonomy magnitudes do not split two and two")
    verdicts: dict[int, Classification] = {saddles[0]: Classification.SADDLE_CONNECTION}
    for label in closed:
        verdicts[label] = Classification.SHORT if label in short_labels else Classification.LONG
    return OracleReport(v, trajectories, verdicts)


def _half(pair: tuple[int, int]) -> GoldenNumber:
    """An integer pair at scale 2 as the number it stands for, for a message."""
    return GoldenNumber(Fraction(pair[0], 2), Fraction(pair[1], 2))


def oracle_report(word: Word, cap: int = DEFAULT_STEP_CAP) -> OracleReport:
    return oracle_report_direction(word_to_vector(word), cap)


def oracle_classify(word: Word, cap: int = DEFAULT_STEP_CAP) -> dict[int, Classification]:
    """Flow-based verdict map, the independent check on the tau computation."""
    return oracle_report(word, cap).verdicts


def validate_trajectory_structure(trajectory: Trajectory) -> None:
    """Check the wall-crossing bookkeeping of a finished trajectory's points.

    The orbit begins at its start or a glued twin; each segment runs forward
    along the direction; consecutive segments connect by a gluing translation;
    a closed orbit ends at its start or a glued twin, a cone-hit orbit at a
    cone point. Holds for the reversal too (reversed segments, negated direction).
    Every check compares integer points at the trajectory's scale.
    """
    points, scale, v = trajectory.points, trajectory.scale, trajectory.direction
    if not points:
        raise StructuralViolationError("trajectory has no segments")
    vxa, vxb, vya, vyb = cleared(v)
    for begin, end in points:
        dxa, dxb, dya, dyb = end[0] - begin[0], end[1] - begin[1], end[2] - begin[2], end[3] - begin[3]
        # Parallel: step.x * v.y == step.y * v.x. Forward, hence nonzero: step . v > 0.
        parallel = golden_mul(dxa, dxb, vya, vyb) == golden_mul(dya, dyb, vxa, vxb)
        (xa, xb), (ya, yb) = golden_mul(dxa, dxb, vxa, vxb), golden_mul(dya, dyb, vya, vyb)
        if not parallel or golden_sign(xa + ya, xb + yb) <= 0:
            where = f"{_from_point(begin, scale)} -> {_from_point(end, scale)}"
            raise StructuralViolationError(f"segment {where} does not run forward along {v}")
    k = scale // 2
    jumps = {tuple(c * k for c in jump) for jump in _JUMPS2}
    for (_, (exa, exb, eya, eyb)), ((nxa, nxb, nya, nyb), _) in zip(points, points[1:]):
        jump = (nxa - exa, nxb - exb, nya - eya, nyb - eyb)
        if jump not in jumps:
            where = _from_point(jump, scale)
            raise StructuralViolationError(f"segments jump by {where}, not a gluing translation")
    first, final = points[0][0], points[-1][1]
    twins = {tuple(c * k for c in twin) for twin in _TWINS2[trajectory.start_label]}
    if first not in twins:
        raise StructuralViolationError(f"orbit begins at {_from_point(first, scale)}, not at its start")
    if trajectory.outcome is Outcome.CLOSED and final not in twins:
        raise StructuralViolationError(f"closed orbit ends at {_from_point(final, scale)}, not at its start")
    if trajectory.outcome is Outcome.HIT_CONE_POINT and final not in {tuple(c * k for c in p) for p in _CONES2}:
        raise StructuralViolationError(f"cone-hit orbit ends at {_from_point(final, scale)}, not a cone point")
