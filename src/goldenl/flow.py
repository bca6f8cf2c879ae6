"""Exact straight-line flow on the golden L.

The flow moves in a fixed direction from the closed first quadrant, so every
crossing leaves through a right or top boundary edge and re-enters through the
glued left or bottom edge. All intersections, comparisons, and closure checks
are exact; a trajectory ends either by returning to its start point or by
running into the cone point.

Each step is decided by rule, not by search. The exit is the first wall
ahead whose span holds the crossing. The orbit closes strictly inside a
segment exactly when a later step hits the first wall hit again; a start on a
glued edge comes back as a re-entry point one step earlier. _kernel_next and
trace_direction give the reasons.

The only divisions the flow ever performs are by the direction coordinates,
so once the start point is scaled to integer Z[phi] coordinates every wall
hit stays integral after a further scaling by the coordinate norms. The
tracer exploits that: it runs entirely on machine-integer pairs (a, b)
meaning a + b*phi. A trajectory keeps those integer points; neither the
oracle nor the render path ever converts them to fraction segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm

from .classify import Classification
from .errors import CapExceededError, StructuralViolationError
from .field import GoldenNumber, GoldenVector, PHI, PHI_SQUARED, cleared, golden_mul, golden_sign
from .surface import CONE_POINTS, GOLDEN_L, WEIERSTRASS_LABELS, weierstrass_point
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


def _check_direction(v: GoldenVector) -> None:
    if v.is_zero:
        raise ValueError("flow direction must be nonzero")
    if v.x.sign() < 0 or v.y.sign() < 0:
        raise ValueError(f"flow direction must lie in the closed first quadrant: {v}")


# Integer kernel. Pairs (a, b) are a + b*phi; points are 4-tuples
# (xa, xb, ya, yb). All kernel lengths carry one fixed scale factor, chosen
# in _kernel_setup so that every wall hit is integral.

Point = tuple[int, int, int, int]


def _int_pair(x: GoldenNumber, scale: int) -> tuple[int, int]:
    a = x.a * scale
    b = x.b * scale
    if a.denominator != 1 or b.denominator != 1:
        raise ValueError(f"{x} is not integral at scale {scale}")
    return int(a), int(b)


def _int_point(p: GoldenVector, scale: int) -> Point:
    return _int_pair(p.x, scale) + _int_pair(p.y, scale)


def _from_point(point: Point, scale: int) -> GoldenVector:
    xa, xb, ya, yb = (Fraction(c, scale) for c in point)
    return GoldenVector(GoldenNumber(xa, xb), GoldenNumber(ya, yb))


def _wall_row(ident) -> tuple:
    """An exit edge (the right or top target of a gluing) at scale 2, the
    denominator of the start points: (vertical, coord, lo, hi, back_x, back_y)
    with the translation back to the glued left or bottom twin."""
    p, q = ident.target
    vertical = p.x == q.x
    coord, lo, hi = (p.x, p.y, q.y) if vertical else (p.y, p.x, q.x)
    back = -ident.translation
    return (vertical, *(_int_pair(x, 2) for x in (coord, lo, hi, back.x, back.y)))


_EXITS2 = tuple(_wall_row(ident) for ident in GOLDEN_L.identifications)
_CORNERS2 = tuple(_int_point(p, 2) for p in CONE_POINTS)


def _kernel_setup(v: GoldenVector):
    """Scale tables for a trace: point scale, direction pairs, wall rows, corners.

    The direction is cleared to integer pairs; points, walls, and corners are
    scaled by 2 times the lcm of the direction coordinate norms, which makes
    every wall-hit division below come out exact. The wall rows carry their span
    bounds premultiplied by the direction coordinate the span test scales by.
    """
    vxa, vxb, vya, vyb = cleared(v)
    norm_x = vxa * vxa + vxa * vxb - vxb * vxb
    norm_y = vya * vya + vya * vyb - vyb * vyb
    factor = lcm(abs(norm_x) or 1, abs(norm_y) or 1)
    walls = []
    for vertical, coord, lo, hi, back_x, back_y in _EXITS2:
        span_va, span_vb = (vxa, vxb) if vertical else (vya, vyb)
        if not (span_va or span_vb):
            continue
        walls.append(
            (
                vertical,
                (coord[0] * factor, coord[1] * factor),
                golden_mul(lo[0] * factor, lo[1] * factor, span_va, span_vb),
                golden_mul(hi[0] * factor, hi[1] * factor, span_va, span_vb),
                (back_x[0] * factor, back_x[1] * factor),
                (back_y[0] * factor, back_y[1] * factor),
            )
        )
    corners = frozenset(
        (xa * factor, xb * factor, ya * factor, yb * factor) for xa, xb, ya, yb in _CORNERS2
    )
    return 2 * factor, (vxa, vxb, vya, vyb), tuple(walls), corners, norm_x, norm_y


def _exact_div(pair: tuple[int, int], n: int) -> tuple[int, int]:
    qa, ra = divmod(pair[0], n)
    qb, rb = divmod(pair[1], n)
    if ra or rb:
        raise StructuralViolationError("wall hit left the integer lattice")
    return qa, qb


def _kernel_next(point, direction, walls, norm_x, norm_y):
    """One flow step on integer coordinates.

    Returns (hit, reentry): the first wall hit ahead and the glued re-entry
    point.

    The first wall that lies ahead and whose span holds the crossing is the
    exit; no hit times are compared. The L is a closed staircase, a down-set of
    the first quadrant, so the segment from a point of the L to any hit on a
    right or top edge stays in the L, and a ray whose coordinates never
    decrease cannot come back once it has left through such an edge. Two walls
    can therefore both hold the crossing only at a shared endpoint, (phi, phi),
    (phi^2, phi) or (phi, phi^2); all three are cone points, both walls give
    the same hit there, and the trace ends. The one exception would be an axis
    ray along the line x = phi or y = phi, which spans two walls of its axis;
    no trace runs there, because an axis flow keeps its cross coordinate and
    the midpoints' coordinates are 0, phi/2 and phi + 1/2.
    """
    pxa, pxb, pya, pyb = point
    vxa, vxb, vya, vyb = direction
    for vertical, coord, span_lo, span_hi, back_x, back_y in walls:
        if vertical:
            ra, rb = coord[0] - pxa, coord[1] - pxb
            if golden_sign(ra, rb) <= 0:
                continue
            # Coordinate along the wall, scaled by v.x: p.y*v.x + reach*v.y.
            sa, sb = golden_mul(pya, pyb, vxa, vxb)
            ta, tb = golden_mul(ra, rb, vya, vyb)
        else:
            ra, rb = coord[0] - pya, coord[1] - pyb
            if golden_sign(ra, rb) <= 0:
                continue
            sa, sb = golden_mul(pxa, pxb, vya, vyb)
            ta, tb = golden_mul(ra, rb, vxa, vxb)
        oa, ob = sa + ta, sb + tb
        if golden_sign(oa - span_lo[0], ob - span_lo[1]) < 0:
            continue
        if golden_sign(span_hi[0] - oa, span_hi[1] - ob) < 0:
            continue
        if vertical:
            hit_y = _exact_div(golden_mul(oa, ob, vxa + vxb, -vxb), norm_x)
            hit = (coord[0], coord[1], hit_y[0], hit_y[1])
        else:
            hit_x = _exact_div(golden_mul(oa, ob, vya + vyb, -vyb), norm_y)
            hit = (hit_x[0], hit_x[1], coord[0], coord[1])
        reentry = (
            hit[0] + back_x[0],
            hit[1] + back_x[1],
            hit[2] + back_y[0],
            hit[3] + back_y[1],
        )
        return hit, reentry
    raise StructuralViolationError("no exit wall ahead of the flow")


class Outcome(Enum):
    CLOSED = "closed"
    HIT_CONE_POINT = "cone_point"


@dataclass(frozen=True)
class Trajectory:
    """A maximal flow orbit from a Weierstrass point in one direction.

    `points` holds the kernel's (begin, end) integer points (xa, xb, ya, yb),
    each integer divided by the shared `scale`; every library path reads them.
    `segments`, for callers who want GoldenVector pairs, is built and cached
    on first access.
    """

    start_label: int
    start: GoldenVector
    direction: GoldenVector
    points: tuple[tuple[Point, Point], ...]
    scale: int
    outcome: Outcome
    holonomy: GoldenVector
    cone_point: GoldenVector | None

    @cached_property
    def segments(self) -> tuple[tuple[GoldenVector, GoldenVector], ...]:
        return tuple((_from_point(b, self.scale), _from_point(e, self.scale)) for b, e in self.points)

    @property
    def segment_count(self) -> int:
        return len(self.points)

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

    Closure can land exactly on the start point at a re-entry, or strictly
    inside a segment (the start need not sit on a glued edge); in the latter
    case the last segment is truncated at the start point.
    """
    _check_direction(v)
    start = weierstrass_point(label)
    scale, direction, walls, corners, norm_x, norm_y = _kernel_setup(v)
    start_point = _int_point(start, scale)

    # The corner lookup of each wall hit is the whole cone test. A segment in
    # an open first-quadrant direction has x and y strictly increasing, so it
    # meets the boundary only at its wall hit; that holds at the reflex corner
    # (phi, phi) too, where both adjacent walls report the same hit. Axis
    # directions from the five midpoints run along an edge only for horizontal
    # from 5 and vertical from 1, and both of those runs end at a corner.
    raw_segments: list[tuple[Point, Point]] = []
    current = start_point
    outcome: Outcome | None = None
    for _ in range(cap):
        hit, reentry = _kernel_next(current, direction, walls, norm_x, norm_y)
        if raw_segments and hit == raw_segments[0][1]:
            # The flow is invertible off the cone point, and the run from the
            # start to its first hit crosses no wall, so a later step reaches
            # that hit again exactly when it passes through the start strictly
            # inside. A start on a glued edge is met one step earlier, as the
            # re-entry point below.
            raw_segments.append((current, start_point))
            outcome = Outcome.CLOSED
            break
        raw_segments.append((current, hit))
        if hit in corners:
            outcome = Outcome.HIT_CONE_POINT
            break
        if reentry == start_point:
            outcome = Outcome.CLOSED
            break
        current = reentry
    if outcome is None:
        # Checked once the cap runs out, not per step: a kernel that picks a
        # wrong wall leaves the L and would otherwise pass for a cap overrun.
        last = _from_point(current, scale)
        where = f"midpoint {label}, direction {v}, after {cap} steps at {last}"
        if not point_in_surface(last):
            raise StructuralViolationError(f"trajectory left the golden L: {where}")
        raise CapExceededError(f"trajectory did not terminate: {where}")

    h = tuple(sum(end[i] - begin[i] for begin, end in raw_segments) for i in range(4))
    return Trajectory(
        start_label=label,
        start=start,
        direction=v,
        points=tuple(raw_segments),
        scale=scale,
        outcome=outcome,
        holonomy=_from_point(h, scale),
        cone_point=_from_point(hit, scale) if outcome is Outcome.HIT_CONE_POINT else None,
    )


def trace(label: int, word: Word, cap: int = DEFAULT_STEP_CAP) -> Trajectory:
    return trace_direction(label, word_to_vector(word), cap)


@dataclass(frozen=True)
class OracleReport:
    """Joint result of flowing all five midpoints in one direction."""

    direction: GoldenVector
    trajectories: dict[int, Trajectory]
    verdicts: dict[int, Classification]
    short_holonomy: GoldenVector
    long_holonomy: GoldenVector
    saddle_label: int


def oracle_report_direction(v: GoldenVector, cap: int = DEFAULT_STEP_CAP) -> OracleReport:
    """Classify every midpoint by flowing it, checking the cylinder structure.

    Exactly one midpoint must hit the cone point; the other four must close
    with holonomies parallel to the direction, splitting two and two between
    exactly two magnitudes with ratio phi. Anything else is a structural
    violation of the simulator or the geometry tables, never bad input.
    """
    trajectories = {label: trace_direction(label, v, cap) for label in WEIERSTRASS_LABELS}
    saddles = [l for l, t in trajectories.items() if t.outcome is Outcome.HIT_CONE_POINT]
    holonomies = {l: t.holonomy for l, t in trajectories.items() if t.outcome is Outcome.CLOSED}
    if len(saddles) != 1 or len(holonomies) != 4:
        raise StructuralViolationError(
            f"expected 4 closed orbits and 1 cone hit, got {len(holonomies)} and {len(saddles)}"
        )
    vertical = v.x.is_zero
    sizes = {}
    for label, h in holonomies.items():
        if not h.cross(v).is_zero:
            raise StructuralViolationError(f"holonomy of midpoint {label} is not parallel to {v}")
        sizes[label] = h.y if vertical else h.x
    magnitudes = sorted(set(sizes.values()))
    if len(magnitudes) != 2:
        raise StructuralViolationError(f"expected exactly 2 holonomy magnitudes, got {magnitudes}")
    small, large = magnitudes
    if large != small * PHI:
        raise StructuralViolationError(f"cylinder holonomies {small}, {large} are not in ratio phi")
    short_labels = [l for l, size in sizes.items() if size == small]
    if len(short_labels) != 2:
        raise StructuralViolationError("holonomy magnitudes do not split two and two")
    verdicts: dict[int, Classification] = {saddles[0]: Classification.SADDLE_CONNECTION}
    for label in holonomies:
        verdicts[label] = Classification.SHORT if label in short_labels else Classification.LONG
    long_label = next(l for l in holonomies if l not in short_labels)
    return OracleReport(
        direction=v,
        trajectories=trajectories,
        verdicts=verdicts,
        short_holonomy=holonomies[short_labels[0]],
        long_holonomy=holonomies[long_label],
        saddle_label=saddles[0],
    )


def oracle_report(word: Word, cap: int = DEFAULT_STEP_CAP) -> OracleReport:
    return oracle_report_direction(word_to_vector(word), cap)


def oracle_classify(word: Word, cap: int = DEFAULT_STEP_CAP) -> dict[int, Classification]:
    """Flow-based verdict map, the independent check on the tau computation."""
    return oracle_report(word, cap).verdicts


_GLUING_JUMPS = tuple(
    _int_point(t, 1) for ident in GOLDEN_L.identifications for t in (ident.translation, -ident.translation)
)


@lru_cache(maxsize=16)
def _start_twins(start: GoldenVector) -> frozenset[GoldenVector]:
    """A midpoint start and its glued twins, the points of the L that canonicalise to it."""
    shifted = (start + ident.translation for ident in GOLDEN_L.identifications)
    return frozenset([start, *(p for p in shifted if point_in_surface(p) and canonicalize(p) == start)])


def validate_trajectory_structure(trajectory: Trajectory) -> None:
    """Check the wall-crossing bookkeeping of a finished trajectory's points.

    The orbit begins at its start or a glued twin; each segment runs forward
    along the direction; consecutive segments connect by a gluing translation;
    a closed orbit ends at its start or a glued twin, a cone-hit orbit at a
    cone point. Holds for the reversal too (reversed segments, negated direction).
    """
    points, scale, v, start = trajectory.points, trajectory.scale, trajectory.direction, trajectory.start
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
    jumps = {tuple(c * scale for c in jump) for jump in _GLUING_JUMPS}
    for (_, (exa, exb, eya, eyb)), ((nxa, nxb, nya, nyb), _) in zip(points, points[1:]):
        jump = (nxa - exa, nxb - exb, nya - eya, nyb - eyb)
        if jump not in jumps:
            where = _from_point(jump, scale)
            raise StructuralViolationError(f"segments jump by {where}, not a gluing translation")
    first, final = _from_point(points[0][0], scale), _from_point(points[-1][1], scale)
    if first not in _start_twins(start):
        raise StructuralViolationError(f"orbit begins at {first}, not at its start")
    if trajectory.outcome is Outcome.CLOSED and final not in _start_twins(start):
        raise StructuralViolationError(f"closed orbit ends at {final}, not at its start")
    if trajectory.outcome is Outcome.HIT_CONE_POINT and final not in CONE_POINTS:
        raise StructuralViolationError(f"cone-hit orbit ends at {final}, not a cone point")
