"""Wall-search flow kernel and per-midpoint oracle: the tests' references.

The library traces a flow as a walk on its transverse coordinate
(`goldenl.flow`). This module traces it another way, by testing every exit
wall ahead of the current point for the one whose span holds the crossing and
dividing out the hit point at every step. It shares with the walk only the
surface tables, the direction check, the L membership test, the conversion of
integer points back to vectors and the step cap's message.

`reference_oracle` is the flow oracle as it was before it shared walks
between the two midpoints of a cylinder: it traces every midpoint with the
library's kernel, then runs the same cylinder checks.
"""

from __future__ import annotations

from math import lcm

from goldenl.classify import Classification
from goldenl.errors import CapExceededError, StructuralViolationError
from goldenl.field import GoldenNumber, GoldenVector, cleared, golden_mul, golden_sign
from goldenl.flow import (
    DEFAULT_STEP_CAP,
    OracleReport,
    Outcome,
    _from_point,
    _half,
    point_in_surface,
    trace_direction,
)
from goldenl.surface import CONE_POINTS, GOLDEN_L, WEIERSTRASS_LABELS, _direction_pairs, weierstrass_point

Point = tuple[int, int, int, int]


# Q[phi] helpers for the parametric references, which solve for intersection
# parameters in the field; the library's value types carry no division.


def cross(u: GoldenVector, v: GoldenVector) -> GoldenNumber:
    return u.x * v.y - u.y * v.x


def dot(u: GoldenVector, v: GoldenVector) -> GoldenNumber:
    return u.x * v.x + u.y * v.y


def inverse(x: GoldenNumber) -> GoldenNumber:
    """1 / (a + b*phi) = (a + b - b*phi) / (a**2 + a*b - b**2)."""
    norm = x.a * x.a + x.a * x.b - x.b * x.b
    return GoldenNumber((x.a + x.b) / norm, -x.b / norm)


def _int_pair(x: GoldenNumber, scale: int) -> tuple[int, int]:
    a = x.a * scale
    b = x.b * scale
    if a.denominator != 1 or b.denominator != 1:
        raise ValueError(f"{x} is not integral at scale {scale}")
    return int(a), int(b)


def _int_point(p: GoldenVector, scale: int) -> Point:
    return _int_pair(p.x, scale) + _int_pair(p.y, scale)


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


def reference_trace(label: int, v: GoldenVector, cap: int = DEFAULT_STEP_CAP):
    """Flow from Weierstrass point `label` in direction v by wall search.

    Returns (points, scale, outcome, holonomy, cone_point) with the points as
    (begin, end) integer pairs divided by `scale`; raises CapExceededError
    with the library's message when `cap` steps do not end the orbit.
    """
    _direction_pairs(v)
    start = weierstrass_point(label)
    scale, direction, walls, corners, norm_x, norm_y = _kernel_setup(v)
    start_point = _int_point(start, scale)
    raw_segments: list[tuple[Point, Point]] = []
    current = start_point
    outcome: Outcome | None = None
    for _ in range(cap):
        hit, reentry = _kernel_next(current, direction, walls, norm_x, norm_y)
        if raw_segments and hit == raw_segments[0][1]:
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
        last = _from_point(current, scale)
        where = f"midpoint {label}, direction {v}, after {cap} steps at {last}"
        if not point_in_surface(last):
            raise StructuralViolationError(f"trajectory left the golden L: {where}")
        raise CapExceededError(f"trajectory did not terminate: {where}")

    h = tuple(sum(end[i] - begin[i] for begin, end in raw_segments) for i in range(4))
    holonomy = _from_point(h, scale)
    cone_point = _from_point(hit, scale) if outcome is Outcome.HIT_CONE_POINT else None
    return tuple(raw_segments), scale, outcome, holonomy, cone_point


def reference_oracle(v: GoldenVector, cap: int = DEFAULT_STEP_CAP) -> OracleReport:
    """Classify every midpoint by tracing each one, checking the cylinder structure.

    Exactly one midpoint must hit the cone point; the other four must close
    with holonomies parallel to the direction, splitting two and two between
    exactly two magnitudes with ratio phi. The checks, their order and their
    messages are the library oracle's.
    """
    trajectories = {label: trace_direction(label, v, cap) for label in WEIERSTRASS_LABELS}
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
