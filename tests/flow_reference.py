"""Wall-search flow kernel and per-midpoint oracle: the tests' references.

The library traces a flow as a walk on its transverse coordinate
(`goldenl.flow`). This module traces it another way, by testing every exit
wall ahead of the current point for the one whose span holds the crossing and
dividing out the hit point at every step. It shares with the walk only the
surface tables, the direction check, the conversion of integer points back to
vectors and the step cap's message; it states the closed L itself.

`reference_direction_table` builds the flow's per-direction table, and the
point scale and replay rows set up from its pairs, the way they stood before
one linear map replaced the products: the transverse coordinate h = v x p by
golden_mul at each fixed point. `reference_twin_table` gathers the oracle's
twin table from a frame's starts midpoint by midpoint.

`reference_point_in_surface` and `reference_canonicalize` are the
library's membership test and canonical representative as they were stated
on GoldenVectors, before both read one integer test.

`reference_oracle` is the flow oracle as it was before it shared walks
between the two midpoints of a cylinder: it traces every midpoint whole with
the library's kernel, so its report holds the whole walks' holonomies where
the oracle's holds the half-walks'. It decides the verdicts itself, on the
GoldenVector holonomies, without the library's cylinder check.
"""

from __future__ import annotations

from math import lcm

from goldenl.errors import CapExceededError, StructuralViolationError
from goldenl.field import ONE, PHI, PHI_SQUARED, ZERO, GoldenNumber, GoldenVector, cleared, golden_mul, golden_sign
from goldenl.flow import DEFAULT_STEP_CAP, OracleReport, Outcome, _from_point, _shown, trace_direction
from goldenl.surface import GOLDEN_L, WEIERSTRASS_LABELS, Classification, weierstrass_point
from goldenl.words import _direction_pairs, vector_to_word, word_to_vector

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


def reference_point_in_surface(p: GoldenVector) -> bool:
    """Membership in the closed L-shaped polygon, the union of the boxes from
    the origin to its corners (phi^2, phi) and (phi, phi^2)."""
    if p.x.sign() < 0 or p.y.sign() < 0:
        return False
    return any(p.x <= c.x and p.y <= c.y for c in (GOLDEN_L.vertices[3], GOLDEN_L.vertices[5]))


def reference_canonicalize(p: GoldenVector) -> GoldenVector:
    """Canonical representative of a surface point.

    Points on a glued right/top edge map to their left/bottom twin; all cone
    point representatives map to the origin, the distinguished one. Target
    edges are axis-aligned with lo <= hi in both coordinates, so lying on one
    is lying in its bounding box.
    """
    if not reference_point_in_surface(p):
        raise ValueError(f"point lies outside the golden L: {_shown(p)}")
    if p in GOLDEN_L.vertices:
        return GOLDEN_L.vertices[0]
    for ident in GOLDEN_L.identifications:
        lo, hi = ident.target
        if lo.x <= p.x <= hi.x and lo.y <= p.y <= hi.y:
            return p - ident.translation
    return p


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
_CORNERS2 = tuple(_int_point(p, 2) for p in GOLDEN_L.vertices)


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
        if not reference_point_in_surface(last):
            raise StructuralViolationError(f"trajectory left the golden L: {where}")
        raise CapExceededError(f"trajectory did not terminate: {where}")

    h = tuple(sum(end[i] - begin[i] for begin, end in raw_segments) for i in range(4))
    holonomy = _from_point(h, scale)
    cone_point = _from_point(hit, scale) if outcome is Outcome.HIT_CONE_POINT else None
    return tuple(raw_segments), scale, outcome, holonomy, cone_point


def reference_direction_table(v: GoldenVector, corners: tuple | None = None) -> tuple[tuple, tuple]:
    """`goldenl.flow._direction_table` and `goldenl.flow._replay_table` of the
    pairs of v, field for field, with each h at scale 2 in the (p, b) form
    2h = p + b*sqrt(5) taken point by point, then made an offset from the
    middle corner. With `corners`, the h of the three corners where walls
    meet are those given in place of their own, a corrupted frame."""
    pairs = vxa, vxb, vya, vyb = _direction_pairs(v)

    def h(point: Point) -> tuple[int, int]:
        xa, xb = golden_mul(vxa, vxb, point[2], point[3])
        ya, yb = golden_mul(vya, vyb, point[0], point[1])
        return 2 * (xa - ya) + xb - yb, xb - yb

    gluings = {ident.name: ident for ident in GOLDEN_L.identifications}
    norm_x = vxa * vxa + vxa * vxb - vxb * vxb
    norm_y = vya * vya + vya * vyb - vyb * vyb
    factor = lcm(abs(norm_x) or 1, abs(norm_y) or 1)
    deltas, rows = [], []
    for name in "bdac":  # the exit walls, counterclockwise from (phi^2, 0)
        ident = gluings[name]
        back = _int_point(-ident.translation, 2)
        vertical = ident.source[0].x == ident.source[1].x
        # Re-entry at y = h / v.x or x = h / -v.y, with 1 / (a + b*phi) = (a + b - b*phi) / norm.
        (da, db), norm = ((vxa, vxb), norm_x) if vertical else ((-vya, -vyb), norm_y)
        q = factor // norm if norm else 0
        rows.append((vertical, (q * (da + db), -q * db), tuple(c * factor for c in back)))
        deltas.append(h(back))
    stair = [h(_int_point(p, 2)) for p in GOLDEN_L.vertices[2:7]]
    low, middle, high = stair[1:4] if corners is None else corners

    def offset(h: tuple[int, int]) -> tuple[int, int]:
        return h[0] - middle[0], h[1] - middle[1]

    ends = {stair[0]: 0, stair[4]: 4}
    starts = {}
    for label in WEIERSTRASS_LABELS:
        start = h(_int_point(weierstrass_point(label), 2))
        starts[label] = (offset(start), ends.get(start))
    frame = middle, (*offset(low), *offset(high)), tuple(deltas), starts, pairs
    return frame, (2 * factor, tuple(rows))


def reference_twin_table(starts: dict) -> tuple[set, dict]:
    """The twin table `goldenl.flow._oracle` passes its walks, from a frame's
    `starts`, gathered midpoint by midpoint: the first parts of the five
    chords' offsets, and each chord of a midpoint that is no edge run to the
    lowest such label on it."""
    near, twins = set(), {}
    for label, (offset, edge_run) in starts.items():
        near.add(offset[0])
        if edge_run is None:  # an edge run starts on a corner, on no closed orbit
            twins.setdefault(offset, label)
    return near, twins


def corners_above_every_chord(pairs: Point) -> tuple:
    """The frame of the direction with integer pairs `pairs`, its three
    corners moved to h = 10**6, far above every chord: each walk then leaves
    through wall b at every step, and so leaves the L."""
    return reference_direction_table(_from_point(pairs, 1), ((10**6, 0),) * 3)[0]


def reference_oracle(v: GoldenVector, cap: int = DEFAULT_STEP_CAP) -> OracleReport:
    """Classify every midpoint by tracing each one whole: the cone hit is the
    saddle connection, and a closed orbit is short when its holonomy is phi*w
    and long when it is phi^2*w, for w the vector of v's word, or (0, 1) for
    the vertical. Anything but one cone hit and the rest two and two raises."""
    trajectories = {label: trace_direction(label, v, cap) for label in WEIERSTRASS_LABELS}
    pairs = cleared(v)
    w = word_to_vector(vector_to_word(v)) if pairs[0] or pairs[1] else GoldenVector(ZERO, ONE)
    short, long, saddle = Classification.SHORT, Classification.LONG, Classification.SADDLE_CONNECTION
    verdicts = {}
    for label, t in trajectories.items():
        if t.outcome is Outcome.HIT_CONE_POINT:
            verdicts[label] = saddle
        elif t.holonomy == w.scaled(PHI):
            verdicts[label] = short
        elif t.holonomy == w.scaled(PHI_SQUARED):
            verdicts[label] = long
    got = list(verdicts.values())
    if [got.count(c) for c in (saddle, short, long)] != [1, 2, 2]:
        raise StructuralViolationError(f"midpoints {verdicts} are not one cone hit, two short and two long")
    holonomies = {l: None if t.outcome is Outcome.HIT_CONE_POINT else t._holonomy2 for l, t in trajectories.items()}
    return OracleReport(pairs, verdicts, holonomies)
