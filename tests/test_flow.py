"""Exact geodesic flow: stepping, tracing, and the flow oracle."""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from flow_reference import cross, dot, inverse, reference_oracle, reference_trace
from goldenl import (
    CapExceededError,
    GoldenNumber,
    GoldenVector,
    Outcome,
    StructuralViolationError,
    classify_all,
    oracle_classify,
    oracle_report,
    trace,
    weierstrass_point,
    word_to_vector,
)
from goldenl.surface import CONE_POINTS, GOLDEN_L, WEIERSTRASS_LABELS
from goldenl.classify import Classification
from goldenl.field import PHI
from goldenl import flow as flow_module
from goldenl.flow import (
    canonicalize,
    oracle_report_direction,
    point_in_surface,
    trace_direction,
    validate_trajectory_structure,
)
from goldenl.render import billiard_path, golden_l_svg, transported_side_events

HORIZONTAL = GoldenVector(GoldenNumber(1), GoldenNumber(0))
VERTICAL = GoldenVector(GoldenNumber(0), GoldenNumber(1))


def gv(xa, xb, ya, yb):
    return GoldenVector.from_rationals(xa, xb, ya, yb)


def test_canonicalize():
    assert canonicalize(gv(1, 1, Fraction(1, 2), 0)) == gv(0, 0, Fraction(1, 2), 0)
    assert canonicalize(gv(0, 1, 0, 0)) == gv(0, 0, 0, 0)  # cone points collapse
    interior = gv(Fraction(1, 3), 0, Fraction(1, 3), 0)
    assert canonicalize(interior) == interior
    assert canonicalize(gv(1, 1, Fraction(1, 2), 0)) != gv(1, 1, Fraction(1, 2), 0)
    with pytest.raises(ValueError):
        canonicalize(gv(5, 5, 0, 0))
    assert not point_in_surface(gv(5, 5, 0, 0))


def test_advance_hits_cone():
    # The first step from midpoint 5 runs along the bottom edge into a corner.
    t = trace_direction(5, HORIZONTAL)
    assert t.outcome is Outcome.HIT_CONE_POINT
    assert t.segments == ((weierstrass_point(5), gv(1, 1, 0, 0)),)
    assert t.cone_point == gv(1, 1, 0, 0)


def test_advance_crosses_wall():
    # The first step from midpoint 3 exits through wall b and re-enters at its twin.
    t = trace_direction(3, HORIZONTAL)
    (first_begin, exit_point), (reentry_point, _) = t.segments[:2]
    assert first_begin == weierstrass_point(3)
    assert exit_point == gv(1, 1, 0, Fraction(1, 2))
    assert reentry_point == gv(0, 0, 0, Fraction(1, 2))
    wall_b = {ident.name: ident for ident in GOLDEN_L.identifications}["b"]
    assert exit_point - reentry_point == wall_b.translation


def test_advance_closes_immediately():
    # From midpoint 1 the first exit re-enters at the start itself.
    start = weierstrass_point(1)
    t = trace_direction(1, HORIZONTAL)
    assert t.outcome is Outcome.CLOSED
    assert t.segment_count == 1
    assert canonicalize(t.segments[0][1]) == start


def test_advance_rejects_bad_input():
    with pytest.raises(ValueError):
        trace_direction(1, GoldenVector(GoldenNumber(0), GoldenNumber(0)))
    with pytest.raises(ValueError):
        trace_direction(1, GoldenVector(GoldenNumber(-1), GoldenNumber(1)))
    with pytest.raises(ValueError):
        trace_direction(0, HORIZONTAL)  # no such midpoint
    with pytest.raises(ValueError):
        trace(6, (2, 1))


def test_horizontal_traces():
    t1 = trace(1, ())
    assert t1.outcome is Outcome.CLOSED
    assert t1.segment_count == 1
    assert t1.holonomy == gv(0, 1, 0, 0)

    t3 = trace(3, ())
    assert t3.outcome is Outcome.CLOSED
    assert t3.segment_count == 2
    assert t3.holonomy == gv(1, 1, 0, 0)

    t5 = trace(5, ())
    assert t5.outcome is Outcome.HIT_CONE_POINT
    assert t5.cone_point == gv(1, 1, 0, 0)
    assert t5.holonomy == gv(Fraction(1, 2), 0, 0, 0)


def test_word_21_traces():
    t4 = trace(4, (2, 1))
    assert t4.outcome is Outcome.CLOSED
    assert t4.segment_count == 8
    assert t4.holonomy == gv(2, 4, 2, 3)

    t2 = trace(2, (2, 1))
    assert t2.outcome is Outcome.CLOSED
    assert t2.segment_count == 12
    assert t2.holonomy == gv(4, 6, 3, 5)
    assert t2.holonomy == t4.holonomy.scaled(PHI)

    t1 = trace(1, (2, 1))
    assert t1.outcome is Outcome.HIT_CONE_POINT


def test_closure_is_exact():
    for label in (1, 2, 3, 4):
        t = trace(label, (1, 3, 2))
        if t.outcome is not Outcome.CLOSED:
            continue
        final = t.segments[-1][1]
        assert final == t.start or canonicalize(final) == t.start


def test_oracle_matches_permutation_classification_short_words():
    for length in range(0, 4):
        for word in product((0, 1, 2, 3), repeat=length):
            assert oracle_classify(word) == classify_all(word).verdicts


def test_oracle_matches_permutation_classification_sampled():
    rng = random.Random(101)
    for _ in range(25):
        length = rng.randint(4, 8)
        word = tuple(rng.randrange(4) for _ in range(length))
        assert oracle_classify(word) == classify_all(word).verdicts


def test_oracle_matches_permutation_classification_letter_shift_quads():
    # 16 letter-shift quads (a word w and the words (w + s) mod 4 letterwise)
    # at each of lengths 6, 7 and 8: every letter sits at every position once
    # per quad, so each length is covered evenly.
    rng = random.Random(20261018)
    for length in (6, 7, 8):
        for _ in range(16):
            base = [rng.randrange(4) for _ in range(length)]
            for shift in range(4):
                word = tuple((k + shift) % 4 for k in base)
                verdicts = oracle_classify(word)
                assert verdicts == classify_all(word).verdicts, word
                values = list(verdicts.values())
                assert sorted(verdicts) == [1, 2, 3, 4, 5]
                assert values.count(Classification.SHORT) == 2, word
                assert values.count(Classification.LONG) == 2, word
                assert values.count(Classification.SADDLE_CONNECTION) == 1, word


def test_oracle_matches_permutation_classification_lengths_9_and_10():
    # 8 letter-shift quads at each of lengths 9 and 10, as above.
    rng = random.Random(20261019)
    for length in (9, 10):
        for _ in range(8):
            base = [rng.randrange(4) for _ in range(length)]
            for shift in range(4):
                word = tuple((k + shift) % 4 for k in base)
                verdicts = oracle_classify(word)
                assert verdicts == classify_all(word).verdicts, word
                values = list(verdicts.values())
                assert sorted(verdicts) == [1, 2, 3, 4, 5]
                assert values.count(Classification.SHORT) == 2, word
                assert values.count(Classification.LONG) == 2, word
                assert values.count(Classification.SADDLE_CONNECTION) == 1, word


def test_oracle_leaves_points_unbuilt():
    # The oracle reads outcome and holonomy off the walk; the integer points
    # are replayed only when read.
    for word in ((2, 1), (1, 3, 2), (0, 3, 1, 2), (3, 2, 2, 0, 1)):
        report = oracle_report(word)
        for label, t in report.trajectories.items():
            assert "points" not in vars(t), (word, label)
        for label, t in report.trajectories.items():
            assert t.points == trace(label, word).points, (word, label)
            assert "points" in vars(t)


def test_oracle_leaves_segments_unbuilt():
    for word in ((2, 1), (1, 3, 2), (0, 3, 1, 2), (3, 2, 2, 0, 1)):
        report = oracle_report(word)
        for label, t in report.trajectories.items():
            assert "segments" not in vars(t), (word, label)
        for label, t in report.trajectories.items():
            fresh = trace(label, word)
            assert t.to_json_dict(word) == fresh.to_json_dict(word)
            assert t.segments == fresh.segments
            assert "segments" in vars(t)


def _rotations(a, b):
    """Whether two closed walks, _END dropped, are rotations of each other."""
    a, b = a.rstrip(flow_module._END_BYTE), b.rstrip(flow_module._END_BYTE)
    return len(a) == len(b) and b in a + a


def test_oracle_trajectories_equal_independent_traces(monkeypatch):
    # Every word of length <= 5 and seeded letter-shift quads of lengths 6
    # and 7: each trajectory the oracle returns, walked or derived from its
    # cylinder twin, equals a trace of its own, with the same integer
    # holonomy and the points unbuilt. The two midpoints of each cylinder have
    # walks that are rotations of each other, and the oracle walks one orbit
    # per cylinder and the saddle connection: three traces.
    rng = random.Random(20261020)
    words = [w for n in range(6) for w in product((0, 1, 2, 3), repeat=n)]
    for length in (6, 7):
        for _ in range(4):
            base = [rng.randrange(4) for _ in range(length)]
            words += [tuple((k + shift) % 4 for k in base) for shift in range(4)]
    walked = []
    traced = flow_module.trace_direction
    monkeypatch.setattr(flow_module, "trace_direction", lambda *args: walked.append(args) or traced(*args))
    for word in words:
        v = word_to_vector(word)
        walked.clear()
        report = oracle_report_direction(v)
        assert len(walked) == 3, word
        for label, t in report.trajectories.items():
            fresh = traced(label, v)
            assert t == fresh, (word, label)
            assert t._holonomy2 == fresh._holonomy2, (word, label)
            assert "points" not in vars(t), (word, label)
        for verdict in (Classification.SHORT, Classification.LONG):
            a, b = (t.walk for label, t in report.trajectories.items() if report.verdicts[label] is verdict)
            assert _rotations(a, b), (word, verdict)


def test_oracle_matches_per_midpoint_reference_around_the_cap():
    # For every word of length <= 4, at caps one below, at and one above each
    # trajectory's segment count, the oracle and the per-midpoint reference
    # give the same verdicts and trajectories, or raise the same error with
    # the same message.
    for word in (w for n in range(5) for w in product((0, 1, 2, 3), repeat=n)):
        v = word_to_vector(word)
        counts = {t.segment_count for t in reference_oracle(v).trajectories.values()}
        for cap in sorted({c + d for c in counts for d in (-1, 0, 1)}):
            outcomes = []
            for oracle in (oracle_report_direction, reference_oracle):
                try:
                    report = oracle(v, cap)
                    outcomes.append((report.verdicts, report.trajectories))
                except (CapExceededError, StructuralViolationError) as error:
                    outcomes.append((type(error), str(error)))
            assert outcomes[0] == outcomes[1], (word, cap)


def test_oracle_vertical_direction():
    assert oracle_report_direction(VERTICAL).verdicts == {
        1: Classification.SADDLE_CONNECTION,
        2: Classification.LONG,
        3: Classification.LONG,
        4: Classification.SHORT,
        5: Classification.SHORT,
    }


def test_oracle_report_holonomy_ratio():
    rep = oracle_report((2, 1))
    assert rep.long_holonomy == rep.short_holonomy.scaled(PHI)
    assert rep.saddle_label == 1


def _oracle_with_corrupt_holonomy(monkeypatch, v, corrupt):
    """The oracle report in direction v after corrupt(label, holonomy, report) has
    replaced each closed trajectory's holonomy; it returns None to keep one."""
    report = oracle_report_direction(v)
    orbits = flow_module._midpoint_orbits

    def corrupted(direction, cap):
        changed = {}
        for label, t in orbits(direction, cap).items():
            h = corrupt(label, t.holonomy, report) if t.outcome is Outcome.CLOSED else None
            changed[label] = t if h is None else replace(t, _holonomy2=flow_module._int_point(h, 2))
        return changed

    monkeypatch.setattr(flow_module, "_midpoint_orbits", corrupted)
    return oracle_report_direction(v)


def _first(report, verdict):
    return min(label for label, v in report.verdicts.items() if v is verdict)


# Each corrupts one closed trajectory's holonomy in direction (2, 1), or the
# vertical, whose magnitudes are read off y; the message it must raise.
_HOLONOMY_CORRUPTIONS = {
    "off the direction": (
        (2, 1),
        lambda label, h, r: h + gv(1, 0, 0, 0) if label == _first(r, Classification.LONG) else None,
        "holonomy of midpoint 2 is not parallel to (2 + 2*phi, 1 + 2*phi)",
    ),
    "vertical, off the direction": (
        None,
        lambda label, h, r: h + gv(1, 0, 0, 0) if label == _first(r, Classification.SHORT) else None,
        "holonomy of midpoint 4 is not parallel to (0, 1)",
    ),
    "a third magnitude": (
        (2, 1),
        lambda label, h, r: h.scaled(2) if label == _first(r, Classification.SHORT) else None,
        "expected exactly 2 holonomy magnitudes, got "
        "[GoldenNumber(2, 4), GoldenNumber(4, 6), GoldenNumber(4, 8)]",
    ),
    "vertical, a third magnitude": (
        None,
        lambda label, h, r: h.scaled(2) if label == _first(r, Classification.SHORT) else None,
        "expected exactly 2 holonomy magnitudes, got "
        "[GoldenNumber(0, 1), GoldenNumber(1, 1), GoldenNumber(0, 2)]",
    ),
    "a ratio other than phi": (
        (2, 1),
        lambda label, h, r: r.short_holonomy.scaled(2) if r.verdicts[label] is Classification.LONG else None,
        "cylinder holonomies 2 + 4*phi, 4 + 8*phi are not in ratio phi",
    ),
    "a 3-1 split": (
        (2, 1),
        lambda label, h, r: r.short_holonomy if label == _first(r, Classification.LONG) else None,
        "holonomy magnitudes do not split two and two",
    ),
}


@pytest.mark.parametrize("case", list(_HOLONOMY_CORRUPTIONS))
def test_oracle_rejects_each_holonomy_corruption(monkeypatch, case):
    word, corrupt, message = _HOLONOMY_CORRUPTIONS[case]
    v = VERTICAL if word is None else word_to_vector(word)
    with pytest.raises(StructuralViolationError) as excinfo:
        _oracle_with_corrupt_holonomy(monkeypatch, v, corrupt)
    assert str(excinfo.value) == message

def _with_points(t, points, **changes):
    """A copy of t with `changes` applied whose `points` read as given."""
    changed = replace(t, **changes)
    vars(changed)["points"] = points
    return changed


def test_trajectory_structure_forward_and_reversed():
    # Midpoints 1 and 5 lie on glued edges: their reversals begin at a glued twin of the start.
    for label, word in ((4, (2, 1)), (2, (2, 1)), (3, (1, 3, 2)), (5, (2, 1)), (1, (1, 3, 2))):
        t = trace(label, word)
        assert t.outcome is Outcome.CLOSED
        validate_trajectory_structure(t)
        reversed_t = _with_points(
            t,
            tuple((end, begin) for begin, end in reversed(t.points)),
            direction=-t.direction,
            _holonomy2=tuple(-c for c in t._holonomy2),
        )
        validate_trajectory_structure(reversed_t)


def test_points_and_validation_build_no_golden_vector(monkeypatch):
    # Every word of length <= 3 and the vertical, all five midpoints: the
    # oracle's verdicts, tracing, replaying the points and validating them stay
    # on integers, for closed and cone-hit orbits alike. Once traced, no read
    # of a trajectory looks its direction's table up again.
    def forbidden(*args):
        raise AssertionError(f"called with {args}")

    directions = [word_to_vector(w) for n in range(4) for w in product((0, 1, 2, 3), repeat=n)]
    outcomes = set()
    for v in directions + [VERTICAL]:
        with monkeypatch.context() as m:
            m.setattr(flow_module, "_int_point", forbidden)
            m.setattr(flow_module, "_from_point", forbidden)
            assert len(oracle_report_direction(v).verdicts) == 5, v
            traced = [trace_direction(label, v) for label in WEIERSTRASS_LABELS]
            m.setattr(flow_module, "_direction_table", forbidden)
            for t in traced:
                assert t.points, (v, t.start_label)
                validate_trajectory_structure(t)
                outcomes.add(t.outcome)
        with monkeypatch.context() as m:
            m.setattr(flow_module, "_direction_table", forbidden)
            for t in traced:
                t.to_json_dict()
                golden_l_svg(t)
                billiard_path(t)
                if t.outcome is Outcome.CLOSED:
                    transported_side_events(t)
    assert outcomes == {Outcome.CLOSED, Outcome.HIT_CONE_POINT}


def test_start_twins_follow_the_canonicalize_rule():
    # A midpoint's twins at scale 2 are exactly the points of the L that
    # canonicalise to it: the start itself, or a translate by a gluing.
    for label, start in GOLDEN_L.weierstrass.items():
        shifted = (start + ident.translation for ident in GOLDEN_L.identifications)
        twins = [start] + [p for p in shifted if point_in_surface(p) and canonicalize(p) == start]
        assert flow_module._TWINS2[label] == {flow_module._int_point(p, 2) for p in twins}, label
    assert [len(flow_module._TWINS2[label]) for label in WEIERSTRASS_LABELS] == [2, 1, 1, 1, 2]


def test_trajectory_structure_cone_hit():
    t = trace(1, (2, 1))
    assert t.outcome is Outcome.HIT_CONE_POINT
    validate_trajectory_structure(t)


def test_trajectory_structure_rejects_corruption():
    t = trace(4, (2, 1))
    broken = _with_points(t, t.points[:-1])
    with pytest.raises(StructuralViolationError):
        validate_trajectory_structure(broken)


def _stretched_past_end(t):
    # One segment from the start along the direction, 100 times its first run.
    begin, end = t.points[0]
    return _with_points(t, ((begin, tuple(b + 100 * (e - b) for b, e in zip(begin, end))),))


def _shifted_end(t):
    # The first segment's end moved by 1 in x: still forward, no longer parallel.
    begin, end = t.points[0]
    return _with_points(t, ((begin, (end[0] + t.scale,) + end[1:]),) + t.points[1:])


def _extended_back(t):
    # The first segment starts one run earlier along the direction.
    begin, end = t.points[0]
    return _with_points(t, ((tuple(2 * b - e for b, e in zip(begin, end)), end),) + t.points[1:])


def _translated_start(t):
    # Midpoint 3 lies inside the L, so it has no glued twin, yet its translate by
    # gluing a's (phi, 0) lies in the L. The first segment alone, moved there.
    shift = (0, t.scale, 0, 0)
    begin, end = (tuple(c + d for c, d in zip(p, shift)) for p in t.points[0])
    return _with_points(t, ((begin, end),))


_CORRUPTIONS = {
    "zero-length segment": (
        (4, (2, 1)),
        lambda t: _with_points(t, ((t.points[0][0],) * 2,) + t.points[1:]),
        "does not run forward",
    ),
    "non-parallel segment": ((4, (2, 1)), _shifted_end, "does not run forward"),
    "reversed segment": (
        (4, (2, 1)),
        lambda t: _with_points(t, (t.points[0][::-1],) + t.points[1:]),
        "does not run forward",
    ),
    "jump not a gluing": (
        (4, (2, 1)),
        lambda t: _with_points(t, t.points[:3] + t.points[4:]),
        "not a gluing translation",
    ),
    "wrong closure end": ((4, (2, 1)), lambda t: _with_points(t, t.points[:-1]), "closed orbit ends at"),
    "cone outcome off the cone point": (
        (4, (2, 1)),
        lambda t: _with_points(replace(t, _cone=1), t.points),
        "cone-hit orbit ends at",
    ),
    "empty points": ((4, (2, 1)), lambda t: _with_points(t, ()), "no segments"),
    "closed orbit ending off the L": ((4, (2, 1)), _stretched_past_end, "closed orbit ends at"),
    "wrong first begin": ((1, (2, 1)), _extended_back, "orbit begins at"),
    "first begin at a translate, not a twin": ((3, (2, 1)), _translated_start, "orbit begins at"),
}


@pytest.mark.parametrize("case", list(_CORRUPTIONS))
def test_trajectory_structure_rejects_each_corruption(case):
    (label, word), corrupt, message = _CORRUPTIONS[case]
    t = trace(label, word)
    validate_trajectory_structure(t)
    with pytest.raises(StructuralViolationError, match=message):
        validate_trajectory_structure(corrupt(t))


def test_trace_cap():
    with pytest.raises(CapExceededError) as excinfo:
        trace(4, (2, 1), cap=2)
    message = str(excinfo.value)
    assert "midpoint 4" in message and "2 steps" in message
    assert str(word_to_vector((2, 1))) in message


def test_trace_cap_edges():
    # No step at all still names the start; two steps name the last re-entry.
    with pytest.raises(CapExceededError) as excinfo:
        trace(4, (2, 1), cap=0)
    assert "after 0 steps at (1/2 + phi, 1/2*phi)" in str(excinfo.value)
    with pytest.raises(CapExceededError) as excinfo:
        trace(4, (2, 1), cap=2)
    assert str(excinfo.value) == (
        "trajectory did not terminate: midpoint 4, direction (2 + 2*phi, 1 + 2*phi), "
        "after 2 steps at (0, 1/2 + 5/4*phi)"
    )


def test_trace_that_leaves_the_l_is_a_structural_violation(monkeypatch):
    # Corners moved far above every chord send each one out through wall b,
    # so the walk takes a wrong wall and the trace leaves the L after its
    # first step.
    table = flow_module._direction_table

    def corrupted(v):
        scale, _, *rest = table(v)
        return (scale, ((10**6, 0),) * 3, *rest)

    monkeypatch.setattr(flow_module, "_direction_table", corrupted)
    with pytest.raises(StructuralViolationError) as excinfo:
        trace_direction(1, word_to_vector((1,)), cap=1000)
    message = str(excinfo.value)
    assert "midpoint 1" in message and "1000 steps" in message
    assert str(word_to_vector((1,))) in message


def test_trace_direction_scales_with_input():
    # The same direction at a different scale must produce the same orbit.
    v = word_to_vector((2, 1))
    doubled = v.scaled(Fraction(7, 3))
    a = trace_direction(4, v)
    b = trace_direction(4, doubled)
    assert a.segments == b.segments
    assert a.holonomy == b.holonomy


def test_walk_is_invariant_under_unit_scaling():
    # Scaling a direction by a unit phi**k keeps every orbit, but for k < 0
    # the chords' h get coefficients far larger than their value, so the
    # kernel's inline sign tests mostly take the mixed-sign branch, close
    # calls included. Every word of length <= 3, at k = -12..12.
    inverse_phi = PHI - 1
    for word in (w for n in range(4) for w in product((0, 1, 2, 3), repeat=n)):
        v = word_to_vector(word)
        want = {label: trace_direction(label, v) for label in WEIERSTRASS_LABELS}
        for factor in (PHI, inverse_phi):
            u = v
            for _ in range(12):
                u = u.scaled(factor)
                for label, t in want.items():
                    got = trace_direction(label, u)
                    assert (got.walk, got.outcome, got.holonomy) == (t.walk, t.outcome, t.holonomy), (word, u, label)


def _cone_on_segment_before_end(begin, end):
    """The exhaustive cone rule, in exact vector arithmetic: whether any cone
    representative lies on the segment from begin up to, not including, end."""
    step = end - begin
    length = dot(step, step)
    for cone in CONE_POINTS:
        offset = cone - begin
        if not cross(offset, step).is_zero:
            continue
        along = dot(offset, step)
        if along.sign() >= 0 and (length - along).sign() > 0:
            return True
    return False


def test_corner_lookup_matches_exhaustive_cone_scan():
    directions = [word_to_vector(word) for n in range(1, 4) for word in product((0, 1, 2, 3), repeat=n)]
    directions += [HORIZONTAL, VERTICAL]
    for v in directions:
        for label in WEIERSTRASS_LABELS:
            t = trace_direction(label, v)
            for begin, end in t.segments:
                assert not _cone_on_segment_before_end(begin, end), (label, v, begin, end)
            final = t.segments[-1][1]
            assert (final in CONE_POINTS) == (t.outcome is Outcome.HIT_CONE_POINT), (label, v)
            assert t.cone_point == (final if t.outcome is Outcome.HIT_CONE_POINT else None)


def _reference_directions():
    """Every word of length 1-3, its mirror image in y = x, and both axes."""
    words = [word_to_vector(word) for n in range(1, 4) for word in product((0, 1, 2, 3), repeat=n)]
    return words + [GoldenVector(v.y, v.x) for v in words] + [HORIZONTAL, VERTICAL]


def _meets_before_end(begin, end, p, q):
    """Whether the closed edge p-q meets the segment from begin up to, not
    including, end; exact parametric intersection."""
    for axis in ("x", "y"):
        seg_lo, seg_hi = sorted((getattr(begin, axis), getattr(end, axis)))
        edge_lo, edge_hi = sorted((getattr(p, axis), getattr(q, axis)))
        if seg_hi < edge_lo or edge_hi < seg_lo:
            return False  # bounding boxes apart
    step = end - begin
    edge = q - p
    w = p - begin
    denom = cross(step, edge)
    if denom.is_zero:
        if not cross(w, step).is_zero:
            return False
        length = dot(step, step)
        lo, hi = sorted((dot(w, step), dot(q - begin, step)))
        return hi.sign() >= 0 and (length - lo).sign() > 0
    inv = inverse(denom)
    t = cross(w, edge) * inv
    s = cross(w, step) * inv
    return t.sign() >= 0 and (1 - t).sign() > 0 and s.sign() >= 0 and (1 - s).sign() >= 0


def _on_segment(point, begin, end):
    offset = point - begin
    step = end - begin
    if not cross(offset, step).is_zero:
        return False
    along = dot(offset, step)
    return along.sign() >= 0 and (dot(step, step) - along).sign() >= 0


def test_exit_wall_is_the_first_edge_met():
    # No exit edge meets a segment before its end, so the first spanning wall
    # the kernel takes is the nearest one.
    exits = [ident.target for ident in GOLDEN_L.identifications]
    for v in _reference_directions():
        for label in WEIERSTRASS_LABELS:
            for begin, end in trace_direction(label, v).segments:
                for p, q in exits:
                    assert not _meets_before_end(begin, end, p, q), (label, v, begin, end, p, q)


def test_closure_is_the_first_return_to_the_start():
    # The start, or a glued twin of it, lies on no segment except as the first
    # begin point and the last end point; a closed orbit ends there.
    for label in WEIERSTRASS_LABELS:
        start = weierstrass_point(label)
        shifted = [start + ident.translation for ident in GOLDEN_L.identifications]
        twins = [start] + [p for p in shifted if point_in_surface(p) and canonicalize(p) == start]
        for v in _reference_directions():
            t = trace_direction(label, v)
            last = len(t.segments) - 1
            for index, (begin, end) in enumerate(t.segments):
                for point in twins:
                    if (index == 0 and point == begin) or (index == last and point == end):
                        continue
                    assert not _on_segment(point, begin, end), (label, v, index, point)
            if t.outcome is Outcome.CLOSED:
                end = t.segments[-1][1]
                assert end == t.start or canonicalize(end) == t.start, (label, v)


def test_walk_matches_wall_search_reference():
    # Against the wall-search kernel in tests/flow_reference.py: the same
    # points, outcome, holonomy and cone point for every word of length <= 5,
    # the mirrors and both axes. One step short of the orbit both overrun the
    # cap with the same message; that is checked on all but the length-5
    # words, which would double the reference's share of the run time.
    shorter = _reference_directions() + [word_to_vector(w) for w in product((0, 1, 2, 3), repeat=4)]
    shorter.append(word_to_vector(()))
    longest = [word_to_vector(w) for w in product((0, 1, 2, 3), repeat=5)]
    for check_cap, directions in ((True, shorter), (False, longest)):
        for v in directions:
            for label in WEIERSTRASS_LABELS:
                t = trace_direction(label, v)
                got = (t.points, t.scale, t.outcome, t.holonomy, t.cone_point)
                assert got == reference_trace(label, v), (label, v)
                if not check_cap:
                    continue
                cap = t.segment_count - 1
                assert trace_direction(label, v, cap + 1).walk == t.walk
                with pytest.raises(CapExceededError) as walk_error:
                    trace_direction(label, v, cap)
                with pytest.raises(CapExceededError) as reference_error:
                    reference_trace(label, v, cap)
                assert str(walk_error.value) == str(reference_error.value), (label, v)
