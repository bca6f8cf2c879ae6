"""Exact geodesic flow: stepping, tracing, and the flow oracle."""

import random
from fractions import Fraction
from itertools import product

import pytest

from goldenl import (
    CapExceededError,
    GoldenNumber,
    GoldenVector,
    Outcome,
    StructuralViolationError,
    Trajectory,
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
from goldenl.flow import (
    canonicalize,
    is_canonical,
    oracle_classify_direction,
    point_in_surface,
    trace_direction,
    validate_trajectory_structure,
)

HORIZONTAL = GoldenVector(GoldenNumber(1), GoldenNumber(0))
VERTICAL = GoldenVector(GoldenNumber(0), GoldenNumber(1))


def gv(xa, xb, ya, yb):
    return GoldenVector.from_rationals(xa, xb, ya, yb)


def test_canonicalize():
    assert canonicalize(gv(1, 1, Fraction(1, 2), 0)) == gv(0, 0, Fraction(1, 2), 0)
    assert canonicalize(gv(0, 1, 0, 0)) == gv(0, 0, 0, 0)  # cone points collapse
    interior = gv(Fraction(1, 3), 0, Fraction(1, 3), 0)
    assert canonicalize(interior) == interior
    assert is_canonical(interior)
    assert not is_canonical(gv(1, 1, Fraction(1, 2), 0))
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


def test_oracle_vertical_direction():
    assert oracle_classify_direction(VERTICAL) == {
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


def test_trajectory_structure_forward_and_reversed():
    for label, word in ((4, (2, 1)), (2, (2, 1)), (3, (1, 3, 2))):
        t = trace(label, word)
        assert t.outcome is Outcome.CLOSED
        validate_trajectory_structure(t)
        reversed_t = Trajectory(
            start_label=t.start_label,
            start=canonicalize(t.segments[-1][1]),
            direction=-t.direction,
            segments=tuple((end, begin) for begin, end in reversed(t.segments)),
            outcome=Outcome.CLOSED,
            holonomy=-t.holonomy,
            cone_point=None,
        )
        validate_trajectory_structure(reversed_t)


def test_trajectory_structure_cone_hit():
    t = trace(1, (2, 1))
    assert t.outcome is Outcome.HIT_CONE_POINT
    validate_trajectory_structure(t)


def test_trajectory_structure_rejects_corruption():
    t = trace(4, (2, 1))
    broken = Trajectory(
        start_label=t.start_label,
        start=t.start,
        direction=t.direction,
        segments=t.segments[:-1],
        outcome=Outcome.CLOSED,
        holonomy=t.holonomy,
        cone_point=None,
    )
    with pytest.raises(StructuralViolationError):
        validate_trajectory_structure(broken)


def test_trace_cap():
    with pytest.raises(CapExceededError):
        trace(4, (2, 1), cap=2)


def test_trace_direction_scales_with_input():
    # The same direction at a different scale must produce the same orbit.
    v = word_to_vector((2, 1))
    doubled = v.scaled(Fraction(7, 3))
    a = trace_direction(4, v)
    b = trace_direction(4, doubled)
    assert a.segments == b.segments
    assert a.holonomy == b.holonomy


def _cone_on_segment_before_end(begin, end):
    """The exhaustive cone rule, in exact vector arithmetic: whether any cone
    representative lies on the segment from begin up to, not including, end."""
    step = end - begin
    length = step.dot(step)
    for cone in CONE_POINTS:
        offset = cone - begin
        if not offset.cross(step).is_zero:
            continue
        along = offset.dot(step)
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
