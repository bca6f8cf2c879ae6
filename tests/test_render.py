"""Pentagon fold and SVG output, checked against the exact flow and the float reference billiard."""

import math
import random
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from itertools import product

import pytest

import goldenl.render as render
import pentagon_reference as reference
from flow_reference import cross, inverse
from goldenl import CapExceededError, GoldenNumber, GoldenVector, Outcome, trace, word_to_vector
from goldenl.flow import DEFAULT_STEP_CAP, trace_direction, validate_trajectory_structure
from goldenl.render import (
    PENTAGON_MIDPOINTS,
    PENTAGON_VERTICES,
    billiard_path,
    billiard_svg,
    golden_l_svg,
    pentagon_svg,
    render_trajectory,
    transported_side_events,
)
from goldenl.surface import DEFAULT_SIZE, DEFAULT_STROKE, GOLDEN_L

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def test_pentagon_has_unit_sides():
    # The reference's pentagon, stated by its angles, and the library's, P's image of the
    # inscribed ring: unit sides, and the same vertices in the same order, apex first.
    for vertices in (reference.PENTAGON_VERTICES, PENTAGON_VERTICES):
        assert len(vertices) == 5
        for i in range(5):
            a = vertices[i]
            b = vertices[(i + 1) % 5]
            assert math.hypot(b[0] - a[0], b[1] - a[1]) == pytest.approx(1.0)
    for p, q in zip(PENTAGON_VERTICES, reference.PENTAGON_VERTICES):
        assert math.hypot(p[0] - q[0], p[1] - q[1]) < 1e-12, (p, q)
    assert abs(render._CIRCUMRADIUS - reference.CIRCUMRADIUS) < 1e-12


def test_midpoints_bisect_the_sides():
    tables = (reference.PENTAGON_VERTICES, reference.PENTAGON_MIDPOINTS), (PENTAGON_VERTICES, PENTAGON_MIDPOINTS)
    for vertices, marked in tables:
        midpoints = set()
        for i in range(5):
            a = vertices[i]
            b = vertices[(i + 1) % 5]
            midpoints.add(((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0))
        for point in marked.values():
            assert any(
                math.hypot(point[0] - m[0], point[1] - m[1]) < 1e-12 for m in midpoints
            )
    # The library's midpoints, P's images of the L's marked points, are the reference's, label by label.
    assert list(PENTAGON_MIDPOINTS) == list(reference.PENTAGON_MIDPOINTS) == [1, 2, 3, 4, 5]
    for label, (x, y) in PENTAGON_MIDPOINTS.items():
        rx, ry = reference.PENTAGON_MIDPOINTS[label]
        assert math.hypot(x - rx, y - ry) < 1e-12, label
    # The fold's mirrors z -> m * conj(z), in the axes through midpoints 2 and 4, are
    # reflections: each fixes its midpoint and carries the vertices onto themselves.
    assert sorted(render._MIRRORS) == [2, 4]
    vertices = [complex(*v) for v in reference.PENTAGON_VERTICES]
    for label, mirror in render._MIRRORS.items():
        u = complex(*reference.PENTAGON_MIDPOINTS[label])
        assert abs(abs(mirror) - 1.0) < 1e-12, label
        assert abs(mirror * u.conjugate() - u) < 1e-12, label
        images = [mirror * v.conjugate() for v in vertices]
        nearest = [min(range(5), key=lambda j: abs(w - vertices[j])) for w in images]
        assert sorted(nearest) == list(range(5)), label
        assert all(abs(w - vertices[j]) < 1e-12 for w, j in zip(images, nearest)), label


def test_pentagon_frame_change_values():
    # The fold's P = ((1, phi/2), (0, sin pi/5)) is the reference's, bit for bit.
    (p00, p01), (p10, p11) = reference.PENTAGON_TRANSFER
    assert p00 == 1.0 and p10 == 0.0
    assert (render._P01, render._P11) == (p01, p11) == (0.8090169943749475, 0.5877852522924731)
    # The worked direction of the word 21: P * (2 + 2 phi, 1 + 2 phi).
    x, y = GoldenNumber(2, 2).to_float(), GoldenNumber(1, 2).to_float()
    px, py = p00 * x + p01 * y, p10 * x + p11 * y
    assert abs(px - 8.66) < 0.01
    assert abs(py - 2.49) < 0.01


def test_word_21_corner_path_length_is_saddle_holonomy():
    t = trace(1, (2, 1))
    assert t.outcome is Outcome.HIT_CONE_POINT
    path = reference.billiard_path(1, reference.pentagon_direction((2, 1)))
    assert path.outcome == "corner"
    assert path.length == pytest.approx(reference.pentagon_length(t.holonomy), rel=1e-9)


def test_word_21_closed_paths_match_transported_flow():
    direction = reference.pentagon_direction((2, 1))
    for label in (4, 2):
        t = trace(label, (2, 1))
        assert t.outcome is Outcome.CLOSED
        path = reference.billiard_path(label, direction)
        assert path.outcome == "closed"
        period = reference.pentagon_length(t.holonomy)
        multiplicity = round(path.length / period)
        assert path.length / period == pytest.approx(multiplicity, abs=1e-6)
        assert path.segment_count == transported_side_events(t) * multiplicity


def test_word_21_billiard_lengths_in_golden_ratio():
    direction = reference.pentagon_direction((2, 1))
    short = reference.billiard_path(4, direction)
    long = reference.billiard_path(2, direction)
    assert long.length / short.length == pytest.approx(PHI, rel=1e-9)


def test_horizontal_corner_path():
    path = reference.billiard_path(5, reference.pentagon_direction(()))
    assert path.outcome == "corner"
    assert path.length == pytest.approx(0.5, rel=1e-9)


def test_billiard_cap():
    # The pentagon frame's cap counts flow steps, as the golden L frame's does.
    with pytest.raises(CapExceededError):
        render_trajectory((2, 1), 4, frame="pentagon", cap=3)


def test_billiard_rejects_bad_input():
    with pytest.raises(ValueError):
        reference.billiard_path(0, (1.0, 0.0))
    with pytest.raises(ValueError):
        reference.billiard_path(1, (0.0, 0.0))


def test_side_events_need_a_closed_orbit():
    t = trace(1, (2, 1))
    with pytest.raises(ValueError):
        transported_side_events(t)


def test_golden_l_svg_contents():
    t = trace(4, (2, 1))
    svg = golden_l_svg(t)
    assert svg.count("<polygon") == 2
    assert svg.count('<line class="trajectory"') == t.segment_count
    assert svg.count('class="marked-point') == 5
    assert svg.startswith("<?xml") and svg.rstrip().endswith("</svg>")


def test_render_path_leaves_segments_unbuilt():
    # Validation, JSON and both frames read the integer points; the JSON
    # still matches the GoldenVector segments once they are built.
    for word in ((2, 1), (1, 3, 2), (0, 3, 1, 2)):
        for label in PENTAGON_MIDPOINTS:
            t = trace(label, word)
            validate_trajectory_structure(t)
            payload = t.to_json_dict(word)
            golden_l_svg(t)
            billiard_path(t)
            if t.outcome is Outcome.CLOSED:
                transported_side_events(t)
            assert "segments" not in vars(t), (word, label)
            expected = [{"from": b.quadruple(), "to": e.quadruple()} for b, e in t.segments]
            assert payload["segments"] == expected, (word, label)


def test_table_picture_builds_no_points():
    # The fold reads each run's chord from the walk: drawing the table builds
    # no integer points and sets up no replay.
    for word in ((2, 1), (1, 3, 2), (0, 3, 1, 2)):
        for label in PENTAGON_MIDPOINTS:
            t = trace(label, word)
            billiard_path(t)
            billiard_svg(t)
            assert "points" not in vars(t) and "_replay" not in vars(t), (word, label)


def test_pentagon_svg_contents():
    t = trace(4, (2, 1))
    svg = billiard_svg(t)
    assert svg.count("<polygon") == 1
    assert svg.count('<line class="trajectory"') == billiard_path(t).segment_count
    assert svg.count('class="marked-point') == 5
    # The word-first wrapper draws the same bytes.
    for word in (w for n in range(3) for w in product((0, 1, 2, 3), repeat=n)):
        for label in PENTAGON_MIDPOINTS:
            assert billiard_svg(trace(label, word)) == pentagon_svg(word, label), (word, label)


def _reference_lines(segments, extent, left, top, size=DEFAULT_SIZE, stroke=DEFAULT_STROKE):
    """The trajectory's <line> elements as the per-line f-string writer printed
    them: frame points placed one at a time, each line formatted on its own."""
    margin = 0.06 * size
    scale = (size - 2.0 * margin) / extent

    def place(p):
        return margin + (p[0] - left) * scale, margin + (top - p[1]) * scale

    lines = []
    for begin, end in segments:
        (x1, y1), (x2, y2) = place(begin), place(end)
        lines.append(
            f'<line class="trajectory" x1="{x1:.3f}" y1="{y1:.3f}" x2="{x2:.3f}" y2="{y2:.3f}" '
            f'stroke="#c02020" stroke-width="{stroke:.2f}"/>'
        )
    return lines


def _trajectory_lines(svg):
    return [line for line in svg.splitlines() if line.startswith('<line class="trajectory"')]


def _assert_lines_match_reference(t, size=DEFAULT_SIZE, stroke=DEFAULT_STROKE):
    extent, r = GOLDEN_L.vertices[2].x.to_float(), render._CIRCUMRADIUS
    where = (t.start_label, str(t.direction), size, stroke)
    segments = [(b.to_floats(), e.to_floats()) for b, e in t.segments]
    expected = _reference_lines(segments, extent, 0.0, extent, size, stroke)
    assert _trajectory_lines(golden_l_svg(t, size, stroke)) == expected, where
    points = billiard_path(t).points
    expected = _reference_lines(zip(points, points[1:]), 2.0 * r, -r, r, size, stroke)
    assert _trajectory_lines(billiard_svg(t, size, stroke)) == expected, where


def test_line_writer_matches_per_line_reference():
    # Both frames print exactly the reference's lines, in order: every word of
    # length 4, the length the benchmark draws, from all five midpoints.
    for word in product((0, 1, 2, 3), repeat=4):
        for label in PENTAGON_MIDPOINTS:
            _assert_lines_match_reference(trace(label, word))
    # Where the golden files do not reach: both axis directions, which close
    # after two and a half periods or run into a corner (the horizontal from
    # midpoint 5, the vertical from 1); seeded words of lengths 5 and 6; each
    # from all five midpoints, the mirrored 2 and 4 among them, and drawn at a
    # small and a large size with a thin and a thick stroke as well.
    rng = random.Random(27)
    words = [tuple(rng.randrange(4) for _ in range(n)) for n in (5, 6) for _ in range(3)]
    directions = [GoldenVector(GoldenNumber(1), GoldenNumber(0)), GoldenVector(GoldenNumber(0), GoldenNumber(1))]
    directions += map(word_to_vector, words)
    for v in directions:
        for label in PENTAGON_MIDPOINTS:
            t = trace_direction(label, v)
            for size, stroke in ((DEFAULT_SIZE, DEFAULT_STROKE), (64, 0.5), (2000, 3)):
                _assert_lines_match_reference(t, size, stroke)


def test_long_table_picture_is_formatted_in_chunks(monkeypatch):
    # A seeded length-9 word from midpoint 2 folds onto the table as 51,370
    # lines, over seven chunks. The picture is the one-chunk formatting, and
    # drawing it holds well under three times its text; formatting all the
    # lines at once peaked near four times.
    rng = random.Random(20261019)
    t = trace(2, tuple(rng.randrange(4) for _ in range(9)))
    tracemalloc.start()
    try:
        svg = billiard_svg(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert svg.count('<line class="trajectory"') == billiard_path(t).segment_count == 51_370
    assert peak <= 3 * len(svg), peak / len(svg)
    monkeypatch.setattr(render, "_CHUNK_LINES", 10**6)
    assert billiard_svg(t) == svg


def test_table_writer_at_its_chunk_edges(monkeypatch):
    # Chunks of 1, 2 and 3 lines give the one-chunk picture: a closed path of
    # five periods, one of one period, a cone hit (an open polyline) and the
    # one-line picture of `render e 5 --frame pentagon`. So do the same
    # trajectories' pictures on the L.
    cases = {(4, (2, 1)): 70, (1, (1, 3, 2)): 22, (1, (2, 1)): 4, (5, ()): 1}
    paths = {case: billiard_path(trace(*case)) for case in cases}
    assert {case: path.segment_count for case, path in paths.items()} == cases
    assert [path.outcome for path in paths.values()] == ["closed", "closed", "corner", "corner"]
    whole = {case: (billiard_svg(trace(*case)), golden_l_svg(trace(*case))) for case in cases}
    assert whole[5, ()][0] == render_trajectory((), 5, "pentagon")
    for lines in (1, 2, 3):
        monkeypatch.setattr(render, "_CHUNK_LINES", lines)
        for case, svgs in whole.items():
            assert (billiard_svg(trace(*case)), golden_l_svg(trace(*case))) == svgs, (lines, case)


def test_long_golden_l_picture_is_formatted_in_chunks(monkeypatch):
    # The 12-letter word from midpoint 2 runs 31,989 segments on the L, over
    # four chunks. With its points built, drawing it holds about two and a
    # half times its text, and the picture is the one-chunk formatting, which
    # peaked near three and a half times.
    t = trace(2, (1, 3, 0, 2) * 3)
    t.points
    tracemalloc.start()
    try:
        svg = golden_l_svg(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert svg.count('<line class="trajectory"') == t.segment_count == 31_989
    assert peak <= 2.75 * len(svg), peak / len(svg)
    monkeypatch.setattr(render, "_CHUNK_LINES", 10**6)
    assert golden_l_svg(t) == svg


def test_bad_size_or_stroke_is_rejected_before_the_points_are_read(monkeypatch):
    # Both frames check the size and stroke first: no float ends are read, no fold runs.
    # A size past the largest float overflows, and a stroke of 1e308 would
    # print the marked points' radius, twice the stroke, as inf.
    t = trace(2, (2, 1))
    calls = []
    for name in ("_float_ends", "_fold"):
        spied = getattr(render, name)
        monkeypatch.setattr(render, name, lambda t, name=name, spied=spied: calls.append((name, t)) or spied(t))
    bad = ((0, DEFAULT_STROKE), (DEFAULT_SIZE, -1.0), (2.5, DEFAULT_STROKE))
    bad += ((10**400, DEFAULT_STROKE), (DEFAULT_SIZE, 1e308), (10**5000, DEFAULT_STROKE), (DEFAULT_SIZE, 10**5000))
    for draw in (golden_l_svg, billiard_svg):
        for size, stroke in bad:
            with pytest.raises(ValueError, match="size must be at least 1"):
                draw(t, size, stroke)
    assert calls == []
    golden_l_svg(t)
    billiard_svg(t)
    assert calls == [("_float_ends", t), ("_fold", t)]


def test_render_trajectory_frames(monkeypatch):
    # One trace per drawing in either frame, and none for a bad frame, size or stroke,
    # through render_trajectory or pentagon_svg.
    calls = []

    def counted(*args):
        calls.append(args)
        return trace(*args)

    monkeypatch.setattr(render, "trace", counted)
    assert render_trajectory((2, 1), 4, frame="goldenl").count("<polygon") == 2
    assert render_trajectory((2, 1), 4, frame="pentagon").count("<polygon") == 1
    assert pentagon_svg((2, 1), 4).count("<polygon") == 1
    assert calls == [(4, (2, 1), DEFAULT_STEP_CAP)] * 3
    bad_inputs = (
        {"frame": "sphere"},
        {"size": 0},
        {"stroke": 0.0},
        {"frame": "pentagon", "stroke": -1.0},
        {"stroke": math.nan},
        {"frame": "pentagon", "stroke": math.inf},
        # A stroke must be an int or a float, as a size must be an int.
        {"stroke": True},
        {"frame": "pentagon", "stroke": "2"},
        {"stroke": None},
        {"stroke": Decimal(1)},
        {"frame": "pentagon", "stroke": Fraction(1)},
        # Unhashable values are checked before the frame cache sees them.
        {"stroke": [1]},
        {"frame": "pentagon", "size": [3]},
        {"size": {}, "stroke": {2: 1}},
        {"frame": ["pentagon"]},
    )
    for bad in bad_inputs:
        with pytest.raises(ValueError):
            render_trajectory((2, 1), 4, **bad)
        if "frame" not in bad:  # pentagon_svg draws the table only
            with pytest.raises(ValueError):
                pentagon_svg((2, 1), 4, **bad)
    assert len(calls) == 3
    with pytest.raises(ValueError, match=r"got 64 and '2'$"):
        render_trajectory((2, 1), 4, size=64, stroke="2")
    # Either drawing of a traced orbit checks its size and stroke too.
    t = trace(4, (2, 1))
    for draw in (golden_l_svg, billiard_svg):
        for bad in (
            {"size": 0}, {"size": 2.5}, {"size": True}, {"stroke": -0.0}, {"stroke": math.nan}, {"stroke": -math.inf},
            {"stroke": True}, {"stroke": "2"}, {"stroke": None}, {"stroke": Decimal(1)}, {"stroke": Fraction(1)},
            {"stroke": [1]}, {"size": [3]}, {"stroke": {}}, {"size": {3: 1}},
        ):
            with pytest.raises(ValueError):
                draw(t, **bad)
    # An int stroke draws as its float does.
    assert golden_l_svg(t, stroke=2) == golden_l_svg(t, stroke=2.0)


def _split_inscribed_edges():
    """Inscribed pentagon edges: interior cuts, and the jumps, either way, across
    the gluing walls of the two edges that lie on the golden L boundary."""
    ring = GOLDEN_L.inscribed_pentagon
    cuts = []
    boundary_edges = []
    for i in range(5):
        a, b = ring[i], ring[(i + 1) % 5]
        if (a.x.is_zero and b.x.is_zero) or (a.y.is_zero and b.y.is_zero):
            boundary_edges.append({a, b})
        else:
            cuts.append((a, b))
    jumps = frozenset(
        jump
        for ident in GOLDEN_L.identifications
        if {ident.source[0], ident.source[1]} in boundary_edges
        for jump in ((ident.translation.x, ident.translation.y), (-ident.translation.x, -ident.translation.y))
    )
    return tuple(cuts), jumps


_INTERIOR_CUTS, _SIDE_JUMPS = _split_inscribed_edges()


def _parametric_side_events(trajectory):
    """The side-event count with cut crossings found by solving for both
    intersection parameters in Q[phi], the reference for the orientation rule."""
    events = 0
    for begin, end in trajectory.segments:
        seg = end - begin
        for a, b in _INTERIOR_CUTS:
            cut = b - a
            denom = cross(seg, cut)
            if denom.is_zero:
                continue
            inv = inverse(denom)
            w = a - begin
            t = cross(w, cut) * inv
            s = cross(w, seg) * inv
            # Intersection strictly inside both segments: t(1-t) > 0 and s(1-s) > 0.
            if (t - t * t).sign() > 0 and (s - s * s).sign() > 0:
                events += 1
    segments = trajectory.segments
    joints = list(zip(segments, segments[1:]))
    if segments[-1][1] == trajectory.start:
        events += 1
    else:
        joints.append((segments[-1], segments[0]))
    for (_, end), (next_begin, _) in joints:
        jump = next_begin - end
        if (jump.x, jump.y) in _SIDE_JUMPS:
            events += 1
    return events


def test_side_events_match_parametric_rule():
    # Every word of length <= 3, the y = x mirrors of those of length 1-2, and
    # the vertical axis (the mirror of the empty word): the mirrors and the
    # axis are where "x and y increase" is thinnest.
    words = [w for n in range(4) for w in product((0, 1, 2, 3), repeat=n)]
    directions = [word_to_vector(w) for w in words]
    directions += [GoldenVector(v.y, v.x) for w, v in zip(words, directions) if 1 <= len(w) <= 2]
    directions.append(GoldenVector(GoldenNumber(0), GoldenNumber(1)))
    for v in directions:
        for label in PENTAGON_MIDPOINTS:
            t = trace_direction(label, v)
            if t.outcome is Outcome.CLOSED:
                events = transported_side_events(t)
                # The count reads the walk alone.
                assert "points" not in vars(t) and "segments" not in vars(t), (v, label)
                assert events == _parametric_side_events(t), (v, label)


def _fold_directions():
    """(word, direction): every word of length <= 4, then (None, v) for the
    y = x mirrors of those of length 1-2 and for the vertical."""
    words = [w for n in range(5) for w in product((0, 1, 2, 3), repeat=n)]
    directions = [(w, word_to_vector(w)) for w in words]
    directions += [(None, GoldenVector(v.y, v.x)) for w, v in directions if 1 <= len(w) <= 2]
    directions.append((None, GoldenVector(GoldenNumber(0), GoldenNumber(1))))
    return directions


def _float_direction(v):
    (p00, p01), (p10, p11) = reference.PENTAGON_TRANSFER
    x, y = v.to_floats()
    return (p00 * x + p01 * y, p10 * x + p11 * y)


def test_fold_matches_float_reference():
    # Same outcome, same bounce count and the same points as the float
    # billiard. The vertical from midpoint 1 runs along side 1, and there the
    # reference picks its way along the side by rounding a dot product that
    # is exactly 0, so it is left out (the mirrors of 0 and 00 are vertical).
    for word, v in _fold_directions():
        for label in PENTAGON_MIDPOINTS:
            if label == 1 and v.x.is_zero:
                continue
            path = billiard_path(trace_direction(label, v))
            expected = reference.billiard_path(label, _float_direction(v))
            assert path.outcome == expected.outcome, (word, v, label)
            assert path.segment_count == expected.segment_count, (word, v, label)
            for p, q in zip(path.points, expected.points):
                assert math.hypot(p[0] - q[0], p[1] - q[1]) < 1e-9, (word, v, label)


def test_fold_bounces_are_side_events_times_periods():
    # A closed orbit closes after one period of side events or after five,
    # turned. The axis directions, the horizontal class (words 0...0, such as
    # the empty word, 0 and 00, from midpoints 1-4) and its vertical mirror,
    # close after two and a half, at the orbit's second midpoint.
    for word, v in _fold_directions():
        for label in PENTAGON_MIDPOINTS:
            t = trace_direction(label, v)
            if t.outcome is not Outcome.CLOSED:
                continue
            periods = billiard_path(t).segment_count / transported_side_events(t)
            if v.x.is_zero or v.y.is_zero:
                assert periods == 2.5, (word, v, label)
            else:
                assert periods in (1, 5), (word, v, label)


def test_fold_closes_length_10_orbits():
    # Ten seeded words of length 10: every closed orbit closes when folded,
    # 20 of them after more bounces than the float reference's cap allows.
    rng = random.Random(7)
    words = [tuple(rng.randrange(4) for _ in range(10)) for _ in range(10)]
    traces = [trace(label, word) for word in words for label in PENTAGON_MIDPOINTS]
    closed = [t for t in traces if t.outcome is Outcome.CLOSED]
    assert len(closed) == 40
    beyond_reference = 0
    for t in closed:
        path = billiard_path(t)
        assert path.outcome == "closed"
        assert path.segment_count / transported_side_events(t) in (1, 5)
        beyond_reference += path.segment_count > reference.DEFAULT_MAX_BOUNCES
    assert beyond_reference == 20


def test_fold_matches_segment_reference_past_the_goldens():
    # One seeded word each of lengths 7-11, from all five midpoints: the
    # chords give the points that intersecting each run's exact segment ends
    # with the sides gives, as many and each within 1e-12.
    rng = random.Random(20261020)
    for word in [tuple(rng.randrange(4) for _ in range(n)) for n in range(7, 12)]:
        for label in PENTAGON_MIDPOINTS:
            t = trace(label, word)
            points, expected = billiard_path(t).points, reference.fold_by_segments(t)
            assert len(points) == len(expected), (word, label)
            for i, (p, q) in enumerate(zip(points, expected)):
                assert math.hypot(p[0] - q[0], p[1] - q[1]) < 1e-12, (word, label, i)


def test_fold_of_a_direction_past_float_range():
    # A direction whose pairs pass float range folds as the same ray with small pairs does.
    for v in map(word_to_vector, ((), (2, 1), (1, 3, 0, 2))):
        for w in (v, GoldenVector(v.y, v.x)):
            big = GoldenVector(w.x * GoldenNumber(10**400), w.y * GoldenNumber(10**400))
            for label in PENTAGON_MIDPOINTS:
                path, expected = billiard_path(trace_direction(label, big)), billiard_path(trace_direction(label, w))
                assert path.outcome == expected.outcome, (w, label)
                assert len(path.points) == len(expected.points), (w, label)
                for p, q in zip(path.points, expected.points):
                    assert math.hypot(p[0] - q[0], p[1] - q[1]) < 1e-12, (w, label)


def _side_of(q):
    """The pentagon side at the angle of the boundary point q, and q's distance from it."""
    i = int((math.degrees(math.atan2(q[1], q[0])) - 90.0) // 72.0) % 5
    (ax, ay), (bx, by) = PENTAGON_VERTICES[i], PENTAGON_VERTICES[(i + 1) % 5]
    # Sides have length 1: across the side, and past either end along it.
    across = (bx - ax) * (q[1] - ay) - (by - ay) * (q[0] - ax)
    along = (bx - ax) * (q[0] - ax) + (by - ay) * (q[1] - ay)
    return i, max(abs(across), -along, along - 1.0)


def test_fold_geometry_beyond_the_float_reference():
    # Seeded words of lengths 8-10, checked in floats on the folded path alone.
    # Each vertex lies on a side and reflects the run in it; at the last, the
    # start, the last run reflected in the start side leaves along the first;
    # and no earlier vertex is the start leaving along the first run. So the
    # path closes where it ends and not before, however many periods it takes.
    rng = random.Random(19)
    words = [tuple(rng.randrange(4) for _ in range(n)) for n in (8, 9, 10) for _ in range(3)]
    traces = [trace(label, word) for word in words for label in PENTAGON_MIDPOINTS]
    closed = [billiard_path(t) for t in traces if t.outcome is Outcome.CLOSED]
    assert len(closed) == 36

    def near(u, w):
        return math.hypot(u[0] - w[0], u[1] - w[1]) < 1e-7

    beyond_reference = 0
    for path in closed:
        points, start = path.points, path.points[0]
        runs = []
        for (px, py), (qx, qy) in zip(points, points[1:]):
            length = math.hypot(qx - px, qy - py)
            runs.append(((qx - px) / length, (qy - py) / length))
        for i, q in enumerate(points[1:], start=1):
            side, distance = _side_of(q)
            assert distance < 1e-9, (path.start_label, i)
            outgoing = runs[i % len(runs)]
            assert near(reference._reflect(runs[i - 1], side), outgoing), (path.start_label, i)
            if i < len(runs):
                assert not (near(q, start) and near(outgoing, runs[0])), (path.start_label, i)
        assert _side_of(start)[0] == reference._EDGE[path.start_label]
        beyond_reference += path.segment_count > reference.DEFAULT_MAX_BOUNCES
    assert beyond_reference == 8
