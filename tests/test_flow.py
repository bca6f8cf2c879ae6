"""Exact geodesic flow: stepping, tracing, and the flow oracle."""

import copy
import pickle
import random
import re
import sys
from fractions import Fraction
from itertools import accumulate, product
from operator import sub

import pytest

from flow_reference import (
    _int_point,
    corners_above_every_chord,
    cross,
    dot,
    inverse,
    reference_canonicalize,
    reference_direction_table,
    reference_oracle,
    reference_point_in_surface,
    reference_trace,
)
from goldenl import (
    CapExceededError,
    GoldenNumber,
    GoldenVector,
    Outcome,
    StructuralViolationError,
    classify_all,
    oracle_classify,
    oracle_report,
    parse_word,
    trace,
    weierstrass_point,
    word_to_vector,
)
from goldenl.surface import CONE_POINTS, GOLDEN_L, WEIERSTRASS_LABELS, _parity_verdicts
from goldenl.classify import Classification
from goldenl.field import PHI, cleared
from goldenl.words import _pairs
from goldenl import flow as flow_module
from goldenl import words as words_module
from goldenl.flow import (
    DEFAULT_STEP_CAP,
    canonicalize,
    oracle_report_direction,
    point_in_surface,
    trace_direction,
    validate_trajectory_structure,
)
from goldenl.render import billiard_path, golden_l_svg, render_trajectory, transported_side_events

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


def test_membership_on_a_grid_around_every_corner_and_the_notch():
    # The closed L as stated independently: x, y >= 0, and (x <= phi^2 and y <= phi)
    # or (x <= phi and y <= phi^2). The grid straddles 0, phi and phi^2 by 1/1000 on
    # both axes, so it holds points just inside and outside the notch (phi, phi^2]^2.
    eps = Fraction(1, 1000)
    values = [GoldenNumber(0) + d for d in (-eps, 0, eps)]
    values += [c + d for c in (PHI, PHI * PHI) for d in (-eps, 0, eps)]
    inside = 0
    for x, y in product(values, repeat=2):
        expected = x >= 0 and y >= 0 and (x <= PHI * PHI and y <= PHI or x <= PHI and y <= PHI * PHI)
        p = GoldenVector(x, y)
        assert point_in_surface(p) == expected, p
        if expected:
            canonicalize(p)
        else:
            with pytest.raises(ValueError, match="outside the golden L"):
                canonicalize(p)
        inside += expected
    assert inside == 40  # 7 x 4 + 4 x 7 - 4 x 4


def test_integer_membership_matches_the_golden_vector_reference():
    # point_in_surface and canonicalize against their GoldenVector statements, on
    # the corners, the midpoints and their glued translates, points of every
    # gluing's source and target edge, points 1/1000 either side of each
    # boundary line and of the notch, and seeded points with denominators up to
    # 72: equal results, and the same ValueError text outside the L.
    rng = random.Random(52)
    midpoints = list(GOLDEN_L.weierstrass.values())
    moves = [g.translation for g in GOLDEN_L.identifications]
    points = [*GOLDEN_L.vertices, *midpoints, *(m + t for m in midpoints for t in moves)]
    points += [m - t for m in midpoints for t in moves]
    for lo, hi in (ends for g in GOLDEN_L.identifications for ends in (g.source, g.target)):
        steps = [Fraction(0), Fraction(1), Fraction(1, 2)]
        steps += [Fraction(rng.randint(0, d), d) for d in range(1, 13) for _ in range(4)]
        points += [lo + (hi - lo).scaled(t) for t in steps]
    eps = Fraction(1, 1000)
    near = [GoldenNumber(0) + d for d in (-eps, 0, eps)] + [c + d for c in (PHI, PHI * PHI) for d in (-eps, 0, eps)]
    across = near + [PHI * Fraction(1, 2), PHI + Fraction(1, 2)]
    across += [GoldenNumber(Fraction(rng.randint(-10, 280), 100)) for _ in range(20)]
    points += [GoldenVector(x, y) for c in near for u in across for x, y in ((c, u), (u, c))]

    def seeded() -> GoldenNumber:
        b, d = Fraction(rng.randint(-144, 144), rng.randint(1, 72)), rng.randint(1, 72)
        return GoldenNumber(Fraction(round((rng.uniform(-0.3, 2.9) - float(b) * 1.618033988749895) * d), d), b)

    points += [GoldenVector(seeded(), seeded()) for _ in range(6000)]

    def result(canonical, p):
        try:
            return canonical(p)
        except ValueError as error:
            return str(error)

    inside = 0
    for p in points:
        assert point_in_surface(p) is reference_point_in_surface(p), p
        assert result(canonicalize, p) == result(reference_canonicalize, p), p
        inside += point_in_surface(p)
    assert 2000 < inside < len(points) - 2000, (inside, len(points))


def test_flow_does_no_golden_number_arithmetic(monkeypatch):
    # flow clears a GoldenVector to integers on the way in and builds one on the
    # way out, and adds, negates, multiplies or compares no GoldenNumber between:
    # not in a trace, its JSON or its validation, not in the oracle, not in the
    # membership test, and not in the message of a walk that runs past its cap.
    def forbidden(*args):
        raise AssertionError(f"GoldenNumber arithmetic on {args}")

    points = [gv(1, 1, Fraction(1, 2), 0), gv(0, 1, 0, 0), gv(Fraction(1, 3), 0, Fraction(1, 3), 0), gv(5, 5, 0, 0)]
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "__lt__"):
        monkeypatch.setattr(GoldenNumber, name, forbidden)
    for t in (trace(4, (2, 1)), trace(1, (2, 1)), trace_direction(3, VERTICAL)):
        t.to_json_dict((2, 1))
        validate_trajectory_structure(t)
    assert oracle_report((2, 1)).verdicts == oracle_report_direction(word_to_vector((2, 1))).verdicts
    assert [point_in_surface(p) for p in points] == [True, True, True, False]
    assert [canonicalize(p) for p in points[:3]] == [gv(0, 0, Fraction(1, 2), 0), gv(0, 0, 0, 0), points[2]]
    with pytest.raises(ValueError, match="outside the golden L"):
        canonicalize(points[3])
    with pytest.raises(CapExceededError, match="after 1 steps at"):
        trace(1, (2, 1, 3, 0, 2), cap=1)


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


@pytest.mark.parametrize(
    "seed, lengths, quads",
    [(20261018, (6, 7, 8), 16), (20261019, (9, 10), 8), (20261021, (11, 12, 13), 8)],
    ids=["lengths 6-8", "lengths 9-10", "lengths 11-13"],
)
def test_oracle_matches_permutation_classification_letter_shift_quads(seed, lengths, quads):
    # `quads` letter-shift quads (a word w and the words (w + s) mod 4
    # letterwise) at each length: every letter sits at every position once per
    # quad, so each length is covered evenly.
    rng = random.Random(seed)
    for length in lengths:
        for _ in range(quads):
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


def test_parity_verdicts_match_the_closed_form_past_the_oracle():
    # The verdicts read off the direction's pairs mod 2 agree with the paper's closed form on every word of up to 6
    # letters and on seeded words of 1,000 and 10,000 letters, far past where the oracle walks, and with the oracle
    # on the vertical, which has no word.
    rng = random.Random(51)
    words = [word for n in range(7) for word in product(range(4), repeat=n)]
    words += [tuple(rng.randrange(4) for _ in range(n)) for n in (1000, 10000) for _ in range(3)]
    for word in words:
        assert _parity_verdicts(_pairs(word)) == classify_all(word).verdicts, word
    assert _parity_verdicts((0, 0, 1, 0)) == oracle_report_direction(VERTICAL).verdicts


def test_parity_verdicts_reject_pairs_that_are_no_midpoints_class():
    # The horizontal times phi, times phi^2 and times 2: each reads as no midpoint's class mod 2, so the rule
    # has no saddle to name and raises, where it once answered five verdicts silently.
    for pairs in ((0, 1, 0, 0), (1, 1, 0, 0), (2, 0, 0, 0)):
        with pytest.raises(ValueError, match=re.escape(f"pairs {pairs} are no midpoint's class mod 2")):
            _parity_verdicts(pairs)


def _rotations(a, b):
    """Whether two closed walks, _END dropped, are rotations of each other."""
    end = bytes([flow_module._END])
    a, b = a.rstrip(end), b.rstrip(end)
    return len(a) == len(b) and b in a + a


def _counting_walks(monkeypatch):
    """Patch the flow kernel, which the oracle steps itself, to record on each
    call whether it looks for a twin, that is, reads the frame's look data;
    returns the record."""
    walked = []
    run = flow_module._run

    def counted(table, h, look, cap):
        walked.append(look)
        return run(table, h, look, cap)

    monkeypatch.setattr(flow_module, "_run", counted)
    return walked


def _look_walks(v, verdicts, cap):
    """The oracle's walks in direction v at `cap`: one for the saddle
    connection, and per cylinder one from its lower label, whose trace is
    first on the other midpoint's chord after j crossings, the chords replayed
    by their h; that walk stops there if 0 < j and 2j + 2 <= cap, or else the
    other midpoint is walked too."""
    _, _, deltas, starts, _, _, _ = flow_module._direction_table(cleared(v))
    walks = 1
    for verdict in (Classification.SHORT, Classification.LONG):
        a, b = sorted(label for label, c in verdicts.items() if c is verdict)
        steps = map(deltas.__getitem__, trace_direction(a, v).walk.rstrip(bytes([flow_module._END])))
        chords = accumulate(steps, lambda h, d: (h[0] + d[0], h[1] + d[1]), initial=starts[a][0])
        j = list(chords).index(starts[b][0])
        walks += 1 if 0 < j and 2 * j + 2 <= cap else 2
    return [True] * walks


def _traces(v, cap=DEFAULT_STEP_CAP):
    """The five whole traces in direction v, by label."""
    return {label: trace_direction(label, v, cap) for label in WEIERSTRASS_LABELS}


def _holonomies(trajectories):
    """The map the cylinder checks receive, from whole traces by label: the
    holonomy at scale 2, None for the cone hit."""
    return {l: t._holonomy2 if t.outcome is Outcome.CLOSED else None for l, t in trajectories.items()}


def test_oracle_trajectories_equal_independent_traces(monkeypatch):
    # Every word of length <= 5 and seeded letter-shift quads of lengths 6
    # and 7: the oracle walks one orbit per cylinder and the saddle
    # connection, three walks that look for a twin; in the horizontal (the
    # words of only 0s) each twin lies on its start's chord, unmet, so each
    # midpoint is walked, five walks. At the longest segment count the
    # oracle walks a cylinder's second midpoint too when the walk from its
    # first one meets it too late to stop. The integer holonomies its report
    # holds equal those of five whole traces of their own, also at a cap of
    # the longest segment count, since a walk stops at a twin only within the
    # cap. The two midpoints of each cylinder have walks that are rotations of
    # each other, and the saddle midpoint's walk has holonomy v/2.
    rng = random.Random(20261020)
    words = [w for n in range(6) for w in product((0, 1, 2, 3), repeat=n)]
    for length in (6, 7):
        for _ in range(4):
            base = [rng.randrange(4) for _ in range(length)]
            words += [tuple((k + shift) % 4 for k in base) for shift in range(4)]
    walked = _counting_walks(monkeypatch)
    for word in words:
        v = word_to_vector(word)
        walked.clear()
        report = oracle_report_direction(v)
        assert walked == [True] * (5 if set(word) <= {0} else 3), word
        traced = _traces(v)
        assert report._holonomies == _holonomies(traced), word
        assert traced[report.saddle_label]._holonomy2 == _pairs(word), word
        for verdict in (Classification.SHORT, Classification.LONG):
            a, b = (t.walk for label, t in traced.items() if report.verdicts[label] is verdict)
            assert _rotations(a, b), (word, verdict)
        cap = max(t.segment_count for t in traced.values())
        walks = _look_walks(v, report.verdicts, cap)
        walked.clear()
        capped = oracle_report_direction(v, cap)
        assert walked == walks, word
        assert capped == report, word


def test_oracle_report_reads_walk_nothing(monkeypatch):
    # The oracle builds no trajectory: with trace_direction and Trajectory
    # patched to raise, the verdicts still come back. The report holds three
    # plain slots and caches nothing, and with the kernel _run patched to
    # raise too, its reads, equality, repr, copies and pickles walk nothing.
    # Its holonomies are those of whole traces from a short and a long midpoint.
    def refuse(*args):
        raise AssertionError(f"the report walked or built a trajectory: {args}")

    for word in ((), (2, 1), (1, 3, 2), (0, 3, 1, 2), None):
        v = VERTICAL if word is None else word_to_vector(word)
        traced = _traces(v)
        longest = max(t.segment_count for t in traced.values())
        for cap in (longest, DEFAULT_STEP_CAP):
            with monkeypatch.context() as patched:
                patched.setattr(flow_module, "trace_direction", refuse)
                patched.setattr(flow_module, "Trajectory", refuse)
                report = oracle_report_direction(v, cap)
                again = oracle_report_direction(v, cap)
                patched.setattr(flow_module, "_run", refuse)
                if word is not None:
                    assert report.verdicts == classify_all(word).verdicts, (word, cap)
                kinds = {c: [l for l, k in report.verdicts.items() if k is c] for c in Classification}
                assert report.saddle_label == kinds[Classification.SADDLE_CONNECTION][0], (v, cap)
                assert report.short_holonomy == traced[kinds[Classification.SHORT][0]].holonomy, (v, cap)
                assert report.long_holonomy == traced[kinds[Classification.LONG][0]].holonomy, (v, cap)
                assert report == again and report._holonomies == _holonomies(traced), (v, cap)
                assert repr(report) == (
                    f"OracleReport(direction={v!r}, verdicts={report.verdicts!r}, "
                    f"_holonomies={report._holonomies!r})"
                )
                for kept in (copy.copy(report), copy.deepcopy(report), pickle.loads(pickle.dumps(report))):
                    assert kept == report and kept.short_holonomy == report.short_holonomy, (v, cap)
                assert not hasattr(report, "__dict__"), (v, cap)
    assert flow_module.OracleReport.__slots__ == ("_pairs", "verdicts", "_holonomies")
    assert flow_module.OracleReport._fields == ("direction", "verdicts", "_holonomies")


def test_both_oracle_entries_give_one_report(monkeypatch):
    # Every word of length <= 5: the oracle on the word's pairs and on its
    # vector give one report, whose direction, built on read, is the word's
    # vector. On a word the oracle builds no GoldenVector: with word_to_vector,
    # _direction_pairs and _from_point patched to raise, its verdicts still
    # come back. On a vector it clears the vector to pairs once, and peels them.
    def refuse(*args):
        raise AssertionError(f"the oracle built or cleared a vector: {args}")

    words = [w for n in range(6) for w in product((0, 1, 2, 3), repeat=n)]
    for word in words:
        v = word_to_vector(word)
        report = oracle_report(word)
        with monkeypatch.context() as patched:
            clears = []
            patched.setattr(words_module, "cleared", lambda v: clears.append(v) or cleared(v))
            direct = oracle_report_direction(v)
        assert clears == [v] and report == direct and repr(report) == repr(direct), word
        assert report.direction == v, word
    with monkeypatch.context() as patched:
        for name in ("word_to_vector", "_direction_pairs", "_from_point"):
            patched.setattr(flow_module, name, refuse)
        for word in words:
            assert oracle_report(word).verdicts == classify_all(word).verdicts, word


def test_oracle_verdicts_are_in_label_order():
    # The oracle's verdict map, like classify_all's, iterates over the labels 1-5 in order.
    for word in (w for n in range(5) for w in product((0, 1, 2, 3), repeat=n)):
        assert list(oracle_classify(word)) == [1, 2, 3, 4, 5], word
        assert list(classify_all(word).verdicts) == [1, 2, 3, 4, 5], word
    for v in (HORIZONTAL, VERTICAL):
        assert list(oracle_report_direction(v).verdicts) == [1, 2, 3, 4, 5], v


def _first_chord(ps, bs, h):
    """The first index i with (ps[i], bs[i]) == h, or None."""
    i = -1
    try:
        while True:
            i = ps.index(h[0], i + 1)
            if bs[i] == h[1]:
                return i
    except ValueError:
        return None


def test_each_closed_orbit_meets_one_twin_half_a_period_away(monkeypatch):
    # Every word of length <= 6, its mirror in y = x, and both axes, from all
    # five midpoints. The chords a walk runs along are replayed by their h from
    # the direction's frame. A closed orbit meets exactly one other midpoint,
    # its twin; a cone hit meets none. Twice the displacement from the start
    # to the twin, over the first j crossings, is the holonomy of the whole
    # walk, which has 2j, 2j + 1 or 2j + 2 segments, and the twin's walk at
    # most 2j + 2. The oracle's walk, a step of the kernel _run reading the
    # frame's look data, names the twin and stops there, its arc the first j
    # crossings of the whole walk, and the arc's displacement, doubled and
    # shifted from the start to the twin, is the whole walk's holonomy. A walk
    # that stops at no twin, ended as the oracle ends it, is the whole walk.
    # In the axis directions the twin can lie on the start's own chord, ahead
    # of the start (j = 0) or behind it (met only at closure, j = n); both
    # occur, the oracle's walk then meets no twin and closes, and the oracle
    # walks the twin on its own: on both axes every twin lies so, five walks.
    # The whole walk is the trace's, from _walk. Points and translations are
    # integers at scale 2.
    moves = {g.name: _int_point(g.translation, 2) for g in GOLDEN_L.identifications}
    moves = [moves[name] for name in "bdac"]  # what crossing each wall adds, in walk byte order
    points = {label: _int_point(weierstrass_point(label), 2) for label in WEIERSTRASS_LABELS}
    words = [word_to_vector(w) for n in range(7) for w in product((0, 1, 2, 3), repeat=n)]
    on_start_chord = {"ahead": 0, "behind": 0}
    for v in words + [GoldenVector(v.y, v.x) for v in words] + [HORIZONTAL, VERTICAL]:
        table = flow_module._direction_table(cleared(v))
        _, _, deltas, starts, _, _, _ = table
        for label in WEIERSTRASS_LABELS:
            walk, holonomy, cone = flow_module._walk(label, table, DEFAULT_STEP_CAP)
            h0, edge_corner = starts[label]
            arc, last, hit, twin = flow_module._run(table, h0, True, DEFAULT_STEP_CAP if edge_corner is None else 0)
            if twin is None:
                flow_module._finish(arc, last, h0, label, table, DEFAULT_STEP_CAP)
            crossings = walk.rstrip(bytes([flow_module._END]))
            others = {h: m for m, (h, edge_run) in starts.items() if m != label and edge_run is None}
            # The chords' h as two lists, (p, b) for p + b*sqrt(5); each midpoint
            # met, by the number of crossings before its first chord.
            chords = [list(accumulate(map([d[c] for d in deltas].__getitem__, crossings), initial=starts[label][0][c]))
                      for c in (0, 1)]
            met = {m: i for h, m in others.items() if (i := _first_chord(*chords, h)) is not None}
            if cone is not None:
                assert met == {} and twin is None, (label, v)
                assert (arc, hit if edge_corner is None else edge_corner) == (walk, cone), (label, v)
                continue
            assert len(met) == 1, (label, v)
            (m, j), = met.items()
            if j:
                assert twin == m and arc == crossings[:j], (label, v)
            else:
                assert twin is None and arc == walk, (label, v)
                if dot(weierstrass_point(m) - weierstrass_point(label), v).sign() > 0:
                    on_start_chord["ahead"] += 1
                else:
                    on_start_chord["behind"] += 1
                    j = len(crossings)
            half = tuple(map(sub, points[m], points[label]))
            whole = displaced = (0, 0, 0, 0)
            for k, move in enumerate(moves):
                half = tuple(c + crossings.count(k, 0, j) * d for c, d in zip(half, move))
                whole = tuple(c + crossings.count(k) * d for c, d in zip(whole, move))
                displaced = tuple(c + arc.count(k) * d for c, d in zip(displaced, move))
            assert tuple(2 * c for c in half) == whole == holonomy, (label, v)
            if twin is not None:
                doubled = tuple(2 * c + d for c, d in zip(displaced, flow_module._SHIFTS2[m, label]))
                assert doubled == holonomy, (label, v)
            assert len(walk) - 2 * j in (0, 1, 2), (label, v)
            assert len(crossings) + (m not in flow_module._ON_GLUED_EDGE) <= 2 * j + 2, (label, v)
    assert all(on_start_chord.values()), on_start_chord
    walked = _counting_walks(monkeypatch)
    for v in (HORIZONTAL, VERTICAL):
        walked.clear()
        report = oracle_report_direction(v)
        assert walked == [True] * 5
        assert report._holonomies == _holonomies(_traces(v))


def test_oracle_matches_per_midpoint_reference_around_the_cap():
    # For every word of length <= 4 and its mirror in y = x, the vertical
    # among them, at caps one below, at and one above each trajectory's
    # segment count, the oracle and the per-midpoint reference give equal
    # reports, the same verdicts and the same integer holonomies, half-walked
    # and whole, or raise the same error with the same message.
    words = [word_to_vector(w) for n in range(5) for w in product((0, 1, 2, 3), repeat=n)]
    for v in words + [GoldenVector(v.y, v.x) for v in words]:
        counts = {t.segment_count for t in _traces(v).values()}
        for cap in sorted({c + d for c in counts for d in (-1, 0, 1)}):
            outcomes = []
            for oracle in (oracle_report_direction, reference_oracle):
                try:
                    outcomes.append(oracle(v, cap))
                except (CapExceededError, StructuralViolationError) as error:
                    outcomes.append((type(error), str(error)))
            assert outcomes[0] == outcomes[1], (v, cap)


def test_oracle_vertical_direction():
    assert oracle_report_direction(VERTICAL).verdicts == {
        1: Classification.SADDLE_CONNECTION,
        2: Classification.LONG,
        3: Classification.LONG,
        4: Classification.SHORT,
        5: Classification.SHORT,
    }


def test_oracle_report_holonomy_ratio():
    # H_short and H_long from whole traces of a short and a long midpoint,
    # chosen by the permutation's verdicts, not by the oracle's.
    algebra = classify_all((2, 1))
    short, long = (trace(_first(algebra, c), (2, 1)).holonomy for c in (Classification.SHORT, Classification.LONG))
    assert long == short.scaled(PHI)
    rep = oracle_report((2, 1))
    assert (rep.short_holonomy, rep.long_holonomy) == (short, long)
    assert rep.saddle_label == 1


def test_cylinder_verdicts_on_label_holonomy_maps():
    # Horizontal (the empty word) and vertical: short cylinders phi, long ones phi^2, at scale 2.
    S, L, X = Classification.SHORT, Classification.LONG, Classification.SADDLE_CONNECTION
    horizontal = {1: (0, 2, 0, 0), 2: (0, 2, 0, 0), 3: (2, 2, 0, 0), 4: (2, 2, 0, 0), 5: None}
    vertical = {1: None, 2: (0, 0, 2, 2), 3: (0, 0, 2, 2), 4: (0, 0, 0, 2), 5: (0, 0, 0, 2)}
    assert flow_module._cylinder_verdicts(cleared(HORIZONTAL), horizontal) == {1: S, 2: S, 3: L, 4: L, 5: X}
    assert flow_module._cylinder_verdicts(cleared(VERTICAL), vertical) == {1: X, 2: L, 3: L, 4: S, 5: S}
    assert oracle_report(())._holonomies == _holonomies(_traces(HORIZONTAL)) == horizontal
    assert oracle_report_direction(VERTICAL)._holonomies == _holonomies(_traces(VERTICAL)) == vertical
    with pytest.raises(StructuralViolationError, match=r"^expected 4 closed orbits and 1 cone hit, got 3 and 2$"):
        flow_module._cylinder_verdicts(cleared(VERTICAL), {**vertical, 2: None})


def _verdicts_with_corrupt_holonomy(v, corrupt):
    """The cylinder checks in direction v on the holonomies of five whole
    traces after corrupt(label, holonomy, report), with the oracle's report,
    has replaced each closed one; it returns None to keep one."""
    report = oracle_report_direction(v)
    trajectories = _traces(v)
    holonomies = _holonomies(trajectories)
    for label, t in trajectories.items():
        h = corrupt(label, t.holonomy, report) if t.outcome is Outcome.CLOSED else None
        if h is not None:
            holonomies[label] = _int_point(h, 2)
    return flow_module._cylinder_verdicts(cleared(v), holonomies)


def _first(report, verdict):
    return min(label for label, v in report.verdicts.items() if v is verdict)


# Each corrupts closed trajectories' holonomies in direction (2, 1), or the
# vertical, whose pairs the check reads as (0, 0, 1, 0); the message it must
# raise. The last two keep every ratio between holonomies.
_HOLONOMY_CORRUPTIONS = {
    "off the direction": (
        (2, 1),
        lambda label, h, r: h + gv(1, 0, 0, 0) if label == _first(r, Classification.LONG) else None,
        "holonomy (5 + 6*phi, 3 + 5*phi) of midpoint 2 is neither phi*v nor phi^2*v "
        "for v = (2 + 2*phi, 1 + 2*phi)",
    ),
    "vertical, off the direction": (
        None,
        lambda label, h, r: h + gv(1, 0, 0, 0) if label == _first(r, Classification.SHORT) else None,
        "holonomy (1, phi) of midpoint 4 is neither phi*v nor phi^2*v for v = (0, 1)",
    ),
    "a third magnitude": (
        (2, 1),
        lambda label, h, r: h.scaled(2) if label == _first(r, Classification.SHORT) else None,
        "holonomy (4 + 8*phi, 4 + 6*phi) of midpoint 4 is neither phi*v nor phi^2*v "
        "for v = (2 + 2*phi, 1 + 2*phi)",
    ),
    "vertical, a third magnitude": (
        None,
        lambda label, h, r: h.scaled(2) if label == _first(r, Classification.SHORT) else None,
        "holonomy (0, 2*phi) of midpoint 4 is neither phi*v nor phi^2*v for v = (0, 1)",
    ),
    "a ratio other than phi": (
        (2, 1),
        lambda label, h, r: r.short_holonomy.scaled(2) if r.verdicts[label] is Classification.LONG else None,
        "holonomy (4 + 8*phi, 4 + 6*phi) of midpoint 2 is neither phi*v nor phi^2*v "
        "for v = (2 + 2*phi, 1 + 2*phi)",
    ),
    "a 3-1 split": (
        (2, 1),
        lambda label, h, r: r.short_holonomy if label == _first(r, Classification.LONG) else None,
        "holonomy magnitudes do not split two and two",
    ),
    "every closed holonomy doubled": (
        (2, 1),
        lambda label, h, r: h.scaled(2),
        "holonomy (8 + 12*phi, 6 + 10*phi) of midpoint 2 is neither phi*v nor phi^2*v "
        "for v = (2 + 2*phi, 1 + 2*phi)",
    ),
    "every closed holonomy times phi": (
        None,
        lambda label, h, r: h.scaled(PHI),
        "holonomy (0, 1 + 2*phi) of midpoint 2 is neither phi*v nor phi^2*v for v = (0, 1)",
    ),
}


@pytest.mark.parametrize("case", list(_HOLONOMY_CORRUPTIONS))
def test_oracle_rejects_each_holonomy_corruption(case):
    word, corrupt, message = _HOLONOMY_CORRUPTIONS[case]
    v = VERTICAL if word is None else word_to_vector(word)
    with pytest.raises(StructuralViolationError) as excinfo:
        _verdicts_with_corrupt_holonomy(v, corrupt)
    assert str(excinfo.value) == message

def _with_points(t, points, **changes):
    """A trajectory built from t's fields with `changes` applied whose `points` read as given."""
    changed = flow_module.Trajectory(*(changes.get(name, getattr(t, name)) for name in t.__slots__[:-1]))
    vars(changed)["points"] = points
    return changed


def _reversed(t):
    """t run backwards: reversed segments, negated direction and holonomy."""
    return _with_points(
        t,
        tuple((end, begin) for begin, end in reversed(t.points)),
        direction=-t.direction,
        _holonomy2=tuple(-c for c in t._holonomy2),
        # The table carries the direction's integer pairs, which validation reads.
        _table=(*t._table[:-1], tuple(-c for c in t._table[-1])),
    )


def test_trajectory_structure_forward_and_reversed():
    # Midpoints 1 and 5 lie on glued edges: their reversals begin at a glued twin of the start.
    for label, word in ((4, (2, 1)), (2, (2, 1)), (3, (1, 3, 2)), (5, (2, 1)), (1, (1, 3, 2))):
        t = trace(label, word)
        assert t.outcome is Outcome.CLOSED
        validate_trajectory_structure(t)
        validate_trajectory_structure(_reversed(t))


def test_trajectory_structure_forward_on_the_vertical():
    # v.x = 0 on the vertical, so a step runs forward when its y has v.y's
    # sign: the reversal passes, a reversed or zero-length step does not.
    traces = [trace_direction(label, VERTICAL) for label in WEIERSTRASS_LABELS]
    closed = [t for t in traces if t.outcome is Outcome.CLOSED]
    assert [t.start_label for t in closed] == [2, 3, 4, 5]
    for t in closed:
        validate_trajectory_structure(t)
        validate_trajectory_structure(_reversed(t))
        first, rest = t.points[0], t.points[1:]
        for broken in ((first[::-1],) + rest, ((first[0],) * 2,) + rest):
            with pytest.raises(StructuralViolationError, match="does not run forward"):
                validate_trajectory_structure(_with_points(t, broken))


def test_points_and_validation_build_no_golden_vector(monkeypatch):
    # Every word of length <= 3 and the vertical, all five midpoints: the
    # oracle's verdicts, tracing, replaying the points, validating them and
    # writing the JSON stay on integers, for closed and cone-hit orbits alike.
    # Each trace and each oracle report builds its direction's table once, not
    # once per walk, and no read of a report or a trajectory looks the
    # direction's table up again.
    def forbidden(*args):
        raise AssertionError(f"called with {args}")

    table = flow_module._direction_table
    calls = []

    def counted(pairs):
        calls.append(pairs)
        return table(pairs)

    directions = [word_to_vector(w) for n in range(4) for w in product((0, 1, 2, 3), repeat=n)]
    outcomes = set()
    for v in directions + [VERTICAL]:
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(flow_module, "_from_point", forbidden)
            m.setattr(flow_module, "_direction_table", counted)
            report = oracle_report_direction(v)
            assert len(report.verdicts) == 5 and calls == [cleared(v)], v
            traced = _traces(v)
            assert calls == [cleared(v)] * 6, v
            m.setattr(flow_module, "_direction_table", forbidden)
            assert report._holonomies == _holonomies(traced), v
            for t in traced.values():
                assert t.points, (v, t.start_label)
                validate_trajectory_structure(t)
                t.to_json_dict()
                outcomes.add(t.outcome)
        with monkeypatch.context() as m:
            m.setattr(flow_module, "_direction_table", forbidden)
            for t in traced.values():
                golden_l_svg(t)
                billiard_path(t)
                if t.outcome is Outcome.CLOSED:
                    transported_side_events(t)
    assert outcomes == {Outcome.CLOSED, Outcome.HIT_CONE_POINT}


def test_json_text_is_the_fraction_text():
    # Every word of length <= 3 at all five midpoints, both axes and one
    # reversal, whose holonomy has negative numerators: each coordinate and
    # the holonomy print from integers as their Fractions print.
    words = [w for n in range(4) for w in product((0, 1, 2, 3), repeat=n)]
    traces = [trace(label, w) for w in words for label in WEIERSTRASS_LABELS]
    traces += [trace_direction(label, v) for v in (HORIZONTAL, VERTICAL) for label in WEIERSTRASS_LABELS]
    traces.append(_reversed(trace(4, (2, 1))))
    assert min(traces[-1]._holonomy2) < 0
    for t in traces:
        got = t.to_json_dict()
        assert got["holonomy"] == t.holonomy.quadruple(), t
        fractions = [[Fraction(a, t.scale) for a in p] for segment in t.points for p in segment]
        text = [[f"{q.numerator}/{q.denominator}" for q in point] for point in fractions]
        assert [p for segment in got["segments"] for p in (segment["from"], segment["to"])] == text, t


def test_start_twins_follow_the_canonicalize_rule():
    # A midpoint's twins at scale 2 are exactly the points of the L that
    # canonicalise to it: the start itself, or a translate by a gluing.
    for label, start in GOLDEN_L.weierstrass.items():
        shifted = (start + ident.translation for ident in GOLDEN_L.identifications)
        twins = [start] + [p for p in shifted if point_in_surface(p) and canonicalize(p) == start]
        assert flow_module._TWINS2[label] == {_int_point(p, 2) for p in twins}, label
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
        lambda t: _with_points(t, t.points, _cone=1),
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
    # A negative cap is an input error, as on the command line, before any drawing or report.
    for call in (
        lambda: trace(5, (), cap=-1),
        lambda: render_trajectory((), 5, cap=-1),
        lambda: oracle_report((2, 1), cap=-1),
    ):
        with pytest.raises(ValueError, match=r"^cap must be nonnegative, got -1$"):
            call()
    # So is a cap that is not an int, a bool or a float among them.
    for cap, shown in ((True, "True"), (2.0, r"2\.0")):
        for call in (lambda: trace(4, (2, 1), cap=cap), lambda: oracle_report((2, 1), cap=cap)):
            with pytest.raises(ValueError, match=rf"^cap must be an int, got {shown}$"):
                call()


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="this Python has no int digits limit")
def test_cap_error_past_the_int_digits_limit():
    # A 10,000-letter word's coefficients run past the 4,300 digits Python
    # converts by default; the library's message prints them and raises the
    # cap error, and the caller's limit is the same afterwards.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        with pytest.raises(CapExceededError) as excinfo:
            trace(4, parse_word("1302" * 2500), cap=5)
        assert sys.get_int_max_str_digits() == sys.int_info.default_max_str_digits
    finally:
        sys.set_int_max_str_digits(limit)
    message = str(excinfo.value)
    assert message.startswith("trajectory did not terminate: midpoint 4, direction (") and "after 5 steps" in message
    assert max(map(len, re.findall(r"\d+", message))) > sys.int_info.default_max_str_digits


def test_trace_that_leaves_the_l_is_a_structural_violation(monkeypatch):
    # Corners moved far above every chord send each one out through wall b,
    # so the walk takes a wrong wall and the trace leaves the L after its
    # first step.
    monkeypatch.setattr(flow_module, "_direction_table", corners_above_every_chord)
    with pytest.raises(StructuralViolationError) as excinfo:
        trace_direction(1, word_to_vector((1,)), cap=1000)
    message = str(excinfo.value)
    assert "midpoint 1" in message and "1000 steps" in message
    assert str(word_to_vector((1,))) in message


def test_oracle_that_leaves_the_l_is_a_structural_violation(monkeypatch):
    # The corrupted corners of the trace test above, under the oracle: its
    # walk from midpoint 1 runs to the cap out through wall b, the same as
    # the trace's, and _finish finds it outside the L.
    monkeypatch.setattr(flow_module, "_direction_table", corners_above_every_chord)
    with pytest.raises(StructuralViolationError) as excinfo:
        oracle_report((1,), cap=1000)
    assert str(excinfo.value) == (
        "trajectory left the golden L: midpoint 1, direction (phi, 1), after 1000 steps at (0, 1/2 + 1001*phi)"
    )


def _same_report(u, want):
    """Whether the oracle in direction u gives the verdicts and holonomies of the report `want`."""
    got = oracle_report_direction(u)
    return (got.verdicts, got._holonomies) == (want.verdicts, want._holonomies)


def test_trace_direction_scales_with_input():
    # The same direction at a different scale must produce the same orbit,
    # and the oracle the same verdicts and holonomies: it walks the ray as
    # given and checks the holonomies against the vector of the ray's word,
    # or the vertical's pairs (0, 0, 1, 0).
    v = word_to_vector((2, 1))
    doubled = v.scaled(Fraction(7, 3))
    a = trace_direction(4, v)
    b = trace_direction(4, doubled)
    assert a.segments == b.segments
    assert a.holonomy == b.holonomy
    for v, u in ((v, doubled), (VERTICAL, VERTICAL.scaled(2))):
        assert _same_report(u, oracle_report_direction(v)), u


def test_walk_is_invariant_under_unit_scaling():
    # Scaling a direction by a unit phi**k keeps every orbit, but for k < 0
    # the chords' h get coefficients far larger than their value, so the
    # kernel's inline sign tests mostly take the mixed-sign branch, close
    # calls included. Every word of length <= 3, at k = -12..12, traced and
    # through the oracle.
    inverse_phi = PHI - 1
    for word in (w for n in range(4) for w in product((0, 1, 2, 3), repeat=n)):
        v = word_to_vector(word)
        want = {label: trace_direction(label, v) for label in WEIERSTRASS_LABELS}
        report = oracle_report_direction(v)
        for factor in (PHI, inverse_phi):
            u = v
            for _ in range(12):
                u = u.scaled(factor)
                for label, t in want.items():
                    got = trace_direction(label, u)
                    assert (got.walk, got.outcome, got.holonomy) == (t.walk, t.outcome, t.holonomy), (word, u, label)
                assert _same_report(u, report), (word, u)


def test_each_oracle_holonomy_is_its_whole_trace_at_scaled_directions():
    # The twin rule: the oracle's walk stops at another midpoint only on that
    # midpoint's own chord, both parts of its h equal. Scaling a direction by
    # phi**k or by 2 changes its pairs, and so every h, but no orbit. For every
    # word of length <= 4, as given and scaled by phi, phi^2, phi^3 and 2, each
    # midpoint's holonomy in the oracle's report is its whole trace's, and it
    # has none exactly when its trace hits the cone point.
    for word in (w for n in range(5) for w in product((0, 1, 2, 3), repeat=n)):
        v = word_to_vector(word)
        for u in (v, v.scaled(PHI), v.scaled(PHI * PHI), v.scaled(PHI * PHI * PHI), v.scaled(2)):
            holonomies = oracle_report_direction(u)._holonomies
            for label, t in _traces(u).items():
                cone = t.outcome is Outcome.HIT_CONE_POINT
                assert holonomies[label] == (None if cone else t._holonomy2), (word, u, label)


def _unit_scaled(pairs, k):
    """Integer pairs (xa, xb, ya, yb) times phi**k: phi takes a + b*phi to
    b + (a + b)*phi, and 1/phi = phi - 1 takes it to (b - a) + a*phi."""
    xa, xb, ya, yb = pairs
    for _ in range(abs(k)):
        xa, xb, ya, yb = (xb, xa + xb, yb, ya + yb) if k > 0 else (xb - xa, xa, yb - ya, ya)
    return xa, xb, ya, yb


def test_oracle_agrees_with_whole_traces_where_midpoint_chords_share_a_first_part():
    # A chord's h is (p, b) for p + b*sqrt(5); the kernel tests p against the
    # first parts of the midpoints' chords before the whole pair. The search:
    # every word of length <= 6 with no leading 0 at phi**k, k = -4..4, for a
    # frame in which two midpoint chords share p but differ in b. It finds 246
    # such frames, all at k = -4..-2, where the pairs' coefficients grow past
    # their value; the shortest word is 1, at phi**-3 and phi**-2, where its
    # pairs are (-1, 1, 2, -1) and midpoints 1 and 3 have (-3, 3) and (-3, 1).
    # In each, the oracle's holonomies and verdicts are those of whole traces.
    found = []
    for word in (w for n in range(7) for w in product((0, 1, 2, 3), repeat=n) if w[:1] != (0,)):
        for k in range(-4, 5):
            pairs = _unit_scaled(_pairs(word), k)
            _, _, _, starts, near, _, _ = flow_module._direction_table(pairs)
            if len(near) < len({h for h, _ in starts.values()}):
                found.append((word, k, pairs))
    assert len(found) == 246 and {k for _, k, _ in found} == {-4, -3, -2}
    assert found[:2] == [((1,), -3, (2, -1, -3, 2)), ((1,), -2, (-1, 1, 2, -1))]
    starts = flow_module._direction_table(found[1][2])[3]
    assert (starts[1][0], starts[3][0]) == ((-3, 3), (-3, 1))
    for word, k, pairs in found:
        u = gv(*pairs)
        report = oracle_report_direction(u)
        assert report._holonomies == _holonomies(_traces(u)), (word, k)
        assert report.verdicts == classify_all(word).verdicts, (word, k)


def test_oracle_sends_any_other_tally_to_the_cylinder_check(monkeypatch):
    # The oracle's verdicts come from _cylinder_verdicts, which raises on
    # anything but one saddle, two short and two long. Checked against another
    # word's vector, no closed holonomy is either closed form. A kernel that
    # loses its cone hit closes every walk, and no midpoint is a saddle.
    with pytest.raises(StructuralViolationError) as excinfo:
        flow_module._oracle(_pairs((2, 1)), _pairs((1, 2)), DEFAULT_STEP_CAP)
    assert str(excinfo.value) == (
        "holonomy (4 + 6*phi, 3 + 5*phi) of midpoint 2 is neither phi*v nor phi^2*v for v = (2 + phi, 1 + 2*phi)"
    )
    run = flow_module._run

    def no_cone(table, h, look, cap):
        walk, last, _, twin = run(table, h, look, cap)
        return walk, last, None, twin

    monkeypatch.setattr(flow_module, "_run", no_cone)
    for word in ((1,), (2, 1), (1, 3, 2), (0, 3, 1, 2)):
        with pytest.raises(StructuralViolationError, match=r"^expected 4 closed orbits and 1 cone hit, got 5 and 0$"):
            oracle_report(word)


def test_every_report_makes_exactly_one_cylinder_check(monkeypatch):
    # _cylinder_verdicts is the one rule from holonomy to verdict: each report
    # calls it once, on its own holonomies in label order, and keeps what it returns.
    calls = []
    check = flow_module._cylinder_verdicts

    def recorded(pairs, holonomies):
        calls.append((list(holonomies.items()), check(pairs, holonomies)))
        return calls[-1][1]

    monkeypatch.setattr(flow_module, "_cylinder_verdicts", recorded)
    words = [w for n in range(4) for w in product((0, 1, 2, 3), repeat=n)]
    runs = [(oracle_report, w) for w in words] + [(oracle_report_direction, v) for v in (HORIZONTAL, VERTICAL)]
    for oracle, arg in runs:
        calls.clear()
        report = oracle(arg)
        assert len(calls) == 1, arg
        holonomies, verdicts = calls[0]
        assert holonomies == list(report._holonomies.items()) and [l for l, _ in holonomies] == [1, 2, 3, 4, 5], arg
        assert verdicts is report.verdicts, arg


def test_direction_table_equals_point_by_point_reference():
    # The frame's h are one integer linear map of the direction's pairs; the
    # reference takes golden_mul at each fixed point, makes each an offset
    # from the middle corner and gathers the look data midpoint by midpoint.
    # Every word of length <= 5, seeded words of lengths 6-12, both axes, and
    # the words of length <= 3 and the axes scaled by phi**k for k = -8..8.
    # The frame equals the reference: the middle corner, the outer corners'
    # offsets, the steps, the chords' offsets and edge runs, and the look
    # data, which are the first parts of the five offsets and each offset of a
    # midpoint that is no edge run to the lowest such label on it. The frame
    # carries v cleared, and the point scale and replay rows are set up from it.
    rng = random.Random(20261019)
    words = [w for n in range(6) for w in product((0, 1, 2, 3), repeat=n)]
    words += [tuple(rng.randrange(4) for _ in range(n)) for n in range(6, 13) for _ in range(8)]
    directions = [word_to_vector(w) for w in words] + [HORIZONTAL, VERTICAL]
    for v in directions[:85] + [HORIZONTAL, VERTICAL]:
        for factor in (PHI, PHI - 1):
            u = v
            for _ in range(8):
                u = u.scaled(factor)
                directions.append(u)
    for v in directions:
        table = flow_module._direction_table(cleared(v))
        want_table, (want_scale, want_rows) = reference_direction_table(v)
        assert table == want_table, v
        _, _, _, starts, near, twins, pairs = table
        assert near == {h[0] for h, _ in starts.values()}, v
        runs = {h for h, edge_run in starts.values() if edge_run is None}
        assert twins == {h: min(l for l, g in starts.items() if g == (h, None)) for h in runs}, v
        assert pairs == cleared(v), v
        scale, rows = flow_module._replay_table(pairs)
        assert scale == want_scale, v
        assert rows == want_rows, v


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
