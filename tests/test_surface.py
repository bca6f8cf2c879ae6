"""Geometry tables of the golden L: gluings, marked points, shears, and the cones the peel reads."""

import random
import re
from fractions import Fraction
from itertools import product

import pytest

from goldenl import (
    GOLDEN_L,
    GoldenNumber,
    GoldenVector,
    ONE,
    PHI,
    PHI_INVERSE,
    PHI_SQUARED,
    Permutation5,
    SIGMA,
    TAU,
    VERTICAL_RELABELING,
    ZERO,
    VerticalDirectionError,
    classify,
    render_trajectory,
    sigma,
    surface_description,
    tau,
    trace,
    vector_to_word,
    weierstrass_point,
)
from goldenl.field import golden_mul, golden_sign
from goldenl.surface import CONE_POINTS, MIDPOINT_CYCLE, WEIERSTRASS_LABELS
from goldenl.words import _pairs, _peel
from words_reference import _SECTOR_BOUNDS, SIGMA_INVERSE, sector_of_pairs


def test_vertex_count_and_cone_class():
    assert len(GOLDEN_L.vertices) == 8
    assert CONE_POINTS == frozenset(GOLDEN_L.vertices)
    assert GOLDEN_L.cone_representatives == GOLDEN_L.vertices


def test_identifications_are_parallel_translations():
    assert [i.name for i in GOLDEN_L.identifications] == ["a", "b", "c", "d"]
    for ident in GOLDEN_L.identifications:
        s0, s1 = ident.source
        t0, t1 = ident.target
        assert t0 - s0 == ident.translation
        assert t1 - s1 == ident.translation
        assert (s1 - s0) == (t1 - t0)  # equal length and direction
        # Sources sit on the left/bottom boundary, targets on right/top.
        assert s0.x.is_zero or s0.y.is_zero


def test_identification_endpoints_are_cone_points():
    for ident in GOLDEN_L.identifications:
        for p in (*ident.source, *ident.target):
            assert p in CONE_POINTS


def test_weierstrass_points_are_inscribed_pentagon_midpoints():
    ring = GOLDEN_L.inscribed_pentagon
    assert len(ring) == 5
    midpoints = set()
    for i in range(5):
        a, b = ring[i], ring[(i + 1) % 5]
        midpoints.add((a + b).scaled(Fraction(1, 2)))
    assert midpoints == set(GOLDEN_L.weierstrass.values())


def test_inscribed_pentagon_vertices_are_cone_points():
    for v in GOLDEN_L.inscribed_pentagon:
        assert v in CONE_POINTS


def test_weierstrass_lookup():
    assert weierstrass_point(5) == GoldenVector(GoldenNumber(Fraction(1, 2), 1), ZERO)
    assert weierstrass_point(1) == GoldenVector(ZERO, GoldenNumber(Fraction(1, 2), 1))
    with pytest.raises(ValueError):
        weierstrass_point(0)
    with pytest.raises(ValueError):
        weierstrass_point(6)


@pytest.mark.parametrize("label", [0, 6, 1.0, True, Fraction(1), "1"], ids=repr)
def test_midpoint_label_is_checked_once_and_must_be_an_int(label):
    # 1.0, True and Fraction(1) equal label 1 without being one; every entry
    # point rejects them, as it rejects 0 and 6, through weierstrass_point.
    # The message shows the value as passed, so "1" does not read as label 1.
    for call in (
        lambda: weierstrass_point(label),
        lambda: classify((2, 1), label),
        lambda: trace(label, (2, 1)),
        lambda: render_trajectory((2, 1), label),
    ):
        with pytest.raises(ValueError, match=rf"^midpoint label must be 1\.\.5, got {re.escape(repr(label))}$"):
            call()


def golden_rows(m):
    """An integer-row matrix with each (p, q) entry as the GoldenNumber p + q*phi."""
    return tuple(tuple(GoldenNumber(*entry) for entry in row) for row in m)


def test_sigma_tables():
    assert golden_rows(sigma(0)) == ((ONE, PHI), (ZERO, ONE))
    assert golden_rows(sigma(1)) == ((PHI, PHI), (ONE, PHI))
    assert golden_rows(sigma(2)) == ((PHI, ONE), (PHI, PHI))
    assert golden_rows(sigma(3)) == ((ONE, ZERO), (PHI, ONE))
    for k in range(4):
        (a, b), (c, d) = golden_rows(SIGMA[k])
        (ia, ib), (ic, id_) = golden_rows(SIGMA_INVERSE[k])
        assert a * d - b * c == ONE
        assert (a * ia + b * ic, a * ib + b * id_, c * ia + d * ic, c * ib + d * id_) == (ONE, ZERO, ZERO, ONE)
    # Indices are ints: True and 1.0 equal 1 without being one.
    for bad in (4, -1, True, 1.0, "1"):
        with pytest.raises(ValueError, match=rf"^generator index must be 0\.\.3, got {re.escape(repr(bad))}$"):
            sigma(bad)


def cone(v):
    """v's cone as the peel reads it: (k,) for cone k, its first letter and the
    word's last, and () for the horizontal, which lies in no cone."""
    return vector_to_word(v)[-1:]


def test_sigma_columns_sit_on_their_sector_boundaries():
    # Column slopes of sigma_k are the two boundary slopes of cone k, and
    # boundaries belong to the higher sector. The vertical has no word.
    for k in range(4):
        (a, b), (c, d) = golden_rows(SIGMA[k])
        assert cone(GoldenVector(a, c)) == ((k,) if k else ())
        if k == 3:
            with pytest.raises(VerticalDirectionError):
                cone(GoldenVector(b, d))
        else:
            assert cone(GoldenVector(b, d)) == (k + 1,)


def test_tau_cycle_structure():
    assert tau(0).cycle_string() == "(1 2)(3 4)"
    assert tau(1).cycle_string() == "(1 3)(2 5)"
    assert tau(2).cycle_string() == "(1 4)(3 5)"
    assert tau(3).cycle_string() == "(2 3)(4 5)"
    for k in range(4):
        assert TAU[k] * TAU[k] == Permutation5.identity()
        assert TAU[k].inverse() == TAU[k]
    for bad in (-1, 4, True, 2.0, "1"):
        with pytest.raises(ValueError, match=rf"^generator index must be 0\.\.3, got {re.escape(repr(bad))}$"):
            tau(bad)


def test_tau_is_the_reflection_of_the_midpoint_cycle():
    # tau_k(x) = 2k - x (mod 5) on the cyclic positions of the pentagon's side midpoints.
    assert sorted(MIDPOINT_CYCLE) == list(WEIERSTRASS_LABELS)
    for k in range(4):
        for c, label in enumerate(MIDPOINT_CYCLE):
            assert TAU[k](label) == MIDPOINT_CYCLE[(2 * k - c) % 5], (k, label)


def test_permutation_composition_right_factor_first():
    # (tau_2 * tau_1)(j) applies tau_1 first: the word "21" permutation.
    composed = TAU[2] * TAU[1]
    assert composed.images == (5, 3, 4, 1, 2)
    assert composed.cycle_string() == "(1 5 2 3 4)"


def test_permutation_validity_and_calls():
    for bad in ((1, 1, 2, 3, 4), (True, 2, 3, 4, 5), (1.0, 2, 3, 4, 5)):
        with pytest.raises(ValueError, match="not a permutation of 1..5"):
            Permutation5(bad)
    with pytest.raises(ValueError, match=r"^not a permutation of 1\.\.5: \(1, 1, 2, 3, 4\)$"):
        Permutation5([1, 1, 2, 3, 4])
    p = Permutation5.identity()
    # Stored as a tuple, however the images come in, so it hashes; they are read once.
    for given in ([2, 1, 3, 4, 5], iter((2, 1, 3, 4, 5))):
        listed = Permutation5(given)
        assert listed.images == (2, 1, 3, 4, 5)
        assert listed == Permutation5((2, 1, 3, 4, 5)) and hash(listed) == hash(Permutation5((2, 1, 3, 4, 5)))
        assert {listed, p} == {p, Permutation5((2, 1, 3, 4, 5))}
    assert p.cycle_string() == "()"
    assert p(3) == 3
    for bad in (0, True, 1.0, "1"):
        with pytest.raises(ValueError, match=rf"^label must be 1\.\.5, got {re.escape(repr(bad))}$"):
            p(bad)
    # Composition takes permutations alone, on either side.
    for foreign in (2, (1, 2, 3, 4, 5)):
        with pytest.raises(TypeError):
            TAU[0] * foreign
        with pytest.raises(TypeError):
            foreign * TAU[0]


def test_vertical_relabeling_is_the_diagonal_flip():
    assert VERTICAL_RELABELING.images == (5, 4, 3, 2, 1)
    assert VERTICAL_RELABELING * VERTICAL_RELABELING == Permutation5.identity()


def test_peel_cone_of_interior_directions():
    assert cone(GoldenVector(GoldenNumber(2), ONE)) == (0,)         # slope 1/2
    assert cone(GoldenVector(GoldenNumber(5), GoldenNumber(4))) == (1,)
    assert cone(GoldenVector(GoldenNumber(5), GoldenNumber(6))) == (2,)
    assert cone(GoldenVector(ONE, GoldenNumber(9))) == (3,)


def test_sector_boundaries_go_up():
    # Slopes exactly on a cone boundary belong to the higher sector.
    assert cone(GoldenVector(PHI, ONE)) == (1,)          # slope 1/phi
    assert cone(GoldenVector(ONE, ONE)) == (2,)          # slope 1
    assert cone(GoldenVector(ONE, PHI)) == (3,)          # slope phi
    assert vector_to_word(GoldenVector(ONE, ZERO)) == ()
    with pytest.raises(VerticalDirectionError):
        vector_to_word(GoldenVector(ZERO, ONE))


def test_peel_rejects_bad_input():
    # Zero, and each coordinate out of the quadrant.
    with pytest.raises(ValueError, match="^zero vector has no direction$"):
        vector_to_word(GoldenVector(ZERO, ZERO))
    with pytest.raises(ValueError, match="^direction must lie in the closed first quadrant"):
        vector_to_word(GoldenVector(-PHI, ONE))
    with pytest.raises(ValueError, match="^direction must lie in the closed first quadrant"):
        vector_to_word(GoldenVector(ONE, GoldenNumber(-1)))


def test_pair_cone_matches_golden_sign_statement():
    # The inline sign rule against golden_sign on the same three tests (the
    # reference's sector bounds). Test k is y - bound_k * x >= 0: test 2 runs
    # first, then test 3 on cones 2-3 or test 1 on cones 0-1. Each test gets,
    # where it runs, every sign mix of 2(a + b*phi) = p + b*sqrt(5), values a
    # unit phi**-n off its boundary (p**2 close to 5*b**2), and exact ties:
    # slope bound_k times multipliers with mixed-sign coefficients.
    rng = random.Random(20261019)
    directions = []

    def positive():
        while True:
            x = (rng.randint(-60, 60), rng.randint(-60, 60))
            if golden_sign(*x) > 0:
                return x

    def add(x, t, k):
        # The direction (x, bound_k * x + t), if y > 0 and test k runs on it.
        ba, bb = golden_mul(*_SECTOR_BOUNDS[k], *x)
        v = (*x, ba + t[0], bb + t[1])
        if golden_sign(v[2], v[3]) > 0 and (k == 2 or (sector_of_pairs(v) >= 2) == (k == 3)):
            directions.append(v)
            return True
        return False

    near = [(1, 0)]  # phi**-n = (-1)**n (F(n+1) - F(n)*phi)
    for _ in range(40):
        a, b = near[-1]
        near.append((b - a, a))
    for k in (3, 2, 1):
        for sp, sb in product((-1, 0, 1), repeat=2):
            hits = 0
            while hits < 40:
                p, b = sp * rng.randint(1, 80), sb * rng.randint(1, 80)
                if (p - b) % 2 == 0:
                    hits += add(positive(), ((p - b) // 2, b), k)
        for n, (a, b) in enumerate(near):
            for t in ((a, b), (-a, -b)):
                # Past n = 8, x times phi**(8 - n) puts the direction about phi**-8 off the bound.
                x = positive()
                add(golden_mul(*x, *golden_mul(13, 21, a, b)) if n > 8 else x, t, k)
        for m in ((1, 0), (0, 1), (-1, 1), (2, -1), (-3, 2), (5, -3), (-8, 5), (89, -55), positive()):
            assert add(m, (0, 0), k), (k, m)
    for _ in range(4000):
        v = tuple(rng.randint(-99, 99) for _ in range(4))
        if golden_sign(v[0], v[1]) > 0 and golden_sign(v[2], v[3]) > 0:
            directions.append(v)
    for v in directions:
        word = _peel(*v, 100_000)
        assert word[-1] == sector_of_pairs(v), v
        xa, xb, ya, yb = _pairs(word)
        assert golden_mul(xa, xb, *v[2:]) == golden_mul(ya, yb, *v[:2]), v


def test_surface_description_shape():
    desc = surface_description()
    assert len(desc["vertices"]) == 8
    assert len(desc["identifications"]) == 4
    assert sorted(desc["weierstrass_points"]) == ["1", "2", "3", "4", "5"]
    assert len(desc["inscribed_pentagon"]) == 5
    assert desc["identifications"][0]["name"] == "a"
