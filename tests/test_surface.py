"""Geometry tables of the golden L: gluings, marked points, shears, sectors."""

from fractions import Fraction

import pytest

from goldenl import (
    Axis,
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
    classify,
    pentagon_transfer,
    render_trajectory,
    sector_of,
    sigma,
    surface_description,
    tau,
    trace,
    weierstrass_point,
)
from goldenl.surface import CONE_POINTS, MIDPOINT_CYCLE, WEIERSTRASS_LABELS
from words_reference import SIGMA_INVERSE


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


@pytest.mark.parametrize("label", [0, 6, 1.0, True, Fraction(1)], ids=repr)
def test_midpoint_label_is_checked_once_and_must_be_an_int(label):
    # 1.0, True and Fraction(1) equal label 1 without being one; every entry
    # point rejects them, as it rejects 0 and 6, through weierstrass_point.
    for call in (
        lambda: weierstrass_point(label),
        lambda: classify((2, 1), label),
        lambda: trace(label, (2, 1)),
        lambda: render_trajectory((2, 1), label),
    ):
        with pytest.raises(ValueError, match=r"^midpoint label must be 1\.\.5, got "):
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
    with pytest.raises(ValueError):
        sigma(4)


def test_sigma_columns_sit_on_their_sector_boundaries():
    # Column slopes of sigma_k are the two boundary slopes of cone k, and
    # boundaries belong to the higher sector.
    for k in range(4):
        (a, b), (c, d) = golden_rows(SIGMA[k])
        assert sector_of(GoldenVector(a, c)) == (Axis.HORIZONTAL if k == 0 else k)
        assert sector_of(GoldenVector(b, d)) == (Axis.VERTICAL if k == 3 else k + 1)


def test_tau_cycle_structure():
    assert tau(0).cycle_string() == "(1 2)(3 4)"
    assert tau(1).cycle_string() == "(1 3)(2 5)"
    assert tau(2).cycle_string() == "(1 4)(3 5)"
    assert tau(3).cycle_string() == "(2 3)(4 5)"
    for k in range(4):
        assert TAU[k] * TAU[k] == Permutation5.identity()
        assert TAU[k].inverse() == TAU[k]
    with pytest.raises(ValueError):
        tau(-1)


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
    with pytest.raises(ValueError):
        Permutation5((1, 1, 2, 3, 4))
    p = Permutation5.identity()
    # Stored as a tuple, however the images come in, so it hashes.
    listed = Permutation5([2, 1, 3, 4, 5])
    assert listed.images == (2, 1, 3, 4, 5)
    assert listed == Permutation5((2, 1, 3, 4, 5)) and hash(listed) == hash(Permutation5((2, 1, 3, 4, 5)))
    assert {listed, p} == {p, Permutation5((2, 1, 3, 4, 5))}
    assert p.cycle_string() == "()"
    assert p(3) == 3
    with pytest.raises(ValueError):
        p(0)


def test_vertical_relabeling_is_the_diagonal_flip():
    assert VERTICAL_RELABELING.images == (5, 4, 3, 2, 1)
    assert VERTICAL_RELABELING * VERTICAL_RELABELING == Permutation5.identity()


def test_sector_of_interior_directions():
    assert sector_of(GoldenVector(GoldenNumber(2), ONE)) == 0         # slope 1/2
    assert sector_of(GoldenVector(GoldenNumber(5), GoldenNumber(4))) == 1
    assert sector_of(GoldenVector(GoldenNumber(5), GoldenNumber(6))) == 2
    assert sector_of(GoldenVector(ONE, GoldenNumber(9))) == 3


def test_sector_boundaries_go_up():
    # Slopes exactly on a cone boundary belong to the higher sector.
    assert sector_of(GoldenVector(PHI, ONE)) == 1          # slope 1/phi
    assert sector_of(GoldenVector(ONE, ONE)) == 2          # slope 1
    assert sector_of(GoldenVector(ONE, PHI)) == 3          # slope phi
    assert sector_of(GoldenVector(ONE, ZERO)) is Axis.HORIZONTAL
    assert sector_of(GoldenVector(ZERO, ONE)) is Axis.VERTICAL


def test_sector_of_rejects_bad_input():
    with pytest.raises(ValueError):
        sector_of(GoldenVector(ZERO, ZERO))
    with pytest.raises(ValueError):
        sector_of(GoldenVector(-PHI, ONE))
    with pytest.raises(ValueError):
        sector_of(GoldenVector(ONE, GoldenNumber(-1)))


def test_pentagon_transfer_values():
    transfer = pentagon_transfer()
    (p00, p01), (p10, p11) = transfer.matrix
    assert p00 == 1.0 and p10 == 0.0
    assert abs(p01 - 0.8090169943749475) < 1e-12
    assert abs(p11 - 0.5877852522924731) < 1e-12
    # The worked direction of the word 21: P * (2 + 2 phi, 1 + 2 phi).
    x, y = GoldenNumber(2, 2).to_float(), GoldenNumber(1, 2).to_float()
    px, py = p00 * x + p01 * y, p10 * x + p11 * y
    assert abs(px - 8.66) < 0.01
    assert abs(py - 2.49) < 0.01


def test_surface_description_shape():
    desc = surface_description()
    assert len(desc["vertices"]) == 8
    assert len(desc["identifications"]) == 4
    assert sorted(desc["weierstrass_points"]) == ["1", "2", "3", "4", "5"]
    assert len(desc["inscribed_pentagon"]) == 5
    assert desc["identifications"][0]["name"] == "a"
