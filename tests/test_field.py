"""Exact Q[phi] arithmetic: ring axioms, signs, and the float-free order."""

import random
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest

from goldenl import (
    GoldenNumber,
    GoldenVector,
    ONE,
    PHI,
    PHI_INVERSE,
    PHI_SQUARED,
    SIGMA,
    ZERO,
)
from goldenl.field import golden_mul
from words_reference import SIGMA_INVERSE


def test_phi_squared_identity():
    assert PHI * PHI == PHI_SQUARED
    assert PHI_SQUARED == PHI + 1


def test_phi_inverse():
    assert PHI * PHI_INVERSE == ONE
    assert PHI.inverse() == PHI_INVERSE


def test_product_worked_example():
    # (1 + 2 phi)(3 + phi) = 3 + 7 phi + 2 phi^2 = 5 + 9 phi
    assert GoldenNumber(1, 2) * GoldenNumber(3, 1) == GoldenNumber(5, 9)


def test_conjugate_and_norm():
    x = GoldenNumber(3, 2)
    assert x.conjugate() == GoldenNumber(5, -2)
    assert x.norm() == Fraction(11)
    assert x * x.conjugate() == GoldenNumber(11, 0)
    assert ZERO.norm() == 0


def test_norm_zero_only_at_zero():
    # a^2 + ab - b^2 = 0 has no rational solution besides (0, 0).
    rng = random.Random(5)
    for _ in range(200):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        x = GoldenNumber(a, b)
        assert (x.norm() == 0) == x.is_zero


def test_inverse_round_trip():
    rng = random.Random(11)
    for _ in range(100):
        x = GoldenNumber(rng.randint(-30, 30), rng.randint(-30, 30))
        if x.is_zero:
            continue
        assert x * x.inverse() == ONE
        assert x.inverse().inverse() == x


def test_zero_inverse_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_division():
    assert (PHI_SQUARED / PHI) == PHI
    assert (1 / PHI) == PHI_INVERSE


def test_ring_axioms_random():
    rng = random.Random(23)

    def rand():
        return GoldenNumber(
            Fraction(rng.randint(-20, 20), rng.randint(1, 7)),
            Fraction(rng.randint(-20, 20), rng.randint(1, 7)),
        )

    for _ in range(100):
        x, y, z = rand(), rand(), rand()
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x - x == ZERO


def test_sign_fixed_cases():
    assert ZERO.sign() == 0
    assert PHI.sign() == 1
    assert (-PHI).sign() == -1
    assert GoldenNumber(1, -1).sign() == -1   # 1 - phi < 0
    assert GoldenNumber(-1, 1).sign() == 1    # phi - 1 > 0
    assert GoldenNumber(2, -1).sign() == 1    # 2 - phi > 0
    assert GoldenNumber(-2, 1).sign() == -1   # phi - 2 < 0
    assert GoldenNumber(Fraction(-1, 2), Fraction(1, 3)).sign() == 1


def test_sign_against_high_precision_decimal():
    getcontext().prec = 50
    sqrt5 = Decimal(5).sqrt()
    rng = random.Random(101)
    for _ in range(10_000):
        a = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 1000))
        b = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 1000))
        x = GoldenNumber(a, b)
        p = 2 * a + b
        doubled = (
            Decimal(p.numerator) / Decimal(p.denominator)
            + Decimal(b.numerator) / Decimal(b.denominator) * sqrt5
        )
        expected = 0 if doubled == 0 else (1 if doubled > 0 else -1)
        assert x.sign() == expected, (a, b)


def test_total_order():
    assert ZERO < PHI_INVERSE < ONE < PHI < PHI_SQUARED
    assert PHI <= PHI
    assert PHI > 1
    assert GoldenNumber(2, 0) >= 2


def test_equality_and_hash_coercion():
    assert GoldenNumber(2, 0) == 2
    assert GoldenNumber(Fraction(1, 2), 0) == Fraction(1, 2)
    assert GoldenNumber(1, 1) != GoldenNumber(1, 0)
    assert hash(GoldenNumber(3, 4)) == hash(GoldenNumber(Fraction(3), Fraction(4)))


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        GoldenNumber(0.5, 0)


def test_to_float():
    assert abs(PHI.to_float() - 1.618033988749895) < 1e-12
    assert abs(float(GoldenNumber(3, 2)) - (3 + 2 * 1.618033988749895)) < 1e-12


def test_string_forms():
    assert str(GoldenNumber(3, 2)) == "3 + 2*phi"
    assert str(GoldenNumber(0, -1)) == "-phi"
    assert str(GoldenNumber(2, -1)) == "2 - phi"
    assert str(GoldenNumber(5, 0)) == "5"
    assert GoldenNumber(Fraction(1, 2), 2).serialize() == "1/2 + 2/1*phi"


def test_json_round_trip():
    x = GoldenNumber(Fraction(-3, 4), Fraction(7, 2))
    assert GoldenNumber.from_json_dict(x.to_json_dict()) == x


def test_vector_operations():
    v = GoldenVector(PHI, ONE)
    w = GoldenVector(ONE, PHI)
    assert v + w == GoldenVector(PHI_SQUARED, PHI_SQUARED)
    assert (v - v).is_zero
    assert v.cross(w) == PHI * PHI - ONE  # phi^2 - 1 = phi
    assert v.cross(w) == PHI
    assert v.cross(v) == ZERO
    assert v.dot(w) == PHI + PHI
    assert v.scaled(2) == GoldenVector(GoldenNumber(0, 2), GoldenNumber(2, 0))
    assert -v == GoldenVector(-PHI, -ONE)


def test_vector_quadruple():
    v = GoldenVector.from_rationals(3, 2, 2, 4)
    assert v.quadruple() == ["3/1", "2/1", "2/1", "4/1"]


def row_product(m, n):
    """Product of two 2x2 matrices given as integer Z[phi] rows."""
    return tuple(
        tuple(
            tuple(u + w for u, w in zip(golden_mul(*row[0], *col[0]), golden_mul(*row[1], *col[1])))
            for col in zip(*n)
        )
        for row in m
    )


def test_matrix_determinants_and_inverse():
    identity = (((1, 0), (0, 0)), ((0, 0), (1, 0)))
    for m, m_inv in zip(SIGMA, SIGMA_INVERSE):
        (a, b), (c, d) = m
        ad, bc = golden_mul(*a, *d), golden_mul(*b, *c)
        assert (ad[0] - bc[0], ad[1] - bc[1]) == (1, 0)
        assert row_product(m, m_inv) == identity
        assert row_product(m_inv, m) == identity
    # sigma_1 = ((phi, phi), (1, phi)) has inverse ((phi, -phi), (-1, phi)).
    assert SIGMA_INVERSE[1] == (((0, 1), (0, -1)), ((-1, 0), (0, 1)))
