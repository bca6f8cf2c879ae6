"""Exact Q[phi] arithmetic: ring axioms, signs, and the float-free order."""

import copy
import pickle
import random
import sys
from decimal import Decimal, getcontext
from fractions import Fraction

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
    Trajectory,
    ZERO,
    billiard_path,
    classify_all,
    oracle_report,
    trace,
)
from goldenl import flow as flow_module
from goldenl.field import PHI_FLOAT, _Frozen, golden_mul
from goldenl.words import _direction_pairs
from words_reference import SIGMA_INVERSE


def test_phi_squared_identity():
    assert PHI * PHI == PHI_SQUARED
    assert PHI_SQUARED == PHI + 1


def test_phi_inverse():
    assert PHI * PHI_INVERSE == ONE


def test_product_worked_example():
    # (1 + 2 phi)(3 + phi) = 3 + 7 phi + 2 phi^2 = 5 + 9 phi
    assert GoldenNumber(1, 2) * GoldenNumber(3, 1) == GoldenNumber(5, 9)


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


def test_rational_golden_numbers_hash_as_their_rational():
    # Equal values hash equal, so a GoldenNumber with b = 0 and its rational
    # find each other in a set or a dict.
    for value in (0, 1, -7, 2**70, Fraction(1, 2), Fraction(-22, 7), Fraction(4, 2)):
        number = GoldenNumber(value)
        assert number == value and hash(number) == hash(value), value
        assert value in {number} and number in {value}, value
    assert GoldenNumber(1, 1) not in {1, 2}


def test_equal_values_built_differently_hash_equal():
    # Every way of building an equal value lands on the same hash, a rational
    # value's too, so equal values meet in a set or as a dict key.
    numbers = [
        (GoldenNumber(2), GoldenNumber(Fraction(2)), GoldenNumber(Fraction(6, 3)), ONE + ONE, PHI * PHI - PHI + 1),
        (GoldenNumber(Fraction(1, 2)), GoldenNumber(Fraction(3, 6), 0), ONE * Fraction(1, 2)),
        (GoldenNumber(3, -2), GoldenNumber(Fraction(3), Fraction(-4, 2)), 3 - PHI - PHI, PHI * GoldenNumber(-5, 3)),
        (GoldenNumber(Fraction(1, 3), Fraction(2, 3)), GoldenNumber(Fraction(2, 6), Fraction(4, 6)),
         (PHI_SQUARED + PHI) * Fraction(1, 3)),
    ]
    for equal in numbers:
        assert len(set(equal)) == 1 and len(set(map(hash, equal))) == 1, equal
    for a, b in zip(numbers, numbers[1:]):
        assert a[0] != b[0]
    vectors = [
        GoldenVector(GoldenNumber(2, 2), GoldenNumber(1, 2)),
        GoldenVector.from_rationals(Fraction(4, 2), 2, 1, Fraction(6, 3)),
        GoldenVector(PHI_SQUARED + PHI + ONE, ONE + PHI + PHI).scaled(1),
        GoldenVector.from_rationals(4, 4, 2, 4).scaled(Fraction(1, 2)),
    ]
    assert len(set(vectors)) == 1 and len(set(map(hash, vectors))) == 1
    # So a rebuilt equal direction clears to equal pairs and gets an equal flow table.
    table = flow_module._direction_table
    first = table(_direction_pairs(vectors[0]))
    for rebuilt in vectors[1:]:
        assert table(_direction_pairs(rebuilt)) == first


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


def test_json_round_trip():
    x = GoldenNumber(Fraction(-3, 4), Fraction(7, 2))
    data = x.to_json_dict()
    assert data == {"a": "-3/4", "b": "7/2"}
    assert GoldenNumber(Fraction(data["a"]), Fraction(data["b"])) == x


def test_vector_operations():
    v = GoldenVector(PHI, ONE)
    w = GoldenVector(ONE, PHI)
    assert v + w == GoldenVector(PHI_SQUARED, PHI_SQUARED)
    assert (v - v).is_zero
    assert v.scaled(2) == GoldenVector(GoldenNumber(0, 2), GoldenNumber(2, 0))
    assert -v == GoldenVector(-PHI, -ONE)
    # A vector adds and subtracts only vectors; anything else is a TypeError, not an AttributeError.
    for foreign in (1, Fraction(1, 2), (1, 2), PHI):
        for operation in (lambda: v + foreign, lambda: v - foreign, lambda: foreign + v, lambda: foreign - v):
            with pytest.raises(TypeError):
                operation()


class _OneSlot(_Frozen):
    """One slot, the fewest a _Frozen type can have."""

    __slots__ = ("only",)


class _SevenSlots(_Frozen):
    """One more slot than the most a library value type has."""

    __slots__ = ("a", "b", "c", "d", "e", "f", "g")


def test_value_types_are_immutable_values():
    # The three types with arithmetic or an invariant and the two test types
    # at the ends of the slot-count range: a field name, the value, an equal
    # twin built another way, and the plain tuple of its fields.
    one, seven = _OneSlot(1), _SevenSlots(*range(7))
    slotted = [
        ("a", GoldenNumber(Fraction(1, 2), 3), GoldenNumber(Fraction(2, 4), Fraction(3)), (Fraction(1, 2), 3)),
        ("x", GoldenVector(PHI, ONE), GoldenVector.from_rationals(0, 1, 1, 0), (PHI, ONE)),
        ("images", TAU[1], Permutation5((3, 5, 1, 4, 2)), ((3, 5, 1, 4, 2),)),
        ("only", one, _OneSlot(Fraction(1)), (1,)),
        ("g", seven, _SevenSlots(*map(Fraction, range(7))), tuple(range(7))),
    ]
    for _, value, twin, fields in slotted:
        assert value == twin and hash(value) == hash(twin)
        assert value != fields
    report = classify_all((2, 1))
    assert report == classify_all((2, 1))
    # The flow and render values, with the plain tuple of their compared fields.
    t = trace(4, (2, 1))
    oracle = oracle_report((2, 1))
    path = billiard_path(t)
    flowing = [
        ("walk", t, (4, t.direction, t.walk, t._holonomy2, None)),
        ("verdicts", oracle, (oracle.direction, oracle.verdicts, oracle._holonomies)),
        ("points", path, (4, path.points, "closed")),
    ]
    for _, value, fields in flowing:
        assert value != fields
    named = [(name, value) for name, value, _, _ in slotted] + [("vertices", GOLDEN_L), ("word", report)]
    for name, value in named + [(name, value) for name, value, _ in flowing]:
        for attribute in (name, "extra"):
            with pytest.raises(AttributeError):
                setattr(value, attribute, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert copy.copy(value) == value
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value
    # A trajectory's direction table is out of eq, hash and repr; a report
    # holds dicts, so it has no hash.
    other_table = Trajectory(t.start_label, t.direction, t.walk, t._holonomy2, t._cone, ())
    assert other_table == t and hash(other_table) == hash(t)
    with pytest.raises(TypeError):
        hash(oracle)
    # The four types without checks, and the two test types, are built
    # positionally, one value per slot; a wrong count is a TypeError naming
    # the class and its slots, and a keyword one naming its __init__.
    for value in (GoldenVector(PHI, ONE), t, oracle, path, one, seven):
        cls = type(value)
        names = [name for name in cls.__slots__ if name != "__dict__"]
        fields = [getattr(value, name) for name in names]
        assert cls(*fields) == value and cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
        for given in (fields[:-1], fields + [None]):
            with pytest.raises(TypeError) as caught:
                cls(*given)
            assert str(caught.value) == (
                f"{cls.__name__} takes {len(names)} values, one per slot ({', '.join(names)}), got {len(given)}"
            )
        with pytest.raises(TypeError) as caught:
            cls(*fields[:-1], **{names[-1]: fields[-1]})
        assert str(caught.value) == f"{cls.__qualname__}.__init__() got an unexpected keyword argument '{names[-1]}'"
    assert [seven.a, seven.d, seven.g] == [0, 3, 6] and one.only == 1
    for build, message in (
        (lambda: _OneSlot(), "_OneSlot takes 1 values, one per slot (only), got 0"),
        (lambda: _OneSlot(1, 2), "_OneSlot takes 1 values, one per slot (only), got 2"),
        (lambda: _OneSlot(only=1), "_OneSlot.__init__() got an unexpected keyword argument 'only'"),
        (lambda: _SevenSlots(*range(6)), "_SevenSlots takes 7 values, one per slot (a, b, c, d, e, f, g), got 6"),
        (lambda: _SevenSlots(*range(6), g=6), "_SevenSlots.__init__() got an unexpected keyword argument 'g'"),
    ):
        with pytest.raises(TypeError) as caught:
            build()
        assert str(caught.value) == message
    # Unpickled, a trajectory keeps its cached points and its table.
    points = t.points
    unpickled = pickle.loads(pickle.dumps(t))
    assert vars(unpickled)["points"] == points and unpickled.points == points and unpickled.scale == t.scale
    assert repr(t) == (
        "Trajectory(start_label=4, direction=GoldenVector(x=GoldenNumber(2, 2), y=GoldenNumber(1, 2)), "
        r"walk=b'\x00\x02\x03\x01\x00\x02\x03\x04', _holonomy2=(4, 8, 4, 6), _cone=None)"
    )
    assert repr(oracle) == (
        f"OracleReport(direction={oracle.direction!r}, verdicts={oracle.verdicts!r}, "
        f"_holonomies={oracle._holonomies!r})"
    )
    assert repr(path) == f"BilliardPath(start_label=4, points={path.points!r}, outcome='closed')"


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


_MODULUS = sys.hash_info.modulus


def _reference_sign(a, b):
    """Exact sign of a + b*phi for Fraction a and b: 2(a + b*phi) = p + b*sqrt(5)."""
    p = 2 * a + b
    if p * b >= 0:
        return (p > 0 or b > 0) - (p < 0 or b < 0)
    return 1 if (p * p > 5 * b * b) == (p > 0) else -1


def _fraction_pair_reference(a, b):
    """What GoldenNumber(a, b) showed when it held its coefficients as a pair of Fractions."""
    if b == 0:
        text = str(a)
    else:
        phi_part = "phi" if b == 1 else "-phi" if b == -1 else f"{b}*phi"
        text = phi_part if a == 0 else f"{a} {'-' if b < 0 else '+'} {phi_part.lstrip('-')}"
    return {
        "hash": hash(a) if b == 0 else hash((a, b)),
        "str": text,
        "repr": f"GoldenNumber({a}, {b})",
        "json": {"a": f"{a.numerator}/{a.denominator}", "b": f"{b.numerator}/{b.denominator}"},
        "float": float(a) + float(b) * PHI_FLOAT,
        "sign": _reference_sign(a, b),
    }


def test_integer_golden_number_matches_the_fraction_pair_reference():
    # A GoldenNumber holds integers over one denominator; everything it shows
    # must read as it did from a pair of Fractions, over mixed denominators,
    # negative values, zero beside a non-1 denominator, numerators near 2**70
    # and denominators that are multiples of the hash modulus.
    rng = random.Random(46)
    fixed = [
        0, 1, -1, 2**70 + 1, -(2**70) + 3, Fraction(1, 2), Fraction(1, 3), Fraction(-5, 6),
        Fraction(2**70 + 1, 3), Fraction(1, _MODULUS), Fraction(-3, 2 * _MODULUS), Fraction(_MODULUS + 2, 7 * _MODULUS),
    ]
    drawn = [
        Fraction(rng.randint(-(2**72), 2**72), rng.choice([1, 2, 3, 6, 10**9 + 7, _MODULUS, 2 * _MODULUS]))
        for _ in range(40)
    ]
    pairs = [(a, b) for a in fixed for b in fixed] + [(rng.choice(drawn), rng.choice(drawn)) for _ in range(200)]
    numbers = []
    for a, b in pairs:
        x, ref = GoldenNumber(a, b), _fraction_pair_reference(Fraction(a), Fraction(b))
        numbers.append((x, Fraction(a), Fraction(b)))
        assert x == GoldenNumber(Fraction(a), Fraction(b)), (a, b)
        assert type(x.a) is Fraction and type(x.b) is Fraction and (x.a, x.b) == (a, b), (a, b)
        assert hash(x) == ref["hash"], (a, b)
        assert (str(x), repr(x), x.to_json_dict()) == (ref["str"], ref["repr"], ref["json"]), (a, b)
        assert x.to_float() == ref["float"] and x.sign() == ref["sign"], (a, b)
        if b == 0:
            assert x == a and hash(x) == hash(a) and x in {a}, a
        for copied in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(copied) is GoldenNumber and copied == x and hash(copied) == hash(x) and repr(copied) == repr(x)
    # The hash's infinite case: a denominator in lowest terms that is a multiple of the modulus.
    infinite = {hash(x) for x, a, b in numbers if b == 0 and a.denominator % _MODULUS == 0}
    assert infinite == {sys.hash_info.inf, -sys.hash_info.inf}
    for (x, a, b), (y, c, d) in zip(numbers, rng.sample(numbers, len(numbers))):
        assert (x == y) == ((a, b) == (c, d)) and (x < y) == (_reference_sign(a - c, b - d) < 0), (a, b, c, d)
        assert x + y == GoldenNumber(a + c, b + d) and x - y == GoldenNumber(a - c, b - d), (a, b, c, d)
        assert x * y == GoldenNumber(a * c + b * d, a * d + b * c + b * d), (a, b, c, d)
        quadruple = GoldenVector(x, y).quadruple()
        assert quadruple == [*_fraction_pair_reference(a, b)["json"].values(), *_fraction_pair_reference(c, d)["json"].values()]


def test_golden_number_rejects_other_coefficient_types():
    # Only an int or a Fraction is a coefficient, in either place; the first bad one is named.
    for bad in (0.5, Decimal("0.5"), "1", None):
        for args in ((bad,), (bad, 0), (0, bad), (Fraction(1, 2), bad), (bad, "x")):
            with pytest.raises(TypeError) as caught:
                GoldenNumber(*args)
            assert str(caught.value) == f"expected int or Fraction, got {type(bad).__name__}", args
