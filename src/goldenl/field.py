"""Exact arithmetic in Q[phi] for phi = (1 + sqrt 5) / 2.

Every value is a + b*phi with rational a, b; products reduce by phi**2 = phi + 1.
Signs and comparisons are decided exactly, so no floating point enters any
decision made with these types. The library decides everything on integer
pairs (golden_sign, golden_mul); GoldenNumber and GoldenVector are the ring
at its boundary, where directions and points come in and go out, and have no
division.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import total_ordering
from operator import attrgetter
from typing import Union

PHI_FLOAT = (1.0 + math.sqrt(5.0)) / 2.0

Rational = Union[int, Fraction]


def _as_fraction(value: Rational) -> Fraction:
    # int first: isinstance against Fraction, an ABC, is slow on a miss.
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


def _fraction_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


# Coefficient-level arithmetic on pairs (a, b) meaning a + b*phi. Exact on
# int and on Fraction coefficients alike; GoldenNumber, the direction algebra
# and the integer flow kernel share it.


def golden_sign(a: Rational, b: Rational) -> int:
    """Exact sign of a + b*phi, in {-1, 0, 1}.

    Writes 2*(a + b*phi) = p + b*sqrt(5) with p = 2a + b. Same-sign p, b
    settle it at once; mixed signs compare p**2 against 5*b**2. The mixed
    case cannot tie: p**2 = 5*b**2 with rational p, b forces b = 0.
    """
    p = 2 * a + b
    if p >= 0 and b >= 0:
        return 1 if p or b else 0
    if p <= 0 and b <= 0:
        return -1
    return 1 if (p * p > 5 * b * b) == (p > 0) else -1


def golden_mul(a: Rational, b: Rational, c: Rational, d: Rational) -> tuple[Rational, Rational]:
    """Coefficients of (a + b*phi)(c + d*phi) = ac + bd + (ad + bc + bd)*phi."""
    bd = b * d
    return a * c + bd, a * d + b * c + bd


class _Frozen:
    """Base of the immutable value types. A subclass that defines no __init__
    gets one, written out once as namedtuple's is, that takes one value per
    slot, __dict__ left out, positionally in slot order: it checks the count,
    unpacks once and calls each slot's setter once, past __setattr__; a wrong
    count raises TypeError naming the class and its slots. Equality, hash and
    repr read the class's `_fields`, its slots unless it names others, in that
    order through `_values`, one C-level getter per class. Copy and pickle
    rebuild a value from one value per slot, keeping any cached __dict__."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        if "_fields" not in vars(cls):
            cls._fields = cls.__slots__
        get = attrgetter(*cls._fields)  # one name gives the bare value, not a 1-tuple
        cls._values = property(get if len(cls._fields) > 1 else lambda self: (get(self),))
        names = cls._slot_names = tuple(name for name in cls.__slots__ if name != "__dict__")
        if "__init__" not in vars(cls):
            scope = {"__name__": cls.__module__, **{f"set{i}": vars(cls)[n].__set__ for i, n in enumerate(names)}}
            scope["wrong"] = f"{cls.__name__} takes {len(names)} values, one per slot ({', '.join(names)}), got "
            lines = [f"if len(values) != {len(names)}:", "    raise TypeError(wrong + str(len(values)))"]
            lines.append("(" + "".join(f"v{i}, " for i in range(len(names))) + ") = values")
            lines += [f"set{i}(self, v{i})" for i in range(len(names))]
            exec("def __init__(self, *values):\n    " + "\n    ".join(lines), scope)
            cls.__init__ = scope["__init__"]
            cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values == other._values  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        values = tuple(getattr(self, name) for name in self._slot_names)  # type: ignore[attr-defined]
        return type(self), values, getattr(self, "__dict__", None)


@total_ordering
class GoldenNumber(_Frozen):
    """The field element a + b*phi."""

    __slots__ = ("a", "b")
    a: Fraction
    b: Fraction

    def __init__(self, a: Rational = 0, b: Rational = 0) -> None:
        object.__setattr__(self, "a", _as_fraction(a))
        object.__setattr__(self, "b", _as_fraction(b))

    @classmethod
    def _coerce(cls, value: GoldenNumber | Rational) -> GoldenNumber | None:
        if isinstance(value, GoldenNumber):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(_as_fraction(value))
        return None

    # ring structure

    def __add__(self, other: GoldenNumber | Rational) -> GoldenNumber:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GoldenNumber(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other: GoldenNumber | Rational) -> GoldenNumber:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GoldenNumber(self.a - o.a, self.b - o.b)

    def __rsub__(self, other: GoldenNumber | Rational) -> GoldenNumber:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> GoldenNumber:
        return GoldenNumber(-self.a, -self.b)

    def __mul__(self, other: GoldenNumber | Rational) -> GoldenNumber:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GoldenNumber(*golden_mul(self.a, self.b, o.a, o.b))

    __rmul__ = __mul__

    # exact order structure

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}; see golden_sign."""
        return golden_sign(self.a, self.b)

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)  # type: ignore[arg-type]
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self) -> int:
        # Equal to a rational, hash as it does: GoldenNumber(1) == 1.
        return hash(self.a) if self.b == 0 else hash((self.a, self.b))

    def __lt__(self, other: GoldenNumber | Rational) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    # conversions

    def to_float(self) -> float:
        return float(self.a) + float(self.b) * PHI_FLOAT

    __float__ = to_float

    def to_json_dict(self) -> dict[str, str]:
        return {"a": _fraction_str(self.a), "b": _fraction_str(self.b)}

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        if self.b == 1:
            phi_part = "phi"
        elif self.b == -1:
            phi_part = "-phi"
        else:
            phi_part = f"{self.b}*phi"
        if self.a == 0:
            return phi_part
        joiner = "-" if self.b < 0 else "+"
        return f"{self.a} {joiner} {phi_part.lstrip('-')}"

    def __repr__(self) -> str:
        return f"GoldenNumber({self.a}, {self.b})"


ZERO = GoldenNumber(0, 0)
ONE = GoldenNumber(1, 0)
PHI = GoldenNumber(0, 1)
PHI_SQUARED = GoldenNumber(1, 1)
PHI_INVERSE = GoldenNumber(-1, 1)  # 1/phi = phi - 1


class GoldenVector(_Frozen):
    """A column vector with GoldenNumber entries."""

    __slots__ = ("x", "y")
    x: GoldenNumber
    y: GoldenNumber

    @classmethod
    def from_rationals(cls, xa: Rational, xb: Rational, ya: Rational, yb: Rational) -> GoldenVector:
        return cls(GoldenNumber(xa, xb), GoldenNumber(ya, yb))

    def __add__(self, other: GoldenVector) -> GoldenVector:
        if not isinstance(other, GoldenVector):
            return NotImplemented
        return GoldenVector(self.x + other.x, self.y + other.y)

    def __sub__(self, other: GoldenVector) -> GoldenVector:
        if not isinstance(other, GoldenVector):
            return NotImplemented
        return GoldenVector(self.x - other.x, self.y - other.y)

    def __neg__(self) -> GoldenVector:
        return GoldenVector(-self.x, -self.y)

    def scaled(self, factor: GoldenNumber | Rational) -> GoldenVector:
        return GoldenVector(self.x * factor, self.y * factor)

    @property
    def is_zero(self) -> bool:
        return self.x.is_zero and self.y.is_zero

    def to_floats(self) -> tuple[float, float]:
        return (self.x.to_float(), self.y.to_float())

    def quadruple(self) -> list[str]:
        """The coefficients [x.a, x.b, y.a, y.b] as rational strings."""
        return [_fraction_str(c) for c in (self.x.a, self.x.b, self.y.a, self.y.b)]

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"


def cleared(v: GoldenVector) -> tuple[int, int, int, int]:
    """The same ray as integer pairs: v times its coefficient denominators' lcm."""
    xa, xb, ya, yb = v.x.a, v.x.b, v.y.a, v.y.b
    den = math.lcm(xa.denominator, xb.denominator, ya.denominator, yb.denominator)
    if den == 1:
        return xa.numerator, xb.numerator, ya.numerator, yb.numerator
    return tuple(q.numerator * (den // q.denominator) for q in (xa, xb, ya, yb))
