"""Exact arithmetic in Q[phi] for phi = (1 + sqrt 5) / 2.

Every value is a + b*phi with rational a, b; products reduce by phi**2 = phi + 1.
Signs and comparisons are decided exactly, so no floating point enters any
decision made with these types. The library decides everything on integer
pairs (golden_sign, golden_mul); GoldenNumber and GoldenVector are the ring
at its boundary, where directions and points come in and go out, and have no
division. A GoldenNumber holds integers too, (a + b*phi) / d in lowest terms:
`fractions` loads only when a caller reads a coefficient, which is a Fraction.
"""

from __future__ import annotations

import math
import sys
from functools import total_ordering
from operator import attrgetter

PHI_FLOAT = (1.0 + math.sqrt(5.0)) / 2.0
_MODULUS, _INF = sys.hash_info.modulus, sys.hash_info.inf


def _is_rational(value: object) -> bool:
    """Whether value is an int or a Fraction. No Fraction exists before `fractions` loads, so this loads nothing."""
    return isinstance(value, int) or isinstance(value, getattr(sys.modules.get("fractions"), "Fraction", ()))


def _lowest(n: int, d: int) -> tuple[int, int]:
    g = math.gcd(n, d)
    return n // g, d // g


# Coefficient-level arithmetic on integer pairs (a, b) meaning a + b*phi;
# GoldenNumber, the direction algebra and the integer flow kernel share it.


def golden_sign(a: int, b: int) -> int:
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


def golden_mul(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """Coefficients of (a + b*phi)(c + d*phi) = ac + bd + (ad + bc + bd)*phi."""
    bd = b * d
    return a * c + bd, a * d + b * c + bd


class _Frozen:
    """Base of the immutable value types. A subclass that defines no __init__
    gets one that takes one value per slot, __dict__ left out, positionally in
    slot order, and sets each through the slot's own setter, past __setattr__;
    a wrong count raises TypeError naming the class and its slots. Equality,
    hash and repr read the class's `_fields`, its slots unless it names
    others, in that order through `_values`, one C-level getter per class.
    Copy and pickle rebuild a value from one value per slot, and keep its
    __dict__, the values it caches, when the class has one."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        if "_fields" not in vars(cls):
            cls._fields = cls.__slots__
        get = attrgetter(*cls._fields)  # one name gives the bare value, not a 1-tuple
        cls._values = property(get if len(cls._fields) > 1 else lambda self: (get(self),))
        names = cls._slot_names = tuple(name for name in cls.__slots__ if name != "__dict__")
        if "__init__" not in vars(cls):
            setters = tuple(vars(cls)[name].__set__ for name in names)

            def __init__(self, *values: object) -> None:
                if len(values) != len(setters):
                    raise TypeError(f"{cls.__name__} takes {len(setters)} values, one per slot "
                                    f"({', '.join(names)}), got {len(values)}")
                for set_slot, value in zip(setters, values):
                    set_slot(self, value)

            __init__.__qualname__ = f"{cls.__qualname__}.__init__"
            cls.__init__ = __init__

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
    """The field element a + b*phi, for int or Fraction a and b, which read
    back as Fractions. It holds integers, _v = (a*d, b*d, d) for the least
    d > 0 that makes them so: one form per value, which equality compares."""

    __slots__ = ("_v",)

    def __init__(self, a: int | Fraction = 0, b: int | Fraction = 0) -> None:
        if not (_is_rational(a) and _is_rational(b)):
            raise TypeError(f"expected int or Fraction, got {type(b if _is_rational(a) else a).__name__}")
        q, s = a.denominator, b.denominator
        d = q if q == s else math.lcm(q, s)
        object.__setattr__(self, "_v", (a.numerator * (d // q), b.numerator * (d // s), d))

    a = property(lambda self: _fraction(*self._v[::2]), doc="The rational coefficient, a Fraction.")
    b = property(lambda self: _fraction(*self._v[1:]), doc="The coefficient of phi, a Fraction.")

    @staticmethod
    def _coerce(value: GoldenNumber | int | Fraction) -> GoldenNumber | None:
        if isinstance(value, GoldenNumber):
            return value
        return _golden(value.numerator, 0, value.denominator) if _is_rational(value) else None

    def __reduce__(self) -> tuple:
        return _golden, self._v

    # ring structure

    def __add__(self, other: GoldenNumber | int | Fraction) -> GoldenNumber:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        (a, b, d), (c, e, f) = self._v, o._v
        return _golden(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other: GoldenNumber | int | Fraction) -> GoldenNumber:
        o = self._coerce(other)
        return NotImplemented if o is None else self + -o

    def __rsub__(self, other: GoldenNumber | int | Fraction) -> GoldenNumber:
        o = self._coerce(other)
        return NotImplemented if o is None else o + -self

    def __neg__(self) -> GoldenNumber:
        return _golden(-self._v[0], -self._v[1], self._v[2])

    def __mul__(self, other: GoldenNumber | int | Fraction) -> GoldenNumber:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        (a, b, d), (c, e, f) = self._v, o._v
        return _golden(*golden_mul(a, b, c, e), d * f)

    __rmul__ = __mul__

    # exact order structure

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}; see golden_sign."""
        return golden_sign(*self._v[:2])

    @property
    def is_zero(self) -> bool:
        return self._v[:2] == (0, 0)

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)  # type: ignore[arg-type]
        return NotImplemented if o is None else self._v == o._v

    def __hash__(self) -> int:
        # Equal to a rational, hash as it does: GoldenNumber(1) == 1. Python hashes n/d in lowest terms
        # as the int n times d's inverse modulo sys.hash_info.modulus, or as +-sys.hash_info.inf if none.
        a, b, d = self._v
        ha, hb = (hash(n * pow(e, -1, _MODULUS)) if e % _MODULUS else _INF if n > 0 else -_INF
                  for n, e in (_lowest(a, d), _lowest(b, d)))
        return ha if b == 0 else hash((ha, hb))

    def __lt__(self, other: GoldenNumber | int | Fraction) -> bool:
        o = self._coerce(other)
        return NotImplemented if o is None else (self - o).sign() < 0

    # conversions

    def to_float(self) -> float:
        a, b, d = self._v  # a / d is correctly rounded, as float() of a Fraction is
        return a / d + b / d * PHI_FLOAT

    __float__ = to_float

    def to_json_dict(self) -> dict[str, str]:
        a, b, d = self._v
        return {"a": "%d/%d" % _lowest(a, d), "b": "%d/%d" % _lowest(b, d)}

    def __str__(self) -> str:
        a, b, d = self._v
        a_text, b_text = (text.removesuffix("/1") for text in self.to_json_dict().values())
        if b == 0:
            return a_text
        phi_part = "phi" if b == d else "-phi" if b == -d else f"{b_text}*phi"
        return phi_part if a == 0 else f"{a_text} {'-' if b < 0 else '+'} {phi_part.lstrip('-')}"

    def __repr__(self) -> str:
        return "GoldenNumber({}, {})".format(*(text.removesuffix("/1") for text in self.to_json_dict().values()))


def _golden(a: int, b: int, d: int = 1) -> GoldenNumber:
    """The GoldenNumber (a + b*phi) / d, for integers with d > 0."""
    g = 1 if d == 1 else math.gcd(d, a, b)
    number = object.__new__(GoldenNumber)
    object.__setattr__(number, "_v", (a // g, b // g, d // g))
    return number


def _fraction(n: int, d: int) -> Fraction:
    from fractions import Fraction  # loaded by the first read of a coefficient
    return Fraction(n, d)


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
    def from_rationals(cls, xa: int | Fraction, xb: int | Fraction, ya: int | Fraction, yb: int | Fraction) -> GoldenVector:
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

    def scaled(self, factor: GoldenNumber | int | Fraction) -> GoldenVector:
        return GoldenVector(self.x * factor, self.y * factor)

    @property
    def is_zero(self) -> bool:
        return self.x.is_zero and self.y.is_zero

    def to_floats(self) -> tuple[float, float]:
        return (self.x.to_float(), self.y.to_float())

    def quadruple(self) -> list[str]:
        """The coefficients [x.a, x.b, y.a, y.b] as rational strings."""
        return [*self.x.to_json_dict().values(), *self.y.to_json_dict().values()]

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"


def cleared(v: GoldenVector) -> tuple[int, int, int, int]:
    """The same ray as integer pairs: v times its coefficient denominators' lcm."""
    (xa, xb, xd), (ya, yb, yd) = v.x._v, v.y._v
    den = xd if xd == yd else math.lcm(xd, yd)
    return xa * (den // xd), xb * (den // xd), ya * (den // yd), yb * (den // yd)


def _from_point(point: tuple[int, int, int, int], scale: int) -> GoldenVector:
    """The vector of the integer pairs `point` over scale > 0, cleared's inverse."""
    return GoldenVector(_golden(*point[:2], scale), _golden(*point[2:], scale))
