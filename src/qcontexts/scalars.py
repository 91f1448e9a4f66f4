"""Scalar backends.

* ``"exact"`` -- the real quadratic field Q(sqrt(2)): `QSqrt2`, a pair of
  Fractions, and `ExactComplex` over it. They hold parsed entries and
  thresholds, the entries of ``HermitianOperator.entries()`` and Born
  weights. Decisions over many values take them as integer pairs over one
  denominator (`integer_pairs`) and decide signs with `sign_sqrt2`.
* ``"float"`` -- ordinary double-precision complex numbers, with a global
  tolerance ``eps`` (default ``1e-9``) used by every equality predicate.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import total_ordering

SQRT2 = math.sqrt(2.0)

_EPS = 1e-9


def get_eps() -> float:
    """Global tolerance used by all float-backend equality predicates."""
    return _EPS


def set_eps(eps: float) -> None:
    global _EPS
    if not 0 < eps < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {eps!r}")
    _EPS = float(eps)


def as_fraction(x) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' string to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, float):
        if x != int(x):
            raise ValueError(f"non-integer float {x!r} is not exact; pass a 'p/q' string")
        return Fraction(int(x))
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def sign_sqrt2(a, b) -> int:
    """Exact sign (-1, 0 or +1) of a + b sqrt(2), for rationals a and b
    (ints or Fractions). When a and b differ in sign, it compares a^2 with
    2 b^2."""
    if a >= 0 and b >= 0:
        return 1 if a or b else 0
    if a <= 0 and b <= 0:
        return -1
    if a > 0:  # b < 0
        return 1 if a * a > 2 * b * b else -1
    return 1 if 2 * b * b > a * a else -1  # a < 0, b > 0


def integer_pairs(values):
    """``(d, a, b)``: exact values (QSqrt2, Fraction or int) as integer
    lists a and b over one positive denominator d, the lcm of their parts'
    denominators, so that value k is (a[k] + b[k] sqrt(2)) / d. Sums and
    comparisons of the values are then integer ones."""
    parts = [(x.a, x.b) if isinstance(x, QSqrt2) else (x, 0) for x in values]
    d = math.lcm(*(y.denominator for part in parts for y in part))
    return (d, [x.numerator * (d // x.denominator) for x, _ in parts],
            [y.numerator * (d // y.denominator) for _, y in parts])


@total_ordering
class QSqrt2:
    """An element a + b*sqrt(2) of the field Q(sqrt(2)), a and b rational,
    ordered as a real number; it compares with ints, Fractions and itself."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = as_fraction(a)
        self.b = as_fraction(b)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QSqrt2(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QSqrt2(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QSqrt2(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # 1/(a + b*sqrt2) = (a - b*sqrt2)/(a^2 - 2 b^2)
        denom = other.a * other.a - 2 * other.b * other.b
        if denom == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(2))")
        return QSqrt2(
            (self.a * other.a - 2 * self.b * other.b) / denom,
            (self.b * other.a - self.a * other.b) / denom,
        )

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return QSqrt2(-self.a, -self.b)

    # -- predicates and order --------------------------------------------

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def sign(self) -> int:
        """Exact sign: -1, 0, or +1."""
        return sign_sqrt2(self.a, self.b)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __lt__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign() < 0

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def __float__(self):
        return float(self.a) + float(self.b) * SQRT2

    def __repr__(self):
        if self.b == 0:
            return f"QSqrt2({self.a})"
        return f"QSqrt2({self.a}, {self.b})"

    def key(self):
        return (self.a.numerator, self.a.denominator, self.b.numerator, self.b.denominator)


def _coerce(x):
    if isinstance(x, QSqrt2):
        return x
    if isinstance(x, (int, Fraction)):
        return QSqrt2(x)
    return NotImplemented


Q_ZERO = QSqrt2(0)


class ExactComplex:
    """A complex number with real and imaginary parts in Q(sqrt(2))."""

    __slots__ = ("re", "im")

    def __init__(self, re=Q_ZERO, im=Q_ZERO):
        self.re = re if isinstance(re, QSqrt2) else QSqrt2(re)
        self.im = im if isinstance(im, QSqrt2) else QSqrt2(im)

    def __add__(self, other):
        other = _coerce_c(other)
        if other is NotImplemented:
            return NotImplemented
        return ExactComplex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_c(other)
        if other is NotImplemented:
            return NotImplemented
        return ExactComplex(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        other = _coerce_c(other)
        if other is NotImplemented:
            return NotImplemented
        return ExactComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_c(other)
        if other is NotImplemented:
            return NotImplemented
        denom = other.re * other.re + other.im * other.im
        if denom.is_zero():
            raise ZeroDivisionError("complex division by zero")
        return ExactComplex(
            (self.re * other.re + self.im * other.im) / denom,
            (self.im * other.re - self.re * other.im) / denom,
        )

    def conj(self):
        return ExactComplex(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re.is_zero() and self.im.is_zero()

    def __eq__(self, other):
        other = _coerce_c(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def key(self):
        return self.re.key() + self.im.key()


def _coerce_c(x):
    if isinstance(x, ExactComplex):
        return x
    if isinstance(x, QSqrt2):
        return ExactComplex(x)
    if isinstance(x, (int, Fraction)):
        return ExactComplex(QSqrt2(x))
    return NotImplemented


EC_ZERO = ExactComplex(Q_ZERO, Q_ZERO)


def exact_entry(x) -> ExactComplex:
    """Build an ExactComplex from JSON-ish input.

    Accepted forms: int, 'p/q' string, Fraction, [a, b] for a + b*sqrt(2)
    (with a, b ints or 'p/q' strings), QSqrt2, ExactComplex.
    """
    if isinstance(x, ExactComplex):
        return x
    if isinstance(x, QSqrt2):
        return ExactComplex(x)
    if isinstance(x, (list, tuple)):
        if len(x) != 2:
            raise ValueError(f"expected [a, b] for a + b*sqrt(2), got {x!r}")
        return ExactComplex(QSqrt2(as_fraction(x[0]), as_fraction(x[1])))
    return ExactComplex(QSqrt2(as_fraction(x)))

