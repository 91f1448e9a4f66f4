import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qcontexts.scalars import (
    ExactComplex,
    QSqrt2,
    as_fraction,
    exact_entry,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def qs(draw_a, draw_b):
    return st.builds(QSqrt2, draw_a, draw_b)


@given(qs(rationals, rationals), qs(rationals, rationals))
def test_field_arithmetic_matches_floats(x, y):
    assert math.isclose(float(x + y), float(x) + float(y), abs_tol=1e-9)
    assert math.isclose(float(x * y), float(x) * float(y), abs_tol=1e-9)
    assert math.isclose(float(x - y), float(x) - float(y), abs_tol=1e-9)


@given(qs(rationals, rationals))
def test_division_inverts(x):
    if not x.is_zero():
        assert (x / x) == 1
        assert ((1 / x) * x) == 1


@given(qs(rationals, rationals))
def test_sign_agrees_with_float(x):
    f = float(x)
    if abs(f) > 1e-12:
        assert x.sign() == (1 if f > 0 else -1)
    # exact zero only when both parts vanish (sqrt(2) irrational)
    assert (x.sign() == 0) == x.is_zero()


@given(qs(rationals, rationals), qs(rationals, rationals))
def test_total_order(x, y):
    assert (x < y) == (float(x) < float(y) and x != y)
    assert x <= y or y <= x


@given(qs(rationals, rationals), st.one_of(qs(rationals, rationals), rationals, st.integers(-3, 3)))
def test_order_is_one_relation(x, y):
    assert (x > y) == (y < x) == (float(x) > float(y) and x != y)
    assert (x >= y) == (y <= x) == (not x < y)


@pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge])
def test_order_refuses_floats(op):
    # a float is not exact: every comparison with one raises, none answers
    with pytest.raises(TypeError):
        op(QSqrt2(1), 0.5)


def test_sqrt2_squares_to_two():
    r = QSqrt2(0, 1)
    assert r * r == 2
    assert QSqrt2(1, 1) * QSqrt2(-1, 1) == 1  # (sqrt2+1)(sqrt2-1)


def test_exact_complex_division():
    z = ExactComplex(QSqrt2(1), QSqrt2(0, 1))  # 1 + i*sqrt2
    w = z / z
    assert w == 1
    assert (z * z.conj()).im.is_zero()


def test_exact_entry_forms():
    assert exact_entry(3) == ExactComplex(QSqrt2(3))
    assert exact_entry("2/5") == ExactComplex(QSqrt2(Fraction(2, 5)))
    assert exact_entry([1, 1]) == ExactComplex(QSqrt2(1, 1))
    with pytest.raises(ValueError):
        exact_entry(0.4)


def test_as_fraction_rejects_inexact_float():
    assert as_fraction(2.0) == 2
    with pytest.raises(ValueError):
        as_fraction(0.1)
