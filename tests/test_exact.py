"""Tests for the exact signed-sqrt-of-rational arithmetic."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from so3tp.exact import SQRT_ONE, SQRT_ZERO, SqrtRational


def test_canonical_forms():
    assert str(SQRT_ZERO) == "0"
    assert str(SQRT_ONE) == "+sqrt(1/1)"
    v = SqrtRational(-1, Fraction(24, 648))
    assert (v.p, v.q) == (1, 27)  # lowest terms
    assert str(v) == "-sqrt(1/27)"
    assert float(v) == pytest.approx(-1 / math.sqrt(27), abs=1e-15)


def test_invalid_forms_rejected():
    with pytest.raises(ValueError):
        SqrtRational(2, Fraction(1))
    with pytest.raises(ValueError):
        SqrtRational(1, Fraction(-1, 2))
    with pytest.raises(ValueError):
        SqrtRational(0, Fraction(1, 2))


def test_multiplication():
    a = SqrtRational(1, Fraction(1, 2))
    b = SqrtRational(-1, Fraction(2, 3))
    assert a * b == SqrtRational(-1, Fraction(1, 3))
    assert (a * SQRT_ZERO).is_zero()
    assert -b == SqrtRational(1, Fraction(2, 3))


def test_sum_collapse_and_cancellation():
    x = SqrtRational(1, Fraction(2))
    assert (x + -x) == SQRT_ZERO
    assert x + SQRT_ZERO == x and SQRT_ZERO + x == x
    assert x + SqrtRational(1, Fraction(8)) == SqrtRational(1, Fraction(18))
    assert SqrtRational(-1, Fraction(8)) + x == -x
    with pytest.raises(ValueError):
        x + SqrtRational(1, Fraction(3))  # sqrt(2) + sqrt(3) is not a single surd


@given(st.integers(1, 10**6), st.integers(1, 10**6), st.booleans())
def test_float_round_trip(p, q, neg):
    v = SqrtRational(-1 if neg else 1, Fraction(p, q))
    expect = (-1 if neg else 1) * math.sqrt(p / q)
    assert float(v) == pytest.approx(expect, rel=1e-12)


signs = st.sampled_from((-1, 1))


@given(st.integers(1, 5000), st.integers(1, 5000), st.integers(1, 20), st.integers(1, 20),
       signs, signs)
def test_sum_of_a_common_surd_matches_float(p, q, kn, kd, a, b):
    r, k = Fraction(p, q), Fraction(kn, kd)
    x, y = SqrtRational(a, r), SqrtRational(b, r * k * k)
    assert float(x + y) == pytest.approx(float(x) + float(y), rel=1e-12, abs=1e-12)
