"""The integer Racah sums of ``exact`` against their term-by-term ``Fraction`` forms.

The reference functions below sum each Racah formula one normalized
``Fraction`` per term, in the textbook order; the library sums the same
terms in integers over one common denominator, and ``cg_zero`` uses the
sum-free closed form.  Both must give the same (sign, radicand).  The
library side is called through ``cg.__wrapped__`` and
``_wigner_9j_cached.__wrapped__`` so that no test fills the shared caches.
"""

import math
import random
from fractions import Fraction

import numpy as np

from so3tp import angular, exact
from so3tp.exact import SQRT_ZERO, SqrtRational

_fact = math.factorial
_cg = exact.cg.__wrapped__
_nine = exact._wigner_9j_cached.__wrapped__


def _ref_delta2(a, b, c):
    return Fraction(_fact(a + b - c) * _fact(a - b + c) * _fact(-a + b + c), _fact(a + b + c + 1))


def _ref_cg(j1, m1, j2, m2, j3, m3):
    if m3 != m1 + m2 or not angular.triangle_delta(j1, j2, j3):
        return SQRT_ZERO
    ksum = Fraction(0)
    for k in range(max(0, j2 - j3 - m1, j1 - j3 + m2), min(j1 + j2 - j3, j1 - m1, j2 + m2) + 1):
        den = (_fact(k) * _fact(j1 + j2 - j3 - k) * _fact(j1 - m1 - k)
               * _fact(j2 + m2 - k) * _fact(j3 - j2 + m1 + k) * _fact(j3 - j1 - m2 + k))
        ksum += Fraction(-1 if k % 2 else 1, den)
    return SqrtRational.from_rational(
        ksum, (2 * j3 + 1) * _ref_delta2(j1, j2, j3) * _fact(j1 + m1) * _fact(j1 - m1)
        * _fact(j2 + m2) * _fact(j2 - m2) * _fact(j3 + m3) * _fact(j3 - m3))


def _ref_6j_sum(j1, j2, j3, j4, j5, j6):
    triads = (j1 + j2 + j3, j1 + j5 + j6, j4 + j2 + j6, j4 + j5 + j3)
    quads = (j1 + j2 + j4 + j5, j2 + j3 + j5 + j6, j3 + j1 + j6 + j4)
    total = Fraction(0)
    for t in range(max(triads), min(quads) + 1):
        den = math.prod(_fact(t - a) for a in triads) * math.prod(_fact(q - t) for q in quads)
        total += Fraction(-_fact(t + 1) if t % 2 else _fact(t + 1), den)
    return total


def _ref_9j(flat):
    a, b, c, d, e, f, g, h, i = flat
    rows_cols = ((a, b, c), (d, e, f), (g, h, i), (a, d, g), (b, e, h), (c, f, i))
    if not all(angular.triangle_delta(*tri) for tri in rows_cols):
        return SQRT_ZERO
    total = Fraction(0)
    for x in range(max(abs(a - i), abs(d - h), abs(b - f)), min(a + i, d + h, b + f) + 1):
        total += ((2 * x + 1) * _ref_delta2(a, i, x) * _ref_delta2(d, h, x) * _ref_delta2(b, f, x)
                  * _ref_6j_sum(a, d, g, h, i, x) * _ref_6j_sum(b, e, h, d, x, f)
                  * _ref_6j_sum(c, f, i, x, a, b))
    return SqrtRational.from_rational(total, math.prod(_ref_delta2(*tri) for tri in rows_cols))


def _exact(v: SqrtRational):
    assert type(v.radicand) is Fraction
    return v.sign, v.radicand


def _random_cg_args(rng, top):
    """(j1, m1, j2, m2, j3, m3) of a nonzero-candidate CG with j1 + j2 <= top."""
    j1 = rng.randint(0, top)
    j2 = rng.randint(0, top - j1)
    j3 = rng.randint(abs(j1 - j2), j1 + j2)
    m1 = rng.randint(-j1, j1)
    m2 = rng.randint(max(-j2, -j3 - m1), min(j2, j3 - m1))
    return j1, m1, j2, m2, j3, m1 + m2


def _random_9j(rng, top):
    """Nine entries <= top whose rows and columns all form triangles."""
    while True:
        a, b, d, e = (rng.randint(0, top) for _ in range(4))
        c, f = rng.randint(abs(a - b), a + b), rng.randint(abs(d - e), d + e)
        g, h = rng.randint(abs(a - d), a + d), rng.randint(abs(b - e), b + e)
        lo, hi = max(abs(g - h), abs(c - f)), min(g + h, c + f)
        if lo <= hi and max(c, f, g, h) <= top:
            return a, b, c, d, e, f, g, h, rng.randint(lo, hi)


def test_every_cg_up_to_degree_8_equals_the_fraction_sum():
    count = 0
    for j1 in range(9):
        for j2 in range(9):
            for j3 in range(abs(j1 - j2), j1 + j2 + 1):
                for m1 in range(-j1, j1 + 1):
                    for m2 in range(max(-j2, -j3 - m1), min(j2, j3 - m1) + 1):
                        args = (j1, m1, j2, m2, j3, m1 + m2)
                        assert _exact(_cg(*args)) == _exact(_ref_cg(*args)), args
                        count += 1
    assert count == 47241


def test_every_cg_zero_up_to_degree_40_equals_the_fraction_sum():
    for l1 in range(41):
        for l2 in range(41):
            for l3 in range(abs(l1 - l2), l1 + l2 + 1):
                got = _cg(l1, 0, l2, 0, l3, 0)
                assert _exact(got) == _exact(_ref_cg(l1, 0, l2, 0, l3, 0)), (l1, l2, l3)


def test_seeded_cg_up_to_the_cg_block_max_edge_equals_the_fraction_sum():
    rng = random.Random(130)
    samples = [_random_cg_args(rng, angular.CG_BLOCK_MAX) for _ in range(120)]
    samples += [(65, 3, 65, -7, 130, -4), (65, 0, 65, 0, 64, 0), (0, 0, 130, 5, 130, 5)]
    for args in samples:
        assert _exact(_cg(*args)) == _exact(_ref_cg(*args)), args


def test_seeded_9j_up_to_degree_10_equals_the_fraction_sum():
    rng = random.Random(9)
    nonzero = 0
    for _ in range(400):
        flat = _random_9j(rng, 10)
        got = _nine(flat)
        assert _exact(got) == _exact(_ref_9j(flat)), flat
        nonzero += not got.is_zero()
    assert nonzero > 350


def test_numpy_integer_entries_at_degree_64_equal_python_ints():
    # integer sums on np.int64 would overflow; cg takes each entry through operator.index
    for m in range(-64, 65, 8):
        want = _cg(64, m, 64, -m, 64, 0)
        got = _cg(np.int64(64), np.int64(m), np.int64(64), np.int64(-m), np.int64(64), np.int64(0))
        assert _exact(got) == _exact(want) == _exact(_ref_cg(64, m, 64, -m, 64, 0)), m
        assert all(type(x) is int for x in (got.radicand.numerator, got.radicand.denominator))
    assert _exact(_cg(*map(np.int64, (64, 0, 64, 0, 64, 0)))) == _exact(_cg(64, 0, 64, 0, 64, 0))
