"""Library values against implementations outside ``so3tp``: ``sympy.physics.wigner`` and mpmath.

Every other oracle in the suite is built from the library's own ``cg``.
Here each exact value must equal sympy's as an exact number: the signs
agree and the squares are equal rationals.  The quadrature nodes and
weights of ``make_grid`` are compared with Gauss-Legendre rules computed
in 40-digit mpmath arithmetic.  This is the only test module that imports
sympy or mpmath (``test_dependencies`` keeps it so); it is skipped when
the ``test`` extra is not installed.
"""

import math
import random
from fractions import Fraction

import pytest

from so3tp import angular, exact
from so3tp.exact import SqrtRational
from so3tp.sht import make_grid

sympy = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")
from sympy.physics import wigner  # noqa: E402


def _sympy_exact(value, scale=1) -> tuple[int, Fraction]:
    """(sign, square) of a sympy value whose square times ``scale`` is rational."""
    square = value ** 2 * scale
    assert square.is_Rational, value
    return int(sympy.sign(value)), Fraction(int(square.p), int(square.q))


def _exact(v: SqrtRational) -> tuple[int, Fraction]:
    return v.sign, v.radicand


def _cg_samples(rng, top, count):
    for _ in range(count):
        j1, j2 = rng.randint(0, top), rng.randint(0, top)
        j3 = rng.randint(abs(j1 - j2), j1 + j2)
        m1 = rng.randint(-j1, j1)
        m2 = rng.randint(max(-j2, -j3 - m1), min(j2, j3 - m1))
        yield j1, m1, j2, m2, j3, m1 + m2


def test_cg_equals_sympy_clebsch_gordan():
    rng = random.Random(16)
    samples = list(_cg_samples(rng, 12, 150)) + list(_cg_samples(rng, 40, 12))
    samples += [(l1, 0, l2, 0, l3, 0) for l1, l2, l3 in ((20, 21, 39), (30, 30, 40), (40, 40, 2))]
    nonzero = 0
    for j1, m1, j2, m2, j3, m3 in samples:
        got = exact.cg(j1, m1, j2, m2, j3, m3)
        assert _exact(got) == _sympy_exact(wigner.clebsch_gordan(j1, j2, j3, m1, m2, m3)), \
            (j1, m1, j2, m2, j3)
        nonzero += not got.is_zero()
    assert nonzero > 140


def test_cg_block_top_edge_equals_sympy_clebsch_gordan():
    # the float cg_block, every spin >= 1 weight of tsh's coupling table, at
    # j1 + j2 = CG_BLOCK_MAX, within the 1e-13 of verify's cg_block_vs_exact
    rng = random.Random(130)
    for j1, j2 in ((65, 65), (2, 128), (128, 2), (40, 90)):
        assert j1 + j2 == angular.CG_BLOCK_MAX
        for _ in range(6):
            j3 = rng.randint(abs(j1 - j2), j1 + j2)
            m1 = rng.randint(-j1, j1)
            m2 = rng.randint(max(-j2, -j3 - m1), min(j2, j3 - m1))
            want = float(wigner.clebsch_gordan(j1, j2, j3, m1, m2, m1 + m2))
            got = angular.cg_block(j1, j2, j3)[m1 + j1, m2 + j2]
            assert abs(got - want) <= 1e-13, (j1, m1, j2, m2, j3)


def test_cg_block_thin_top_edge_equals_sympy_clebsch_gordan():
    # a thin pair, min(j1, j2) <= 2, runs to j1 + j2 = 512, each order; the
    # samples include m1 = +-j1 and the first and last j3 of the pair
    rng = random.Random(512)
    for j1, j2 in ((1, 511), (511, 1), (2, 510), (510, 2)):
        assert j1 + j2 == 512 and min(j1, j2) <= 2
        lo, hi = abs(j1 - j2), j1 + j2
        for j3, m1 in [(lo, j1), (hi, -j1)] + [(rng.randint(lo, hi), rng.randint(-j1, j1))
                                                for _ in range(4)]:
            m2 = rng.randint(max(-j2, -j3 - m1), min(j2, j3 - m1))
            want = float(wigner.clebsch_gordan(j1, j2, j3, m1, m2, m1 + m2))
            got = angular.cg_block(j1, j2, j3)[m1 + j1, m2 + j2]
            assert abs(got - want) <= 1e-13, (j1, m1, j2, m2, j3)


def test_racah_6j_sum_equals_sympy_wigner_6j():
    # {j1 j2 j3; j4 j5 j6} = sum * sqrt(delta2 of its four triads)
    rng = random.Random(6)
    checked = 0
    while checked < 150:
        j = [rng.randint(0, 9) for _ in range(6)]
        j1, j2, j3, j4, j5, j6 = j
        triads = ((j1, j2, j3), (j1, j5, j6), (j4, j2, j6), (j4, j5, j3))
        if not all(angular.triangle_delta(*tri) for tri in triads):
            continue
        num, den = exact._racah_6j_sum(*j)
        rad_num, rad_den = 1, 1
        for tri in triads:
            n, d = exact._delta2(*tri)
            rad_num, rad_den = rad_num * n, rad_den * d
        got = SqrtRational.from_rational(Fraction(num, den), Fraction(rad_num, rad_den))
        assert _exact(got) == _sympy_exact(wigner.wigner_6j(*j)), j
        checked += 1


def test_wigner_9j_equals_sympy_wigner_9j():
    # about 20 ms per sympy symbol
    rng = random.Random(9)
    checked = 0
    while checked < 25:
        a, b, d, e = (rng.randint(0, 5) for _ in range(4))
        c, f = rng.randint(abs(a - b), a + b), rng.randint(abs(d - e), d + e)
        g, h = rng.randint(abs(a - d), a + d), rng.randint(abs(b - e), b + e)
        lo, hi = max(abs(g - h), abs(c - f)), min(g + h, c + f)
        if lo > hi or max(c, f, g, h) > 6:
            continue
        flat = (a, b, c, d, e, f, g, h, rng.randint(lo, hi))
        assert _exact(exact.wigner_9j(flat)) == _sympy_exact(wigner.wigner_9j(*flat, prec=None)), flat
        checked += 1


def test_gaunt_coefficient_equals_sympy_gaunt():
    # gaunt_coefficient integrates Y1 Y2 conj(Y3) and sympy's gaunt integrates
    # Y1 Y2 Y3; conj(Y^m3_l3) = (-1)^m3 Y^{-m3}_l3, so the two differ by (-1)^m3.
    # pi * gaunt^2 is rational; gaunt_coefficient's exact part is
    # (2l1+1)(2l2+1) / (4 (2l3+1)) * (C^{l3,m3}_{l1,m1,l2,m2} C^{l3,0}_{l1,0,l2,0})^2
    rng = random.Random(4)
    nonzero = 0
    for l1, m1, l2, m2, l3, m3 in _cg_samples(rng, 10, 200):
        want = (-1 if m3 % 2 else 1) * wigner.gaunt(l1, l2, l3, m1, m2, -m3)
        sign, square = _sympy_exact(want, scale=sympy.pi)
        got = exact.gaunt_coefficient(l1, m1, l2, m2, l3, m3)
        product = exact.cg(l1, m1, l2, m2, l3, m3) * exact.cg_zero(l1, l2, l3)
        scale = Fraction((2 * l1 + 1) * (2 * l2 + 1), 4 * (2 * l3 + 1))
        assert (product.sign, scale * product.radicand) == (sign, square), (l1, m1, l2, m2, l3)
        assert (got > 0) - (got < 0) == sign
        assert abs(got - sign * math.sqrt(square / math.pi)) <= 1e-15
        nonzero += sign != 0
    assert nonzero > 80


def _legendre_p(n, x):
    """(P_n(x), P_n'(x)) by the three-term recurrence, in mpmath arithmetic; |x| < 1."""
    p0, p1 = mpmath.mpf(1), x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, n * (x * p1 - p0) / (x * x - 1)


@pytest.mark.parametrize("n, weight_rtol", [(33, 1e-13), (129, 2.5e-11)])
def test_grid_nodes_and_weights_match_mpmath_gauss_legendre(n, weight_rtol):
    # Newton on P_n from each float node to 40 digits, then the weight
    # 2 / ((1 - x^2) P_n'(x)^2); make_grid(n - 1) has the n-point rule.
    # Nodes within one epsilon absolute; weights within weight_rtol
    # relative, about twice numpy's error (4.6e-14 at n = 33, 1.26e-11 at
    # n = 129: its weights lose digits as n grows)
    g = make_grid(n - 1)
    with mpmath.workdps(40):
        for x_float, w_float in zip(g.cos_theta, g.theta_weights):
            x = mpmath.mpf(x_float)
            for _ in range(3):
                p, dp = _legendre_p(n, x)
                x -= p / dp
            assert abs(p / dp) < mpmath.mpf(10) ** -35
            _, dp = _legendre_p(n, x)
            w = 2 / ((1 - x * x) * dp * dp)
            assert abs(x_float - x) <= 2.0 ** -52, (n, x_float)
            assert abs((w_float - w) / w) <= weight_rtol, (n, x_float)
