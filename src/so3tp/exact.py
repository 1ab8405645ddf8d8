"""Exact arithmetic: signed square roots of rationals and every exact coupling coefficient.

Angular momentum coupling coefficients are signed square roots of
rationals.  Selection-rule machinery needs exact zero/nonzero decisions,
which float thresholds cannot provide, so coefficients are computed and
combined in exact form and converted to float only at the boundary.

One value type, :class:`SqrtRational` (``sign * sqrt(p/q)``), covers
every exact coefficient.  Products stay in the type; a sum is exact when
its terms share one surd, i.e. their radicands differ by rational
squares, which holds for the CG and 9j sums this library evaluates.

``cg`` evaluates the Racah formula exactly, a rational sum times one
square root; it serves the selection rules and the test oracles.  The
products take the float forms in ``angular`` and ``rules`` and import
nothing from this module.

The general 9j symbol is evaluated exactly, as the selection rules
require, as a sum over one momentum x of products of three Racah 6j
symbols (Varshalovich et al. 1988, ch. 10), each by Racah's single
sum.  The triangle roots through x appear twice and are rational; the
six row and column roots appear once and are the one surd shared by
every term, so the sum is one rational times one square root taken at
the end; ``wigner_9j`` and ``generalized_gaunt_exact`` share its
cached core, entered with nine checked integers.

Every exact sum runs in Python integers (the approach of WIGXJPF:
Johansson & Forssen, SIAM J. Sci. Comput. 38, A376, 2016).  The terms of
a Racah sum share one common denominator, each the last times an exact
integer ratio, and the 9j carries its x-sum as one integer numerator and
denominator, so a CG or 9j symbol builds one ``Fraction`` and reduces it
once, at the end.  C^{l3,0}_{l1,0,l2,0} needs no sum at all: it has a
closed form (Varshalovich et al. 1988, sec. 8.5), which
``angular.cg_zero_float`` also evaluates in float.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .angular import _as_integers, _checked_cache, triangle_delta
from .rules import PathKey, _dims

__all__ = [
    "SqrtRational",
    "SQRT_ZERO",
    "SQRT_ONE",
    "cg",
    "cg_float",
    "cg_zero",
    "wigner_9j",
    "generalized_gaunt",
    "generalized_gaunt_exact",
    "gaunt_coefficient",
]


@dataclass(frozen=True)
class SqrtRational:
    """Exact value ``sign * sqrt(p/q)``.

    ``sign`` is -1, 0 or +1 and ``radicand`` is a non-negative rational in
    lowest terms (``Fraction`` keeps it canonical).  The zero value is
    ``SqrtRational(0, Fraction(0))``.
    """

    sign: int
    radicand: Fraction

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign}")
        if self.radicand < 0:
            raise ValueError("radicand must be non-negative")
        if (self.sign == 0) != (self.radicand == 0):
            raise ValueError("zero sign requires zero radicand and vice versa")

    @classmethod
    def from_rational(cls, coeff: Fraction, radicand: Fraction) -> "SqrtRational":
        """``coeff * sqrt(radicand)`` for a rational ``coeff``."""
        if coeff == 0 or radicand == 0:
            return SQRT_ZERO
        return cls(1 if coeff > 0 else -1, coeff * coeff * radicand)

    @property
    def p(self) -> int:
        return self.radicand.numerator

    @property
    def q(self) -> int:
        return self.radicand.denominator

    def is_zero(self) -> bool:
        return self.sign == 0

    def __float__(self) -> float:
        return self.sign * math.sqrt(self.radicand)

    def __add__(self, other: "SqrtRational") -> "SqrtRational":
        """Exact sum of two surds whose radicands differ by a rational square.

        sign_a sqrt(a) + sign_b sqrt(b) = (sign_a + sign_b k) sqrt(a) with
        k = sqrt(b / a); any other pair raises ``ValueError``.
        """
        if not isinstance(other, SqrtRational):
            return NotImplemented
        if other.sign == 0:
            return self
        if self.sign == 0:
            return other
        ratio = other.radicand / self.radicand
        num, den = math.isqrt(ratio.numerator), math.isqrt(ratio.denominator)
        if num * num != ratio.numerator or den * den != ratio.denominator:
            raise ValueError(f"{self} + {other} is not a single surd")
        return SqrtRational.from_rational(self.sign + other.sign * Fraction(num, den),
                                          self.radicand)

    def __mul__(self, other: "SqrtRational") -> "SqrtRational":
        if not isinstance(other, SqrtRational):
            return NotImplemented
        sign = self.sign * other.sign
        if sign == 0:
            return SQRT_ZERO
        return SqrtRational(sign, self.radicand * other.radicand)

    def __neg__(self) -> "SqrtRational":
        if self.sign == 0:
            return self
        return SqrtRational(-self.sign, self.radicand)

    def __str__(self) -> str:
        if self.sign == 0:
            return "0"
        return f"{'-' if self.sign < 0 else '+'}sqrt({self.p}/{self.q})"


SQRT_ZERO = SqrtRational(0, Fraction(0))
SQRT_ONE = SqrtRational(1, Fraction(1))


_fact = math.factorial


def _delta2(a: int, b: int, c: int) -> tuple[int, int]:
    """Squared triangle coefficient (a+b-c)!(a-b+c)!(-a+b+c)! / (a+b+c+1)! as (numerator, denominator)."""
    return _fact(a + b - c) * _fact(a - b + c) * _fact(-a + b + c), _fact(a + b + c + 1)


def _signed(num: int, den: int, radicand_num: int, radicand_den: int) -> SqrtRational:
    """(num / den) * sqrt(radicand_num / radicand_den) for integers with den > 0, as one ``Fraction``."""
    if num == 0:
        return SQRT_ZERO
    return SqrtRational(1 if num > 0 else -1,
                        Fraction(num * num * radicand_num, den * den * radicand_den))


_CG_ENTRIES = ("j1", "m1", "j2", "m2", "j3", "m3")


# 65,536 entries, ~25 MB at the ~380 bytes of a degree-16 entry: twice the
# ~31,000 that one run of the test suite accumulates, and above verify --full's
# 7,014 and the at most 16 * 33^2 = 17,424 of a cgtp_coeff reference pool
@_checked_cache(lambda *entries: _as_integers(entries, _CG_ENTRIES), maxsize=65536)
def cg(j1: int, m1: int, j2: int, m2: int, j3: int, m3: int) -> SqrtRational:
    """Exact Clebsch-Gordan coefficient C^{j3,m3}_{j1,m1,j2,m2}.

    Zero when m3 != m1 + m2 or the triangle condition fails.  Entries
    must be integers (Python or numpy) with |m_i| <= j_i; any other entry,
    such as 2.0, raises ``ValueError`` naming it, cached or not.  Racah's
    formula: a k-sum of (-1)^k / (k!(A-k)!(B-k)!(C-k)!(D+k)!(E+k)!) times
    sqrt((2j3+1) delta2 (j1+m1)!(j1-m1)!(j2+m2)!(j2-m2)!(j3+m3)!(j3-m3)!),
    with A = j1+j2-j3, B = j1-m1, C = j2+m2, D = j3-j2+m1, E = j3-j1-m2.
    The sum runs in Python integers over one common denominator, each term
    the last times an exact integer ratio, so the symbol builds a single
    ``Fraction``.  The m1 = m2 = 0 case is ``cg_zero``'s closed form.
    """
    j1, m1, j2, m2, j3, m3 = map(operator.index, (j1, m1, j2, m2, j3, m3))
    for j, m in ((j1, m1), (j2, m2), (j3, m3)):
        if j < 0 or abs(m) > j:
            raise ValueError(f"invalid (j, m) = ({j}, {m})")
    if m3 != m1 + m2 or not triangle_delta(j1, j2, j3):
        return SQRT_ZERO
    if m1 == m2 == 0:
        return _cg_zero(j1, j2, j3)
    A, B, C, D, E = j1 + j2 - j3, j1 - m1, j2 + m2, j3 - j2 + m1, j3 - j1 - m2
    lo, hi = max(0, -D, -E), min(A, B, C)
    # terms over den = hi!(A-lo)!(B-lo)!(C-lo)!(D+hi)!(E+hi)!; the k = lo one
    # is hi!/lo! (D+hi)!/(D+lo)! (E+hi)!/(E+lo)!, and each next term is the
    # last times -(A-k)(B-k)(C-k) / ((k+1)(D+k+1)(E+k+1))
    term = _fact(hi) // _fact(lo) * (_fact(D + hi) // _fact(D + lo)) * (_fact(E + hi) // _fact(E + lo))
    if lo % 2:
        term = -term
    total = term
    for k in range(lo, hi):
        term = -term * (A - k) * (B - k) * (C - k) // ((k + 1) * (D + k + 1) * (E + k + 1))
        total += term
    den = _fact(hi) * _fact(A - lo) * _fact(B - lo) * _fact(C - lo) * _fact(D + hi) * _fact(E + hi)
    tri_num, tri_den = _delta2(j1, j2, j3)
    return _signed(total, den, (2 * j3 + 1) * tri_num * _fact(j1 + m1) * _fact(B) * _fact(j2 - m2)
                   * _fact(C) * _fact(j3 + m3) * _fact(j3 - m3), tri_den)


def _cg_zero(l1: int, l2: int, l3: int) -> SqrtRational:
    """C^{l3,0}_{l1,0,l2,0} of a valid triangle in closed form (Varshalovich et al. 1988, sec. 8.5).

    Zero when 2g = l1 + l2 + l3 is odd; else (-1)^(g-l3) times the root of
    (2l3+1) delta2(l1, l2, l3) [g! / ((g-l1)!(g-l2)!(g-l3)!)]^2.
    """
    twice = l1 + l2 + l3
    if twice % 2:
        return SQRT_ZERO
    g = twice // 2
    tri_num, tri_den = _delta2(l1, l2, l3)
    ratio = _fact(g) // (_fact(g - l1) * _fact(g - l2) * _fact(g - l3))
    return SqrtRational(-1 if (g - l3) % 2 else 1,
                        Fraction((2 * l3 + 1) * tri_num * ratio * ratio, tri_den))


def cg_float(j1: int, m1: int, j2: int, m2: int, j3: int, m3: int) -> float:
    return float(cg(j1, m1, j2, m2, j3, m3))


def cg_zero(l1: int, l2: int, l3: int) -> SqrtRational:
    """C^{l3,0}_{l1,0,l2,0}; nonzero iff the triangle holds and l1+l2+l3 is even.

    The ``cg`` entry, so it shares cg's cache, evaluated by the sum-free
    closed form: with 2g = l1 + l2 + l3, the sign (-1)^(g-l3) times the root
    of (2l3+1) delta2(l1, l2, l3) [g! / ((g-l1)!(g-l2)!(g-l3)!)]^2.
    """
    return cg(l1, 0, l2, 0, l3, 0)


def _racah_6j_sum(j1: int, j2: int, j3: int, j4: int, j5: int, j6: int) -> tuple[int, int]:
    """Racah's t-sum as (numerator, denominator): {j1 j2 j3; j4 j5 j6} = sum * sqrt(product of its four delta2).

    All four triads (j1 j2 j3), (j1 j5 j6), (j4 j2 j6), (j4 j5 j3) must be
    triangles.  The terms (-1)^t (t+1)! / (prod_a (t-a)! prod_q (q-t)!)
    run over the common denominator prod_a (tmax-a)! prod_q (q-tmin)!,
    each the last times -(t+2) prod_q (q-t) / prod_a (t+1-a).
    """
    a1, a2, a3, a4 = j1 + j2 + j3, j1 + j5 + j6, j4 + j2 + j6, j4 + j5 + j3
    q1, q2, q3 = j1 + j2 + j4 + j5, j2 + j3 + j5 + j6, j3 + j1 + j6 + j4
    lo, hi = max(a1, a2, a3, a4), min(q1, q2, q3)
    n = hi - lo  # (hi-a)!/(lo-a)! = perm(hi-a, n)
    term = (_fact(lo + 1) * math.perm(hi - a1, n) * math.perm(hi - a2, n)
            * math.perm(hi - a3, n) * math.perm(hi - a4, n))
    if lo % 2:
        term = -term
    total = term
    for t in range(lo, hi):
        term = (-term * (t + 2) * (q1 - t) * (q2 - t) * (q3 - t)
                // ((t + 1 - a1) * (t + 1 - a2) * (t + 1 - a3) * (t + 1 - a4)))
        total += term
    return total, (_fact(hi - a1) * _fact(hi - a2) * _fact(hi - a3) * _fact(hi - a4)
                   * _fact(q1 - lo) * _fact(q2 - lo) * _fact(q3 - lo))


@lru_cache(maxsize=1024)
def _wigner_9j_cached(flat: tuple) -> SqrtRational:
    """The 9j symbol of nine Python ints, row-major; a negative entry raises, so is never cached."""
    if min(flat) < 0:
        raise ValueError("9j entries must be non-negative")
    a, b, c, d, e, f, g, h, i = flat
    # each row and column (x, y, z) must be a triangle, |x - y| <= z <= x + y
    if not (abs(a - b) <= c <= a + b and abs(d - e) <= f <= d + e and abs(g - h) <= i <= g + h
            and abs(a - d) <= g <= a + d and abs(b - e) <= h <= b + e and abs(c - f) <= i <= c + f):
        return SQRT_ZERO
    rows_cols = ((a, b, c), (d, e, f), (g, h, i), (a, d, g), (b, e, h), (c, f, i))
    # {a b c; d e f; g h i} = sum_x (2x+1) {a d g; h i x}{b e h; d x f}{c f i; x a b}.
    # The triads (a i x), (d h x), (b f x) each sit in two of the 6j, so their
    # roots multiply to the rational delta2; the rows and columns sit in one
    # each and give the surd common to every x.  The x-sum is kept as one
    # integer fraction num / den.
    num, den = 0, 1
    for x in range(max(abs(a - i), abs(d - h), abs(b - f)), min(a + i, d + h, b + f) + 1):
        (s1, e1), (s2, e2), (s3, e3) = (_racah_6j_sum(a, d, g, h, i, x), _racah_6j_sum(b, e, h, d, x, f),
                                        _racah_6j_sum(c, f, i, x, a, b))
        if s1 and s2 and s3:
            (n1, d1), (n2, d2), (n3, d3) = _delta2(a, i, x), _delta2(d, h, x), _delta2(b, f, x)
            term_den = d1 * d2 * d3 * e1 * e2 * e3
            num, den = num * term_den + (2 * x + 1) * n1 * n2 * n3 * s1 * s2 * s3 * den, den * term_den
    rad_num, rad_den = 1, 1
    for tri in rows_cols:
        n, m = _delta2(*tri)
        rad_num, rad_den = rad_num * n, rad_den * m
    return _signed(num, den, rad_num, rad_den)


def wigner_9j(grid) -> SqrtRational:
    """Exact Wigner 9j symbol for a 3x3 grid of non-negative integers.

    ``grid`` is ((j1, l1, s1), (j2, l2, s2), (j3, l3, s3)) or the same nine
    values flattened row-major.  Returns zero whenever any row or column
    violates the triangle condition.  Entries must be integers (Python or
    numpy); any other entry, such as a float, raises ``ValueError``.
    """
    try:
        flat = tuple(operator.index(x)
                     for row in grid for x in (row if hasattr(row, "__len__") else (row,)))
    except TypeError as exc:
        raise ValueError(f"9j entries must be integers: {exc}") from exc
    if len(flat) != 9:
        raise ValueError("wigner_9j expects nine entries")
    return _wigner_9j_cached(flat)


@_checked_cache(lambda path: (_as_integers(path, PathKey._fields),), maxsize=1024)
def generalized_gaunt_exact(path: PathKey) -> SqrtRational:
    """Exact radical part of the path coefficient, excluding the 1/sqrt(4 pi).

    The returned value is sqrt(dims) * 9j * C^{l3,0}; it is zero exactly
    when the true coefficient is zero, which is what rule checks need.
    A label that is not an integer, such as j3 = 2.0, raises
    ``ValueError`` naming it, cached or not; a negative one raises
    ``wigner_9j``'s ``ValueError``.
    """
    p = PathKey(*path)
    nine = _wigner_9j_cached(path)  # PathKey order is the 9j grid, row-major
    if nine.is_zero():
        return nine
    prod = nine * cg_zero(p.l1, p.l2, p.l3)
    return SqrtRational(1, Fraction(_dims(p.j1, p.l1, p.j2, p.l2, p.s3))) * prod


def generalized_gaunt(path: PathKey) -> float:
    """Coefficient of the (j3, l3) output term for a full coupling path."""
    return float(generalized_gaunt_exact(path)) / math.sqrt(4.0 * math.pi)


def gaunt_coefficient(l1: int, m1: int, l2: int, m2: int, l3: int, m3: int) -> float:
    """integral(Y^m1_l1 Y^m2_l2 conj(Y^m3_l3)) over the sphere.

    Equals sqrt((2l1+1)(2l2+1) / (4 pi (2l3+1))) C^{l3,m3}_{l1,m1,l2,m2}
    C^{l3,0}_{l1,0,l2,0}; zero unless m3 = m1 + m2, the triangle condition
    holds, and l1 + l2 + l3 is even.
    """
    for l, m in ((l1, m1), (l2, m2), (l3, m3)):
        if l < 0 or abs(m) > l:
            raise ValueError(f"need |m| <= l, got (l, m) = ({l}, {m})")
    exact = cg(l1, m1, l2, m2, l3, m3) * cg_zero(l1, l2, l3)
    scale = math.sqrt((2 * l1 + 1) * (2 * l2 + 1) / (4.0 * math.pi * (2 * l3 + 1)))
    return scale * float(exact)
