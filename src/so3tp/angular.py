"""Clebsch-Gordan coefficients, Wigner d/D matrices, and Wigner 9j symbols.

Conventions: integer angular momenta only, quantum-mechanical
(Condon-Shortley) phases, complex spherical harmonics, active zyz Euler
rotations.  The rotation of degree-j coefficient vectors is ``x' = D x``
with ``D = wigner_d_matrix(j, alpha, beta, gamma)``; a rotation about z by
``t`` has diagonal entries ``exp(-1j * m * t)``.

Clebsch-Gordan values come in two forms.  ``cg`` evaluates the Racah
formula exactly, a rational sum times one square root; it serves the selection
rules and the test oracles.  The float form serves the products, so no
product evaluates an exact coefficient: ``cg_tensor`` holds every j3 of
an unordered pair j1 <= j2, j1 + j2 <= 130, in one half-sheared layout
S[M, k, m1 + j1] = C^{j2-j1+k,M}_{j1,m1,j2,M-m1} for M >= 0, read from
the eigenvectors of J^2 on the subspaces of total M >= 0 and cached;
``cg_block`` checks once and gathers a whole block C^{j3,m1+m2}_{j1,m1,j2,m2}
of either order from it through the mirror and swap identities.

The general 9j symbol is evaluated exactly, as the selection rules
require, as a sum over one momentum x of products of three Racah 6j
symbols (Varshalovich et al. 1988, ch. 10), each by Racah's single
sum.  The triangle roots through x appear twice and are rational; the
six row and column roots appear once and are the one surd shared by
every term, so the sum is one rational times one square root taken at
the end; ``wigner_9j`` and ``rules.generalized_gaunt_exact`` share its
cached core, entered with nine checked integers.  A closed-form fast path
covers the grids with unit spins in the third column: five closed forms
and the 9j symmetries give all 27 offset cells.

Every exact sum runs in Python integers (the approach of WIGXJPF:
Johansson & Forssen, SIAM J. Sci. Comput. 38, A376, 2016).  The terms of
a Racah sum share one common denominator, each the last times an exact
integer ratio, and the 9j carries its x-sum as one integer numerator and
denominator, so a CG or 9j symbol builds one ``Fraction`` and reduces it
once, at the end.  C^{l3,0}_{l1,0,l2,0} needs no sum at all: it has a
closed form (Varshalovich et al. 1988, sec. 8.5), which ``cg_zero_float``
also evaluates in float from one table of central binomials over 4^k.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache, wraps

import numpy as np

from .exact import SQRT_ZERO, SqrtRational

__all__ = [
    "triangle_delta",
    "cg",
    "cg_float",
    "cg_block",
    "cg_tensor",
    "cg_zero",
    "cg_zero_float",
    "wigner_d_matrix",
    "wigner_9j",
    "wigner_9j_spin1",
    "rotation_matrix",
]

_fact = math.factorial


def triangle_delta(a: int, b: int, c: int) -> int:
    """Triangular delta {a,b,c}: 1 iff a, b, c satisfy all triangle inequalities."""
    for x in (a, b, c):
        if x < 0:
            raise ValueError(f"triangle_delta arguments must be non-negative, got {(a, b, c)}")
    return int(a <= b + c and b <= a + c and c <= a + b)


def _delta2(a: int, b: int, c: int) -> tuple[int, int]:
    """Squared triangle coefficient (a+b-c)!(a-b+c)!(-a+b+c)! / (a+b+c+1)! as (numerator, denominator)."""
    return _fact(a + b - c) * _fact(a - b + c) * _fact(-a + b + c), _fact(a + b + c + 1)


def _signed(num: int, den: int, radicand_num: int, radicand_den: int) -> SqrtRational:
    """(num / den) * sqrt(radicand_num / radicand_den) for integers with den > 0, as one ``Fraction``."""
    if num == 0:
        return SQRT_ZERO
    return SqrtRational(1 if num > 0 else -1,
                        Fraction(num * num * radicand_num, den * den * radicand_den))


def _as_integer(value, name: str) -> int:
    """``value`` as a Python int (from Python or numpy integers); else ``ValueError`` naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name}={value!r} must be an integer") from None


def _as_integers(values, names: tuple) -> tuple:
    """Each of ``values`` through ``_as_integer`` under its name, in one C loop when all pass."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        return tuple(map(_as_integer, values, names))


def _checked_cache(check, maxsize: int | None = None):
    """``lru_cache(maxsize)`` entered through ``check``, which returns the cache key or raises.

    A cache keyed on the raw arguments answers a float entry such as 2.0
    once the integer call is cached (2.0 == 2, with equal hashes), so the
    check runs before every lookup.  The entry keeps ``cache_info``,
    ``cache_clear`` and, as ``__wrapped__``, the uncached body.
    """
    def decorate(fn):
        cached = lru_cache(maxsize)(fn)

        @wraps(fn)
        def entry(*args):
            return cached(*check(*args))

        entry.cache_info, entry.cache_clear = cached.cache_info, cached.cache_clear
        return entry
    return decorate


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


CG_BLOCK_MAX = 130  # largest j1 + j2 that cg_block serves


def require_triangle(j1: int, j2: int, j3: int) -> None:
    """``ValueError`` unless the non-negative (j1, j2, j3) form a triangle."""
    if not triangle_delta(j1, j2, j3):
        raise ValueError(f"({j1}, {j2}, {j3}) violates the triangle condition")


def require_natural(value, name: str) -> int:
    """``value`` as a Python int; ``ValueError`` naming it unless a non-negative integer."""
    n = _as_integer(value, name)
    if n < 0:
        raise ValueError(f"{name}={value} must be non-negative")
    return n


def _require_cg_range(j1: int, j2: int) -> None:
    """``ValueError`` unless j1 + j2 <= CG_BLOCK_MAX, the float CG range."""
    if j1 + j2 > CG_BLOCK_MAX:
        raise ValueError(f"j1 + j2 = {j1 + j2} exceeds the float CG range {CG_BLOCK_MAX}")


def cg_tensor(j1: int, j2: int) -> np.ndarray:
    """Read-only half-sheared CG tensor of the unordered pair j1 <= j2 <= CG_BLOCK_MAX - j1.

    S[M, k, m1 + j1] = C^{j3,M}_{j1,m1,j2,M-m1} with j3 = j2 - j1 + k, for
    M = 0..j1+j2 and k = 0..2j1; entries with |M - m1| > j2 or M > j3
    are zero.  The M < 0 half follows from the mirror identity
    C(-m1, -m2) = (-1)^(j1+j2-j3) C(m1, m2), and pairs with j1 > j2 from
    the swap identity C^{j3}_{j2,m2,j1,m1} = (-1)^(j1+j2-j3) C^{j3}_{j1,m1,j2,m2},
    so the tensors of 512 unordered pairs, about 114 MB, hold every pair
    of an L = 30 product (L = 32 needs 561).  Degrees must be integers
    (Python or numpy), checked before the cache is read.
    """
    j1, j2 = _as_integer(j1, "j1"), _as_integer(j2, "j2")
    if min(j1, j2) < 0:
        raise ValueError(f"degrees must be non-negative, got {(j1, j2)}")
    if j1 > j2:
        raise ValueError(f"cg_tensor takes an unordered pair j1 <= j2, got {(j1, j2)}")
    _require_cg_range(j1, j2)
    return _cg_tensor(j1, j2)


def cg_block(j1: int, j2: int, j3: int) -> np.ndarray:
    """All C^{j3,m1+m2}_{j1,m1,j2,m2} as a read-only float array [m1+j1, m2+j2].

    Entries with |m1 + m2| > j3 are zero.  Gathered from the pair's
    half-sheared ``cg_tensor``: the M < 0 entries by the mirror identity,
    and a pair with j1 > j2 as (-1)^(j1+j2-j3) times the transposed block
    of (j2, j1), so the two orders agree exactly.  Agrees with the exact
    ``cg`` to 1e-13 for j1 + j2 <= CG_BLOCK_MAX (130: every spin <= 2
    coupling of an L=64 product decoded at 128); degrees outside that
    range raise.
    """
    j1, j2, j3 = (require_natural(j, name) for name, j in (("j1", j1), ("j2", j2), ("j3", j3)))
    require_triangle(j1, j2, j3)
    _require_cg_range(j1, j2)
    a, b = sorted((j1, j2))
    sign = (-1.0) ** (j1 + j2 - j3)
    ia = np.arange(2 * a + 1)[:, None]
    M = ia + np.arange(-a - b, b - a + 1)  # m_a + m_b of each [m_a + a, m_b + b] slot
    up = M >= 0
    S = _cg_tensor(a, b)
    blk = np.where(up, 1.0, sign) * S[np.abs(M), j3 - b + a, np.where(up, ia, 2 * a - ia)]
    if j1 > j2:
        blk = sign * blk.T
    blk.flags.writeable = False
    return blk


@lru_cache(maxsize=512)
def _cg_tensor(j1: int, j2: int) -> np.ndarray:
    """Half-sheared S[M, k, m1 + j1] of ``cg_tensor`` for j1 <= j2, from J^2 eigenvectors.

    On the subspace of total M, J^2 is symmetric tridiagonal in the basis
    |m1, M - m1>, and the CG column of each j3 >= M is its eigenvector with
    eigenvalue j3(j3 + 1).  The J + 1 subspaces M >= 0 go through one
    batched eigh with column m1 + j1; the slots with M - m1 > j2 get
    distinct negative diagonal entries and sort first, so eigenvector k
    belongs to j3 = j2 - j1 + k.  Phases: the top state M = j3 has sign
    (-1)^(j1 - m1) (read at its largest entry), and each lower state makes
    <v_M, J_- v_{M+1}> > 0.
    """
    J, n = j1 + j2, 2 * j1 + 1
    M = np.arange(J + 1)[:, None]
    a = np.arange(n)
    m1 = a - j1
    m2 = M - m1
    real = m2 <= j2  # m2 >= -j2 always holds for M >= 0 and j1 <= j2
    # J^2 = J1^2 + J2^2 + 2 J1z J2z + J1+ J2- + J1- J2+ on |m1, M - m1>
    H = np.zeros((J + 1, n, n))
    H[:, a, a] = np.where(real, j1 * (j1 + 1) + j2 * (j2 + 1) + 2.0 * m1 * m2, -1.0 - a)
    # <m1+1, m2-1| J1+ J2- |m1, m2>, zero out of a padded slot
    ladder = (j1 * (j1 + 1) - m1 * (m1 + 1)) * (j2 * (j2 + 1) - m2 * (m2 - 1.0))
    H[:, a[1:], a[:-1]] = np.sqrt(np.where(real, ladder, 0.0)[:, :-1])
    S = np.linalg.eigh(H)[1].transpose(0, 2, 1)
    j3 = j2 - j1 + a

    # <v_M, J_- v_{M+1}> with J_- = J1- (shifts m1 down) + J2- (in place)
    lowered = np.sqrt(np.maximum(j2 * (j2 + 1.0) - m2[:-1] * (m2[:-1] + 1), 0.0))[:, None] * S[1:]
    lowered[:, :, :-1] += np.sqrt(j1 * (j1 + 1.0) - m1[1:] * (m1[1:] - 1)) * S[1:, :, 1:]
    step = np.ones((J + 1, n))  # stays 1 above the top state M = j3
    step[:-1] = np.where(M[:-1] < j3, np.sign(np.einsum("mka,mka->mk", S[:-1], lowered)), 1.0)
    # top-state sign, read at the largest entry of each M = j3 row
    top = S[j3, a]
    at = np.abs(top).argmax(axis=1)
    step[j3, a] = np.sign(top[a, at]) * (-1.0) ** (2 * j1 - at)
    # the sign of state (j3, M) is the top sign times every step from j3 down to M
    S = S * np.cumprod(step[::-1], axis=0)[::-1, :, None]
    # impose C(-m1, -m2) = (-1)^(J-j3) C(m1, m2) at M = 0, which zeroes
    # the m1 = m2 = 0 entry of every odd J - j3
    sign = (-1.0) ** (J - j3)[:, None]
    S[0] = 0.5 * (S[0] + sign * S[0, :, ::-1])
    if j1 == j2:
        # impose the swap identity C^{j3}_{j2,m2,j1,m1} = (-1)^(J-j3) C^{j3}_{j1,m1,j2,m2}
        swap = np.minimum(M + 2 * j1 - a, 2 * j1)  # slot of m1' = m2; clipped ones are zeroed
        S = 0.5 * (S + sign * S[M[:, :, None], a[:, None], swap[:, None, :]])
    S = np.ascontiguousarray(S)
    S[(M[:, :, None] > j3[:, None]) | ~real[:, None, :]] = 0.0
    S.flags.writeable = False
    return S


def cg_zero(l1: int, l2: int, l3: int) -> SqrtRational:
    """C^{l3,0}_{l1,0,l2,0}; nonzero iff the triangle holds and l1+l2+l3 is even.

    The ``cg`` entry, so it shares cg's cache, evaluated by the sum-free
    closed form: with 2g = l1 + l2 + l3, the sign (-1)^(g-l3) times the root
    of (2l3+1) delta2(l1, l2, l3) [g! / ((g-l1)!(g-l2)!(g-l3)!)]^2.
    """
    return cg(l1, 0, l2, 0, l3, 0)


CG_ZERO_MAX = 1024  # largest degree cg_zero_float serves


@lru_cache(maxsize=1)
def _half_ratios() -> tuple:
    """b(k) = prod_{i<=k} (2i-1)/(2i) = C(2k, k) / 4^k for k = 0..3 CG_ZERO_MAX / 2, each correctly rounded."""
    ratios, central = [1.0], 1
    for k in range(1, 3 * CG_ZERO_MAX // 2 + 1):
        central = central * (2 * k) * (2 * k - 1) // (k * k)  # C(2k, k)
        ratios.append(central / (1 << 2 * k))  # int / int rounds correctly
    return tuple(ratios)


def _require_cg_zero_range(l1: int, l2: int, l3: int) -> None:
    """``ValueError`` unless every degree is at most CG_ZERO_MAX, the float C^{l3,0} range."""
    if max(l1, l2, l3) > CG_ZERO_MAX:
        raise ValueError(f"degrees {(l1, l2, l3)} exceed the float C^(l3,0) range {CG_ZERO_MAX}")


def cg_zero_float(l1: int, l2: int, l3: int) -> float:
    """C^{l3,0}_{l1,0,l2,0} in float, for degrees up to CG_ZERO_MAX; past it ``ValueError``.

    ``cg_zero``'s closed form with each (2k)! / k!^2 written as 4^k b(k):
    with 2g = l1 + l2 + l3 even and a valid triangle, the square is
    (2l3+1)/(2g+1) b(g-l1) b(g-l2) b(g-l3) / b(g) and the sign (-1)^(g-l3);
    an odd sum or a broken triangle gives 0.0, a negative degree raises.
    b comes from one table built on first use, so the value takes the same
    ten roundings (four table entries, five operations, one square root)
    at every degree: within 5e-16 relative of the exact ``cg_zero`` up to
    CG_ZERO_MAX, where an ``lgamma`` form is already 2.4e-13 off at degree 64.
    The checks (range, then triangle) precede one unchecked core.
    """
    _require_cg_zero_range(l1, l2, l3)
    if not triangle_delta(l1, l2, l3):
        return 0.0
    return _cg_zero_float_core(l1, l2, l3)


def _cg_zero_float_core(l1: int, l2: int, l3: int) -> float:
    """``cg_zero_float`` without its checks: a triangle of Python ints, none past CG_ZERO_MAX."""
    twice = l1 + l2 + l3
    if twice % 2:
        return 0.0
    g = twice // 2
    b = _half_ratios()
    value = math.sqrt((2 * l3 + 1) / (2 * g + 1) * b[g - l1] * b[g - l2] * b[g - l3] / b[g])
    return -value if (g - l3) % 2 else value


@lru_cache(maxsize=128)
def _jy_eigenvectors(j: int) -> np.ndarray:
    """Unitary V with J_y = V diag(m) V^H, columns ordered m = -j..j."""
    m = np.arange(-j, j)
    # <m+1| J_y |m> = sqrt((j - m)(j + m + 1)) / 2i; J_y is Hermitian
    jy = np.diag(np.sqrt((j - m) * (j + m + 1.0)) / 2j, k=-1)
    return np.linalg.eigh(jy + jy.conj().T)[1]


def wigner_d_matrix(j: int, alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Wigner D^j matrix for the active zyz rotation (alpha, beta, gamma).

    Returns the (2j+1) x (2j+1) complex matrix D^j_{m,n} with both indices
    running m, n = -j..j, so that rotating a signal on the sphere by g maps
    its degree-j coefficient vector x to D x.
    """
    require_natural(j, "j")
    m = np.arange(-j, j + 1)
    V = _jy_eigenvectors(j)
    # d^j(beta) = exp(-i beta J_y), real for the Condon-Shortley basis
    d = ((V * np.exp(-1j * m * beta)) @ V.conj().T).real
    return np.exp(-1j * m[:, None] * alpha) * d * np.exp(-1j * m[None, :] * gamma)


def rotation_matrix(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Cartesian 3x3 matrix of the active zyz rotation Rz(alpha) Ry(beta) Rz(gamma)."""
    ca, sa = math.cos(alpha), math.sin(alpha)
    cb, sb = math.cos(beta), math.sin(beta)
    cc, sc = math.cos(gamma), math.sin(gamma)
    rz1 = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cb, 0.0, sb], [0.0, 1.0, 0.0], [-sb, 0.0, cb]])
    rz2 = np.array([[cc, -sc, 0.0], [sc, cc, 0.0], [0.0, 0.0, 1.0]])
    return rz1 @ ry @ rz2


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
    rows_cols = ((a, b, c), (d, e, f), (g, h, i), (a, d, g), (b, e, h), (c, f, i))
    if not all(triangle_delta(*tri) for tri in rows_cols):
        return SQRT_ZERO
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


def _rise3(n: int) -> int:
    return n * (n + 1) * (n + 2)


# Closed forms for {a+lam, a, 1; b+mu, b, 1; c+nu, c, 1} on the five
# canonical offset cells (lam, mu, nu), onto which the other 22 fold:
# (a, b, c, s=a+b+c) -> (pref, num, den) in Python ints, the symbol being
# pref * sqrt(num / den).  Every cell takes one correctly rounded int / int
# division and one square root.  The five triangles that wigner_9j_spin1
# checks (vstp_rules: r1-r3) keep every denominator factor positive.
_SPIN1_TABLE = {
    (1, 1, 1): lambda a, b, c, s: (
        1, _rise3(s + 2) * (s - 2 * a + 1) * (s - 2 * b + 1) * (s - 2 * c + 1),
        3 * _rise3(2 * a + 1) * _rise3(2 * b + 1) * _rise3(2 * c + 1)),
    (1, 1, 0): lambda a, b, c, s: (
        a - b, 2 * (s + 2) * (s + 3) * (s - 2 * c + 1) * (s - 2 * c + 2),
        3 * _rise3(2 * a + 1) * _rise3(2 * b + 1) * _rise3(2 * c)),
    (1, 1, -1): lambda a, b, c, s: (
        -1, (s + 2) * _rise3(s - 2 * c + 1) * (s - 2 * a) * (s - 2 * b),
        3 * _rise3(2 * a + 1) * _rise3(2 * b + 1) * _rise3(2 * c - 1)),
    (1, 0, 0): lambda a, b, c, s: (
        2 * (a + 1), (s + 2) * (s - 2 * a) * (s - 2 * b + 1) * (s - 2 * c + 1),
        3 * _rise3(2 * a + 1) * _rise3(2 * b) * _rise3(2 * c)),
    (1, 0, -1): lambda a, b, c, s: (
        -(a + c + 1), 2 * (s - 2 * a - 1) * (s - 2 * a) * (s - 2 * c + 1) * (s - 2 * c + 2),
        3 * _rise3(2 * a + 1) * _rise3(2 * b) * _rise3(2 * c - 1)),
}


def _spin1_fold(lam: int, mu: int, nu: int) -> tuple:
    """How offset cell (lam, mu, nu) folds onto its canonical cell: (swap, row order, cell, sign).

    The column swap runs when more offsets are -1 than +1 and turns each
    row (x + o, x, 1) into (x', x' - o, 1) with x' = x + o; a stable sort
    then orders the rows by offset, descending.  Each move multiplies the
    symbol by (-1)^S with S = lam + mu + nu + 1 (mod 2), the sum of its
    nine entries.  The (0, 0, 0) cell has no canonical cell (None).
    """
    swap = lam + mu + nu < 0
    offsets = (-lam, -mu, -nu) if swap else (lam, mu, nu)
    # a stable sort transposes exactly the strictly inverted row pairs
    moves = swap + sum(offsets[i] < offsets[k] for i, k in ((0, 1), (0, 2), (1, 2)))
    order = tuple(sorted(range(3), key=offsets.__getitem__, reverse=True))
    cell = _SPIN1_TABLE.get(tuple(offsets[i] for i in order))
    return swap, order, cell, -1 if (lam + mu + nu + 1) * moves % 2 else 1


_SPIN1_FOLDS = {cell: _spin1_fold(*cell) for cell in itertools.product((-1, 0, 1), repeat=3)}


def _wigner_9j_spin1_core(a: int, lam: int, b: int, mu: int, c: int, nu: int) -> float:
    """``wigner_9j_spin1`` without its checks: Python ints whose five triangles hold."""
    swap, (i1, i2, i3), cell, sign = _SPIN1_FOLDS[lam, mu, nu]
    if cell is None:
        return 0.0
    xs = (a + lam, b + mu, c + nu) if swap else (a, b, c)
    x1, x2, x3 = xs[i1], xs[i2], xs[i3]
    pref, num, den = cell(x1, x2, x3, x1 + x2 + x3)
    return sign * pref * math.sqrt(num / den) if pref and num else 0.0


def wigner_9j_spin1(a: int, lam: int, b: int, mu: int, c: int, nu: int) -> float:
    """Closed-form {a+lam, a, 1; b+mu, b, 1; c+nu, c, 1} with lam, mu, nu in {-1, 0, 1}.

    Fast path for the 9j grids whose third column is (1, 1, 1); each table
    cell is exactly the general ``wigner_9j``.  Two 9j symmetries
    (Varshalovich et al. 1988, sec. 10.4) map every offset cell onto one
    of the five in ``_SPIN1_TABLE`` (``_spin1_fold``): swapping the first
    two columns, and permuting the rows.  The (0, 0, 0) cell is its own
    column swap with odd entry sum, so it is zero.  The value is one
    correctly rounded int / int division under a square root, times an
    integer prefactor.

    Entries must be integers (Python or numpy); a float raises
    ``ValueError``, as do offsets outside {-1, 0, 1} and negative entries.
    A row or column that is not a triangle gives 0.0.
    """
    try:
        a, lam, b, mu, c, nu = map(operator.index, (a, lam, b, mu, c, nu))
    except TypeError as exc:
        raise ValueError(f"spin-1 9j entries must be integers, got {(a, lam, b, mu, c, nu)}") from exc
    if lam not in (-1, 0, 1) or mu not in (-1, 0, 1) or nu not in (-1, 0, 1):
        raise ValueError(f"lam, mu, nu must be in {{-1, 0, 1}}, got {(lam, mu, nu)}")
    if min(a, b, c) < 0 or a + lam < 0 or b + mu < 0 or c + nu < 0:
        raise ValueError("row entries must be non-negative")
    rows = ((a + lam, a, 1), (b + mu, b, 1), (c + nu, c, 1))
    cols = ((a + lam, b + mu, c + nu), (a, b, c))
    if any(not triangle_delta(*tri) for tri in rows + cols):
        return 0.0
    return _wigner_9j_spin1_core(a, lam, b, mu, c, nu)
