"""Float Clebsch-Gordan coefficients, Wigner d/D matrices, spin-1 9j symbols and label checks.

Conventions: integer angular momenta only, quantum-mechanical
(Condon-Shortley) phases, complex spherical harmonics, active zyz Euler
rotations.  The rotation of degree-j coefficient vectors is ``x' = D x``
with ``D = wigner_d_matrix(j, alpha, beta, gamma)``; a rotation about z by
``t`` has diagonal entries ``exp(-1j * m * t)``.

Every exact-valued coefficient, the Racah sums behind them included,
lives in ``exact``.  The float forms here serve the products, so no
product evaluates an exact coefficient: ``cg_tensor`` holds every j3 of
an unordered pair j1 <= j2 in the float CG range (j1 + j2 <= 130, or
<= 512 when j1 <= 2) in one half-sheared layout
S[M, k, m1 + j1] = C^{j2-j1+k,M}_{j1,m1,j2,M-m1} for M >= 0, built by the
three-term recurrence in j3 run from both ends, every pair of one first
degree in one pass (``_cg_pass``), and kept in one 512-pair cache.
One gather, ``_cg_entries``, reads any entries C^{j3,m1+m2}_{j1,m1,j2,m2}
of either order, of one pair or many, through the mirror and swap
identities: ``cg_block`` checks once and gathers a whole block with it,
and ``tsh``'s coupling tables gather every key's weights in one call.
The J_y eigenbasis of the Wigner d matrix is the module's one
eigensolver.

A closed-form fast path covers the 9j grids with unit spins in the third
column: five closed forms and the 9j symmetries give all 27 offset
cells.  ``cg_zero_float`` evaluates C^{l3,0}_{l1,0,l2,0} in float from
one table of central binomials over 4^k.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import OrderedDict, namedtuple
from functools import lru_cache, wraps

import numpy as np

__all__ = [
    "triangle_delta",
    "cg_block",
    "cg_tensor",
    "cg_zero_float",
    "wigner_d_matrix",
    "wigner_9j_spin1",
    "rotation_matrix",
]


def __getattr__(name):
    # the exact functions perfbench reads here until it imports them from ``exact``
    if name in ("cg", "cg_float", "cg_zero", "wigner_9j"):
        from . import exact
        return getattr(exact, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def triangle_delta(a: int, b: int, c: int) -> int:
    """Triangular delta {a,b,c}: 1 iff a, b, c satisfy all triangle inequalities."""
    for x in (a, b, c):
        if x < 0:
            raise ValueError(f"triangle_delta arguments must be non-negative, got {(a, b, c)}")
    return int(a <= b + c and b <= a + c and c <= a + b)


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


CG_BLOCK_MAX = 130  # largest j1 + j2 that cg_block serves for every pair
_CG_THIN_DEGREE, _CG_THIN_MAX = 2, 512  # pairs with min(j1, j2) <= 2 run up to j1 + j2 <= 512


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


def _require_cg_range(a, b) -> None:
    """``ValueError`` unless each unordered pair a <= b (ints or same-shape arrays) is in the float CG range.

    The range is j1 + j2 <= CG_BLOCK_MAX for every pair, and j1 + j2 <= 512
    for a thin pair, min(j1, j2) <= 2: every spin <= 2 coupling of a
    decode at 256.  The message names the first pair outside.
    """
    outside = (a + b > CG_BLOCK_MAX) & ((a > _CG_THIN_DEGREE) | (a + b > _CG_THIN_MAX))
    if np.any(outside):
        i = np.argmax(outside)
        pair = int(np.ravel(a)[i]), int(np.ravel(b)[i])
        raise ValueError(f"pair {pair} exceeds the float CG range: j1 + j2 <= {CG_BLOCK_MAX}, "
                         f"or <= {_CG_THIN_MAX} when min(j1, j2) <= {_CG_THIN_DEGREE}")


def cg_tensor(j1: int, j2: int) -> np.ndarray:
    """Read-only half-sheared CG tensor of the unordered pair j1 <= j2 in the float CG range.

    S[M, k, m1 + j1] = C^{j3,M}_{j1,m1,j2,M-m1} with j3 = j2 - j1 + k, for
    M = 0..j1+j2 and k = 0..2j1; entries with |M - m1| > j2 or M > j3
    are zero.  The M < 0 half follows from the mirror identity
    C(-m1, -m2) = (-1)^(j1+j2-j3) C(m1, m2), and pairs with j1 > j2 from
    the swap identity C^{j3}_{j2,m2,j1,m1} = (-1)^(j1+j2-j3) C^{j3}_{j1,m1,j2,m2},
    so the tensors of 512 unordered pairs, about 114 MB, hold every pair
    of an L = 30 product (L = 32 needs 561).  The range is j1 + j2 <=
    CG_BLOCK_MAX, or j1 + j2 <= 512 when j1 <= 2.  Degrees must be
    integers (Python or numpy), checked before the cache is read.
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
    of (j2, j1), so the two orders agree exactly.  Agrees with ``exact.cg``
    to 1e-13 in the float CG range: j1 + j2 <= CG_BLOCK_MAX (130: every
    spin <= 2 coupling of an L=64 product decoded at 128), and j1 + j2 <=
    512 when min(j1, j2) <= 2; degrees outside it raise.
    """
    j1, j2, j3 = (require_natural(j, name) for name, j in (("j1", j1), ("j2", j2), ("j3", j3)))
    require_triangle(j1, j2, j3)
    blk = _cg_entries(j1, j2, j3, np.arange(-j1, j1 + 1)[:, None], np.arange(-j2, j2 + 1))
    blk.flags.writeable = False
    return blk


def _cg_entries(j1, j2, j3, m1, m2) -> np.ndarray:
    """C^{j3,m1+m2}_{j1,m1,j2,m2} of broadcast integer arrays, in one take from the ``cg_tensor`` layouts.

    Every (j1, j2, j3) must be a triangle with |m1| <= j1 and |m2| <= j2,
    unchecked; a pair past the float CG range raises.  Each entry reads
    the half-sheared tensor of its unordered pair (a, b) = sorted((j1, j2))
    at |M|, M = m1 + m2, where |M| > j3 reads one of the tensor's zeros.
    An entry with M < 0 reads the mirror slot m_a -> -m_a, and one with
    j1 > j2 the swapped pair; each flips the sign when j1 + j2 - j3 is
    odd, so an entry that is both keeps it.  The tensors of all pairs
    present come from one ``_cg_tensors`` call, which builds the missing
    ones in one recurrence pass per first degree, and are read as one
    flat array.
    """
    j1, j2, j3 = np.broadcast_arrays(j1, j2, j3)
    shape = np.broadcast_shapes(j1.shape, np.shape(m1), np.shape(m2))
    if not math.prod(shape):
        return np.zeros(shape)
    swap = j1 > j2
    a, b = np.minimum(j1, j2), np.maximum(j1, j2)
    _require_cg_range(a, b)
    # the pairs present, ordered by a, then b, and their tensors end to end
    width = int(b.max()) + 1
    code = a * width + b
    present = np.zeros((int(a.max()) + 1) * width, bool)
    present[code] = True
    codes = np.flatnonzero(present)
    tensors = _cg_tensors([divmod(c, width) for c in codes.tolist()])
    flat = np.concatenate([S.reshape(-1) for S in tensors]) if len(tensors) > 1 else tensors[0].reshape(-1)
    start = np.zeros(present.size, np.intp)
    start[codes[1:]] = np.cumsum([S.size for S in tensors[:-1]])
    n = 2 * a + 1
    # S[|M|, j3 - b + a, +-m_a + a] of the pair's tensor
    base = start[code] + (j3 - b + a) * n + a
    M, ma = m1 + m2, np.where(swap, m2, m1)
    values = flat[base + np.abs(M) * (n * n) + np.where(M < 0, -ma, ma)]
    odd = (a + b - j3) % 2 == 1
    return np.negative(values, out=values, where=odd & ((M < 0) != swap))


_CG_TENSORS_MAX = 512  # pairs in the tensor cache
_CG_TENSORS = OrderedDict()  # (a, b) -> tensor, the least recently used first
_CG_LOOKUPS = [0, 0]  # hits, misses
_CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "maxsize", "currsize"])


def _cg_tensors(pairs) -> list:
    """The ``cg_tensor`` of each distinct unordered pair (a, b), a <= b, in range, unchecked, in order.

    One LRU cache of ``_CG_TENSORS_MAX`` pairs serves them, and each pair
    counts one hit or one miss.  The missing pairs are built by one
    ``_cg_pass`` per first degree a and cached, the least recently used
    evicted past the bound; all are returned, even when one call needs
    more pairs than the cache holds.
    """
    tensors, missing = [], {}
    for pair in pairs:
        S = _CG_TENSORS.pop(pair, None)  # a hit goes back in as the most recent
        if S is None:
            missing.setdefault(pair[0], []).append(pair[1])
        else:
            _CG_TENSORS[pair] = S
        tensors.append(S)
    _CG_LOOKUPS[0] += len(tensors)
    if missing:
        built = {}
        for a, bs in missing.items():
            bs.sort()
            built.update(zip([(a, b) for b in bs], _cg_pass(a, bs)))
        _CG_LOOKUPS[0] -= len(built)
        _CG_LOOKUPS[1] += len(built)
        tensors = [built[pair] if S is None else S for pair, S in zip(pairs, tensors)]
        for pair, S in built.items():
            S.flags.writeable = False
            _CG_TENSORS[pair] = S
        while len(_CG_TENSORS) > _CG_TENSORS_MAX:
            _CG_TENSORS.popitem(last=False)
    return tensors


def _cg_tensor(j1: int, j2: int) -> np.ndarray:
    """``cg_tensor`` of a pair j1 <= j2 in range, unchecked: ``_cg_tensors`` of the one pair."""
    return _cg_tensors(((j1, j2),))[0]


def _cg_tensor_cache_clear() -> None:
    _CG_TENSORS.clear()
    _CG_LOOKUPS[:] = [0, 0]


_cg_tensor.cache_clear = _cg_tensor_cache_clear
_cg_tensor.cache_info = lambda: _CacheInfo(*_CG_LOOKUPS, _CG_TENSORS_MAX, len(_CG_TENSORS))

_CG_PASS_FLOATS = 1 << 17  # floats in one work array of a recurrence pass (1 MB)


def _cg_pass(a: int, bs: list) -> list:
    """The half-sheared tensors S[M, k, m_a + a] of the pairs (a, b), b in ``bs`` (ascending, each >= a).

    Each row (b, M, m_a) with m_b = M - m_a, |m_b| <= b, runs over
    J = b - a + k from max(b - a, M) to a + b, where
    f(J) = C^{J,M}_{a,m_a,b,m_b} / sqrt(2J + 1) satisfies the three-term
    recurrence in J of Schulten & Gordon (J. Math. Phys. 16, 1961, 1975):

        J A(J+1) f(J+1) + B(J) f(J) + (J+1) A(J) f(J-1) = 0,
        A(J) = sqrt((J^2 - (b-a)^2) ((a+b+1)^2 - J^2) (J^2 - M^2)),
        B(J) = (2J+1) ((a(a+1) - b(b+1)) M + J(J+1) (m_b - m_a)).

    One run goes forward from f = 1 at the first J, one backward from
    f = 1 at J = a + b, each stable where f grows its way, and the backward
    run is scaled to meet the forward one where the forward |f| first
    stops growing (Luscombe & Luban, Phys. Rev. E 57, 7274, 1998).  The
    row is then C = sqrt(2J + 1) f, normalized by sum_J C^2 = 1, summed in
    J order, with C^{a+b,M} > 0.  Both runs cover the whole row; the
    tails they do not use grow but stay finite over the float CG range
    (tested at its edges with floating-point warnings raised).  The row
    a = b, M = 0 starts at J = 0, where the forward step is 0 / 0; its
    second entry is f(1) = m_a f(0) / sqrt(a(a + 1)).

    Every step is elementwise over the rows of all pairs, so a pair's
    tensor has the same bits alone or in any batch.  B is an exact
    integer, so it is exactly 0 on the rows of the parity zeros, which
    stay exact.  Only the rows with m_a >= 0 at M = 0, and with
    m_a >= m_b when a = b, run; the mirror and swap identities copy the
    others, so both hold exactly.  The rows run in chunks of whole
    (pair, M) families, about ``_CG_PASS_FLOATS`` floats per work array of
    one float per row and J.
    """
    if not a:
        return [np.ones((b + 1, 1, 1)) for b in bs]  # C^{b,M}_{0,0,b,M} = 1
    K = 2 * a + 1
    tensors = [np.zeros((a + b + 1, K, K)) for b in bs]
    # one family of rows per (pair, M), with m_a + a = lo..2a: m_b <= b
    # (J >= M from k = kmin on), m_a >= 0 at M = 0, 2 m_a >= M when a = b
    d = np.array(bs) - a
    fp, fM = np.nonzero(np.arange(a + bs[-1] + 1) < d[:, None] + K)  # M = 0..a+b
    fd = d[fp]
    kmin = np.maximum(fM - fd, 0)
    lo = np.maximum(kmin, (fM == 0) * a)
    if bs[0] == a:
        lo[:K] = a + (np.arange(K) + 1) // 2
    # chunks of whole families, each ending past one more multiple of the row bound
    ends, rows = np.cumsum(K - lo), _CG_PASS_FLOATS // (K + 1)
    cuts = np.searchsorted(ends, np.arange(rows, ends[-1], rows)).tolist()
    for part in map(slice, [0, *cuts], [*cuts, fp.size]):
        _cg_rows(a, tensors, fp[part], fM[part], fd[part], kmin[part], lo[part])
    # the rows m_a + a = M..lo - 1 left out, from their mirror or swap
    # partners M + 2a - i, times (-1)^(a+b-J) = (-1)^k
    sign = (-1.0) ** np.arange(K)[:, None]
    for S, b in zip(tensors, bs):
        for M in range(K if b == a else 1):
            end = a + (M + 1) // 2
            np.multiply(S[M, :, 2 * a:M + 2 * a - end:-1], sign, out=S[M, :, M:end])
    return tensors


def _cg_rows(a: int, tensors: list, fp, fM, fd, kmin, lo) -> None:
    """Run the rows m_a + a = lo..2a of each family (pair fp, M = fM) into ``tensors``; see ``_cg_pass``.

    ``fd`` is b - a and ``kmin`` the k of the family's first J.  Both runs
    step together, the backward one in reversed k.
    """
    K = 2 * a + 1
    k = np.arange(K)
    fam, i = np.nonzero(k >= lo[:, None])
    R = i.size
    g = _cg_coefficients(a, fd, fM)[:, :, fam]
    # -B = v m_a - u, an exact integer; P = -B / D forward, -B / E backward
    B = g[4] * (i - a)
    B -= g[5]
    P = np.empty((2, K, R))
    np.multiply(g[0], B, out=P[0])
    np.multiply(g[1], B[::-1], out=P[1])
    Q = g[2:4]
    # H[j + 1] = (f(j) forward from f(kmin) = 1, f(2a - j) backward from f(2a) = 1)
    H = np.zeros((K + 1, 2, R))
    r = np.arange(R)
    H[kmin[fam] + 1, 0, r] = 1.0
    H[1, 1] = 1.0
    t1, t2 = np.empty((2, R)), np.empty((2, R))
    for j in range(K - 1):
        np.multiply(P[:, j], H[j + 1], out=t1)
        np.multiply(Q[:, j], H[j], out=t2)
        t1 -= t2
        H[j + 2] += t1
    F, G = H[1:, 0], H[K:0:-1, 1]  # f(k) of each run
    # meet where the forward |f| first stops growing, else at J = a + b
    absF = np.abs(F)
    stops = np.empty((K, R), bool)
    np.less(absF[1:], absF[:-1], out=stops[:-1])
    stops[-1] = True
    meet = stops.argmax(axis=0)
    G *= F[meet, r] / G[meet, r]
    np.copyto(G, F, where=k[:, None] <= meet)
    G *= g[6]
    norm = G[0] * G[0]
    for row in G[1:]:
        norm += row * row
    np.sqrt(norm, out=norm)
    G /= np.copysign(norm, G[K - 1], out=norm)
    p, M = fp[fam], fM[fam]
    bounds = np.searchsorted(p, np.arange(p[0], p[-1] + 2)).tolist()
    for q, s, e in zip(range(p[0], p[-1] + 1), bounds, bounds[1:]):
        tensors[q][M[s:e], :, i[s:e]] = G[:, s:e].T


def _cg_coefficients(a: int, d, M) -> np.ndarray:
    """The recurrence of each family (b - a = d, M) over k = 0..2a, forward and backward.

    Rows [1/D, 1/E, E/D, D/E, v, u, sqrt(2J+1)], with 1/E and D/E in
    reversed k, for the backward run: D = J A(J+1) and E = (J+1) A(J),
    each inverse 0 where it vanishes, and B = u - v m_a with
    u = (2J+1)(a(a+1) - b(b+1) + J(J+1)) M and v = 2 (2J+1) J (J+1),
    both exact integers.
    """
    K = 2 * a + 1
    J = d + np.arange(K + 1.0)[:, None]
    J2, top = J * J, d + K  # top = a + b + 1
    A = np.sqrt(np.maximum((J2 - d * d) * (top * top - J2) * (J2 - M * M), 0.0))
    J, J1 = J[:-1], J[:-1] + 1
    odd = J + J1
    t = odd * J * J1
    D, E = J * A[1:], J1 * A[:-1]
    g = np.zeros((7, K, d.size))
    np.divide(1.0, D, out=g[0], where=D > 0)
    np.divide(1.0, E[::-1], out=g[1], where=E[::-1] > 0)
    np.multiply(E, g[0], out=g[2])
    np.multiply(D[::-1], g[1], out=g[3])
    np.multiply(t, 2, out=g[4])
    # a(a+1) - b(b+1) = -d (a + b + 1)
    np.multiply(t - odd * (d * top), M, out=g[5])
    np.sqrt(odd, out=g[6])
    if d[0] == 0 and M[0] == 0:
        # the pair b = a comes first, so its M = 0 family is the pass's first; its
        # rows step from J = 0 by -B / D = m_a / sqrt(a(a + 1))
        g[0, 0, 0], g[4, 0, 0], g[5, 0, 0] = 1.0 / math.sqrt(a * (a + 1)), 1.0, 0.0
    return g


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

    ``exact.cg_zero``'s closed form with each (2k)! / k!^2 written as 4^k b(k):
    with 2g = l1 + l2 + l3 even and a valid triangle, the square is
    (2l3+1)/(2g+1) b(g-l1) b(g-l2) b(g-l3) / b(g) and the sign (-1)^(g-l3);
    an odd sum or a broken triangle gives 0.0, a negative degree raises.
    b comes from one table built on first use, so the value takes the same
    ten roundings (four table entries, five operations, one square root)
    at every degree: within 5e-16 relative of ``exact.cg_zero`` up to
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
    cell is exactly the general ``exact.wigner_9j``.  Two 9j symmetries
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
