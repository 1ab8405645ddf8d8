"""Tensor product operations on irrep coefficients and spherical signals.

Two families:

* Coefficient-space Clebsch-Gordan products (``cgtp_path`` /
  ``cgtp_full``), in a ``naive`` variant that sums every (m1, m2, m3)
  triple and a ``sparse`` variant restricted to m3 = m1 + m2.  Both run
  one pair kernel per unordered degree pair a <= b that writes every j3
  of both orders (a, b) and (b, a) into one packed output: ``naive`` one
  dense CG matrix product per order and j3, ``sparse`` one batched matmul
  against the half-sheared CG tensor of the pair (``angular.cg_tensor``,
  M >= 0 only; the mirror and swap identities give the rest) with
  gather and scatter indices from a cached per-pair plan, the e3nn
  per-pair pattern (Geiger & Smidt, arXiv:2207.09453).  ``cgtp_path`` is
  the one-j3 slice of the same kernel for one order, and ``pair_macs``
  is the one closed form of their MAC counts.

* Grid products: encode inputs as spin signals, couple them pointwise,
  and decode (``istp``), with the scalar (``gtp``) and vector (``vstp``)
  specializations.  A single coefficient-space path can be recovered from
  one vector-signal product by dividing out the path coefficient
  (``simulate_cgtp_path``).  That coefficient is a float from the spin-1
  9j closed forms; the exact ``rules.generalized_gaunt`` stays the rules'
  and the oracles' value.

Every operation reports the complex multiply-accumulate count it
performed; counts are data independent and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .angular import (cg_block, cg_tensor, cg_zero, require_triangle, triangle_delta,
                      wigner_9j_spin1)
from .flops import FlopCounter
from .rules import find_valid_ells
from .sht import IrrepCoeffs, SphereGrid, _check_band_limit, _require_finite, make_grid
from .tsh import (SpinSignal, TshCoeffs, _encode, _packed, scalar_from_spin0, spin0_from_scalar,
                  tsh_decode)

__all__ = [
    "TpoResult",
    "NumericalDegeneracy",
    "cgtp_path",
    "cgtp_full",
    "pointwise_spin_tp",
    "istp",
    "gtp",
    "vstp",
    "simulate_cgtp_path",
]

class NumericalDegeneracy(ArithmeticError):
    """A path coefficient expected to be nonzero fell below threshold."""


@dataclass(eq=False)
class TpoResult:
    """Product output plus the complex-MAC count spent producing it."""

    output: Union[IrrepCoeffs, TshCoeffs]
    flops: int


def _path_inputs(x, y, j3: int) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Complex x, y and degrees j1, j2; raises unless odd-length, 1-D, on a triangle."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.ndim != 1 or y.ndim != 1 or x.size % 2 == 0 or y.size % 2 == 0:
        raise ValueError("inputs must be odd-length vectors")
    j1, j2 = (x.size - 1) // 2, (y.size - 1) // 2
    require_triangle(j1, j2, j3)
    return x, y, j1, j2


def pair_macs(mode: str, j1: int, j2: int, lo: int, hi: int) -> int:
    """MACs of coupling (j1, j2) into every j3 = lo..hi, for |j1 - j2| <= lo <= hi <= j1 + j2.

    ``naive`` sums (2j1+1)(2j2+1)(2j3+1) over the range.  ``sparse``
    counts the pairs #{(m1, m2): |m1 + m2| <= j3}: with t = j1 + j2 - j3
    each j3 counts (2j1+1)(2j2+1) - t(t + 1), and the sum of t(t + 1)
    over t = a..b is (b(b+1)(b+2) - (a-1)a(a+1)) / 3.
    """
    full = (2 * j1 + 1) * (2 * j2 + 1)
    if mode == "naive":
        return full * ((hi + 1) ** 2 - lo ** 2)
    a, b = j1 + j2 - hi, j1 + j2 - lo
    return (hi - lo + 1) * full - (b * (b + 1) * (b + 2) - (a - 1) * a * (a + 1)) // 3


@lru_cache(maxsize=1024)
def _pair_plan(a: int, b: int, lo: int, hi: int, swaps: tuple) -> tuple:
    """Gather and scatter indices and block layout of the unordered pair a <= b, j3 = lo..hi.

    ``swaps`` is (False,), (True,) or, for a < b, (False, True).  Order o
    couples u_o of degree a with v_o of degree b: (x_a, y_b) for the
    (a, b) path, or, where ``swaps[o]``, (y_a, x_b) for the (b, a) path.
    ``gather[M, i, 2o + c]`` indexes the rows [u_o (x) v_o, 0], flattened,
    each an outer product and a zero slot, with m1 = i - a: c = 0 picks
    u_{m1} v_{M-m1}, c = 1 the mirrored u_{-m1} v_{m1-M}, and |M - m1| > b
    the zero slot.  The packed output runs over the orders,
    then j3, then m3; ``scatter`` reads each of its slots from
    w[|m3|, j3 - lo, 2o + (m3 < 0)].  ``blocks`` holds each path block's
    (key, start, stop) in it.
    """
    n, I, J = len(swaps), 2 * a + 1, 2 * b + 1
    i = np.arange(I, dtype=np.int32)
    M = np.arange(hi + 1, dtype=np.int32)[:, None]
    g = np.empty((hi + 1, I, n, 2), dtype=np.int32)
    np.add(M, i * (J - 1) + (a + b), out=g[:, :, 0, 0])  # slot i J + (M - m1) + b
    np.subtract((2 * a - i) * J + (b - a) + i, M, out=g[:, :, 0, 1])  # (2a - i) J + b - (M - m1)
    np.copyto(g[:, :, 0], I * J, where=(M - i > b - a)[:, :, None])
    if n == 2:
        np.add(g[:, :, 0], I * J + 1, out=g[:, :, 1])
    nk = hi - lo + 1
    m3 = np.arange(-hi, hi + 1, dtype=np.int32)
    k = np.arange(nk, dtype=np.int32)[:, None]
    scatter = ((np.abs(m3) * nk + k) * (2 * n) + (m3 < 0))[np.abs(m3) <= k + lo]
    if n == 2:
        scatter = np.concatenate([scatter, scatter + 2])
    size = scatter.size // n
    blocks = tuple(((j3, tag), o * size + j3 * j3 - lo * lo, o * size + (j3 + 1) ** 2 - lo * lo)
                   for o, tag in enumerate((b, a) if s else (a, b) for s in swaps)
                   for j3 in range(lo, hi + 1))
    return g.reshape(hi + 1, I, 2 * n), scatter, blocks


def _sparse_pair(a: int, b: int, lo: int, hi: int, swaps: tuple, uv: tuple,
                 out: np.ndarray) -> None:
    """Write the packed blocks of ``_pair_plan(a, b, lo, hi, swaps)`` for inputs ``uv`` to ``out``.

    ``uv[o]`` is order o's (u, v) of degrees (a, b).  R[M, i] gathers for
    every order the M >= 0 products and, by the mirror identity, the
    M <= 0 ones; it meets the half-sheared ``cg_tensor(a, b)`` in one real
    batched matmul over M, four float columns per order.  Rows of odd
    a + b - j3 negate the mirrored column, or, by the swap identity, the
    M >= 0 column of a swapped order, and one take scatters w into ``out``.
    """
    gather, scatter, _ = _pair_plan(a, b, lo, hi, swaps)
    I, J = 2 * a + 1, 2 * b + 1
    flat = np.empty((len(swaps), I * J + 1), dtype=complex)
    flat[:, -1] = 0.0
    for o, (u, v) in enumerate(uv):
        np.multiply.outer(u, v, out=flat[o, :-1].reshape(I, J))
    R = flat.take(gather)
    S = cg_tensor(a, b)[:hi + 1, lo - b + a:hi - b + a + 1]
    w = (S @ R.view(float)).view(complex)
    first = 0 if swaps[0] else 1
    odd = w[:, (a + b - lo + 1) % 2::2, first:first + len(swaps)]
    np.negative(odd, out=odd)
    np.take(w, scatter, out=out, mode="clip")


def _dense_pair(x: np.ndarray, y: np.ndarray, j3_lo: int, j3_hi: int, out: np.ndarray) -> None:
    """Write the (j1, j2) -> j3 blocks, j3 = j3_lo..j3_hi, one after another to ``out``.

    Sums every (m1, m2, m3) triple: block j3 scatters ``cg_block(j1, j2,
    j3)`` into a dense (2j1+1)(2j2+1) x (2j3+1) matrix and multiplies its
    transpose with the flat outer product, real and imaginary parts apart.
    """
    j1, j2 = (x.size - 1) // 2, (y.size - 1) // 2
    I, J = x.size, y.size
    outer = np.multiply.outer(x, y).ravel()
    i1, i2 = np.indices((I, J))
    start = 0
    for j3 in range(j3_lo, j3_hi + 1):
        K = 2 * j3 + 1
        i3 = i1 + i2 - j1 - j2 + j3
        valid = (i3 >= 0) & (i3 < K)
        dense = np.zeros((I, J, K))
        dense[i1[valid], i2[valid], i3[valid]] = cg_block(j1, j2, j3)[valid]
        flat = dense.reshape(I * J, K).T
        out[start:start + K] = flat @ outer.real + 1j * (flat @ outer.imag)
        start += K


def _dense_pairs(a: int, b: int, lo: int, hi: int, swaps: tuple, uv: tuple,
                 out: np.ndarray) -> None:
    """``_sparse_pair``'s packed output, one ``_dense_pair`` per order (j1, j2)."""
    size = (hi + 1) ** 2 - lo * lo
    for o, (swap, (u, v)) in enumerate(zip(swaps, uv)):
        x, y = (v, u) if swap else (u, v)
        _dense_pair(x, y, lo, hi, out[o * size:(o + 1) * size])


_PAIR_KERNELS = {"naive": _dense_pairs, "sparse": _sparse_pair}


def _pair_kernel(mode: str):
    if mode not in _PAIR_KERNELS:
        raise ValueError(f"unknown mode {mode!r}")
    return _PAIR_KERNELS[mode]


def cgtp_path(x: np.ndarray, y: np.ndarray, j3: int, mode: str = "sparse",
              flops: FlopCounter | None = None) -> np.ndarray:
    """Single-path coupling z_{m3} = sum C^{j3,m3}_{j1,m1,j2,m2} x_{m1} y_{m2}.

    Degrees are inferred from the vector lengths; inputs holding NaN or
    inf raise ``ValueError``.  Runs the pair kernel of ``cgtp_full`` on
    the one j3 slice of the one order and counts pair_macs(mode, j1, j2,
    j3, j3) MACs: (2j1+1)(2j2+1)(2j3+1) for ``naive``, and for ``sparse``,
    which sums only the terms with m3 = m1 + m2, one per (m1, m2) with
    |m1 + m2| <= j3.
    """
    kernel = _pair_kernel(mode)
    x, y, j1, j2 = _path_inputs(x, y, j3)
    _require_finite(x, y)
    z = np.empty(2 * j3 + 1, dtype=complex)
    if j1 > j2:
        kernel(j2, j1, j3, j3, (True,), ((y, x),), z)
    else:
        kernel(j1, j2, j3, j3, (False,), ((x, y),), z)
    if flops is not None:
        flops.add(pair_macs(mode, j1, j2, j3, j3))
    return z


def cgtp_full(x: IrrepCoeffs, y: IrrepCoeffs, L3: int, mode: str = "sparse") -> TpoResult:
    """All-path coupling of single-copy inputs, one output block per path.

    Inputs must carry at most one block per degree, with finite values.
    The output keeps multiplicity: block (j3, (j1, j2)) holds the
    (j1, j2) -> j3 path, for every j3 = |j1 - j2| .. min(j1 + j2, L3).
    Each unordered pair a <= b is visited once and runs the mode's pair
    kernel for both orders (a, b) and (b, a) that the inputs hold; every
    block is a view of one packed output array, and each order counts
    ``pair_macs`` for its range.  The ``sparse`` kernel contracts both
    orders in one matmul against the half-sheared tensor of the pair
    (``angular.cg_tensor``), with its gather and scatter indices from a
    1024-entry plan cache.  The 512 cached tensors hold every pair of
    inputs up to L = 30.  An L = 32 call visits its 561 unordered pairs in
    the same cycle each time, so a warm call rebuilds all 561 tensors
    (measured; the ordered-pair loop this replaced rebuilt 353 per warm
    call), and the builds dominate its time.
    """
    kernel = _pair_kernel(mode)
    xs = x.single_per_degree()
    ys = y.single_per_degree()
    _require_finite(*xs.values(), *ys.values())
    degrees = sorted(xs.keys() | ys.keys())
    pairs, size, macs = [], 0, 0
    for n, b in enumerate(degrees):
        for a in degrees[:n + 1]:
            swaps, uv = (), ()
            if a in xs and b in ys:
                swaps, uv = (False,), ((xs[a], ys[b]),)
            if a != b and b in xs and a in ys:
                swaps, uv = swaps + (True,), uv + ((ys[a], xs[b]),)
            if not swaps or b - a > L3:
                continue
            lo, hi = b - a, min(a + b, L3)
            end = size + len(swaps) * ((hi + 1) ** 2 - lo * lo)
            pairs.append((a, b, lo, hi, swaps, uv, size, end))
            size = end
            macs += len(swaps) * pair_macs(mode, a, b, lo, hi)
    packed = np.empty(size, dtype=complex)
    blocks = {}
    for a, b, lo, hi, swaps, uv, start, end in pairs:
        out = packed[start:end]
        kernel(a, b, lo, hi, swaps, uv, out)
        for key, i, j in _pair_plan(a, b, lo, hi, swaps)[2]:
            blocks[key] = out[i:j]
    return TpoResult(output=IrrepCoeffs(L=L3, blocks=blocks), flops=macs)


@lru_cache(maxsize=256)
def _pointwise_terms(s1: int, s2: int, s3: int):
    """Nonzero coupling terms (m1 + s1, m2 + s2, m3 + s3, C) in m1-major order."""
    if not triangle_delta(s1, s2, s3):
        raise ValueError(f"spins ({s1}, {s2}, {s3}) violate the triangle condition")
    C = cg_block(s1, s2, s3)
    terms = []
    for m1 in range(-s1, s1 + 1):
        for m2 in range(-s2, s2 + 1):
            coef = C[m1 + s1, m2 + s2]  # zero where |m1 + m2| > s3
            if coef:
                terms.append((m1 + s1, m2 + s2, m1 + m2 + s3, coef))
    return tuple(terms)


def pointwise_spin_tp(f: SpinSignal, g: SpinSignal, s3: int,
                      flops: FlopCounter | None = None) -> SpinSignal:
    """Pointwise coupling (f (x) g)^{s3}_{m3} = sum C^{s3,m3}_{s1,m1,s2,m2} f_{m1} g_{m2}.

    Requires a shared grid and {s1, s2, s3} = 1.  For spins (0,0,0) this
    is plain pointwise multiplication; for (1,1,1) it is the pointwise
    cross product in the spherical basis up to a constant.  The output
    samples are phi-major, as ``tsh_encode`` returns them.
    """
    if f.grid is not g.grid:
        raise ValueError("signals must share a grid")
    terms = _pointwise_terms(f.s, g.s, s3)
    fv, gv = f.values.transpose(1, 0, 2), g.values.transpose(1, 0, 2)  # phi-major
    out = np.zeros(fv.shape[:2] + (2 * s3 + 1,), dtype=complex)
    term = np.empty(fv.shape[:2], dtype=complex)
    for i1, i2, i3, coef in terms:
        np.multiply(coef, fv[:, :, i1], out=term)
        term *= gv[:, :, i2]
        out[:, :, i3] += term
    if flops is not None:
        flops.add(pair_macs("sparse", f.s, g.s, s3, s3) * fv.shape[0] * fv.shape[1])
    return SpinSignal(s=s3, grid=f.grid, values=out.transpose(1, 0, 2))


def istp(x: TshCoeffs, y: TshCoeffs, s3: int, L3: int, grid: SphereGrid) -> TpoResult:
    """Grid product: encode both inputs, couple pointwise, decode at L3.

    Requires grid.Lg >= x.L + y.L (exact product representation),
    0 <= L3 <= grid.Lg, the spin triangle and finite coefficients, all
    checked before encoding; the finiteness check reads the packed
    vectors that the encodes then use.
    """
    if grid.Lg < x.L + y.L:
        raise ValueError(f"grid exactness degree {grid.Lg} < x.L + y.L = {x.L + y.L}")
    if L3 > grid.Lg:
        raise ValueError(f"output band limit {L3} > grid exactness degree {grid.Lg}")
    _pointwise_terms(x.s, y.s, s3)  # raises on bad spins
    _check_band_limit(L3)
    px, py = _packed(x), _packed(y)
    _require_finite(px[2], py[2])
    fl = FlopCounter()
    fx = _encode(x.s, *px, grid, fl)
    fy = _encode(y.s, *py, grid, fl)
    prod = pointwise_spin_tp(fx, fy, s3, flops=fl)
    out = tsh_decode(prod, L3, flops=fl)
    return TpoResult(output=out, flops=fl.count)


def gtp(x: IrrepCoeffs, y: IrrepCoeffs, L3: int, grid: SphereGrid) -> TpoResult:
    """Scalar-signal (Gaunt) product: the all-spins-zero grid product.

    Output blocks are plain degree-l3 coefficients; only paths with
    l1 + l2 + l3 even survive.
    """
    res = istp(spin0_from_scalar(x), spin0_from_scalar(y), 0, L3, grid)
    return TpoResult(output=scalar_from_spin0(res.output), flops=res.flops)


def vstp(x: TshCoeffs, y: TshCoeffs, L3: int, grid: SphereGrid) -> TpoResult:
    """Vector-signal product: the all-spins-one grid product."""
    if x.s != 1 or y.s != 1:
        raise ValueError(f"vstp needs spin-1 inputs, got spins ({x.s}, {y.s})")
    return istp(x, y, 1, L3, grid)


@lru_cache(maxsize=4096)
def _path_coefficient(j1: int, l1: int, j2: int, l2: int, j3: int, l3: int) -> float:
    """Generalized Gaunt coefficient of the all-spins-one path, in float.

    sqrt(dims / 4 pi) * {j1 l1 1; j2 l2 1; j3 l3 1} * C^{l3,0}_{l1,0,l2,0}
    with the 9j from its closed form, so no exact 9j is evaluated; the
    C^{l3,0} comes from the exact Racah sum, which has no degree limit.
    """
    dims = (2 * j1 + 1) * (2 * j2 + 1) * (2 * l1 + 1) * (2 * l2 + 1) * 3
    nine = wigner_9j_spin1(l1, j1 - l1, l2, j2 - l2, l3, j3 - l3)
    return math.sqrt(dims / (4.0 * math.pi)) * nine * float(cg_zero(l1, l2, l3))


def simulate_cgtp_path(x: np.ndarray, y: np.ndarray, j3: int,
                       flops: FlopCounter | None = None) -> np.ndarray:
    """Compute one Clebsch-Gordan path through a single vector-signal product.

    Places x and y into the tensor-harmonic blocks selected by
    find_valid_ells, runs one vstp on ``make_grid(l1 + l2)``, reads the
    (j3, l3) output block, and divides by the path coefficient.  The
    coefficient is the closed-form float value of ``_path_coefficient``;
    it matches the exact ``rules.generalized_gaunt`` to 4.3e-16 relative
    on every path with j <= 10.  The (0, 0, 0) path is plain scalar
    multiplication and uses no signal product.  Inputs are checked as in
    ``cgtp_path``, but NaN/inf on a grid path only by ``istp``, after make_grid.
    """
    x, y, j1, j2 = _path_inputs(x, y, j3)
    if (j1, j2, j3) == (0, 0, 0):
        _require_finite(x, y)
        if flops is not None:
            flops.add(1)
        return x * y
    l1, l2, l3 = find_valid_ells(j1, j2, j3)
    X = TshCoeffs(s=1, L=l1, blocks={(j1, l1): x})
    Y = TshCoeffs(s=1, L=l2, blocks={(j2, l2): y})
    res = vstp(X, Y, L3=l3, grid=make_grid(l1 + l2))
    coef = _path_coefficient(j1, l1, j2, l2, j3, l3)
    if abs(coef) < 1e-13:
        raise NumericalDegeneracy(
            f"coefficient for path {(j1, l1, j2, l2, j3, l3)} is {coef}")
    if flops is not None:
        flops.add(res.flops)
    return res.output.block(j3, l3) / coef
