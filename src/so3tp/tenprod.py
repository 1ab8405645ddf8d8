"""Tensor product operations on irrep coefficients and spherical signals.

Two families:

* Coefficient-space Clebsch-Gordan products (``cgtp_path`` /
  ``cgtp_full``), in a ``naive`` variant that loops every (m1, m2, m3)
  triple and a ``sparse`` variant restricted to m3 = m1 + m2.  Sparse
  ``cgtp_full`` contracts each input pair (j1, j2) once, for every j3 at
  once, from the pair's cached CG tensor (``angular._cg_tensor``); the
  e3nn per-pair pattern (Geiger & Smidt, arXiv:2207.09453).  Warm calls
  stay cache-resident only while the pairs fit that cache's 512 entries
  (inputs up to L = 21); at L = 32 the 1089 pairs rebuild their tensors
  on every call, and those builds bound the wall time.

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

from .angular import (CG_BLOCK_MAX, _cg_tensor, cg_block, cg_zero, triangle_delta,
                      wigner_9j_spin1)
from .flops import FlopCounter
from .rules import PathKey, find_valid_ells
from .sht import IrrepCoeffs, SphereGrid, make_grid
from .tsh import SpinSignal, TshCoeffs, tsh_decode, tsh_encode

__all__ = [
    "PathKey",
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


def sparse_pair_count(j1: int, j2: int, j3: int) -> int:
    """#{(m1, m2): |m1| <= j1, |m2| <= j2, |m1 + m2| <= j3}."""
    t = j1 + j2 - j3
    full = (2 * j1 + 1) * (2 * j2 + 1)
    return full - t * (t + 1) if t > 0 else full


def _require_finite(*vecs: np.ndarray) -> None:
    for v in vecs:
        if not np.isfinite(v).all():
            raise ValueError("inputs must be finite, got NaN or inf")


def _antidiagonal_sums(T: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """z[k, a + b] = sum of T[k, a, b] x[a] y[b] over each anti-diagonal a + b.

    With a = m1 + j1 and b = m2 + j2, column M + j1 + j2 of z holds the
    total-M sum.  The products go into a zeroed (K, I, I + J) buffer;
    re-read as (K, I, I + J - 1) rows, row a starts a slots later, so
    summing over the rows adds each anti-diagonal.  The buffer is dropped
    on return.
    """
    K, I, J = T.shape
    W = I + J - 1
    buf = np.zeros((K, I, I + J), dtype=complex)
    np.multiply(T, np.multiply.outer(x, y), out=buf[:, :, :J])
    return buf.reshape(K, -1)[:, :I * W].reshape(K, I, W).sum(axis=1)


def cgtp_path(x: np.ndarray, y: np.ndarray, j3: int, mode: str = "sparse",
              flops: FlopCounter | None = None) -> np.ndarray:
    """Single-path coupling z_{m3} = sum C^{j3,m3}_{j1,m1,j2,m2} x_{m1} y_{m2}.

    Degrees are inferred from the vector lengths; inputs holding NaN or
    inf raise ``ValueError``.  ``naive`` costs (2j1+1)(2j2+1)(2j3+1) MACs;
    ``sparse`` sums the CG block's anti-diagonals m3 = m1 + m2 (the
    kernel ``cgtp_full`` runs per pair) and counts
    sparse_pair_count(j1, j2, j3) MACs.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.ndim != 1 or y.ndim != 1 or x.size % 2 == 0 or y.size % 2 == 0:
        raise ValueError("inputs must be odd-length vectors")
    _require_finite(x, y)
    j1 = (x.size - 1) // 2
    j2 = (y.size - 1) // 2
    if not triangle_delta(j1, j2, j3):
        raise ValueError(f"({j1}, {j2}, {j3}) violates the triangle condition")
    if mode not in ("naive", "sparse"):
        raise ValueError(f"unknown mode {mode!r}")
    C2 = cg_block(j1, j2, j3)
    if mode == "naive":
        I, J, K = 2 * j1 + 1, 2 * j2 + 1, 2 * j3 + 1
        outer = np.multiply.outer(x, y).ravel()
        i1, i2 = np.indices((I, J))
        i3 = i1 + i2 - j1 - j2 + j3
        valid = (i3 >= 0) & (i3 < K)
        dense = np.zeros((I, J, K))
        dense[i1[valid], i2[valid], i3[valid]] = C2[valid]
        flat = dense.reshape(I * J, K).T
        z = flat @ outer.real + 1j * (flat @ outer.imag)
        macs = I * J * K
    else:
        J = j1 + j2
        z = _antidiagonal_sums(C2[None], x, y)[0, J - j3:J + j3 + 1]
        macs = sparse_pair_count(j1, j2, j3)
    if flops is not None:
        flops.add(macs)
    return z


def cgtp_full(x: IrrepCoeffs, y: IrrepCoeffs, L3: int, mode: str = "sparse") -> TpoResult:
    """All-path coupling of single-copy inputs, one output block per path.

    Inputs must carry at most one block per degree, with finite values.
    The output keeps multiplicity: block (j3, (j1, j2)) holds the
    (j1, j2) -> j3 path.  ``sparse`` contracts each pair (j1, j2) once:
    one anti-diagonal sum over the CG tensor's j3 = |j1 - j2| ..
    min(j1 + j2, L3) slices, each j3 block then read off total M in
    [-j3, j3].  That tensor comes from ``angular._cg_tensor``, whose 512
    entries hold every pair of inputs up to L = 21; past that (1089 pairs
    at L = 32) every call rebuilds its tensors, which then dominate.
    ``naive`` calls ``cgtp_path`` once per path.  MACs are counted per
    path either way.
    """
    if mode not in ("naive", "sparse"):
        raise ValueError(f"unknown mode {mode!r}")
    xs = x.single_per_degree()
    ys = y.single_per_degree()
    _require_finite(*xs.values(), *ys.values())
    fl = FlopCounter()
    out = IrrepCoeffs(L=L3, blocks={})
    for j1, xv in sorted(xs.items()):
        for j2, yv in sorted(ys.items()):
            lo, hi = abs(j1 - j2), min(j1 + j2, L3)
            if mode == "naive":
                for j3 in range(lo, hi + 1):
                    out.set_block(j3, cgtp_path(xv, yv, j3, mode=mode, flops=fl), tag=(j1, j2))
            elif lo <= hi:
                J = j1 + j2
                if J > CG_BLOCK_MAX:
                    raise ValueError(f"j1 + j2 = {J} exceeds the float CG range {CG_BLOCK_MAX}")
                z = _antidiagonal_sums(_cg_tensor(j1, j2)[:hi - lo + 1], xv, yv)
                for j3 in range(lo, hi + 1):
                    out.set_block(j3, z[j3 - lo, J - j3:J + j3 + 1], tag=(j1, j2))
                    fl.add(sparse_pair_count(j1, j2, j3))
    return TpoResult(output=out, flops=fl.count)


def pointwise_spin_tp(f: SpinSignal, g: SpinSignal, s3: int,
                      flops: FlopCounter | None = None) -> SpinSignal:
    """Pointwise coupling (f (x) g)^{s3}_{m3} = sum C^{s3,m3}_{s1,m1,s2,m2} f_{m1} g_{m2}.

    Requires a shared grid and {s1, s2, s3} = 1.  For spins (0,0,0) this
    is plain pointwise multiplication; for (1,1,1) it is the pointwise
    cross product in the spherical basis up to a constant.
    """
    if f.grid is not g.grid:
        raise ValueError("signals must share a grid")
    s1, s2 = f.s, g.s
    if not triangle_delta(s1, s2, s3):
        raise ValueError(f"spins ({s1}, {s2}, {s3}) violate the triangle condition")
    out = np.zeros(f.values.shape[:2] + (2 * s3 + 1,), dtype=complex)
    C = cg_block(s1, s2, s3)
    pairs = 0
    for m1 in range(-s1, s1 + 1):
        for m2 in range(-s2, s2 + 1):
            m3 = m1 + m2
            if abs(m3) > s3:
                continue
            pairs += 1
            coef = C[m1 + s1, m2 + s2]
            if coef:
                out[:, :, m3 + s3] += coef * f.values[:, :, m1 + s1] * g.values[:, :, m2 + s2]
    if flops is not None:
        flops.add(pairs * f.values.shape[0] * f.values.shape[1])
    return SpinSignal(s=s3, grid=f.grid, values=out)


def istp(x: TshCoeffs, y: TshCoeffs, s3: int, L3: int, grid: SphereGrid) -> TpoResult:
    """Grid product: encode both inputs, couple pointwise, decode at L3.

    Requires grid.Lg >= x.L + y.L (exact product representation) and
    L3 <= grid.Lg.
    """
    if grid.Lg < x.L + y.L:
        raise ValueError(f"grid exactness degree {grid.Lg} < x.L + y.L = {x.L + y.L}")
    if L3 > grid.Lg:
        raise ValueError(f"output band limit {L3} > grid exactness degree {grid.Lg}")
    fl = FlopCounter()
    fx = tsh_encode(x, grid, flops=fl)
    fy = tsh_encode(y, grid, flops=fl)
    prod = pointwise_spin_tp(fx, fy, s3, flops=fl)
    out = tsh_decode(prod, L3, flops=fl)
    return TpoResult(output=out, flops=fl.count)


def _as_spin0(x: IrrepCoeffs) -> TshCoeffs:
    blocks = {(j, j): vec for j, vec in x.single_per_degree().items()}
    return TshCoeffs(s=0, L=x.L, blocks=blocks)


def gtp(x: IrrepCoeffs, y: IrrepCoeffs, L3: int, grid: SphereGrid) -> TpoResult:
    """Scalar-signal (Gaunt) product: the all-spins-zero grid product.

    Output blocks are plain degree-l3 coefficients; only paths with
    l1 + l2 + l3 even survive.
    """
    res = istp(_as_spin0(x), _as_spin0(y), 0, L3, grid)
    out = IrrepCoeffs(L=L3, blocks={(j, None): vec for (j, _l), vec in res.output.items()})
    return TpoResult(output=out, flops=res.flops)


def vstp(x: TshCoeffs, y: TshCoeffs, L3: int, grid: SphereGrid) -> TpoResult:
    """Vector-signal product: the all-spins-one grid product."""
    if x.s != 1 or y.s != 1:
        raise ValueError(f"vstp needs spin-1 inputs, got spins ({x.s}, {y.s})")
    return istp(x, y, 1, L3, grid)


@lru_cache(maxsize=4096)
def _path_coefficient(j1: int, l1: int, j2: int, l2: int, j3: int, l3: int) -> float:
    """Generalized Gaunt coefficient of the all-spins-one path, in float.

    sqrt(dims / 4 pi) * {j1 l1 1; j2 l2 1; j3 l3 1} * C^{l3,0}_{l1,0,l2,0}
    with the 9j from its closed form, so no six-CG contraction runs; the
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
    multiplication and uses no signal product.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    j1 = (x.size - 1) // 2
    j2 = (y.size - 1) // 2
    if not triangle_delta(j1, j2, j3):
        raise ValueError(f"({j1}, {j2}, {j3}) violates the triangle condition")
    if (j1, j2, j3) == (0, 0, 0):
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
