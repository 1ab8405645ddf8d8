"""Tensor product operations on irrep coefficients and spherical signals.

Two families:

* Coefficient-space Clebsch-Gordan products (``cgtp_path`` /
  ``cgtp_full``), in a ``naive`` variant that sums every (m1, m2, m3)
  triple and a ``sparse`` variant restricted to m3 = m1 + m2.  One cached
  call plan per (x degrees, y degrees, j3 range) lays out every path of
  a call in one packed output, each unordered degree pair a <= b serving
  both orders (a, b) and (b, a); the output container holds that array
  and the plan's span map (``sht._Pending``), and cuts the views of all
  its blocks when its ``blocks`` is first read.
  Both read each input as ``sht._Blocks._layout`` packs it, its blocks
  end to end in degree order.  ``naive`` runs one dense CG matrix product
  per order and j3.  ``sparse`` forms the outer product of the packed
  inputs once, plus one zero slot; per pair it takes
  one gather, one batched matmul against the half-sheared CG tensor of
  the pair (``angular.cg_tensor``, M >= 0 only; the mirror and swap
  identities give the rest) and one scatter, the e3nn per-pair pattern
  (Geiger & Smidt, arXiv:2207.09453); one masked negation applies the
  identities' signs to the whole output.  ``cgtp_path`` is the one-pair,
  one-j3 plan of the same kernels, and ``pair_macs`` is the one closed
  form of their MAC counts.

* Grid products: encode inputs as spin signals, couple them pointwise,
  and decode (``istp``), with the scalar (``gtp``) and vector (``vstp``)
  specializations.  One private core encodes packed vectors and couples
  them; ``istp`` checks its containers, lays each out through
  ``sht._Blocks._layout``, calls the core, and decodes
  through ``tsh_decode``, whose ``TshCoeffs`` holds the packed decode and
  its span map until the first read (``gtp`` reads it through
  ``scalar_from_spin0`` into a dict of its views).  One pair product (x
  at (j1, l1), y at (j2, l2), the spin-1 core on ``make_grid(l1 + l2)``)
  calls it on the raw vectors and decodes to the packed vector, building
  no container, and serves both CGTP simulations: one path, its inputs checked finite before any grid or
  table is built, read from the (j3, l3) span of the packed decode and
  divided by ``rules._path_coefficient`` (``simulate_cgtp_path``), and
  the MACs of every path (``simulate_cgtp_all_paths``).

Every operation reports the complex multiply-accumulate count it
performed; counts are data independent and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple, Union

import numpy as np

from .angular import (_as_integers, _cg_tensors, _checked_cache, _require_cg_range, cg_block,
                      require_natural, require_triangle, triangle_delta)
from .flops import FlopCounter
from .rules import _path_coefficient, find_pair_ells, find_valid_ells
from .sht import (IrrepCoeffs, SphereGrid, _Pending, _require_finite, _single_degrees, _trusted,
                  make_grid)
from .tsh import (SpinSignal, TshCoeffs, _decode, _decode_layout, _encode, scalar_from_spin0,
                  spin0_from_scalar, tsh_decode)

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
    "simulate_cgtp_all_paths",
]

class NumericalDegeneracy(ArithmeticError):
    """A path coefficient expected to be nonzero fell below threshold."""


@dataclass(eq=False)
class TpoResult:
    """Product output plus the complex-MAC count spent producing it."""

    output: Union[IrrepCoeffs, TshCoeffs]
    flops: int


def _path_inputs(x, y, j3: int) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Complex x, y and degrees j1, j2; raises unless finite, odd-length, 1-D, on a triangle, j3 natural."""
    require_natural(j3, "j3")
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.ndim != 1 or y.ndim != 1 or x.size % 2 == 0 or y.size % 2 == 0:
        raise ValueError("inputs must be odd-length vectors")
    j1, j2 = (x.size - 1) // 2, (y.size - 1) // 2
    require_triangle(j1, j2, j3)
    _require_finite(x, y)
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


class _CallPlan(NamedTuple):
    """Packed layout and sparse indices of one cgtp call shape; see ``_build_plan``."""

    size: int  # length of the packed output
    pairs: tuple  # (a, b, lo, hi, inputs, start, end, gather, scatter) per unordered pair
    keys: tuple  # (a, b) per unordered pair, whose tensors the sparse kernel fetches in one call
    negate: np.ndarray  # bool mask of the packed entries whose sparse value changes sign
    spans: dict  # (j3, (j1, j2)) -> (start, end) of the output block in the packed output, shared
    macs: dict  # MACs per mode


def _build_plan(xdeg: tuple, ydeg: tuple, lo3: int, L3: int) -> _CallPlan:
    """Plan of coupling x blocks of degrees ``xdeg`` with y blocks of ``ydeg`` into j3 = lo3..L3.

    Each unordered pair a <= b with a path in range holds one or two
    orders: (x_a, y_b) for the (a, b) path and, if the inputs hold it,
    (y_a, x_b) for the (b, a) path, each as u_o of degree a and v_o of
    degree b, over j3 = lo..hi; ``inputs[o]`` slices the order's x and y
    blocks from the packed inputs.  The packed output runs over the
    pairs, then the orders, then j3, then m3.

    Both kernels read the packed inputs x and y: the blocks in degree
    order, end to end, with no padding.  The sparse kernel reads every
    product from their outer product P, as one flat array with one zero
    slot appended.  ``gather[M, i, 2o + c]`` indexes P with m1 = i - a:
    c = 0 picks u_{m1} v_{M-m1}, c = 1 the mirrored u_{-m1} v_{m1-M}, and
    |M - m1| > b that zero slot.  ``scatter`` reads each slot of
    the pair's output from w[|m3|, j3 - lo, 2o + (m3 < 0)]; ``negate``
    marks the slots of odd a + b - j3 that the mirror identity (m3 < 0 of
    an (a, b) order) or the swap identity (m3 >= 0 of a (b, a) order)
    negates.  The gathers take a few array operations per pair, and the
    per-slot indices one set of them for the whole call.  Both index
    arrays are ``np.intp``, the width ``take`` indexes with, so no call
    converts them, at twice the bytes of int32 ones (1.78 against 0.89 MB
    for a MIMO plan at L = 16).  ``spans`` names each block's slice of
    the packed output; every output of the plan holds that one dict,
    uncopied and never written.  A pair past the float CG range
    raises here, once per plan, so the sparse kernel fetches the tensors
    of ``keys`` unchecked.
    """
    xoff = dict(zip(xdeg, accumulate((2 * j + 1 for j in xdeg), initial=0)))
    yoff = dict(zip(ydeg, accumulate((2 * j + 1 for j in ydeg), initial=0)))
    xblock = {j: slice(i, i + 2 * j + 1) for j, i in xoff.items()}
    yblock = {j: slice(i, i + 2 * j + 1) for j, i in yoff.items()}
    NY = sum(2 * j + 1 for j in ydeg)
    zero = sum(2 * j + 1 for j in xdeg) * NY
    degrees = sorted(set(xdeg) | set(ydeg))
    pairs, orders, tags = [], [], []
    size = n_blocks = 0
    macs = {"naive": 0, "sparse": 0}
    for n, b in enumerate(degrees):
        for a in degrees[:n + 1]:
            bases = []  # (swap, P index of (u_{-a}, v_{-b}), stride of m1, stride of m2)
            inputs = []  # (x slice, y slice) per order
            if a in xoff and b in yoff:
                bases.append((False, xoff[a] * NY + yoff[b], NY, 1))
                inputs.append((xblock[a], yblock[b]))
            if a != b and b in xoff and a in yoff:
                bases.append((True, xoff[b] * NY + yoff[a], 1, NY))
                inputs.append((xblock[b], yblock[a]))
            lo, hi = max(b - a, lo3), min(a + b, L3)
            if not bases or lo > hi:
                continue
            _require_cg_range(a, b)
            n_ord, I, nk = len(bases), 2 * a + 1, hi - lo + 1
            M = np.arange(hi + 1)[:, None]
            i = np.arange(I)
            gather = np.empty((hi + 1, I, n_ord, 2), dtype=np.intp)
            for o, (swap, base, si, sj) in enumerate(bases):
                p0, Ms = i * (si - sj) + (base + (a + b) * sj), M * sj  # p0: u_{m1} v_{-m1}
                np.add(Ms, p0, out=gather[:, :, o, 0])
                np.subtract(p0[::-1], Ms, out=gather[:, :, o, 1])
                # the order's slot of (j3, m3) is start + j3 (j3 + 1) + m3
                start = size + o * ((hi + 1) ** 2 - lo * lo) - lo * lo
                orders.append((nk, n_blocks, lo, start, n_ord, o, swap, a + b - lo))
                tags.append((b, a) if swap else (a, b))
                n_blocks += nk
                for mode in macs:
                    macs[mode] += pair_macs(mode, a, b, lo, hi)
            np.copyto(gather, zero, where=(M > i + (b - a))[:, :, None, None])
            end = size + n_ord * ((hi + 1) ** 2 - lo * lo)
            pairs.append((a, b, lo, hi, tuple(inputs), size, end, gather.reshape(hi + 1, I, 2 * n_ord)))
            size = end
    cols = np.array(orders, dtype=np.intp).reshape(-1, 8)
    order = np.repeat(np.arange(len(cols)), cols[:, 0])  # one entry per block from here
    nk, first, lo, start, n_ord, o, swapped, parity = cols[order].T
    k = np.arange(order.size) - first
    j3 = lo + k
    center = start + j3 * (j3 + 1)  # slot of m3 = 0
    # two runs per block, m3 < 0 and m3 >= 0: w slot |m3| (2n nk) + 2(n k + o) + (m3 < 0),
    # negated for odd a + b - j3 in the m3 < 0 run of an (a, b) order or the other of a (b, a) one
    runs = np.column_stack([j3, j3 + 1]).ravel()
    step = np.outer(2 * n_ord * nk, [-1, 1]).ravel()
    offset = (2 * (n_ord * k + o))[:, None] + [1, 0]
    flip = ((parity + k) % 2 * (1 + swapped))[:, None] == [1, 2]
    scatter = np.arange(size) - np.repeat(center, 2 * j3 + 1)  # m3
    scatter *= np.repeat(step, runs)
    scatter += np.repeat(offset.ravel(), runs)
    negate = np.repeat(flip.ravel(), runs)
    pairs = tuple(pair + (scatter[pair[5]:pair[6]],) for pair in pairs)
    keys = zip(j3.tolist(), [tags[p] for p in order.tolist()])
    spans = dict(zip(keys, zip((center - j3).tolist(), (center + j3 + 1).tolist())))
    return _CallPlan(size, pairs, tuple(pair[:2] for pair in pairs), negate, spans, macs)


@lru_cache(maxsize=8)
def _call_plan(xdeg: tuple, ydeg: tuple, L3: int) -> _CallPlan:
    """``cgtp_full``'s plan: every path up to L3."""
    return _build_plan(xdeg, ydeg, 0, L3)


@lru_cache(maxsize=1024)
def _path_plan(j1: int, j2: int, j3: int) -> _CallPlan:
    """``cgtp_path``'s plan, one pair and one j3, in its own cache so path loops evict no call plan."""
    return _build_plan((j1,), (j2,), j3, j3)


def _sparse_contract(plan: _CallPlan, xv: np.ndarray, yv: np.ndarray) -> np.ndarray:
    """The packed sparse output of ``plan`` for the packed inputs ``xv`` and ``yv``.

    Forms P = xv (x) yv once, flat, with the one zero slot appended that
    the gathers read past a pair's range, and fetches the half-sheared
    ``cg_tensor`` of every pair in one ``_cg_tensors`` call.  Per pair,
    one take gathers R[M, i] for every order, M >= 0 and, by the mirror
    identity, M <= 0; one real batched matmul over M against the pair's
    tensor gives w, four float columns per order; and one take scatters w
    into the pair's slice of the output.  One masked negation then applies the mirror and
    swap signs to the whole output.
    """
    products = np.empty(xv.size * yv.size + 1, dtype=complex)
    np.multiply.outer(xv, yv, out=products[:-1].reshape(xv.size, yv.size))
    products[-1] = 0
    out = np.empty(plan.size, dtype=complex)
    tensors = _cg_tensors(plan.keys)
    for (a, b, lo, hi, _inputs, start, end, gather, scatter), S in zip(plan.pairs, tensors):
        R = products.take(gather)
        w = S[:hi + 1, lo - b + a:hi - b + a + 1] @ R.view(float)
        # with out=, the default mode="raise" would buffer the output
        w.view(complex).take(scatter, out=out[start:end], mode="clip")
    np.negative(out, out=out, where=plan.negate)
    return out


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


def _dense_pairs(plan: _CallPlan, xv: np.ndarray, yv: np.ndarray) -> np.ndarray:
    """The packed naive output of ``plan``: one ``_dense_pair`` per order of each pair."""
    out = np.empty(plan.size, dtype=complex)
    for _a, _b, lo, hi, inputs, start, *_ in plan.pairs:
        size = (hi + 1) ** 2 - lo * lo
        for o, (xi, yi) in enumerate(inputs):
            _dense_pair(xv[xi], yv[yi], lo, hi, out[start + o * size:start + (o + 1) * size])
    return out


_KERNELS = {"naive": _dense_pairs, "sparse": _sparse_contract}


def _kernel(mode: str):
    if mode not in _KERNELS:
        raise ValueError(f"unknown mode {mode!r}")
    return _KERNELS[mode]


def cgtp_path(x: np.ndarray, y: np.ndarray, j3: int, mode: str = "sparse",
              flops: FlopCounter | None = None) -> np.ndarray:
    """Single-path coupling z_{m3} = sum C^{j3,m3}_{j1,m1,j2,m2} x_{m1} y_{m2}.

    Degrees are inferred from the vector lengths; inputs holding NaN or
    inf raise ``ValueError``.  Runs the mode's kernel of ``cgtp_full`` on
    the one-pair, one-j3 plan of the path, kept in a 1024-entry cache of
    its own, handing it complex inputs uncopied, and counts
    pair_macs(mode, j1, j2, j3, j3) MACs: (2j1+1)(2j2+1)(2j3+1) for
    ``naive``, and for ``sparse``, which sums only the terms with
    m3 = m1 + m2, one per (m1, m2) with |m1 + m2| <= j3.
    """
    kernel = _kernel(mode)
    x, y, j1, j2 = _path_inputs(x, y, j3)
    plan = _path_plan(j1, j2, j3)
    z = kernel(plan, x, y)
    if flops is not None:
        flops.add(plan.macs[mode])
    return z


def cgtp_full(x: IrrepCoeffs, y: IrrepCoeffs, L3: int, mode: str = "sparse") -> TpoResult:
    """All-path coupling of single-copy inputs, one output block per path.

    Inputs must carry at most one block per degree, with finite values.
    The output keeps multiplicity: block (j3, (j1, j2)) holds the
    (j1, j2) -> j3 path, for every j3 = |j1 - j2| .. min(j1 + j2, L3).
    One call plan per (x degrees, y degrees, L3), in an 8-entry cache,
    holds the packed layout: each unordered pair a <= b covers both
    orders (a, b) and (b, a) that the inputs hold, and each order counts
    ``pair_macs`` for its range.  The output is built holding the packed
    output array and the plan's span map (``sht._Pending``), so the call
    builds no per-block array; the first read of ``blocks`` cuts the
    views of all 3,281 blocks of a MIMO L = 16 -> 32 output in one pass
    (about 0.85 ms), so a caller that reads one block pays for all of
    them.  Each side is laid out once by ``_layout``, its keys sorted
    once; the degree check reads those keys, and the finiteness
    check the packed vector that both kernels then use.  A MIMO plan
    holds 1.78 MB of ``np.intp`` indices at L = 16 and 25.3 MB at L = 32.
    The ``sparse`` kernel forms the outer product of the packed inputs
    once (1.35 MB at L = 16, 19 MB at L = 32) and contracts each pair with
    one gather, one matmul against the half-sheared tensor of the pair
    (``angular.cg_tensor``) and one scatter, the call's tensors fetched in
    one batch.  The 512 cached tensors hold every pair of inputs up to
    L = 30.  The 561 pairs of an L = 32 call cycle
    through the cache, so a warm call misses 49, all of first degree
    <= 12, and rebuilds them: 0.06-0.09 s for L = 32 -> 64, as with every
    tensor cached (1 BLAS thread).
    """
    kernel = _kernel(mode)
    (xkeys, xv), (ykeys, yv) = x._layout(), y._layout()
    xdeg, ydeg = _single_degrees(xkeys), _single_degrees(ykeys)
    _require_finite(xv, yv)
    require_natural(L3, "band limit L")
    plan = _call_plan(xdeg, ydeg, L3)
    blocks = _Pending(kernel(plan, xv, yv), plan.spans)
    return TpoResult(output=_trusted(IrrepCoeffs, L=L3, blocks=blocks), flops=plan.macs[mode])


@_checked_cache(lambda *spins: _as_integers(spins, ("s1", "s2", "s3")), maxsize=256)
def _pointwise_terms(s1: int, s2: int, s3: int):
    """Nonzero coupling terms (m1 + s1, m2 + s2, m3 + s3, C, first) in m1-major order.

    ``first`` marks the first term of each output component m3.  Spins
    must be integers (Python or numpy); any other, such as 1.0, raises
    ``ValueError`` naming it, cached or not.
    """
    if not triangle_delta(s1, s2, s3):
        raise ValueError(f"spins ({s1}, {s2}, {s3}) violate the triangle condition")
    C = cg_block(s1, s2, s3)
    terms, seen = [], set()
    for m1 in range(-s1, s1 + 1):
        for m2 in range(-s2, s2 + 1):
            coef = C[m1 + s1, m2 + s2]  # zero where |m1 + m2| > s3
            if coef:
                i3 = m1 + m2 + s3
                terms.append((m1 + s1, m2 + s2, i3, coef, i3 not in seen))
                seen.add(i3)
    return tuple(terms)


def pointwise_spin_tp(f: SpinSignal, g: SpinSignal, s3: int,
                      flops: FlopCounter | None = None) -> SpinSignal:
    """Pointwise coupling (f (x) g)^{s3}_{m3} = sum C^{s3,m3}_{s1,m1,s2,m2} f_{m1} g_{m2}.

    Requires a shared grid and {s1, s2, s3} = 1, with integer spins.  For
    spins (0,0,0) this is plain pointwise multiplication; for (1,1,1) it
    is the pointwise cross product in the spherical basis up to a
    constant.  The first term of each output component is written in
    place and the others added to it; every component has one, since the
    coefficients of each m3 form a unit vector.  The output samples are
    phi-major, as ``tsh_encode`` returns them.
    """
    if f.grid is not g.grid:
        raise ValueError("signals must share a grid")
    terms = _pointwise_terms(f.s, g.s, s3)
    n_theta, n_phi = f.values.shape[:2]
    n = n_theta * n_phi
    # flat phi-major sample rows, so each component is a 1-D strided column
    fv = f.values.transpose(1, 0, 2).reshape(n, -1)
    gv = g.values.transpose(1, 0, 2).reshape(n, -1)
    out = np.empty((n_phi, n_theta, 2 * s3 + 1), dtype=complex)
    flat = out.reshape(n, -1)
    term = np.empty(n, dtype=complex)
    for i1, i2, i3, coef, first in terms:
        dst = flat[:, i3] if first else term
        np.multiply(coef, fv[:, i1], out=dst)
        dst *= gv[:, i2]
        if not first:
            flat[:, i3] += term
    if flops is not None:
        flops.add(pair_macs("sparse", f.s, g.s, s3, s3) * n)
    return _trusted(SpinSignal, s=s3, grid=f.grid, values=out.transpose(1, 0, 2))


def _grid_product(x: tuple, y: tuple, s3: int, grid: SphereGrid,
                  flops: FlopCounter | None) -> SpinSignal:
    """Encode both inputs and couple them pointwise, on packed vectors.

    ``x`` and ``y`` are (spin, keys, packed blocks): the spin and the
    ``sht._Blocks._layout`` of an input, each encoded at its top orbital
    degree.  Callers decode the product: ``istp`` through
    ``tsh_decode``, the pair product to the packed vector of ``tsh._decode``.
    No check: callers make them.
    """
    fx = _encode(*x, grid, flops)
    fy = _encode(*y, grid, flops)
    return pointwise_spin_tp(fx, fy, s3, flops=flops)


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
    require_natural(L3, "band limit L")
    (kx, px), (ky, py) = x._layout(), y._layout()
    _require_finite(px, py)
    fl = FlopCounter()
    out = tsh_decode(_grid_product((x.s, kx, px), (y.s, ky, py), s3, grid, fl), L3, fl)
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


def _pair_product(x: np.ndarray, y: np.ndarray, l1: int, l2: int, L3: int,
                  flops: FlopCounter | None) -> np.ndarray:
    """Packed spin-1 decode at L3 of x at key (j1, l1) times y at (j2, l2) on make_grid(l1 + l2).

    ``vstp``'s product of the two single-block inputs, j from the vector
    lengths, with no container built and no check made: the callers'
    labels satisfy every ``istp`` condition.
    """
    j1, j2 = (x.size - 1) // 2, (y.size - 1) // 2
    f = _grid_product((1, ((j1, l1),), x), (1, ((j2, l2),), y), 1, make_grid(l1 + l2), flops)
    return _decode(f, L3, flops)


def simulate_cgtp_path(x: np.ndarray, y: np.ndarray, j3: int,
                       flops: FlopCounter | None = None) -> np.ndarray:
    """Compute one Clebsch-Gordan path through a single vector-signal product.

    Inputs are checked as in ``cgtp_path``, finiteness included, before
    any grid or table is built.  The (0, 0, 0) path is plain scalar
    multiplication and uses no signal product.  Any other path runs the
    pair product on the orbital labels of find_valid_ells, decoded at l3,
    reads the packed decode at the span that ``tsh._decode_layout(1, l3)``
    maps (j3, l3) to, and divides it by the closed-form float path
    coefficient ``rules._path_coefficient``.
    """
    x, y, j1, j2 = _path_inputs(x, y, j3)
    if (j1, j2, j3) == (0, 0, 0):
        if flops is not None:
            flops.add(1)
        return x * y
    l1, l2, l3 = find_valid_ells(j1, j2, j3)
    coef = _path_coefficient(j1, l1, j2, l2, j3, l3)
    if abs(coef) < 1e-13:
        raise NumericalDegeneracy(f"coefficient for path {(j1, l1, j2, l2, j3, l3)} is {coef}")
    packed = _pair_product(x, y, l1, l2, l3, flops)
    start, end = _decode_layout(1, l3)[1][(j3, l3)]
    return packed[start:end] / coef


def simulate_cgtp_all_paths(L: int) -> int:
    """MACs spent simulating every coupling path of 0..L inputs via vector signals.

    One pair product per degree pair (j1, j2) != (0, 0), on the orbital
    pair of ``find_pair_ells`` and decoded at l1 + l2, carries every j3
    of the pair.  The count does not depend on the data, so each product
    runs on all-ones blocks.  ``L`` must be a non-negative integer.
    """
    require_natural(L, "L")
    fl = FlopCounter()
    for j1 in range(L + 1):
        for j2 in range(0 if j1 else 1, L + 1):
            l1, l2 = find_pair_ells(j1, j2)
            x, y = np.ones(2 * j1 + 1, complex), np.ones(2 * j2 + 1, complex)
            _pair_product(x, y, l1, l2, l1 + l2, fl)
    return fl.count + 1  # plus the (0,0,0) scalar path
