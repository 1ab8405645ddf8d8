"""Tensor spherical harmonics and spin-valued spherical signals.

A spin-s signal maps the sphere to C^(2s+1) and transforms with D^s on its
components while the domain rotates.  The tensor spherical harmonic basis
couples a scalar harmonic of degree l with the spin-s components into
total degree j:

    (Y^{l,s}_{j,mj})_{ms} = sum_{ml} C^{j,mj}_{l,ml,s,ms} Y^{ml}_l

defined for key triples with {j, l, s} = 1.  Coefficient containers are
keyed by (j, l); a degree-j block is a complex vector indexed mj = -j..j.

Encode/decode factor through the scalar transform cores: one sparse
coupling table per block set (one entry per (block, ml, ms) with mj =
ml + ms in range) scatters the (j, l) blocks into the padded spin layout
of ``sht``, then a single synthesis or analysis handles all 2s+1
components.  Decoding gathers through the same table, inverting the
coupling by Clebsch-Gordan orthogonality, so decode(encode(x)) = x
whenever the grid resolves the band limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .angular import cg_block, cg_float, triangle_delta, wigner_d_matrix
from .flops import FlopCounter
from .sht import (SphereGrid, _analysis_core, _check_band_limit, _padded_index,
                  _synthesis_core, make_grid, random_block, sh_eval)

__all__ = [
    "SpinSignal",
    "TshCoeffs",
    "valid_pairs",
    "tsh_eval",
    "tsh_encode",
    "tsh_decode",
    "tsh_evaluate",
    "tsh_orthonormality_check",
    "random_tsh_coeffs",
    "rotate_tsh_coeffs",
]


def valid_pairs(s: int, L: int) -> list[tuple[int, int]]:
    """All (j, l) with {j, l, s} = 1 and l <= L, ascending j then l."""
    pairs = [(j, l) for l in range(L + 1) for j in range(abs(l - s), l + s + 1)]
    return sorted(pairs)


@lru_cache(maxsize=128)
def _valid_key_set(s: int, L: int) -> frozenset:
    """valid_pairs(s, L) for O(1) key checks; keys outside it go to TshCoeffs._check_key."""
    return frozenset(valid_pairs(s, L))


@dataclass(eq=False)
class SpinSignal:
    """Complex samples with 2s+1 spin components per grid point."""

    s: int
    grid: SphereGrid
    values: np.ndarray  # (n_theta, n_phi, 2s+1), component index ms = -s..s

    def __post_init__(self):
        expect = (self.grid.n_theta, self.grid.n_phi, 2 * self.s + 1)
        if self.s < 0:
            raise ValueError("spin must be non-negative")
        if self.values.shape != expect:
            raise ValueError(f"signal shape {self.values.shape} != {expect}")


@dataclass(eq=False)
class TshCoeffs:
    """Tensor-harmonic coefficient blocks keyed by (j, l).

    Every key satisfies {j, l, s} = 1 and l <= L; block (j, l) has length
    2j+1.  Canonical block order is ascending j, then ascending l.
    """

    s: int
    L: int
    blocks: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.s < 0:
            raise ValueError(f"spin s={self.s} must be non-negative")
        _check_band_limit(self.L)
        fixed = {}
        valid = _valid_key_set(self.s, self.L)
        for (j, l), vec in self.blocks.items():
            vec = np.asarray(vec, dtype=complex)
            if (j, l) not in valid:
                self._check_key(j, l)
            if vec.shape != (2 * j + 1,):
                raise ValueError(f"block {(j, l)} has length {vec.shape}, want {2 * j + 1}")
            fixed[(j, l)] = vec
        self.blocks = fixed

    def _check_key(self, j: int, l: int) -> None:
        if l > self.L:
            raise ValueError(f"block {(j, l)} exceeds band limit L={self.L}")
        if j < 0 or l < 0 or not triangle_delta(j, l, self.s):
            raise ValueError(f"key {(j, l)} violates the triangle {{j, l, s={self.s}}}")

    def block(self, j: int, l: int) -> np.ndarray:
        return self.blocks[(j, l)]

    def get(self, j: int, l: int):
        return self.blocks.get((j, l))

    def set_block(self, j: int, l: int, vec) -> None:
        vec = np.asarray(vec, dtype=complex)
        if (j, l) not in _valid_key_set(self.s, self.L):
            self._check_key(j, l)
        if vec.shape != (2 * j + 1,):
            raise ValueError(f"block {(j, l)} has length {vec.shape}, want {2 * j + 1}")
        self.blocks[(j, l)] = vec

    def items(self):
        for key in sorted(self.blocks):
            yield key, self.blocks[key]


def tsh_eval(j: int, m_j: int, l: int, s: int, theta, phi) -> np.ndarray:
    """One tensor harmonic at (theta, phi): components ms = -s..s.

    Scalar angles give shape (2s+1,); array angles broadcast to
    shape (..., 2s+1).  With s = 0 this reduces to the scalar harmonic.
    """
    if not triangle_delta(j, l, s):
        raise ValueError(f"(j, l, s) = {(j, l, s)} violates the triangle condition")
    if abs(m_j) > j:
        raise ValueError(f"|m_j| <= j required, got {(j, m_j)}")
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    ph = np.asarray(phi, dtype=float)
    th_b, _ = np.broadcast_arrays(th, np.atleast_1d(ph))
    out = np.zeros(th_b.shape + (2 * s + 1,), dtype=complex)
    for m_s in range(-s, s + 1):
        m_l = m_j - m_s
        if abs(m_l) > l:
            continue
        coef = cg_float(l, m_l, s, m_s, j, m_j)
        if coef:
            out[..., m_s + s] = coef * sh_eval(l, m_l, theta, phi)
    if np.ndim(theta) == 0 and np.ndim(phi) == 0:
        return out.reshape(2 * s + 1)
    return out


@lru_cache(maxsize=128)
def _coupling_table(s: int, keys: tuple, L: int):
    """Sparse Clebsch-Gordan coupling between packed (j, l) blocks and the padded layout.

    ``keys`` lists the blocks in packing order (their vectors concatenated);
    ``L`` is the band limit of the padded spin layout cpad[m + L, l - |m|,
    ms + s].  Returns (src, slot, weight, src2, slot2): entry k couples
    packed coefficient src[k] into flat padded slot slot[k] with weight
    C^{j, ml+ms}_{l, ml, s, ms}, and src2/slot2 hold the doubled indices
    (2i, 2i + 1) that address the same complex entries in an interleaved
    float view.  There is one entry per (block, ml, ms) with |ml + ms| <= j,
    so the table length is the coupling MAC count.
    """
    ms = np.arange(-s, s + 1)[:, None]
    parts = [(np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0))]
    offset = 0
    for j, l in keys:
        ml = np.arange(-l, l + 1)[None, :]
        keep = np.abs(ml + ms) <= j
        m_s, m_l = (a[keep] for a in np.broadcast_arrays(ms, ml))
        parts.append((offset + j + m_l + m_s,
                      _padded_index(L, l, m_l) * (2 * s + 1) + m_s + s,
                      cg_block(l, s, j)[m_l + l, m_s + s]))
        offset += 2 * j + 1
    src, slot, weight = (np.concatenate(column) for column in zip(*parts))
    return src, slot, weight, _interleaved(src), _interleaved(slot)


@lru_cache(maxsize=128)
def _decode_layout(s: int, L: int):
    """Every (j, l) key up to L in valid_pairs order, its coupling table, and block spans.

    Block (j, l) is packed[start:end] for its (start, end) span; the last
    end is the packed length.
    """
    keys = tuple(valid_pairs(s, L))
    ends = list(accumulate(2 * j + 1 for j, _l in keys))
    return keys, _coupling_table(s, keys, L), tuple(zip([0] + ends[:-1], ends))


def _interleaved(index: np.ndarray) -> np.ndarray:
    """(2i, 2i + 1) per complex index i: the same entries of a float view."""
    return (2 * index[:, None] + np.arange(2)).reshape(-1)


def _scatter(index2: np.ndarray, terms: np.ndarray, size: int) -> np.ndarray:
    """Complex bincount: one float bincount over the interleaved view of ``terms``."""
    return np.bincount(index2, terms.view(float), 2 * size).view(complex)


def tsh_encode(x: TshCoeffs, grid: SphereGrid, flops: FlopCounter | None = None) -> SpinSignal:
    """Synthesize the spin-s signal sum_{j,l,m} x^(j,l)_m Y^{l,s}_{j,m} on the grid."""
    if grid.Lg < x.L:
        raise ValueError(f"grid exactness degree {grid.Lg} < band limit {x.L}")
    s = x.s
    keys = tuple(sorted(x.blocks))
    L = max((l for _j, l in keys), default=0)
    src, _slot, weight, _src2, slot2 = _coupling_table(s, keys, L)
    packed = np.concatenate([x.blocks[key] for key in keys] or [np.zeros(0, complex)])
    terms = packed[src]
    terms *= weight
    cpad = _scatter(slot2, terms, (2 * L + 1) * (L + 1) * (2 * s + 1))
    if flops is not None:
        flops.add(src.size)
    return SpinSignal(s=s, grid=grid, values=_synthesis_core(
        cpad.reshape(2 * L + 1, L + 1, 2 * s + 1), grid, L, flops))


def tsh_decode(f: SpinSignal, L: int, flops: FlopCounter | None = None) -> TshCoeffs:
    """Analyze a spin-s signal into (j, l) blocks with l <= L.

    One analysis of all components produces B^l_{ml,ms}; Clebsch-Gordan
    orthogonality then extracts each block:
    z^(j,l)_{mj} = sum_{ml,ms} C^{j,mj}_{l,ml,s,ms} B^l_{ml,ms}.
    """
    grid = f.grid
    _check_band_limit(L)
    if L > grid.Lg:
        raise ValueError(f"analysis degree {L} > grid exactness degree {grid.Lg}")
    s = f.s
    keys, (src, slot, weight, src2, _slot2), spans = _decode_layout(s, L)
    terms = _analysis_core(f.values, grid, L, flops).reshape(-1)[slot]
    terms *= weight
    packed = _scatter(src2, terms, spans[-1][1])
    if flops is not None:
        flops.add(src.size)
    blocks = {key: packed[start:end] for key, (start, end) in zip(keys, spans)}
    return TshCoeffs(s=s, L=L, blocks=blocks)


def tsh_evaluate(x: TshCoeffs, theta, phi) -> np.ndarray:
    """Direct pointwise synthesis at arbitrary angles, shape (..., 2s+1).

    Slow path for tests and equivariance checks; grids use tsh_encode.
    """
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    ph = np.atleast_1d(np.asarray(phi, dtype=float))
    th_b, ph_b = np.broadcast_arrays(th, ph)
    out = np.zeros(th_b.shape + (2 * x.s + 1,), dtype=complex)
    for (j, l), vec in x.items():
        for m_j in range(-j, j + 1):
            if vec[m_j + j] == 0:
                continue
            out += vec[m_j + j] * tsh_eval(j, m_j, l, x.s, th_b, ph_b)
    return out


def tsh_orthonormality_check(s: int, L: int) -> float:
    """Max deviation of the TSH Gram matrix from identity up to band limit L.

    Inner product: component sum integrated over the sphere with the
    grid quadrature (exact at the working band limits).
    """
    if L < s:
        raise ValueError("need L >= s so at least one key exists")
    grid = make_grid(2 * L)
    pairs = valid_pairs(s, L)
    sigs = []
    for j, l in pairs:
        for m_j in range(-j, j + 1):
            vec = np.zeros(2 * j + 1, dtype=complex)
            vec[m_j + j] = 1.0
            y = TshCoeffs(s=s, L=L, blocks={(j, l): vec})
            sigs.append(tsh_encode(y, grid).values)
    stack = np.stack(sigs)  # (n_basis, n_theta, n_phi, 2s+1)
    gram = np.einsum("atpc,btpc,tp->ab", stack.conj(), stack, grid.weights)
    return float(np.abs(gram - np.eye(len(sigs))).max())


def random_tsh_coeffs(s: int, L: int, rng: np.random.Generator) -> TshCoeffs:
    """Standard complex normal coefficients on every valid (j, l) key."""
    blocks = {(j, l): random_block(j, rng) for j, l in valid_pairs(s, L)}
    return TshCoeffs(s=s, L=L, blocks=blocks)


def rotate_tsh_coeffs(x: TshCoeffs, alpha: float, beta: float, gamma: float) -> TshCoeffs:
    """Apply the rotation blockwise: each (j, l) block maps to D^j x."""
    blocks = {}
    for (j, l), vec in x.items():
        blocks[(j, l)] = wigner_d_matrix(j, alpha, beta, gamma) @ vec
    return TshCoeffs(s=x.s, L=x.L, blocks=blocks)
