"""Spherical grids and scalar spherical harmonic transforms.

Complex spherical harmonics with Condon-Shortley phase throughout:

    Y^m_l(theta, phi) = Lambda^m_l(cos theta) * exp(1j * m * phi)

with Lambda the fully normalized associated Legendre function carrying the
(-1)^m phase, so that integral(Y^m1*_l1 Y^m2_l2) = delta delta and
(-1)^m Y^{-m}_l = conj(Y^m_l).

Grids pair Gauss-Legendre nodes in cos(theta) with uniform phi nodes.  A
grid of exactness degree Lg integrates any product of harmonics with total
theta degree <= 2 Lg and phi frequency below 2 Lg + 1 exactly, which makes
the synthesis/analysis round trip exact for band-limited signals.  Both
transforms are the separable O(Lg^3) method: an associated-Legendre
contraction over theta and a plain DFT matrix product over phi (fixed
summation order, deterministic).  Each grid builds the tables derived
from its nodes on the first transform that reads them and keeps them: the
per-order Legendre tables and a full-band DFT matrix per direction.

The transform cores see one coefficient layout, the padded array
cpad[m + L, l - |m|, c]: order m indexes a row of degrees l = |m|..L,
left-aligned and zero beyond, and c indexes signal components (one for
scalar signals, 2s+1 for spin signals).  Each transform runs one batched
Legendre matmul and one phi product for all components at once.

Analysis integrates against conj(Y^m_l); spherical harmonic expansions use
plain Y^m_l.  Coefficient containers carry one complex block per degree j,
optionally tagged (tags distinguish multiplicity, e.g. source paths).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .angular import cg, cg_zero
from .flops import FlopCounter

__all__ = [
    "SphereGrid",
    "ScalarSignal",
    "IrrepCoeffs",
    "make_grid",
    "sh_eval",
    "to_sphere",
    "from_sphere",
    "gaunt_coefficient",
    "random_block",
    "random_coeffs",
    "rotate_coeffs",
]


def _dft_matrix(grid: SphereGrid, L: int, sign: int) -> np.ndarray:
    """exp(sign * 1j * m * phi_k) as [m + L, k]: a row slice of the grid's full-band table."""
    full = grid.synthesis_dft if sign > 0 else grid.analysis_dft
    return full[grid.Lg - L:grid.Lg + L + 1]


def _padded_index(L: int, l, m):
    """Flat index of (l, m) in the padded layout [m + L, l - |m|] of band limit L.

    This layout is the one the transform cores read and write: row m + L
    holds degrees l = |m|..L, left-aligned, so every order contracts with
    one zero-padded Legendre table of L + 1 columns.
    """
    return (m + L) * (L + 1) + l - abs(m)


@lru_cache(maxsize=256)
def _padded_legendre(Lg: int, L: int) -> np.ndarray:
    """lam_pad[m + L, i, l - |m|] = Lambda^m_l(cos theta_i), zero past l = L."""
    grid = make_grid(Lg)
    lam_pad = np.zeros((2 * L + 1, grid.n_theta, L + 1))
    for m in range(-L, L + 1):
        tab = grid.legendre[abs(m)][:, : L - abs(m) + 1]
        lam_pad[m + L, :, : L - abs(m) + 1] = _signed(tab, m)
    return lam_pad


def _signed(tab: np.ndarray, m: int) -> np.ndarray:
    """Lambda^m_l from the table of order |m|: Lambda^{-m}_l = (-1)^m Lambda^m_l."""
    return -tab if (m < 0 and m % 2) else tab


def _legendre_tables(cos_theta: np.ndarray, lmax: int) -> list[np.ndarray]:
    """Per-order tables lam[m][i, l-m] = Lambda^m_l(cos_theta[i]), l = m..lmax."""
    x = cos_theta
    sin_theta = np.sqrt(1.0 - x * x)
    tables = []
    diag = np.full_like(x, 1.0 / math.sqrt(4.0 * math.pi))
    for m in range(lmax + 1):
        if m > 0:
            diag = -math.sqrt((2 * m + 1) / (2.0 * m)) * sin_theta * diag
        tab = np.empty((x.size, lmax - m + 1))
        tab[:, 0] = diag
        if m + 1 <= lmax:
            tab[:, 1] = math.sqrt(2 * m + 3.0) * x * diag
        for l in range(m + 2, lmax + 1):
            a = math.sqrt((4 * l * l - 1.0) / (l * l - m * m))
            b = math.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1) ** 2 - 1.0))
            tab[:, l - m] = a * (x * tab[:, l - m - 1] - b * tab[:, l - m - 2])
        tables.append(tab)
    return tables


@dataclass(frozen=True, eq=False)
class SphereGrid:
    """Gauss-Legendre theta nodes x uniform phi nodes, exact to degree Lg."""

    Lg: int
    cos_theta: np.ndarray
    theta: np.ndarray
    theta_weights: np.ndarray
    phi: np.ndarray

    @property
    def n_theta(self) -> int:
        return self.cos_theta.size

    @property
    def n_phi(self) -> int:
        return self.phi.size

    @property
    def weights(self) -> np.ndarray:
        """Quadrature weights w[i, k] of the sphere integral over node (theta_i, phi_k)."""
        return np.outer(self.theta_weights, np.full(self.n_phi, 2.0 * np.pi / self.n_phi))

    @property
    def angles(self) -> tuple[np.ndarray, np.ndarray]:
        """Node angles (theta[i, k], phi[i, k]) of node (theta_i, phi_k)."""
        return np.meshgrid(self.theta, self.phi, indexing="ij")

    @property
    def unit_vectors(self) -> np.ndarray:
        """Cartesian unit vector v[i, k, :] = (x, y, z) of node (theta_i, phi_k)."""
        th, ph = self.angles
        return np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=-1)

    @cached_property
    def legendre(self) -> list[np.ndarray]:
        """Per-order tables legendre[m][i, l - m] = Lambda^m_l(cos theta_i), m = 0..Lg."""
        return _legendre_tables(self.cos_theta, self.Lg)

    @cached_property
    def synthesis_dft(self) -> np.ndarray:
        """exp(+1j * m * phi_k) as [m + Lg, k] for the full band |m| <= Lg."""
        return np.exp(1j * np.outer(np.arange(-self.Lg, self.Lg + 1), self.phi))

    @cached_property
    def analysis_dft(self) -> np.ndarray:
        """exp(-1j * m * phi_k) as [m + Lg, k] for the full band |m| <= Lg."""
        return np.exp(-1j * np.outer(np.arange(-self.Lg, self.Lg + 1), self.phi))


@lru_cache(maxsize=128)
def make_grid(Lg: int) -> SphereGrid:
    """Grid with Lg+1 Gauss-Legendre theta nodes and 2 Lg + 1 phi nodes."""
    if Lg < 0:
        raise ValueError("Lg must be non-negative")
    x, w = np.polynomial.legendre.leggauss(Lg + 1)
    n_phi = 2 * Lg + 1
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    return SphereGrid(
        Lg=Lg,
        cos_theta=x,
        theta=np.arccos(x),
        theta_weights=w,
        phi=phi,
    )


@dataclass(eq=False)
class ScalarSignal:
    """Complex samples on a SphereGrid, shape (n_theta, n_phi)."""

    grid: SphereGrid
    values: np.ndarray

    def __post_init__(self):
        expect = (self.grid.n_theta, self.grid.n_phi)
        if self.values.shape != expect:
            raise ValueError(f"signal shape {self.values.shape} != grid shape {expect}")


def _check_band_limit(L: int) -> None:
    if L < 0:
        raise ValueError(f"band limit L={L} must be non-negative")


def _block_sort_key(key):
    j, tag = key
    return (j, tag is not None, repr(tag))


@dataclass(eq=False)
class IrrepCoeffs:
    """Coefficient blocks indexed by degree j and an optional tag.

    Block (j, tag) is a complex vector of length 2j+1 indexed m = -j..j.
    Untagged blocks (tag None) are plain spherical harmonic coefficients;
    tags carry multiplicity labels such as source paths.
    """

    L: int
    blocks: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_band_limit(self.L)
        blocks, self.blocks = self.blocks, {}
        for key, vec in blocks.items():
            j, tag = key if isinstance(key, tuple) and len(key) == 2 else (key, None)
            self.set_block(j, vec, tag)

    def block(self, j: int, tag=None) -> np.ndarray:
        return self.blocks[(j, tag)]

    def get(self, j: int, tag=None):
        return self.blocks.get((j, tag))

    def set_block(self, j: int, vec, tag=None) -> None:
        vec = np.asarray(vec, dtype=complex)
        if j < 0 or j > self.L:
            raise ValueError(f"block degree {j} outside 0..L={self.L}")
        if vec.shape != (2 * j + 1,):
            raise ValueError(f"block {(j, tag)} has length {vec.shape}, want {2 * j + 1}")
        self.blocks[(j, tag)] = vec

    def items(self):
        """Blocks in canonical order: ascending j, untagged first."""
        for key in sorted(self.blocks, key=_block_sort_key):
            yield key, self.blocks[key]

    def single_per_degree(self) -> dict[int, np.ndarray]:
        """Map j -> vector, requiring at most one block per degree."""
        out: dict[int, np.ndarray] = {}
        for (j, _tag), vec in self.items():
            if j in out:
                raise ValueError(f"multiple blocks share degree {j}")
            out[j] = vec
        return out


def sh_eval(l: int, m: int, theta, phi):
    """Y^m_l at (theta, phi); scalars or broadcastable arrays."""
    if l < 0 or abs(m) > l:
        raise ValueError(f"need |m| <= l, got (l, m) = ({l}, {m})")
    th = np.asarray(theta, dtype=float)
    ph = np.asarray(phi, dtype=float)
    scalar = th.ndim == 0 and ph.ndim == 0
    th, ph = np.broadcast_arrays(np.atleast_1d(th), np.atleast_1d(ph))
    tab = _legendre_tables(np.cos(th).ravel(), l)[abs(m)]
    out = _signed(tab[:, l - abs(m)], m).reshape(th.shape) * np.exp(1j * m * ph)
    return complex(out.ravel()[0]) if scalar else out


def _synthesis_core(cpad: np.ndarray, grid: SphereGrid, L: int,
                    flops: FlopCounter | None) -> np.ndarray:
    """Grid samples [i, k, c] from padded coefficients cpad[m + L, l - |m|, c].

    All components c share one Legendre contraction and one phi product.
    """
    n_comp = cpad.shape[-1]
    lam_pad = _padded_legendre(grid.Lg, L)
    # G[m+L, i, c] = sum_l Lambda^m_l c^{(l)}_{m,c}: one real batched matmul
    # over the interleaved real/imag columns
    G = (lam_pad @ cpad.view(float)).view(complex)
    G = G.transpose(1, 2, 0).reshape(grid.n_theta * n_comp, 2 * L + 1)
    values = (G @ _dft_matrix(grid, L, +1)).reshape(grid.n_theta, n_comp, grid.n_phi)
    if flops is not None:
        flops.add(n_comp * (grid.n_theta * (L + 1) ** 2
                            + grid.n_theta * (2 * L + 1) * grid.n_phi))
    return values.transpose(0, 2, 1)


def _analysis_core(values: np.ndarray, grid: SphereGrid, L: int,
                   flops: FlopCounter | None) -> np.ndarray:
    """Padded coefficients xpad[m + L, l - |m|, c] from grid samples [i, k, c]."""
    n_comp = values.shape[-1]
    F = (values.transpose(0, 2, 1).reshape(grid.n_theta * n_comp, grid.n_phi)
         @ _dft_matrix(grid, L, -1).T).reshape(grid.n_theta, n_comp, 2 * L + 1)
    F *= grid.theta_weights[:, None, None] * (2.0 * np.pi / grid.n_phi)
    F = np.ascontiguousarray(F.transpose(2, 0, 1))
    # xpad[m+L, l-|m|, c] = sum_i w_i Lambda^m_l F[m+L, i, c], batched over m
    xpad = (_padded_legendre(grid.Lg, L).transpose(0, 2, 1) @ F.view(float)).view(complex)
    if flops is not None:
        flops.add(n_comp * (grid.n_theta * grid.n_phi * (2 * L + 1)
                            + grid.n_theta * (L + 1) ** 2))
    return xpad


def to_sphere(x: IrrepCoeffs, grid: SphereGrid, flops: FlopCounter | None = None) -> ScalarSignal:
    """Synthesize f(theta, phi) = sum_{l,m} x^(l)_m Y^m_l on the grid.

    Requires grid.Lg >= x.L.  Tags are ignored; at most one block per
    degree may be present.
    """
    if grid.Lg < x.L:
        raise ValueError(f"grid exactness degree {grid.Lg} < band limit {x.L}")
    L = x.L
    cpad = np.zeros((2 * L + 1) * (L + 1), dtype=complex)
    for l, vec in x.single_per_degree().items():
        cpad[_padded_index(L, l, np.arange(-l, l + 1))] = vec
    values = _synthesis_core(cpad.reshape(2 * L + 1, L + 1, 1), grid, L, flops)
    return ScalarSignal(grid=grid, values=values[:, :, 0])


def from_sphere(f: ScalarSignal, L: int, flops: FlopCounter | None = None) -> IrrepCoeffs:
    """Analyze a signal into coefficients x^(l)_m = integral(f * conj(Y^m_l)).

    Exact for signals band-limited at degree <= grid.Lg when L <= grid.Lg.
    """
    grid = f.grid
    _check_band_limit(L)
    if L > grid.Lg:
        raise ValueError(f"analysis degree {L} > grid exactness degree {grid.Lg}")
    xpad = _analysis_core(f.values[:, :, None], grid, L, flops).reshape(-1)
    return IrrepCoeffs(L=L, blocks={(l, None): xpad[_padded_index(L, l, np.arange(-l, l + 1))]
                                    for l in range(L + 1)})


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
    if exact.is_zero():
        return 0.0
    scale = math.sqrt((2 * l1 + 1) * (2 * l2 + 1) / (4.0 * math.pi * (2 * l3 + 1)))
    return scale * float(exact)


def random_block(j: int, rng: np.random.Generator) -> np.ndarray:
    """Standard complex normal vector of length 2j+1; real parts are drawn first."""
    return rng.standard_normal(2 * j + 1) + 1j * rng.standard_normal(2 * j + 1)


def random_coeffs(L: int, rng: np.random.Generator) -> IrrepCoeffs:
    """Standard complex normal coefficients, one untagged block per degree."""
    return IrrepCoeffs(L=L, blocks={(l, None): random_block(l, rng) for l in range(L + 1)})


def rotate_coeffs(x: IrrepCoeffs, alpha: float, beta: float, gamma: float) -> IrrepCoeffs:
    """Apply the rotation blockwise: each degree-j block maps to D^j x."""
    from .angular import wigner_d_matrix

    blocks = {}
    for (j, tag), vec in x.items():
        blocks[(j, tag)] = wigner_d_matrix(j, alpha, beta, gamma) @ vec
    return IrrepCoeffs(L=x.L, blocks=blocks)
