"""Spherical grids, scalar spherical harmonics and the transform cores.

Complex spherical harmonics with Condon-Shortley phase throughout:

    Y^m_l(theta, phi) = Lambda^m_l(cos theta) * exp(1j * m * phi)

with Lambda the fully normalized associated Legendre function carrying the
(-1)^m phase, so that integral(Y^m1*_l1 Y^m2_l2) = delta delta and
(-1)^m Y^{-m}_l = conj(Y^m_l).

Grids pair Gauss-Legendre nodes in cos(theta) with uniform phi nodes.  A
grid of exactness degree Lg integrates any product of harmonics with total
theta degree <= 2 Lg and phi frequency below 2 Lg + 1 exactly, which makes
the synthesis/analysis round trip exact for band-limited signals.  Both
transforms are the separable O(Lg^3) method, folded over +-m (as in
SHTns: Schaeffer, G-cubed 14, 751, 2013): an associated-Legendre
contraction over theta with the m >= 0 tables only, since
Lambda^{-m}_l = (-1)^m Lambda^m_l, and one real GEMM over phi against
cos(m phi) and sin(m phi) rows, since exp(-i m phi) = conj(exp(i m phi))
(fixed summation order, deterministic).  Each grid owns the tables
derived from its nodes, builds each on the first transform that reads it,
and frees them with itself: ``legendre``, per run of ``_RUN`` orders
m0..m0 + 15 one C-contiguous block [m - m0, i, l - m] of the Lg + 1 - m0
degree slots its orders use, read by synthesis and, transposed, by
analysis; ``analysis_weights``, the quadrature weight of each theta row,
which analysis applies to its phi-stage output as one contiguous row per
component count (``_analysis_row``); and ``trig``, the rows
[cos 0 phi, sin 1 phi, cos 1 phi, ..., sin Lg phi, cos Lg phi].  Band L
reads the first L + 1 orders and the first 2L + 1 trig rows, as views.

Synthesis reads folded coefficients cf[r, l - m, c], m = (r + 1) // 2:
cf[0] = c[0], cf[2m] = cp[m] = c[m] + (-1)^m c[-m] and cf[2m - 1] =
cs[m] = i (c[m] - (-1)^m c[-m]), so coefficient row r meets trig row r.
Analysis writes the padded layout xpad[m + L, l - |m|, c]: order m
indexes a row of degrees l = |m|..L, left-aligned, and c indexes signal
components (2s+1 for a spin-s signal); the slots past l = L are
unspecified.  Each transform runs its Legendre stage in runs of
``_RUN`` = 16 orders, each run trimmed to the degree slots its orders
use, and one phi GEMM, all components at once.  Samples are
phi-major: ``values`` [i, k, c] is a transposed view of a C-contiguous
[k, i, c] array, which the analysis GEMM reads in place.  This module
owns both slot maps: ``_padded_index`` places (l, m) in the padded
layout, and ``_folded_scatter`` carries a padded slot to its folded rows.
Coefficients enter and leave these layouts only through ``tsh``'s one
coupling table, built on both maps, scalars as spin 0.

Analysis integrates against conj(Y^m_l); spherical harmonic expansions use
plain Y^m_l.  Coefficient containers carry one complex block per degree j,
optionally tagged (tags distinguish multiplicity, e.g. source paths).
"""

from __future__ import annotations

import math
import operator
from collections.abc import MutableMapping
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np

from .angular import require_natural, wigner_d_matrix
from .flops import FlopCounter

__all__ = [
    "SphereGrid",
    "IrrepCoeffs",
    "make_grid",
    "sh_eval",
    "random_block",
    "random_coeffs",
    "rotate_coeffs",
]


def _signed(tab: np.ndarray, m: int) -> np.ndarray:
    """Lambda^m_l from the table of order |m|: Lambda^{-m}_l = (-1)^m Lambda^m_l."""
    return -tab if (m < 0 and m % 2) else tab


def _legendre_diagonal(x: np.ndarray, mmax: int) -> np.ndarray:
    """diag[m, i] = Lambda^m_m(x_i) for m = 0..mmax, by one running product over the orders.

    Lambda^0_0 = 1 / sqrt(4 pi) and Lambda^m_m = -sqrt((2m + 1) / 2m)
    sin(theta) Lambda^{m-1}_{m-1}: row m is row m - 1 times its factor
    row, so every entry takes the per-order recurrence's products in the
    same order and has its bits.
    """
    diag = np.empty((mmax + 1, x.size))
    diag[0] = 1.0 / math.sqrt(4.0 * math.pi)
    m = np.arange(1, mmax + 1)
    np.multiply(-np.sqrt((2 * m + 1) / (2.0 * m))[:, None], np.sqrt(1.0 - x * x), out=diag[1:])
    return np.multiply.accumulate(diag, axis=0, out=diag)


def _legendre_run(x: np.ndarray, diag: np.ndarray, m0: int, slots: int) -> np.ndarray:
    """run[m - m0, i, l - m] = Lambda^m_l(x_i) for the orders m = m0.. of ``diag`` rows and degrees l < m0 + slots.

    ``diag`` holds Lambda^m_m(x_i) of each order (``_legendre_diagonal``);
    entries past the top degree m0 + slots - 1 are zero.  One three-term
    step per degree slot l - m serves all the run's orders with l still in
    range, writing the run in place:
    Lambda^m_{m+1} = sqrt(2m + 3) x Lambda^m_m and
    Lambda^m_l = a (x Lambda^m_{l-1} - b Lambda^m_{l-2}) with
    a = sqrt((4l^2 - 1) / (l^2 - m^2)), b = sqrt(((l - 1)^2 - m^2) / (4 (l - 1)^2 - 1)).
    """
    n = diag.shape[0]
    run = np.zeros((n, x.size, slots))
    run[:, :, 0] = diag
    m = np.arange(m0, m0 + n)[:, None]
    if slots > 1:
        k = min(n, slots - 1)
        np.multiply(np.sqrt(2 * m[:k] + 3.0) * x, run[:k, :, 0], out=run[:k, :, 1])
    l = m + np.arange(2, slots)
    a = np.sqrt((4 * l * l - 1.0) / (l * l - m * m))[:, :, None]
    b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1) ** 2 - 1.0))[:, :, None]
    for d in range(2, slots):
        k = min(n, slots - d)  # the orders with l = m + d <= m0 + slots - 1
        step = x * run[:k, :, d - 1]
        step -= b[:k, d - 2] * run[:k, :, d - 2]
        np.multiply(a[:k, d - 2], step, out=run[:k, :, d])
    return run


# Orders per Legendre run of the transform cores.  A run of orders m0..m1 - 1
# multiplies K = L + 1 - m0 degree slots, so runs skip most of the padding
# past l = L of the (L + 1) x (L + 1) square; at L < _RUN one run covers it.
_RUN = 16


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
    def legendre(self) -> tuple[np.ndarray, ...]:
        """legendre[r][m - m0, i, l - m] = Lambda^m_l(cos theta_i) for the orders m of run r, m0 = 16 r.

        Run r is one C-contiguous block of its orders (m0..m0 + 15, up to
        Lg) by n_theta by the Lg + 1 - m0 degree slots they use, zero past
        l = Lg: the rectangle the run's Legendre matmuls read.  The blocks
        hold 8 sum_r min(16, Lg + 1 - m0) (Lg + 1) (Lg + 1 - m0) bytes.
        Each is filled in place by ``_legendre_run``, one recurrence step
        per degree slot for all its orders, from the diagonal of every
        order at once (``_legendre_diagonal``).
        """
        diag = _legendre_diagonal(self.cos_theta, self.Lg)
        return tuple(_legendre_run(self.cos_theta, diag[m0:m0 + _RUN], m0, self.Lg + 1 - m0)
                     for m0 in range(0, self.Lg + 1, _RUN))

    @cached_property
    def analysis_weights(self) -> np.ndarray:
        """Column w[i, 0] = theta_weights[i] 2 pi / n_phi, the analysis weight of theta row i."""
        return (self.theta_weights * (2.0 * np.pi / self.n_phi))[:, None]

    @cached_property
    def _analysis_rows(self) -> dict:
        """n_comp -> the analysis weights as one contiguous row; see ``_analysis_row``."""
        return {}

    def _analysis_row(self, n_comp: int) -> np.ndarray:
        """The analysis weights as one phi-stage output row of ``n_comp`` components.

        Each w_i repeats over the 2 n_comp floats of theta row i, so the
        multiply runs over one contiguous row.  Built once per component
        count that an analysis on this grid reads, and freed with the grid.
        """
        row = self._analysis_rows.get(n_comp)
        if row is None:
            row = self._analysis_rows[n_comp] = np.repeat(self.analysis_weights, 2 * n_comp)
        return row

    @cached_property
    def trig(self) -> np.ndarray:
        """Real phi rows [cos 0 phi, sin 1 phi, cos 1 phi, ..., sin Lg phi, cos Lg phi] at the phi nodes.

        Row 2m - 1 is sin(m phi_k) and row 2m is cos(m phi_k); band L reads
        the first 2L + 1 rows.
        """
        mphi = np.outer(np.arange(1, self.Lg + 1), self.phi)
        rows = np.empty((2 * self.Lg + 1, self.n_phi))
        rows[0] = 1.0
        rows[1::2] = np.sin(mphi)
        rows[2::2] = np.cos(mphi)
        return rows


@lru_cache(maxsize=128)
def make_grid(Lg: int) -> SphereGrid:
    """Grid with Lg+1 Gauss-Legendre theta nodes and 2 Lg + 1 phi nodes."""
    require_natural(Lg, "Lg")
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


def _require_finite(*vecs: np.ndarray) -> None:
    # entrywise: a sum of the entries could overflow and warn on finite input
    for v in vecs:
        if not np.isfinite(v).all():
            raise ValueError("inputs must be finite, got NaN or inf")


def _check_band_limit(L: int) -> None:
    require_natural(L, "band limit L")


def _trusted(cls, **fields):
    """Dataclass ``cls`` holding ``fields`` unchecked: values a core laid out, known to pass its checks."""
    z = cls.__new__(cls)
    vars(z).update(fields)
    return z


def _block_sort_key(key):
    j, tag = key
    return (j, tag is not None, repr(tag))


class _PackedBlocks(MutableMapping):
    """The ``blocks`` of a product output: a dict-like map over one packed array.

    Block ``key`` is packed[start:end] for spans[key] = (start, end), a view
    cut when the key is read, so an unwritten output holds no per-block
    array.  The span map is shared (a call plan's or a decode layout's)
    and never written.  The first write or delete turns the map into a
    dict of its views in span order, one view per block, and from then on
    it is that dict: writes are unchecked as there, and in-place writes to
    a view still reach the packed array.  ``len``, ``in`` and ``repr`` are
    a dict's of the same blocks; ``==`` is ``Mapping``'s, a dict of the
    blocks against the other side's, so it is a dict's against ``{}`` but
    raises, as numpy's ``==`` does, where a dict would find a block
    identical to the other side's.  A shallow copy shares the packed array
    and the span map, and copies the dict if there is one.  The gain is
    for callers that read few blocks or none: a read is a Python call, so
    reading every block costs more than from a dict of views.
    """

    __slots__ = ("packed", "spans", "_dict")

    def __init__(self, packed: np.ndarray, spans: dict):
        self.packed, self.spans, self._dict = packed, spans, None

    def _written(self) -> dict:
        if self._dict is None:
            self._dict = {key: self.packed[start:end] for key, (start, end) in self.spans.items()}
        return self._dict

    def __getitem__(self, key):
        if self._dict is not None:
            return self._dict[key]
        start, end = self.spans[key]
        return self.packed[start:end]

    def __setitem__(self, key, vec) -> None:
        self._written()[key] = vec

    def __delitem__(self, key) -> None:
        del self._written()[key]

    def __iter__(self):
        return iter(self.spans if self._dict is None else self._dict)

    def __len__(self) -> int:
        return len(self.spans if self._dict is None else self._dict)

    def __repr__(self) -> str:
        return repr(dict(self.items()))

    def __copy__(self):
        twin = _PackedBlocks(self.packed, self.spans)
        twin._dict = None if self._dict is None else dict(self._dict)
        return twin


class _Blocks:
    """Block code shared by ``IrrepCoeffs`` and ``tsh.TshCoeffs``.

    ``blocks`` maps pairs (j, tag) to finite complex vectors of length
    2j + 1, checked on the way in; the blocks stay mutable arrays, so the
    products check finiteness again.  A container built by hand holds a
    dict; a product output holds a ``_PackedBlocks`` over its packed
    array, read through the same mapping API.  Each subclass checks its
    other fields, then its keys in ``_check_key``, after the first
    ``_degrees`` entries of each key passed ``operator.index``;
    ``_sort_key`` orders ``items`` and ``_layout`` (None: by key).
    ``_layout`` is the one layout of a block set that every kernel reads.
    """

    _degrees = 1
    _sort_key = None

    def __post_init__(self):
        self.blocks = {key: self._checked(key, vec) for key, vec in self.blocks.items()}

    def _checked(self, key: tuple, vec) -> np.ndarray:
        """The one per-block check: a pair key, integer degrees, the class's key check, then ``vec``'s length and finiteness."""
        if type(key) is not tuple or len(key) != 2:
            raise ValueError(f"block key {key!r} is not a pair")
        try:
            for degree in key[:self._degrees]:
                operator.index(degree)
        except TypeError:
            raise ValueError(f"block {key} has a degree that is not an integer") from None
        self._check_key(*key)
        vec = np.asarray(vec, dtype=complex)
        if vec.shape != (2 * key[0] + 1,):
            raise ValueError(f"block {key} has length {vec.shape}, want {2 * key[0] + 1}")
        _require_finite(vec)
        return vec

    def block(self, j: int, tag=None) -> np.ndarray:
        return self.blocks[(j, tag)]

    def items(self):
        """Blocks in canonical order."""
        for key in sorted(self.blocks, key=self._sort_key):
            yield key, self.blocks[key]

    def _layout(self) -> tuple[tuple, np.ndarray]:
        """Keys in canonical order, and a new complex vector of their blocks end to end (empty for none)."""
        keys = tuple(sorted(self.blocks, key=self._sort_key))
        return keys, np.concatenate([self.blocks[key] for key in keys] or [()], dtype=complex)


@dataclass(eq=False)
class IrrepCoeffs(_Blocks):
    """Coefficient blocks indexed by degree j and an optional tag.

    Block (j, tag) is a complex vector of length 2j+1 indexed m = -j..j.
    Untagged blocks (tag None) are plain spherical harmonic coefficients;
    tags carry multiplicity labels such as source paths.  Canonical block
    order is ascending j, untagged first.
    """

    L: int
    blocks: dict = field(default_factory=dict)

    _sort_key = staticmethod(_block_sort_key)

    def __post_init__(self):
        _check_band_limit(self.L)
        super().__post_init__()

    def _check_key(self, j: int, _tag=None) -> None:
        if not 0 <= j <= self.L:
            raise ValueError(f"block degree {j} outside 0..L={self.L}")

    def get(self, j: int, tag=None):
        return self.blocks.get((j, tag))

    def set_block(self, j: int, vec, tag=None) -> None:
        self.blocks[(j, tag)] = self._checked((j, tag), vec)

    def single_per_degree(self) -> dict[int, np.ndarray]:
        """Map j -> vector, requiring at most one block per degree."""
        keys = sorted(self.blocks, key=self._sort_key)
        return dict(zip(_single_degrees(keys), map(self.blocks.__getitem__, keys)))


def _single_degrees(keys) -> tuple:
    """The degrees of block keys in canonical order, raising where two blocks share one."""
    degrees = tuple(j for j, _tag in keys)
    for j, k in zip(degrees, degrees[1:]):
        if j == k:
            raise ValueError(f"multiple blocks share degree {j}")
    return degrees


def sh_eval(l: int, m: int, theta, phi):
    """Y^m_l at (theta, phi); scalars or broadcastable arrays."""
    require_natural(l, "l")
    require_natural(abs(m), "|m|")
    if abs(m) > l:
        raise ValueError(f"need |m| <= l, got (l, m) = ({l}, {m})")
    th = np.asarray(theta, dtype=float)
    ph = np.asarray(phi, dtype=float)
    scalar = th.ndim == 0 and ph.ndim == 0
    th, ph = np.broadcast_arrays(np.atleast_1d(th), np.atleast_1d(ph))
    x, a = np.cos(th).ravel(), abs(m)
    lam = _legendre_run(x, _legendre_diagonal(x, a)[a:], a, l + 1 - a)[0, :, l - a]
    out = _signed(lam, m).reshape(th.shape) * np.exp(1j * m * ph)
    return complex(out.ravel()[0]) if scalar else out


def transform_macs(Lg: int, L: int) -> int:
    """MACs of one band-L transform of one component on ``make_grid(Lg)``, either direction.

    The Legendre stage costs (L + 1)^2 per theta node and the phi stage
    2L + 1 per (theta, phi) node: n_theta (L + 1)^2 + n_theta n_phi (2L + 1).
    """
    n_theta, n_phi = Lg + 1, 2 * Lg + 1
    return n_theta * (L + 1) ** 2 + n_theta * n_phi * (2 * L + 1)


def _padded_index(L: int, l, m):
    """Flat index of (l, m) in the padded layout [m + L, l - |m|] of band limit L.

    This is the layout ``_analysis_core`` writes: row m + L holds
    degrees l = |m|..L, left-aligned.
    """
    return (m + L) * (L + 1) + l - abs(m)


def _folded_scatter(L: int, slot: np.ndarray, n_comp: int):
    """Scatter from flat padded slots of band L into the folded layout of ``_synthesis_core``.

    A coefficient c at slot [m + L, l - |m|, comp] of the padded layout
    adds factor[0] * c to cf[2|m|] = cp[|m|] = c[|m|] + (-1)^m c[-|m|] and
    factor[1] * c to cf[2|m| - 1] = cs[|m|] = i (c[|m|] - (-1)^m c[-|m|]),
    both at [l - |m|, comp].  Returns (fslot, factor): the float slots of
    the real and imaginary parts of those two terms in the folded array's
    interleaved view, shape (2,) + slot.shape + (2,), and the two complex
    factors, shape (2,) + slot.shape.  At m = 0 the sine factor is zero
    and its slots are the cosine ones.
    """
    row = (L + 1) * n_comp
    m, cell = np.divmod(slot, row)
    m -= L
    a = np.abs(m)
    cos = 2 * a * row + cell
    sin = np.where(m != 0, cos - row, cos)
    cos_sign = np.where((m < 0) & (a % 2 == 1), -1.0, 1.0)
    sin_sign = np.where(m > 0, 1.0, np.where(m < 0, -cos_sign, 0.0))
    return 2 * np.stack([cos, sin])[..., None] + [0, 1], np.stack([cos_sign, 1j * sin_sign])


def _synthesis_core(cf: np.ndarray, grid: SphereGrid, L: int,
                    flops: FlopCounter | None) -> np.ndarray:
    """Grid samples [i, k, c] from folded coefficients cf[r, l - m, c]; a view of phi-major samples.

    Row r pairs with trig row r of order m = (r + 1) // 2: cf[0] = c[0],
    cf[2m] = cp[m] and cf[2m - 1] = cs[m] (``_folded_scatter``); slots
    past l = L must hold zero.  The Legendre stage makes, per run of
    ``_RUN`` orders m0..m1 - 1, one real batched matmul over the cosine
    rows and one over the sine rows, trimmed to the K = L + 1 - m0 slots
    the run's orders use.  The phi stage is one real GEMM against the
    grid's cos/sin rows.  All components c share both stages.
    """
    n_comp = cf.shape[-1]
    runs, cf = grid.legendre, cf.view(float)
    lam = runs[0][:L + 1, :, :L + 1]
    H = np.empty((2 * L + 1, grid.n_theta, 2 * n_comp))
    # the first run reads all L + 1 slots, and order 0 has no sine row
    np.matmul(lam, cf[:2 * _RUN:2], out=H[:2 * _RUN:2])
    np.matmul(lam[1:], cf[1:2 * _RUN - 1:2], out=H[1:2 * _RUN - 1:2])
    for m0 in range(_RUN, L + 1, _RUN):
        K = L + 1 - m0
        run = runs[m0 // _RUN][:K, :, :K]
        cos, sin = slice(2 * m0, 2 * m0 + 2 * _RUN, 2), slice(2 * m0 - 1, 2 * m0 + 2 * _RUN - 1, 2)
        np.matmul(run, cf[cos, :K], out=H[cos])
        np.matmul(run, cf[sin, :K], out=H[sin])
    values = grid.trig[:2 * L + 1].T @ H.reshape(2 * L + 1, -1)
    if flops is not None:
        flops.add(n_comp * transform_macs(grid.Lg, L))
    return values.view(complex).reshape(grid.n_phi, grid.n_theta, n_comp).transpose(1, 0, 2)


def _unfold(pos: np.ndarray, sin: np.ndarray, neg: np.ndarray, odd: int) -> None:
    """Unfold orders m > 0: x[m] = P_cos - i P_sin, x[-m] = (-1)^m (P_cos + i P_sin).

    ``pos`` holds P_cos of consecutive orders, the first odd if ``odd``,
    and receives x[m]; ``sin`` holds P_sin and is overwritten; ``neg``
    receives x[-m] in the same order.
    """
    sin *= -1j
    # P_cos - (-i P_sin) for even m, (-i P_sin) - P_cos for odd m
    np.subtract(pos[odd::2], sin[odd::2], out=neg[odd::2])
    np.subtract(sin[1 - odd::2], pos[1 - odd::2], out=neg[1 - odd::2])
    pos += sin


def _analysis_core(values: np.ndarray, grid: SphereGrid, L: int,
                   flops: FlopCounter | None) -> np.ndarray:
    """Padded coefficients xpad[m + L, l - |m|, c] from grid samples [i, k, c]; L <= grid.Lg.

    The phi stage runs the synthesis GEMM in reverse on the phi-major
    samples (no copy when ``values`` is a view of C-contiguous phi-major
    samples, as ``_synthesis_core`` returns), and one in-place multiply
    by the grid's contiguous ``_analysis_row`` weighs its theta rows.
    Per run of ``_RUN`` orders m0..m1 - 1, the run's m >= 0 table block,
    transposed and trimmed to K = L + 1 - m0 slots, contracts its cosine
    rows into P_cos and its sine rows into P_sin, and the unfold x[m] =
    P_cos - i P_sin, x[-m] = (-1)^m (P_cos + i P_sin) writes the run's
    rows of the padded layout.  Slots past l = L are unspecified: a run leaves the unused
    tail of its rows as allocated, so they may hold anything, NaN included.
    """
    _check_band_limit(L)
    if L > grid.Lg:
        raise ValueError(f"analysis degree {L} > grid exactness degree {grid.Lg}")
    n_comp = values.shape[-1]
    samples = np.ascontiguousarray(values.transpose(1, 0, 2), dtype=complex)
    F = grid.trig[:2 * L + 1] @ samples.reshape(grid.n_phi, -1).view(float)
    F *= grid._analysis_row(n_comp)
    F = F.reshape(2 * L + 1, grid.n_theta, 2 * n_comp)
    runs = grid.legendre
    lam = runs[0][:L + 1, :, :L + 1].transpose(0, 2, 1)
    xpad = np.empty((2 * L + 1, L + 1, n_comp), dtype=complex)
    # the first run reads all L + 1 slots, and order 0 has no sine row
    np.matmul(lam, F[:2 * _RUN:2], out=xpad[L:L + _RUN].view(float))
    sin = np.matmul(lam[1:], F[1:2 * _RUN - 1:2]).view(complex)
    _unfold(xpad[L + 1:L + _RUN], sin, xpad[:L][::-1][:_RUN - 1], 1)
    for m0 in range(_RUN, L + 1, _RUN):
        K = L + 1 - m0
        run, pos = runs[m0 // _RUN][:K, :, :K].transpose(0, 2, 1), xpad[L + m0:L + m0 + _RUN, :K]
        np.matmul(run, F[2 * m0:2 * m0 + 2 * _RUN:2], out=pos.view(float))
        sin = np.matmul(run, F[2 * m0 - 1:2 * m0 + 2 * _RUN - 1:2]).view(complex)
        _unfold(pos, sin, xpad[L - m0::-1][:_RUN, :K], 0)
    if flops is not None:
        flops.add(n_comp * transform_macs(grid.Lg, L))
    return xpad


def random_block(j: int, rng: np.random.Generator) -> np.ndarray:
    """Standard complex normal vector of length 2j+1; real parts are drawn first."""
    return rng.standard_normal(2 * j + 1) + 1j * rng.standard_normal(2 * j + 1)


def random_coeffs(L: int, rng: np.random.Generator) -> IrrepCoeffs:
    """Standard complex normal coefficients, one untagged block per degree."""
    return IrrepCoeffs(L=L, blocks={(l, None): random_block(l, rng) for l in range(L + 1)})


def rotate_coeffs(x: _Blocks, alpha: float, beta: float, gamma: float) -> _Blocks:
    """Apply the rotation blockwise: each degree-j block maps to D^j x.

    ``x`` is an ``IrrepCoeffs`` or a ``tsh.TshCoeffs``; the result is the
    same type with the same other fields and keys, built (and so checked)
    by ``dataclasses.replace``.  D^j is built once per distinct degree.
    """
    D = {j: wigner_d_matrix(j, alpha, beta, gamma) for j in {key[0] for key in x.blocks}}
    return replace(x, blocks={key: D[key[0]] @ vec for key, vec in x.items()})
