"""Tensor spherical harmonics and spin-valued spherical signals.

A spin-s signal maps the sphere to C^(2s+1) and transforms with D^s on its
components while the domain rotates.  The tensor spherical harmonic basis
couples a scalar harmonic of degree l with the spin-s components into
total degree j:

    (Y^{l,s}_{j,mj})_{ms} = sum_{ml} C^{j,mj}_{l,ml,s,ms} Y^{ml}_l

defined for key triples with {j, l, s} = 1, every C the float
``angular.cg_block``.  Coefficient containers are keyed by (j, l); a
degree-j block is a complex vector indexed mj = -j..j, checked by the
block base of ``sht`` with the triangle and band limit as the key check.

Encode/decode factor through the scalar transform cores and one dense
coupling table per block set: row ms + s of its K = 2s + 1 rows holds
each packed coefficient's weight and padded slot for that component,
weight 0 where ml = mj - ms is out of range.  Encoding scatters the
packed blocks through it, folded over +-ml, straight into the folded
spin layout of ``sht``; then a single synthesis or analysis handles all
2s+1 components.  Decoding gathers from the analysis's padded layout
through the same table (one take, one multiply, one add reduce), reading
no slot past l = L and inverting the coupling by Clebsch-Gordan
orthogonality, so decode(encode(x)) = x whenever the grid resolves the
band limit.  Spin 0 is the identity coupling (all weights 1.0, 0 MACs),
and the scalar transforms ``to_sphere`` and ``from_sphere`` are spin-0
encode and decode.  A ``SpinSignal`` checks its spin, shape and
finiteness; the encode core builds its ``SpinSignal`` unchecked
(``sht._trusted``).  A decode holds its packed vector and the layout's
span map (``sht._Pending``) and builds no per-block array until its
``blocks`` is first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .angular import _as_integers, _cg_entries, cg_block, require_natural, triangle_delta
from .flops import FlopCounter
from .sht import (IrrepCoeffs, SphereGrid, _analysis_core, _Blocks, _folded_scatter, _padded_index,
                  _Pending, _require_finite, _synthesis_core, _trusted, make_grid, random_block,
                  sh_eval)

__all__ = [
    "SpinSignal",
    "TshCoeffs",
    "spin0_from_scalar",
    "scalar_from_spin0",
    "to_sphere",
    "from_sphere",
    "valid_pairs",
    "tsh_eval",
    "tsh_encode",
    "tsh_decode",
    "tsh_evaluate",
    "tsh_orthonormality_check",
    "random_tsh_coeffs",
]


def valid_pairs(s: int, L: int) -> list[tuple[int, int]]:
    """All (j, l) with {j, l, s} = 1 and l <= L, ascending j then l."""
    require_natural(s, "spin s")
    require_natural(L, "band limit L")
    pairs = [(j, l) for l in range(L + 1) for j in range(abs(l - s), l + s + 1)]
    return sorted(pairs)


@dataclass(eq=False)
class SpinSignal:
    """Complex samples with 2s+1 spin components per grid point; the constructor rejects NaN and inf."""

    s: int
    grid: SphereGrid
    values: np.ndarray  # (n_theta, n_phi, 2s+1), component index ms = -s..s

    def __post_init__(self):
        require_natural(self.s, "spin s")
        expect = (self.grid.n_theta, self.grid.n_phi, 2 * self.s + 1)
        if self.values.shape != expect:
            raise ValueError(f"signal shape {self.values.shape} != {expect}")
        _require_finite(self.values)


@dataclass(eq=False)
class TshCoeffs(_Blocks):
    """Tensor-harmonic coefficient blocks keyed by (j, l).

    Every key satisfies {j, l, s} = 1 and l <= L; block (j, l) has length
    2j+1.  Canonical block order is ascending j, then ascending l.
    """

    s: int
    L: int
    blocks: dict = field(default_factory=dict)

    _degrees = 2

    def __post_init__(self):
        require_natural(self.s, "spin s")
        require_natural(self.L, "band limit L")
        super().__post_init__()

    def _check_key(self, j: int, l: int) -> None:
        if l > self.L:
            raise ValueError(f"block {(j, l)} exceeds band limit L={self.L}")
        if j < 0 or l < 0 or not triangle_delta(j, l, self.s):
            raise ValueError(f"key {(j, l)} violates the triangle {{j, l, s={self.s}}}")

    def set_block(self, j: int, l: int, vec) -> None:
        self.blocks[(j, l)] = self._checked((j, l), vec)


def spin0_from_scalar(x: IrrepCoeffs) -> TshCoeffs:
    """Spin-0 blocks (j, l = j) from scalar coefficients: tags dropped, one block per degree."""
    return TshCoeffs(s=0, L=x.L, blocks={(j, j): vec for j, vec in x.single_per_degree().items()})


def scalar_from_spin0(z: TshCoeffs) -> IrrepCoeffs:
    """Untagged scalar coefficients from spin-0 blocks (j, l = j)."""
    if z.s != 0:
        raise ValueError(f"spin-{z.s} coefficients have no scalar form")
    return _trusted(IrrepCoeffs, L=z.L, blocks={(j, None): vec for (j, _l), vec in z.items()})


def to_sphere(x: IrrepCoeffs, grid: SphereGrid, flops: FlopCounter | None = None) -> SpinSignal:
    """Synthesize f(theta, phi) = sum_{l,m} x^(l)_m Y^m_l on the grid, by a spin-0 encode.

    Returns the spin-0 signal, ``values`` of shape (n_theta, n_phi, 1).
    Requires grid.Lg >= x.L and finite coefficients.  Tags are ignored;
    at most one block per degree may be present.  Unlike ``tsh_encode``,
    it synthesizes at x.L, not at the top degree present, and rejects NaN/inf.
    """
    if grid.Lg < x.L:
        raise ValueError(f"grid exactness degree {grid.Lg} < band limit {x.L}")
    return _encode(0, *spin0_from_scalar(x)._layout(), grid, flops, x.L)


def from_sphere(f: SpinSignal, L: int, flops: FlopCounter | None = None) -> IrrepCoeffs:
    """Analyze a signal into coefficients x^(l)_m = integral(f * conj(Y^m_l)), by a spin-0 decode.

    ``f`` must be a spin-0 ``SpinSignal``; any other spin raises first.
    Exact for signals band-limited at degree <= grid.Lg when L <= grid.Lg.
    """
    if f.s != 0:
        raise ValueError(f"from_sphere takes a spin-0 signal, got spin s={f.s}")
    return scalar_from_spin0(tsh_decode(f, L, flops))


def tsh_eval(j: int, m_j: int, l: int, s: int, theta, phi) -> np.ndarray:
    """One tensor harmonic at (theta, phi): components ms = -s..s.

    Scalar angles give shape (2s+1,); array angles broadcast to
    shape (..., 2s+1).  With s = 0 this reduces to the scalar harmonic.
    The coupling weights are the float ``cg_block(l, s, j)``, so (l, s)
    must be in its range: l + s <= ``CG_BLOCK_MAX``, or l + s <= 512 for
    s <= 2.  ``j``, ``m_j``, ``l`` and ``s`` must be integers (Python or
    numpy), and any other, such as 2.0, raises ``ValueError`` naming it.
    """
    j, m_j, l, s = _as_integers((j, m_j, l, s), ("j", "m_j", "l", "s"))
    if not triangle_delta(j, l, s):
        raise ValueError(f"(j, l, s) = {(j, l, s)} violates the triangle condition")
    if abs(m_j) > j:
        raise ValueError(f"|m_j| <= j required, got {(j, m_j)}")
    C = cg_block(l, s, j)
    out = np.zeros(np.broadcast_shapes(np.shape(theta), np.shape(phi)) + (2 * s + 1,), dtype=complex)
    for m_s in range(-s, s + 1):
        m_l = m_j - m_s
        if abs(m_l) <= l and C[m_l + l, m_s + s]:
            out[..., m_s + s] = C[m_l + l, m_s + s] * sh_eval(l, m_l, theta, phi)
    return out


def _coupling_table(s: int, keys: tuple, L: int):
    """Dense Clebsch-Gordan coupling between packed (j, l) blocks and the padded layout.

    ``keys`` lists the blocks in packing order (their vectors concatenated,
    n coefficients in all); ``L`` is the band limit of the padded spin
    layout cpad[m + L, l - |m|, ms + s].  Returns (macs, slot, weight),
    slot and weight K x n with K = 2s + 1: row k = ms + s couples packed
    coefficient (j, l, mj) with flat padded slot slot[k, i] of ml = mj - ms
    by C^{j,mj}_{l,ml,s,ms}.  An entry with |ml| > l is padding, weight 0
    at the slot of ml clipped to +-l, which the analysis writes.  macs
    counts the other entries, except at spin 0: its identity table
    (weights 1.0, no CG entry) counts 0.  Every key's columns are built
    in one pass, the weights by one ``angular._cg_entries`` gather.
    """
    ms = np.arange(-s, s + 1)[:, None]
    j, l = np.array(keys, dtype=np.intp).reshape(-1, 2).T
    width = 2 * j + 1
    j, l, start = np.repeat(j, width), np.repeat(l, width), np.repeat(np.cumsum(width) - width, width)
    ml = np.arange(j.size) - start - j - ms
    clipped = np.clip(ml, -l, l)
    slot = _padded_index(L, l, clipped) * (2 * s + 1) + ms + s
    if not s:
        return 0, slot, np.ones(slot.shape)
    inside = clipped == ml
    return int(inside.sum()), slot, np.where(inside, _cg_entries(l, s, j, clipped, ms), 0.0)


@lru_cache(maxsize=128)
def _encode_table(s: int, keys: tuple, L: int):
    """The coupling table of ``keys`` folded into the folded spin layout (``sht._folded_scatter``).

    Returns (macs, weight, slot): packed coefficient i adds weight[t, k, i]
    times itself into the cosine (t = 0) and sine (t = 1) term of its row-k
    entry, whose float slots in the folded array's interleaved view are
    slot[t, k, i], with slot flattened.  The packed axis is last, so the
    encode's multiply runs along it.
    """
    macs, slot, weight = _coupling_table(s, keys, L)
    fslot, factor = _folded_scatter(L, slot, 2 * s + 1)
    factor *= weight
    return macs, factor, fslot.ravel()


@lru_cache(maxsize=128)
def _decode_layout(s: int, L: int):
    """The coupling table of every (j, l) key up to L, in valid_pairs order, and its block spans.

    Returns ((macs, slot, weight), spans): packed coefficient i sums
    weight[k, i] * xpad.flat[slot[k, i]] over the K = 2s + 1 rows of
    ``_coupling_table``, ms ascending.  ``weight`` holds each weight twice,
    once per float of the complex entry, and is None at spin 0, where the
    gather alone decodes.  Block (j, l) is packed[start:end] for
    spans[(j, l)] = (start, end); every decode at (s, L) holds this one
    span map in its ``sht._Pending`` blocks until the first read, and
    nothing writes it.
    """
    keys = valid_pairs(s, L)
    ends = list(accumulate(2 * j + 1 for j, _l in keys))
    macs, slot, weight = _coupling_table(s, keys, L)
    return ((macs, slot, np.repeat(weight, 2, axis=1) if s else None),
            dict(zip(keys, zip([0] + ends[:-1], ends))))


def _encode(s: int, keys: tuple, packed: np.ndarray, grid: SphereGrid,
            flops: FlopCounter | None, L: int | None = None) -> SpinSignal:
    """``tsh_encode`` of blocks laid out by ``sht._Blocks._layout``, on a grid already checked.

    Synthesizes at band ``L``, by default the top orbital degree of ``keys``.
    """
    if L is None:
        L = max((l for _j, l in keys), default=0)
    macs, weight, slot = _encode_table(s, keys, L)
    terms = packed * weight
    cf = np.bincount(slot, terms.view(float).ravel(), 2 * (2 * L + 1) * (L + 1) * (2 * s + 1))
    if flops is not None:
        flops.add(macs)
    return _trusted(SpinSignal, s=s, grid=grid, values=_synthesis_core(
        cf.view(complex).reshape(2 * L + 1, L + 1, 2 * s + 1), grid, L, flops))


def tsh_encode(x: TshCoeffs, grid: SphereGrid, flops: FlopCounter | None = None) -> SpinSignal:
    """Synthesize the spin-s signal sum_{j,l,m} x^(j,l)_m Y^{l,s}_{j,m} on the grid.

    Non-finite coefficients give non-finite samples; the grid products
    (``tenprod.istp``) reject them before encoding.
    """
    if grid.Lg < x.L:
        raise ValueError(f"grid exactness degree {grid.Lg} < band limit {x.L}")
    return _encode(x.s, *x._layout(), grid, flops)


def _decode(f: SpinSignal, L: int, flops: FlopCounter | None) -> np.ndarray:
    """``tsh_decode`` of ``f`` as one packed vector: blocks at the spans of ``_decode_layout``.

    One take gathers the K x n dense table's slots of the padded
    analysis, one multiply weights them in place, and one add reduce over
    the K rows sums each packed coefficient's terms in table order: row 0
    plus row 1, then plus row 2 and so on.
    """
    xpad = _analysis_core(f.values, f.grid, L, flops).reshape(-1)
    (macs, slot, weight), _spans = _decode_layout(f.s, L)
    if not f.s:
        return xpad.take(slot[0])
    terms = xpad.take(slot)
    floats = terms.view(float)
    floats *= weight
    if flops is not None:
        flops.add(macs)
    return np.add.reduce(terms)


def tsh_decode(f: SpinSignal, L: int, flops: FlopCounter | None = None) -> TshCoeffs:
    """Analyze a spin-s signal into (j, l) blocks with l <= L.

    One analysis of all components produces B^l_{ml,ms}; Clebsch-Gordan
    orthogonality then extracts each block:
    z^(j,l)_{mj} = sum_{ml,ms} C^{j,mj}_{l,ml,s,ms} B^l_{ml,ms}, or B^j_{mj} at spin 0.
    The output is built holding the packed decode and the spans of
    ``_decode_layout(s, L)`` (``sht._Pending``), so no per-block array is
    built; the first read of ``blocks`` cuts a dict of all their views.
    Raises ``ValueError`` for an L that is not a non-negative integer or
    exceeds grid.Lg, before any grid table is built.
    """
    require_natural(L, "band limit L")
    if L > f.grid.Lg:
        raise ValueError(f"analysis degree {L} > grid exactness degree {f.grid.Lg}")
    blocks = _Pending(_decode(f, L, flops), _decode_layout(f.s, L)[1])
    return _trusted(TshCoeffs, s=f.s, L=L, blocks=blocks)


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
