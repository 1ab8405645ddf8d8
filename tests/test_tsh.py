"""Tests for tensor spherical harmonics and spin-signal transforms."""

import math

import numpy as np
import pytest

from so3tp.angular import wigner_d_matrix
from so3tp.flops import FlopCounter
from so3tp.sht import _padded_legendre, make_grid, random_block, sh_eval
from so3tp.tsh import (
    SpinSignal,
    TshCoeffs,
    random_tsh_coeffs,
    rotate_tsh_coeffs,
    tsh_decode,
    tsh_encode,
    tsh_eval,
    tsh_evaluate,
    tsh_orthonormality_check,
    valid_pairs,
)
from so3tp.verify import rotated_node_angles


def test_valid_pairs_small():
    assert valid_pairs(0, 2) == [(0, 0), (1, 1), (2, 2)]
    assert valid_pairs(1, 1) == [(0, 1), (1, 0), (1, 1), (2, 1)]


def test_tsh_eval_spin_zero_reduces_to_scalar():
    for (j, m) in [(0, 0), (2, 1), (3, -3)]:
        v = tsh_eval(j, m, j, 0, 0.7, 1.3)
        assert v.shape == (1,)
        assert abs(v[0] - sh_eval(j, m, 0.7, 1.3)) <= 1e-14


def test_tsh_eval_radial_example():
    # (j, l, s) = (0, 1, 1): components C^{0,0}_{1,-ms,1,ms} Y^{-ms}_1, with
    # pointwise norm sqrt(3 / 4 pi) / sqrt(3)
    v = tsh_eval(0, 0, 1, 1, 0.9, 2.1)
    assert np.linalg.norm(v) == pytest.approx(math.sqrt(3 / (4 * math.pi)) / math.sqrt(3), abs=1e-14)


def test_tsh_eval_rejects_invalid():
    with pytest.raises(ValueError):
        tsh_eval(0, 0, 2, 1, 0.0, 0.0)  # {0,2,1} fails
    with pytest.raises(ValueError):
        tsh_eval(1, 2, 1, 1, 0.0, 0.0)  # |m_j| > j


def test_tsh_coeffs_key_validation():
    for key, vec, message in [
        ((2, 2), np.zeros(5), "block (2, 2) exceeds band limit L=1"),
        ((-1, 1), np.zeros(1), "key (-1, 1) violates the triangle {j, l, s=1}"),
        ((1, -1), np.zeros(3), "key (1, -1) violates the triangle {j, l, s=1}"),
        ((3, 1), np.zeros(7), "key (3, 1) violates the triangle {j, l, s=1}"),
        ((1, 1), np.zeros(5), "block (1, 1) has length (5,), want 3"),
    ]:
        with pytest.raises(ValueError) as err:
            TshCoeffs(s=1, L=1, blocks={key: vec})
        assert str(err.value) == message
        x = TshCoeffs(s=1, L=1)
        with pytest.raises(ValueError) as err:
            x.set_block(*key, vec)
        assert str(err.value) == message
        assert x.blocks == {}


@pytest.mark.parametrize("s, L, message", [
    (1, -1, "band limit L=-1 must be non-negative"),
    (-1, 1, "spin s=-1 must be non-negative"),
])
def test_tsh_coeffs_reject_negative_limits(s, L, message):
    with pytest.raises(ValueError, match=message):
        TshCoeffs(s=s, L=L)


def test_decode_rejects_negative_band_limit_before_any_table():
    g = make_grid(2)
    f = SpinSignal(s=1, grid=g, values=np.zeros((g.n_theta, g.n_phi, 3), complex))
    misses = _padded_legendre.cache_info().misses
    with pytest.raises(ValueError, match="band limit L=-1 must be non-negative"):
        tsh_decode(f, -1)
    assert _padded_legendre.cache_info().misses == misses


def test_encode_spin_zero_matches_scalar(rng):
    from so3tp.sht import IrrepCoeffs, to_sphere

    g = make_grid(3)
    x = TshCoeffs(s=0, L=3, blocks={(l, l): rng.standard_normal(2 * l + 1) + 0j for l in range(4)})
    sig = tsh_encode(x, g)
    scalar = to_sphere(IrrepCoeffs(L=3, blocks={(l, None): x.block(l, l) for l in range(4)}), g)
    assert np.abs(sig.values[:, :, 0] - scalar.values).max() <= 1e-14


def test_encode_single_block_matches_eval():
    g = make_grid(2)
    x = TshCoeffs(s=1, L=1, blocks={(0, 1): np.array([1.0 + 0j])})
    sig = tsh_encode(x, g)
    th, ph = g.angles
    np.testing.assert_allclose(sig.values, tsh_eval(0, 0, 1, 1, th, ph), atol=1e-14)


@pytest.mark.parametrize("s", [0, 1, 2])
def test_encode_matches_pointwise_eval(s, rng):
    # loop-form reference: tsh_evaluate sums tsh_eval over every coefficient
    L = 4
    g = make_grid(L)
    x = random_tsh_coeffs(s, L, rng)
    th, ph = g.angles
    assert np.abs(tsh_encode(x, g).values - tsh_evaluate(x, th, ph)).max() <= 1e-12


def _scalar_synthesis_macs(g, L):
    # the closed form pinned by test_sht.test_transform_flop_counts
    return g.n_theta * (L + 1) ** 2 + g.n_theta * (2 * L + 1) * g.n_phi


def _coupling_pairs(s, keys):
    return sum(1 for j, l in keys for m_l in range(-l, l + 1) for m_s in range(-s, s + 1)
               if abs(m_l + m_s) <= j)


@pytest.mark.parametrize("s,single", [(0, None), (1, None), (2, None),
                                      (0, (2, 2)), (1, (2, 3)), (2, (1, 3))])
def test_transform_macs_closed_form(s, single, rng):
    L = 4
    g = make_grid(L + 1)
    x = random_tsh_coeffs(s, L, rng)
    if single is not None:
        x = TshCoeffs(s=s, L=L, blocks={single: x.block(*single)})
    band = max(l for _j, l in x.blocks)
    fl = FlopCounter()
    f = tsh_encode(x, g, flops=fl)
    assert fl.count == ((2 * s + 1) * _scalar_synthesis_macs(g, band)
                        + _coupling_pairs(s, x.blocks))
    fl = FlopCounter()
    tsh_decode(f, L, flops=fl)
    analysis = g.n_theta * g.n_phi * (2 * L + 1) + g.n_theta * (L + 1) ** 2
    assert fl.count == (2 * s + 1) * analysis + _coupling_pairs(s, valid_pairs(s, L))


def test_encode_rejects_small_grid(rng):
    x = random_tsh_coeffs(1, 4, rng)
    with pytest.raises(ValueError):
        tsh_encode(x, make_grid(3))


def test_decode_zero_signal():
    g = make_grid(2)
    z = tsh_decode(SpinSignal(s=1, grid=g, values=np.zeros((g.n_theta, g.n_phi, 3), complex)), 2)
    assert all(np.abs(vec).max() == 0.0 for _k, vec in z.items())


@pytest.mark.parametrize("s, L", [(0, 3), (1, 0), (1, 4), (2, 3)])
def test_decode_keys_in_valid_pairs_order(s, L):
    g = make_grid(L)
    values = np.ones((g.n_theta, g.n_phi, 2 * s + 1), complex)
    assert list(tsh_decode(SpinSignal(s=s, grid=g, values=values), L).blocks) == valid_pairs(s, L)


def test_decode_recovers_single_block(rng):
    g = make_grid(4)
    vec = random_block(2, rng)
    x = TshCoeffs(s=1, L=3, blocks={(2, 3): vec})
    z = tsh_decode(tsh_encode(x, g), 3)
    for (j, l), block in z.items():
        expect = vec if (j, l) == (2, 3) else 0.0
        assert np.abs(block - expect).max() <= 1e-12, (j, l)


@pytest.mark.parametrize("s", [0, 1, 2])
def test_decode_recovers_each_block(s, rng):
    L = 4
    g = make_grid(L)
    for key in valid_pairs(s, L):
        vec = random_block(key[0], rng)
        z = tsh_decode(tsh_encode(TshCoeffs(s=s, L=L, blocks={key: vec}), g), L)
        for other, block in z.items():
            expect = vec if other == key else 0.0
            assert np.abs(block - expect).max() <= 1e-12, (key, other)


@pytest.mark.parametrize("s,L", [(0, 8), (1, 4), (1, 16), (2, 8)])
def test_round_trip(s, L, rng):
    x = random_tsh_coeffs(s, L, rng)
    g = make_grid(L)
    fl = FlopCounter()
    z = tsh_decode(tsh_encode(x, g, flops=fl), L, flops=fl)
    err = max(np.abs(x.block(j, l) - z.block(j, l)).max() for j, l in x.blocks)
    assert err <= 1e-12
    assert fl.count > 0


def test_decode_band_limit_cut(rng):
    # decoding at a smaller band limit returns exactly the l <= L3 blocks
    x = random_tsh_coeffs(1, 4, rng)
    g = make_grid(4)
    z = tsh_decode(tsh_encode(x, g), 2)
    assert set(z.blocks) == set(valid_pairs(1, 2))
    for j, l in z.blocks:
        assert np.abs(z.block(j, l) - x.block(j, l)).max() <= 1e-12


@pytest.mark.parametrize("s,L", [(0, 4), (1, 4), (2, 5)])
def test_orthonormality(s, L):
    assert tsh_orthonormality_check(s, L) <= 1e-12


def test_decode_against_pointwise_quadrature(rng):
    # brute-force oracle: z^(j,l)_m = sum_ms integral(f_ms conj(Y^{l,s}_{j,m})_ms)
    s, L = 1, 2
    g = make_grid(2 * L)
    x = random_tsh_coeffs(s, L, rng)
    f = tsh_encode(x, g)
    th, ph = g.angles
    w = g.weights
    for j, l in valid_pairs(s, L):
        for m_j in range(-j, j + 1):
            basis = tsh_eval(j, m_j, l, s, th, ph)
            val = (f.values * np.conj(basis) * w[..., None]).sum()
            assert abs(val - x.block(j, l)[m_j + j]) <= 1e-12


@pytest.mark.parametrize("s", [0, 1, 2])
def test_decode_matches_pointwise_quadrature(s, rng):
    # loop-form reference: project each component onto tsh_eval by quadrature
    L = 4
    g = make_grid(2 * L)
    f = tsh_encode(random_tsh_coeffs(s, 2 * L, rng), g)
    z = tsh_decode(f, L)
    th, ph = g.angles
    w = g.weights[..., None]
    for j, l in valid_pairs(s, L):
        expect = [(f.values * np.conj(tsh_eval(j, m_j, l, s, th, ph)) * w).sum()
                  for m_j in range(-j, j + 1)]
        assert np.abs(z.block(j, l) - expect).max() <= 1e-12, (j, l)


def test_equivariance(rng):
    # encode(D^j x) = D^s applied to the original signal at rotated points
    s, L = 1, 3
    g = make_grid(L)
    x = random_tsh_coeffs(s, L, rng)
    for _ in range(3):
        a, b, c = rng.uniform(0, 2 * np.pi, 3)
        f_rot = tsh_encode(rotate_tsh_coeffs(x, a, b, c), g).values
        th_b, ph_b = rotated_node_angles(g, a, b, c)
        f_back = tsh_evaluate(x, th_b, ph_b)
        expect = f_back @ wigner_d_matrix(s, a, b, c).T
        assert np.abs(f_rot - expect).max() <= 1e-10


def test_high_spin_round_trip(rng):
    x = random_tsh_coeffs(2, 6, rng)
    g = make_grid(6)
    z = tsh_decode(tsh_encode(x, g), 6)
    err = max(np.abs(x.block(j, l) - z.block(j, l)).max() for j, l in x.blocks)
    assert err <= 1e-12
