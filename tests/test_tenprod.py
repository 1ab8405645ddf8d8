"""Tests for tensor product operations."""

import math

import numpy as np
import pytest

from so3tp import angular, rules, sht, tenprod, tsh
from so3tp.angular import cg_float
from so3tp.flops import FlopCounter
from so3tp.rules import PathKey, find_valid_ells, generalized_gaunt
from so3tp.sht import (IrrepCoeffs, gaunt_coefficient, make_grid, random_block, random_coeffs,
                       rotate_coeffs)
from so3tp.tenprod import (
    cgtp_full,
    cgtp_path,
    gtp,
    istp,
    pointwise_spin_tp,
    simulate_cgtp_path,
    sparse_pair_count,
    vstp,
)
from so3tp.tsh import SpinSignal, TshCoeffs, random_tsh_coeffs, rotate_tsh_coeffs



def cg_contract(u, v, j3):
    """Independent dense-loop oracle for a single coupling path."""
    j1 = (len(u) - 1) // 2
    j2 = (len(v) - 1) // 2
    out = np.zeros(2 * j3 + 1, dtype=complex)
    for m1 in range(-j1, j1 + 1):
        for m2 in range(-j2, j2 + 1):
            m3 = m1 + m2
            if abs(m3) <= j3:
                out[m3 + j3] += cg_float(j1, m1, j2, m2, j3, m3) * u[m1 + j1] * v[m2 + j2]
    return out


# ---------------------------------------------------------------- cgtp

def test_cgtp_path_scalar_coupling(rng):
    y = random_block(2, rng)
    z = cgtp_path(np.array([3.0 + 0j]), y, 2)
    np.testing.assert_allclose(z, 3.0 * y, atol=1e-14)


def test_cgtp_path_highest_weight():
    e = np.zeros(3, dtype=complex)
    e[2] = 1.0
    z = cgtp_path(e, e, 2)
    expect = np.zeros(5, dtype=complex)
    expect[4] = 1.0
    np.testing.assert_allclose(z, expect, atol=1e-15)


def test_cgtp_path_antisymmetric_zero(rng):
    x = random_block(1, rng)
    assert np.abs(cgtp_path(x, x, 1)).max() <= 1e-15


def test_cgtp_path_matches_oracle(rng):
    for j1, j2, j3 in [(1, 1, 2), (2, 3, 4), (3, 2, 1), (4, 4, 5)]:
        u, v = random_block(j1, rng), random_block(j2, rng)
        expect = cg_contract(u, v, j3)
        for mode in ("naive", "sparse"):
            np.testing.assert_allclose(cgtp_path(u, v, j3, mode=mode), expect, atol=1e-12)


def test_cgtp_path_errors(rng):
    with pytest.raises(ValueError):
        cgtp_path(random_block(1, rng), random_block(1, rng), 3)  # triangle
    with pytest.raises(ValueError):
        cgtp_path(np.zeros(4, complex), np.zeros(3, complex), 1)  # even length
    with pytest.raises(ValueError):
        cgtp_path(random_block(1, rng), random_block(1, rng), 1, mode="fast")


def test_cgtp_flop_counts(rng):
    for j1, j2, j3 in [(1, 1, 1), (2, 3, 4), (3, 3, 0), (2, 2, 4)]:
        u, v = random_block(j1, rng), random_block(j2, rng)
        fl = FlopCounter()
        cgtp_path(u, v, j3, mode="naive", flops=fl)
        assert fl.count == (2 * j1 + 1) * (2 * j2 + 1) * (2 * j3 + 1)
        fl = FlopCounter()
        cgtp_path(u, v, j3, mode="sparse", flops=fl)
        brute = sum(1 for m1 in range(-j1, j1 + 1) for m2 in range(-j2, j2 + 1)
                    if abs(m1 + m2) <= j3)
        assert fl.count == brute == sparse_pair_count(j1, j2, j3)


def test_cgtp_full_path_enumeration(rng):
    x, y = random_coeffs(1, rng), random_coeffs(1, rng)
    res = cgtp_full(x, y, 2, mode="naive")
    keys = set(res.output.blocks)
    assert keys == {(0, (0, 0)), (1, (0, 1)), (1, (1, 0)), (0, (1, 1)), (1, (1, 1)), (2, (1, 1))}
    assert res.flops == 1 + 9 + 9 + 9 + 27 + 45


def test_cgtp_full_scalar_inputs(rng):
    x = IrrepCoeffs(L=0, blocks={(0, None): np.array([2.0 + 1j])})
    y = IrrepCoeffs(L=0, blocks={(0, None): np.array([3.0 - 1j])})
    res = cgtp_full(x, y, 0)
    np.testing.assert_allclose(res.output.block(0, tag=(0, 0)), [(2 + 1j) * (3 - 1j)])


def test_cgtp_full_modes_agree(rng):
    x, y = random_coeffs(3, rng), random_coeffs(3, rng)
    r1 = cgtp_full(x, y, 6, mode="naive")
    r2 = cgtp_full(x, y, 6, mode="sparse")
    for key in r1.output.blocks:
        np.testing.assert_allclose(r1.output.blocks[key], r2.output.blocks[key], atol=1e-12)
    assert r2.flops <= r1.flops


@pytest.mark.parametrize("L3", [0, 2, 5, 12])
def test_cgtp_full_sparse_matches_path_loop(L3, rng):
    L = 6
    x, y = random_coeffs(L, rng), random_coeffs(L, rng)
    res = cgtp_full(x, y, L3, mode="sparse")
    expect, macs = {}, 0
    for j1 in range(L + 1):
        for j2 in range(L + 1):
            for j3 in range(abs(j1 - j2), min(j1 + j2, L3) + 1):
                expect[(j3, (j1, j2))] = cgtp_path(x.block(j1), y.block(j2), j3)
                macs += sparse_pair_count(j1, j2, j3)
    assert set(res.output.blocks) == set(expect)
    for key, z in expect.items():
        np.testing.assert_allclose(res.output.blocks[key], z, rtol=0, atol=1e-13)
    assert res.flops == macs


_NON_FINITE = [np.nan, np.inf, -np.inf, complex(0.0, np.nan)]


@pytest.mark.parametrize("bad", _NON_FINITE)
def test_cgtp_path_rejects_non_finite(bad, rng):
    u, v = random_block(1, rng), random_block(1, rng)
    u[0] = bad
    for mode in ("naive", "sparse"):
        with pytest.raises(ValueError, match="finite"):
            cgtp_path(u, v, 1, mode=mode)
        with pytest.raises(ValueError, match="finite"):
            cgtp_path(v, u, 1, mode=mode)
    for a, b in [(u, v), (v, u)]:
        with pytest.raises(ValueError, match="finite"):
            simulate_cgtp_path(a, b, 1)


@pytest.mark.parametrize("product", [cgtp_path, simulate_cgtp_path])
@pytest.mark.parametrize("x, y", [(np.ones(2), np.ones(1)), (np.ones(1), np.ones(2)),
                                  (np.ones((1, 1)), np.ones(1)), (np.ones(1), np.ones((1, 1)))])
def test_path_products_reject_non_vectors(product, x, y):
    # the (0, 0, 0) path of simulate_cgtp_path must not multiply these
    with pytest.raises(ValueError, match="inputs must be odd-length vectors"):
        product(x, y, 0)


@pytest.mark.parametrize("bad", _NON_FINITE)
def test_cgtp_full_rejects_non_finite(bad, rng):
    x, y = random_coeffs(3, rng), random_coeffs(3, rng)
    x.block(2)[1] = bad
    for mode in ("naive", "sparse"):
        with pytest.raises(ValueError, match="finite"):
            cgtp_full(x, y, 6, mode=mode)
        with pytest.raises(ValueError, match="finite"):
            cgtp_full(y, x, 6, mode=mode)


def test_cgtp_full_rejects_degrees_past_float_cg_range(rng):
    x = IrrepCoeffs(L=66, blocks={(66, None): random_block(66, rng)})
    y = IrrepCoeffs(L=65, blocks={(65, None): random_block(65, rng)})
    for mode in ("naive", "sparse"):
        with pytest.raises(ValueError, match="float CG range"):
            cgtp_full(x, y, 1, mode=mode)


# ---------------------------------------------------------------- pointwise

def test_pointwise_scalar_is_multiplication(rng):
    g = make_grid(2)
    shape = (g.n_theta, g.n_phi, 1)
    f = SpinSignal(0, g, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    h = SpinSignal(0, g, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    p = pointwise_spin_tp(f, h, 0)
    np.testing.assert_allclose(p.values, f.values * h.values, atol=1e-15)


def test_pointwise_vector_antisymmetry(rng):
    g = make_grid(2)
    shape = (g.n_theta, g.n_phi, 3)
    f = SpinSignal(1, g, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    h = SpinSignal(1, g, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    assert np.abs(pointwise_spin_tp(f, f, 1).values).max() <= 1e-14
    np.testing.assert_allclose(pointwise_spin_tp(f, h, 1).values,
                               -pointwise_spin_tp(h, f, 1).values, atol=1e-14)


def test_pointwise_vector_is_scaled_cross_product(rng):
    # with contravariant spherical components e_{+1} = -(x + iy)/sqrt2,
    # e_0 = z, e_{-1} = (x - iy)/sqrt2, the spin-(1,1,1) coupling equals
    # -i/sqrt(2) times the Cartesian cross product
    def sph_to_cart(v):
        vm, v0, vp = v[..., 0], v[..., 1], v[..., 2]
        return np.stack([(vm - vp) / math.sqrt(2), -1j * (vm + vp) / math.sqrt(2), v0], axis=-1)

    def cart_to_sph(V):
        X, Y, Z = V[..., 0], V[..., 1], V[..., 2]
        return np.stack([(X + 1j * Y) / math.sqrt(2), Z, (-X + 1j * Y) / math.sqrt(2)], axis=-1)

    g = make_grid(1)
    shape = (g.n_theta, g.n_phi, 3)
    f = SpinSignal(1, g, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    h = SpinSignal(1, g, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    tp = pointwise_spin_tp(f, h, 1).values
    cross = cart_to_sph(np.cross(sph_to_cart(f.values), sph_to_cart(h.values)))
    np.testing.assert_allclose(tp, (-1j / math.sqrt(2)) * cross, atol=1e-13)
    np.testing.assert_allclose(np.abs(tp), np.abs(cross) / math.sqrt(2), atol=1e-13)


def _pointwise_loop(f, g, s3):
    """The per-call m-loop pointwise_spin_tp replaced: the bitwise oracle and its pair count."""
    s1, s2 = f.s, g.s
    out = np.zeros(f.values.shape[:2] + (2 * s3 + 1,), dtype=complex)
    C = angular.cg_block(s1, s2, s3)
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
    return out, pairs


@pytest.mark.parametrize("Lg", [3, 64])
@pytest.mark.parametrize("s1, s2, s3", [(0, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1),
                                        (2, 1, 1), (2, 2, 2)])
def test_pointwise_matches_loop_bitwise(s1, s2, s3, Lg, rng):
    g = make_grid(Lg)
    shape = (g.n_theta, g.n_phi)
    f = SpinSignal(s1, g, rng.standard_normal(shape + (2 * s1 + 1,))
                   + 1j * rng.standard_normal(shape + (2 * s1 + 1,)))
    h = SpinSignal(s2, g, rng.standard_normal(shape + (2 * s2 + 1,))
                   + 1j * rng.standard_normal(shape + (2 * s2 + 1,)))
    expect, pairs = _pointwise_loop(f, h, s3)
    fl = FlopCounter()
    assert np.array_equal(pointwise_spin_tp(f, h, s3, flops=fl).values, expect)
    assert fl.count == pairs * g.n_theta * g.n_phi


def test_pointwise_errors(rng):
    g, g2 = make_grid(1), make_grid(2)
    f = SpinSignal(1, g, np.zeros((g.n_theta, g.n_phi, 3), complex))
    h = SpinSignal(1, g2, np.zeros((g2.n_theta, g2.n_phi, 3), complex))
    with pytest.raises(ValueError):
        pointwise_spin_tp(f, h, 1)  # grid mismatch
    f2 = SpinSignal(0, g, np.zeros((g.n_theta, g.n_phi, 1), complex))
    with pytest.raises(ValueError):
        pointwise_spin_tp(f, f2, 3)  # spin triangle


# ---------------------------------------------------------------- istp / gtp / vstp

def single_block_istp_error(j1, l1, s1, j2, l2, s2, s3, rng):
    """Max deviation of istp output from the closed-form product expansion."""
    u, v = random_block(j1, rng), random_block(j2, rng)
    X = TshCoeffs(s=s1, L=l1, blocks={(j1, l1): u})
    Y = TshCoeffs(s=s2, L=l2, blocks={(j2, l2): v})
    res = istp(X, Y, s3, l1 + l2, make_grid(l1 + l2))
    worst = 0.0
    for (j3, l3), z in res.output.items():
        coef = generalized_gaunt(PathKey(j1, l1, s1, j2, l2, s2, j3, l3, s3))
        expect = coef * cg_contract(u, v, j3) if abs(j1 - j2) <= j3 <= j1 + j2 else 0.0
        worst = max(worst, np.abs(z - expect).max())
    return worst


def test_istp_matches_product_expansion(rng):
    cases = [
        (1, 1, 1, 1, 1, 1, 1),
        (0, 1, 1, 1, 1, 1, 1),
        (2, 1, 1, 1, 2, 1, 1),
        (2, 2, 0, 1, 1, 0, 0),
        (1, 2, 1, 1, 1, 0, 1),
        (2, 1, 1, 2, 2, 1, 0),
        (2, 2, 0, 1, 2, 1, 1),
        (3, 3, 1, 2, 2, 1, 1),
    ]
    for j1, l1, s1, j2, l2, s2, s3 in cases:
        err = single_block_istp_error(j1, l1, s1, j2, l2, s2, s3, rng)
        assert err <= 1e-10, (j1, l1, s1, j2, l2, s2, s3, err)


def test_istp_zero_inputs_count_flops():
    X = TshCoeffs(s=1, L=1, blocks={(1, 1): np.zeros(3, complex)})
    Y = TshCoeffs(s=1, L=1, blocks={(1, 1): np.zeros(3, complex)})
    res = istp(X, Y, 1, 2, make_grid(2))
    assert res.flops > 0
    assert all(np.abs(v).max() == 0.0 for _k, v in res.output.items())


def test_istp_grid_preconditions(rng):
    X = random_tsh_coeffs(1, 2, rng)
    with pytest.raises(ValueError):
        istp(X, X, 1, 2, make_grid(3))  # needs Lg >= 4
    with pytest.raises(ValueError):
        istp(X, X, 1, 5, make_grid(4))  # L3 > Lg


def test_gtp_matches_gaunt_contraction(rng):
    u, v = random_block(1, rng), random_block(2, rng)
    X = IrrepCoeffs(L=1, blocks={(1, None): u})
    Y = IrrepCoeffs(L=2, blocks={(2, None): v})
    res = gtp(X, Y, 3, make_grid(3))
    for l3 in range(4):
        expect = np.zeros(2 * l3 + 1, dtype=complex)
        for m1 in range(-1, 2):
            for m2 in range(-2, 3):
                if abs(m1 + m2) <= l3:
                    expect[m1 + m2 + l3] += (gaunt_coefficient(1, m1, 2, m2, l3, m1 + m2)
                                             * u[m1 + 1] * v[m2 + 2])
        assert np.abs(res.output.block(l3) - expect).max() <= 1e-11


def test_gtp_symmetric_and_even_only(rng):
    x, y = random_coeffs(2, rng), random_coeffs(2, rng)
    g = make_grid(4)
    r1, r2 = gtp(x, y, 4, g), gtp(y, x, 4, g)
    for l in range(5):
        np.testing.assert_allclose(r1.output.block(l), r2.output.block(l), atol=1e-13)
    # odd single-path contributions vanish
    u = random_block(1, rng)
    X = IrrepCoeffs(L=1, blocks={(1, None): u})
    Y = IrrepCoeffs(L=2, blocks={(2, None): random_block(2, rng)})
    res = gtp(X, Y, 2, make_grid(3))
    assert np.abs(res.output.block(2)).max() <= 1e-12  # 1 + 2 + 2 odd


def test_gtp_scalar_constant(rng):
    X = IrrepCoeffs(L=0, blocks={(0, None): np.array([1.0 + 0j])})
    res = gtp(X, X, 0, make_grid(0))
    expect = gaunt_coefficient(0, 0, 0, 0, 0, 0)
    np.testing.assert_allclose(res.output.block(0), [expect], atol=1e-14)


def test_vstp_antisymmetry(rng):
    x, y = random_tsh_coeffs(1, 2, rng), random_tsh_coeffs(1, 2, rng)
    g = make_grid(4)
    rxx = vstp(x, x, 4, g)
    assert max(np.abs(v).max() for _k, v in rxx.output.items()) <= 1e-12
    rxy, ryx = vstp(x, y, 4, g), vstp(y, x, 4, g)
    for key in rxy.output.blocks:
        np.testing.assert_allclose(rxy.output.blocks[key], -ryx.output.blocks[key], atol=1e-12)


def test_vstp_rejects_wrong_spin(rng):
    x = random_tsh_coeffs(0, 2, rng)
    y = random_tsh_coeffs(1, 2, rng)
    with pytest.raises(ValueError):
        vstp(x, y, 2, make_grid(4))


def test_vstp_single_paths_match_selection_rules(rng):
    # (1,1) x (1,1): the (1,1) output vanishes (odd grid symmetry), the
    # surviving blocks match the closed form
    u, v = random_block(1, rng), random_block(1, rng)
    X = TshCoeffs(s=1, L=1, blocks={(1, 1): u})
    Y = TshCoeffs(s=1, L=1, blocks={(1, 1): v})
    res = vstp(X, Y, 2, make_grid(2))
    assert np.abs(res.output.block(1, 1)).max() <= 1e-12
    for (j3, l3), z in res.output.items():
        coef = generalized_gaunt(PathKey(1, 1, 1, 1, 1, 1, j3, l3, 1))
        expect = coef * cg_contract(u, v, j3) if j3 <= 2 else 0.0
        assert np.abs(z - expect).max() <= 1e-11, (j3, l3)


def test_grid_products_do_no_exact_arithmetic(rng):
    # coupling tables and pointwise weights come from float CG blocks; a
    # cold product at a band limit no other test uses must not evaluate
    # a single exact Clebsch-Gordan coefficient
    angular._cg_tensor.cache_clear()
    tsh._coupling_table.cache_clear()
    tsh._decode_layout.cache_clear()
    tenprod._pointwise_terms.cache_clear()
    x, y = random_tsh_coeffs(1, 9, rng), random_tsh_coeffs(1, 9, rng)
    g = make_grid(18)
    misses = angular.cg.cache_info().misses
    res = vstp(x, y, 18, g)
    assert angular.cg.cache_info().misses == misses
    assert res.flops > 0
    for s1, s2, s3 in [(1, 1, 1), (1, 1, 2), (2, 1, 3), (2, 2, 0)]:
        shape = (g.n_theta, g.n_phi)
        f = SpinSignal(s1, g, rng.standard_normal(shape + (2 * s1 + 1,)) + 0j)
        h = SpinSignal(s2, g, rng.standard_normal(shape + (2 * s2 + 1,)) + 0j)
        pointwise_spin_tp(f, h, s3)
    assert angular.cg.cache_info().misses == misses


# ---------------------------------------------------------------- bilinearity

def test_bilinearity(rng):
    g = make_grid(4)
    x1, x2 = random_tsh_coeffs(1, 2, rng), random_tsh_coeffs(1, 2, rng)
    y = random_tsh_coeffs(1, 2, rng)
    a, b = 1.7 - 0.3j, -0.6 + 1.1j
    combo = TshCoeffs(s=1, L=2, blocks={k: a * x1.block(*k) + b * x2.block(*k)
                                        for k in x1.blocks})
    lhs = vstp(combo, y, 4, g).output
    r1, r2 = vstp(x1, y, 4, g).output, vstp(x2, y, 4, g).output
    for key in lhs.blocks:
        np.testing.assert_allclose(lhs.blocks[key], a * r1.blocks[key] + b * r2.blocks[key],
                                   atol=1e-12)


# ---------------------------------------------------------------- equivariance

def test_tpo_equivariance(rng):
    L = 2
    g = make_grid(2 * L)
    x, y = random_tsh_coeffs(1, L, rng), random_tsh_coeffs(1, L, rng)
    xs, ys = random_coeffs(L, rng), random_coeffs(L, rng)
    for _ in range(3):
        a, b, c = rng.uniform(0, 2 * np.pi, 3)
        # vstp
        lhs = vstp(rotate_tsh_coeffs(x, a, b, c), rotate_tsh_coeffs(y, a, b, c), 2 * L, g).output
        rhs = rotate_tsh_coeffs(vstp(x, y, 2 * L, g).output, a, b, c)
        for key in lhs.blocks:
            np.testing.assert_allclose(lhs.blocks[key], rhs.blocks[key], atol=1e-10)
        # gtp
        lhs = gtp(rotate_coeffs(xs, a, b, c), rotate_coeffs(ys, a, b, c), 2 * L, g).output
        rhs = rotate_coeffs(gtp(xs, ys, 2 * L, g).output, a, b, c)
        for key in lhs.blocks:
            np.testing.assert_allclose(lhs.blocks[key], rhs.blocks[key], atol=1e-10)
        # cgtp_full
        lhs = cgtp_full(rotate_coeffs(xs, a, b, c), rotate_coeffs(ys, a, b, c), 2 * L).output
        rhs = rotate_coeffs(cgtp_full(xs, ys, 2 * L).output, a, b, c)
        for key in lhs.blocks:
            np.testing.assert_allclose(lhs.blocks[key], rhs.blocks[key], atol=1e-10)


# ---------------------------------------------------------------- simulation

def test_simulate_scalar_path():
    np.testing.assert_allclose(simulate_cgtp_path(np.array([2.0 + 0j]), np.array([3.0 + 0j]), 0),
                               [6.0])


def test_simulate_triangle_error(rng):
    with pytest.raises(ValueError):
        simulate_cgtp_path(random_block(1, rng), random_block(1, rng), 3)


def test_simulate_matches_direct_path(rng):
    for j1, j2, j3 in [(1, 1, 1), (1, 1, 2), (2, 2, 2), (2, 3, 4), (0, 1, 1), (3, 1, 2), (4, 4, 4)]:
        for _ in range(3):
            u, v = random_block(j1, rng), random_block(j2, rng)
            sim = simulate_cgtp_path(u, v, j3)
            np.testing.assert_allclose(sim, cgtp_path(u, v, j3), atol=1e-10)


def test_simulate_cross_product_path(rng):
    # the (1,1,1) path: antisymmetric, invisible to the scalar product
    u, v = random_block(1, rng), random_block(1, rng)
    sim = simulate_cgtp_path(u, v, 1)
    ref = cg_contract(u, v, 1)
    np.testing.assert_allclose(sim, ref, atol=1e-10)
    assert np.abs(ref).max() > 1e-3  # the path actually carries signal


def triangle_paths(J):
    """Every triangle-valid (j1, j2, j3) with all degrees <= J."""
    return [(j1, j2, j3) for j1 in range(J + 1) for j2 in range(J + 1)
            for j3 in range(abs(j1 - j2), min(j1 + j2, J) + 1)]


def test_simulation_coefficient_matches_exact_gaunt():
    # the closed-form float divisor against the exact six-CG coefficient
    for j1, j2, j3 in triangle_paths(10):
        if (j1, j2, j3) == (0, 0, 0):
            continue
        l1, l2, l3 = find_valid_ells(j1, j2, j3)
        exact = generalized_gaunt(PathKey(j1, l1, 1, j2, l2, 1, j3, l3, 1))
        coef = tenprod._path_coefficient(j1, l1, j2, l2, j3, l3)
        assert abs(coef - exact) <= 1e-14 * abs(exact), (j1, j2, j3)


def test_simulation_does_no_9j_contraction(rng):
    # cold calls, including orbital degrees past the float CG block range
    # ((65,65,66) -> l = (65,66,65); (60,70,130) -> (60,71,129)), must not
    # contract a single 9j symbol
    tenprod._path_coefficient.cache_clear()
    nine = angular._wigner_9j_cached.cache_info().misses
    gaunt = rules.generalized_gaunt_exact.cache_info().misses
    for j1, j2, j3 in [(1, 1, 1), (2, 3, 4), (65, 65, 66), (60, 70, 130)]:
        u, v = random_block(j1, rng), random_block(j2, rng)
        ref = cgtp_path(u, v, j3)
        err = np.abs(simulate_cgtp_path(u, v, j3) - ref).max() / np.abs(ref).max()
        assert err <= 1e-10, (j1, j2, j3, err)
    assert angular._wigner_9j_cached.cache_info().misses == nine
    assert rules.generalized_gaunt_exact.cache_info().misses == gaunt


def test_simulation_sweep_reuses_grid_dfts(rng, monkeypatch):
    # each grid builds one DFT matrix per direction and serves every band
    # from it: a second sweep over the benchmark's 671 paths builds none
    paths = triangle_paths(10)
    builds = []
    for name in ("synthesis_dft", "analysis_dft"):
        table = vars(sht.SphereGrid)[name]
        monkeypatch.setattr(table, "func",
                            lambda grid, build=table.func: builds.append(grid) or build(grid))

    def sweep():
        for j1, j2, j3 in paths:
            simulate_cgtp_path(random_block(j1, rng), random_block(j2, rng), j3)
        return len(builds)

    make_grid.cache_clear()
    built = sweep()
    assert 0 < built <= 2 * len({sum(find_valid_ells(*p)[:2]) for p in paths if p != (0, 0, 0)})
    assert sweep() == built


def test_simulation_mac_count_pinned(rng):
    # one cycle over every path with j <= 10 spends the benchmark's pinned count
    fl = FlopCounter()
    for j1, j2, j3 in triangle_paths(10):
        simulate_cgtp_path(random_block(j1, rng), random_block(j2, rng), j3, flops=fl)
    assert fl.count == 36_442_041
