"""Tests for grids, scalar harmonics, transforms, and Gaunt coefficients."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from so3tp import sht
from so3tp.angular import rotation_matrix, wigner_d_matrix
from so3tp.flops import FlopCounter
from so3tp.sht import (
    IrrepCoeffs,
    _dft_matrix,
    _legendre_tables,
    _padded_legendre,
    ScalarSignal,
    from_sphere,
    gaunt_coefficient,
    make_grid,
    random_coeffs,
    rotate_coeffs,
    sh_eval,
    to_sphere,
)
from so3tp.verify import rotated_node_angles


# ---------------------------------------------------------------- grids

def test_make_grid_degree_zero():
    g = make_grid(0)
    np.testing.assert_allclose(g.cos_theta, [0.0], atol=1e-15)
    np.testing.assert_allclose(g.theta_weights, [2.0])
    assert g.n_phi == 1


def test_make_grid_degree_one():
    g = make_grid(1)
    np.testing.assert_allclose(sorted(g.cos_theta), [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-15)
    np.testing.assert_allclose(g.theta_weights, [1.0, 1.0], atol=1e-15)
    assert g.n_phi == 3


@pytest.mark.parametrize("Lg", [0, 1, 4, 9, 32])
def test_grid_weights_sum_to_two(Lg):
    assert abs(make_grid(Lg).theta_weights.sum() - 2.0) <= 1e-14


def test_make_grid_rejects_negative():
    with pytest.raises(ValueError):
        make_grid(-1)


def test_grid_builds_tables_on_first_use(rng):
    make_grid.cache_clear()
    _padded_legendre.cache_clear()
    g = make_grid(6)
    assert not {"legendre", "synthesis_dft", "analysis_dft"} & vars(g).keys()
    f = to_sphere(random_coeffs(4, rng), g)
    assert {"legendre", "synthesis_dft"} <= vars(g).keys()
    assert "analysis_dft" not in vars(g)
    from_sphere(f, 4)
    assert "analysis_dft" in vars(g)


def test_transform_reads_band_tables_from_its_own_grid(rng, monkeypatch):
    # a grid that make_grid's LRU no longer holds still builds from its own tables
    make_grid.cache_clear()
    g = make_grid(7)
    make_grid.cache_clear()
    _padded_legendre.cache_clear()
    calls = []
    monkeypatch.setattr(sht, "make_grid", lambda Lg: calls.append(Lg) or make_grid(Lg))
    to_sphere(random_coeffs(3, rng), g)
    assert calls == []
    assert "legendre" in vars(g)


def test_make_grid_memory_is_node_arrays_only():
    # the Legendre tables of Lg = 256 alone take 68 MB; make_grid builds none
    code = ("import resource; from so3tp.sht import make_grid; "
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; make_grid(256); "
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 16 * 1024  # ru_maxrss counts KiB


def test_grid_angles_are_node_meshgrid():
    g = make_grid(3)
    th, ph = g.angles
    assert th.shape == ph.shape == (g.n_theta, g.n_phi)
    assert np.array_equal(th, np.repeat(g.theta[:, None], g.n_phi, axis=1))
    assert np.array_equal(ph, np.repeat(g.phi[None, :], g.n_theta, axis=0))


def test_quadrature_exactness():
    # integral of Y^m1*_l1 Y^m2_l2 is delta delta when both degrees <= Lg
    g = make_grid(5)
    th, ph = g.angles
    w = g.weights
    for l1, m1, l2, m2 in [(5, 3, 5, 3), (5, -5, 5, -5), (4, 2, 5, 2), (3, 0, 5, 0)]:
        val = (np.conj(sh_eval(l1, m1, th, ph)) * sh_eval(l2, m2, th, ph) * w).sum()
        expect = 1.0 if (l1, m1) == (l2, m2) else 0.0
        assert abs(val - expect) <= 1e-13


# ---------------------------------------------------------------- sh_eval

def test_sh_eval_constants():
    assert sh_eval(0, 0, 0.3, 1.2) == pytest.approx(1 / math.sqrt(4 * math.pi))
    assert sh_eval(1, 0, 0.0, 0.0) == pytest.approx(math.sqrt(3 / (4 * math.pi)))


def test_sh_eval_conjugation_identity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        l = int(rng.integers(0, 6))
        m = int(rng.integers(-l, l + 1))
        th, ph = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
        lhs = (-1) ** m * sh_eval(l, -m, th, ph)
        rhs = np.conj(sh_eval(l, m, th, ph))
        assert abs(lhs - rhs) <= 1e-14


def test_sh_eval_unit_norm():
    g = make_grid(2)
    th, ph = g.angles
    w = g.weights
    val = (np.abs(sh_eval(1, 1, th, ph)) ** 2 * w).sum()
    assert val == pytest.approx(1.0, abs=1e-14)


def test_sh_eval_rejects_bad_m():
    with pytest.raises(ValueError):
        sh_eval(1, 2, 0.0, 0.0)


def test_sh_orthonormality_to_degree_eight():
    g = make_grid(8)
    th, ph = g.angles
    w = g.weights
    basis = [sh_eval(l, m, th, ph) for l in range(9) for m in range(-l, l + 1)]
    stack = np.stack(basis)
    gram = np.einsum("atp,btp,tp->ab", stack.conj(), stack, w)
    assert np.abs(gram - np.eye(len(basis))).max() <= 1e-12


# ---------------------------------------------------------------- transforms

def test_to_sphere_constant_block():
    x = IrrepCoeffs(L=0, blocks={(0, None): np.array([math.sqrt(4 * math.pi)])})
    f = to_sphere(x, make_grid(4))
    np.testing.assert_allclose(f.values, 1.0, atol=1e-14)


def test_to_sphere_zero_blocks():
    x = IrrepCoeffs(L=3, blocks={(l, None): np.zeros(2 * l + 1) for l in range(4)})
    f = to_sphere(x, make_grid(3))
    assert np.abs(f.values).max() == 0.0


def test_to_sphere_cos_theta_block():
    g = make_grid(4)
    x = IrrepCoeffs(L=1, blocks={(1, None): np.array([0, 1, 0], dtype=complex)})
    f = to_sphere(x, g)
    expect = math.sqrt(3 / (4 * math.pi)) * g.cos_theta[:, None] * np.ones((1, g.n_phi))
    np.testing.assert_allclose(f.values, expect, atol=1e-14)


def test_to_sphere_grid_too_small():
    x = random_coeffs(4, np.random.default_rng(0))
    with pytest.raises(ValueError):
        to_sphere(x, make_grid(3))


def test_from_sphere_constant_signal():
    g = make_grid(2)
    f = ScalarSignal(grid=g, values=np.ones((g.n_theta, g.n_phi), dtype=complex))
    x = from_sphere(f, 2)
    assert x.block(0)[0] == pytest.approx(math.sqrt(4 * math.pi), abs=1e-13)
    assert np.abs(x.block(1)).max() <= 1e-13
    assert np.abs(x.block(2)).max() <= 1e-13


def test_from_sphere_rejects_negative_band_limit_before_any_table():
    g = make_grid(2)
    f = ScalarSignal(grid=g, values=np.zeros((g.n_theta, g.n_phi), dtype=complex))
    misses = _padded_legendre.cache_info().misses
    with pytest.raises(ValueError, match="band limit L=-1 must be non-negative"):
        from_sphere(f, -1)
    assert _padded_legendre.cache_info().misses == misses


def test_from_sphere_rejects_excess_degree():
    g = make_grid(2)
    f = ScalarSignal(grid=g, values=np.zeros((g.n_theta, g.n_phi), dtype=complex))
    with pytest.raises(ValueError):
        from_sphere(f, 3)


@pytest.mark.parametrize("L", [1, 8, 32])
def test_round_trip(L, rng):
    x = random_coeffs(L, rng)
    g = make_grid(L)
    x2 = from_sphere(to_sphere(x, g), L)
    err = max(np.abs(x.block(l) - x2.block(l)).max() for l in range(L + 1))
    assert err <= 1e-12


def test_round_trip_on_larger_grid(rng):
    x = random_coeffs(8, rng)
    x2 = from_sphere(to_sphere(x, make_grid(13)), 8)
    err = max(np.abs(x.block(l) - x2.block(l)).max() for l in range(9))
    assert err <= 1e-12


def test_dft_matrix_is_band_slice_of_grid_dft():
    for Lg in range(41):
        g = make_grid(Lg)
        n_phi = 2 * Lg + 1
        phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
        for L in range(Lg + 1):
            for sign in (1, -1):
                D = _dft_matrix(g, L, sign)
                assert D.flags.c_contiguous
                assert np.array_equal(D, np.exp(sign * 1j * np.outer(np.arange(-L, L + 1), phi)))


def test_padded_legendre_matches_per_order_repack():
    # the band tables equal repacking one signed per-order table per m
    for Lg in range(41):
        g = make_grid(Lg)
        tables = _legendre_tables(g.cos_theta, Lg)
        for L in range(Lg + 1):
            ref = np.zeros((2 * L + 1, g.n_theta, L + 1))
            for m in range(-L, L + 1):
                tab = -tables[abs(m)] if (m < 0 and m % 2) else tables[abs(m)]
                ref[m + L, :, : L - abs(m) + 1] = tab[:, : L - abs(m) + 1]
            assert _padded_legendre(g, L).tobytes() == ref.tobytes()


def test_transform_flop_counts(rng):
    L = 4
    g = make_grid(L)
    fl = FlopCounter()
    f = to_sphere(random_coeffs(L, rng), g, flops=fl)
    n_lm = (L + 1) ** 2
    assert fl.count == g.n_theta * n_lm + g.n_theta * (2 * L + 1) * g.n_phi
    fl2 = FlopCounter()
    from_sphere(f, L, flops=fl2)
    assert fl2.count == g.n_theta * g.n_phi * (2 * L + 1) + g.n_theta * n_lm


def test_to_sphere_rejects_duplicate_degree():
    x = IrrepCoeffs(L=1, blocks={(1, None): np.zeros(3), (1, "dup"): np.zeros(3)})
    with pytest.raises(ValueError):
        to_sphere(x, make_grid(1))


# ---------------------------------------------------------------- equivariance

def test_to_sphere_equivariance(rng):
    # synthesizing rotated coefficients equals sampling the original
    # synthesis at inversely rotated points
    L = 4
    g = make_grid(L)
    x = random_coeffs(L, rng)
    for _ in range(3):
        a, b, c = rng.uniform(0, 2 * np.pi, 3)
        f_rot = to_sphere(rotate_coeffs(x, a, b, c), g)
        th_b, ph_b = rotated_node_angles(g, a, b, c)
        direct = sum(x.block(l)[m + l] * sh_eval(l, m, th_b, ph_b)
                     for l in range(L + 1) for m in range(-l, l + 1))
        assert np.abs(f_rot.values - direct).max() <= 1e-10


def test_d_to_sh_reduction(rng):
    # D^l_{m,0}(g) = sqrt(4 pi / (2l+1)) conj(Y^m_l(g zhat)): the identity
    # that pins the Euler/phase conventions
    for _ in range(20):
        a, b, c = rng.uniform(0, 2 * np.pi, 3)
        z = rotation_matrix(a, b, c) @ np.array([0.0, 0.0, 1.0])
        th = math.acos(max(-1.0, min(1.0, z[2])))
        ph = math.atan2(z[1], z[0])
        for l in range(5):
            D = wigner_d_matrix(l, a, b, c)
            for m in range(-l, l + 1):
                rhs = math.sqrt(4 * math.pi / (2 * l + 1)) * np.conj(sh_eval(l, m, th, ph))
                assert abs(D[m + l, l] - rhs) <= 1e-10


# ---------------------------------------------------------------- gaunt

def test_gaunt_examples():
    inv_sqrt_4pi = 1 / math.sqrt(4 * math.pi)
    assert gaunt_coefficient(0, 0, 0, 0, 0, 0) == pytest.approx(inv_sqrt_4pi)
    assert gaunt_coefficient(1, 0, 1, 0, 0, 0) == pytest.approx(inv_sqrt_4pi)
    assert gaunt_coefficient(1, 1, 1, -1, 1, 0) == 0.0  # odd degree sum


def test_gaunt_selection_rules():
    assert gaunt_coefficient(2, 1, 1, 1, 3, 1) == 0.0  # m3 != m1 + m2
    assert gaunt_coefficient(1, 0, 1, 0, 3, 0) == 0.0  # triangle fails
    with pytest.raises(ValueError):
        gaunt_coefficient(1, 2, 1, 0, 1, 0)


def test_gaunt_against_quadrature():
    # brute-force quadrature of the triple product on a grid resolving it
    worst = 0.0
    for l1 in range(5):
        for l2 in range(5):
            g = make_grid(l1 + l2)
            th, ph = g.angles
            w = g.weights
            for m1 in range(-l1, l1 + 1):
                y1 = sh_eval(l1, m1, th, ph)
                for m2 in range(-l2, l2 + 1):
                    y12 = y1 * sh_eval(l2, m2, th, ph)
                    for l3 in range(l1 + l2 + 1):
                        m3 = m1 + m2
                        if abs(m3) > l3:
                            continue
                        bf = (y12 * np.conj(sh_eval(l3, m3, th, ph)) * w).sum()
                        worst = max(worst, abs(bf - gaunt_coefficient(l1, m1, l2, m2, l3, m3)))
    assert worst <= 1e-11


def test_product_analysis_matches_gaunt(rng):
    # pointwise product of two L=1 signals analyzed at L=2 has the
    # Gaunt-predicted coefficients
    x = random_coeffs(1, rng)
    y = random_coeffs(1, rng)
    g = make_grid(2)
    prod = ScalarSignal(grid=g, values=to_sphere(x, g).values * to_sphere(y, g).values)
    z = from_sphere(prod, 2)
    for l3 in range(3):
        expect = np.zeros(2 * l3 + 1, dtype=complex)
        for l1 in range(2):
            for l2 in range(2):
                for m1 in range(-l1, l1 + 1):
                    for m2 in range(-l2, l2 + 1):
                        m3 = m1 + m2
                        if abs(m3) > l3:
                            continue
                        expect[m3 + l3] += (gaunt_coefficient(l1, m1, l2, m2, l3, m3)
                                            * x.block(l1)[m1 + l1] * y.block(l2)[m2 + l2])
        assert np.abs(z.block(l3) - expect).max() <= 1e-13


# ---------------------------------------------------------------- containers

def test_irrep_coeffs_validation():
    with pytest.raises(ValueError):
        IrrepCoeffs(L=1, blocks={(1, None): np.zeros(4)})
    with pytest.raises(ValueError):
        IrrepCoeffs(L=1, blocks={(2, None): np.zeros(5)})
    with pytest.raises(ValueError, match="band limit L=-1 must be non-negative"):
        IrrepCoeffs(L=-1)
    with pytest.raises((TypeError, ValueError)):
        IrrepCoeffs(L=1, blocks={1: np.zeros(3)})  # keys are (j, tag) pairs


def test_signal_shape_validation():
    g = make_grid(1)
    with pytest.raises(ValueError):
        ScalarSignal(grid=g, values=np.zeros((1, 1), dtype=complex))
