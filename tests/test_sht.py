"""Tests for grids, scalar harmonics, transforms, and Gaunt coefficients."""

import gc
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from so3tp import sht, tsh
from so3tp.flops import FlopCounter
from so3tp.sht import (
    IrrepCoeffs,
    _analysis_core,
    _folded_scatter,
    _padded_index,
    _synthesis_core,
    make_grid,
    random_block,
    random_coeffs,
    sh_eval,
)
from so3tp.exact import gaunt_coefficient
from so3tp.tenprod import gtp
from so3tp.tsh import (
    SpinSignal,
    from_sphere,
    random_tsh_coeffs,
    spin0_from_scalar,
    to_sphere,
    tsh_decode,
    tsh_encode,
)

_TABLES = {"legendre", "analysis_weights", "trig"}


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


def test_make_grid_names_a_non_integer_degree():
    with pytest.raises(ValueError, match=r"Lg=2\.5 must be an integer"):
        make_grid(2.5)


def test_grid_builds_tables_on_first_use(rng):
    make_grid.cache_clear()
    g = make_grid(6)
    assert not _TABLES & vars(g).keys()
    f = to_sphere(random_coeffs(4, rng), g)
    assert {"legendre", "trig"} <= vars(g).keys()
    assert "analysis_weights" not in vars(g)
    from_sphere(f, 4)
    assert "analysis_weights" in vars(g)


def test_transform_reads_band_tables_from_its_own_grid(rng, monkeypatch):
    # a grid that make_grid's LRU no longer holds still builds from its own tables
    make_grid.cache_clear()
    g = make_grid(7)
    make_grid.cache_clear()
    calls = []
    monkeypatch.setattr(sht, "make_grid", lambda Lg: calls.append(Lg) or make_grid(Lg))
    from_sphere(to_sphere(random_coeffs(3, rng), g), 3)
    assert calls == []
    assert _TABLES <= vars(g).keys()


def test_grid_tables_are_freed_with_their_grid(rng):
    make_grid.cache_clear()
    g = make_grid(9)
    from_sphere(to_sphere(random_coeffs(4, rng), g), 4)
    tsh_decode(tsh_encode(random_tsh_coeffs(1, 4, rng), g), 9)
    assert _TABLES <= vars(g).keys()
    assert set(g._analysis_rows) == {1, 3}  # one weight row per component count analysed
    ref = weakref.ref(g)
    make_grid.cache_clear()
    del g
    gc.collect()
    assert ref() is None


def test_make_grid_memory_is_node_arrays_only():
    # the Legendre table of Lg = 256 alone takes 72 MB; make_grid builds none
    code = ("import resource; from so3tp.sht import make_grid; "
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; make_grid(256); "
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 16 * 1024  # ru_maxrss counts KiB


def test_round_trip_memory_is_one_legendre_table():
    # a band-64 scalar round trip on make_grid(128) builds the grid's tables:
    # the run-packed Legendre table (9.6 MB), trig rows and weights, and no
    # table-sized temporary; two padded (Lg + 1)^3 tables would take 34 MB
    code = ("import resource, numpy as np; from so3tp.sht import make_grid, random_coeffs; "
            "from so3tp.tsh import from_sphere, to_sphere; "
            "g = make_grid(128); x = random_coeffs(64, np.random.default_rng(5)); "
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; "
            "from_sphere(to_sphere(x, g), 64); "
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


def test_sh_eval_names_a_non_integer_argument():
    with pytest.raises(ValueError, match=r"l=1\.5 must be an integer"):
        sh_eval(1.5, 0.5, 0.3, 1.2)
    with pytest.raises(ValueError, match=r"\|m\|=0\.5 must be an integer"):
        sh_eval(1, -0.5, 0.3, 1.2)


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
    np.testing.assert_allclose(f.values[:, :, 0], expect, atol=1e-14)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.inf, 0.0), complex(0.0, np.nan)])
def test_to_sphere_rejects_non_finite(bad, rng):
    x = random_coeffs(3, rng)
    x.block(2)[1] = bad
    with pytest.raises(ValueError, match="inputs must be finite, got NaN or inf"):
        to_sphere(x, make_grid(3))


def test_to_sphere_grid_too_small():
    x = random_coeffs(4, np.random.default_rng(0))
    with pytest.raises(ValueError):
        to_sphere(x, make_grid(3))


def test_from_sphere_constant_signal():
    g = make_grid(2)
    f = SpinSignal(s=0, grid=g, values=np.ones((g.n_theta, g.n_phi, 1), dtype=complex))
    x = from_sphere(f, 2)
    assert x.block(0)[0] == pytest.approx(math.sqrt(4 * math.pi), abs=1e-13)
    assert np.abs(x.block(1)).max() <= 1e-13
    assert np.abs(x.block(2)).max() <= 1e-13


def test_from_sphere_rejects_negative_band_limit_before_any_table():
    make_grid.cache_clear()
    g = make_grid(2)
    f = SpinSignal(s=0, grid=g, values=np.zeros((g.n_theta, g.n_phi, 1), dtype=complex))
    with pytest.raises(ValueError, match="band limit L=-1 must be non-negative"):
        from_sphere(f, -1)
    assert not _TABLES & vars(g).keys()


@pytest.mark.parametrize("L, message", [
    (3, "analysis degree 3 > grid exactness degree 2"),
    (-1, "band limit L=-1 must be non-negative"),
    (2.0, "band limit L=2.0 must be an integer"),
])
@pytest.mark.parametrize("s", [0, 1])
def test_tsh_decode_checks_the_band_before_any_table(s, L, message):
    # the analysis core checks nothing: its one public entry checks the band
    make_grid.cache_clear()
    g = make_grid(2)
    f = SpinSignal(s=s, grid=g, values=np.zeros((g.n_theta, g.n_phi, 2 * s + 1), dtype=complex))
    with pytest.raises(ValueError, match=message):
        tsh_decode(f, L)
    assert not _TABLES & vars(g).keys()


def test_from_sphere_rejects_spin_1_before_any_table():
    make_grid.cache_clear()
    g = make_grid(2)
    f = SpinSignal(s=1, grid=g, values=np.zeros((g.n_theta, g.n_phi, 3), dtype=complex))
    with pytest.raises(ValueError, match="from_sphere takes a spin-0 signal, got spin s=1"):
        from_sphere(f, 2)
    assert not _TABLES & vars(g).keys()


def test_from_sphere_rejects_excess_degree():
    g = make_grid(2)
    f = SpinSignal(s=0, grid=g, values=np.zeros((g.n_theta, g.n_phi, 1), dtype=complex))
    with pytest.raises(ValueError):
        from_sphere(f, 3)


@pytest.mark.parametrize("L", [1])  # L = 8 and 32 run in verify's scalar_round_trip
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


def test_trig_rows_are_cos_and_sin_of_the_phi_nodes():
    # band L reads the first 2L + 1 rows: [cos 0 phi, sin 1 phi, cos 1 phi, ...]
    for Lg in range(41):
        g = make_grid(Lg)
        phi = 2.0 * np.pi * np.arange(2 * Lg + 1) / (2 * Lg + 1)
        assert g.trig.shape == (2 * Lg + 1, 2 * Lg + 1) and g.trig.flags.c_contiguous
        assert np.array_equal(g.trig[0], np.cos(0 * phi))
        for m in range(1, Lg + 1):
            assert g.trig[2 * m - 1].tobytes() == np.sin(m * phi).tobytes()
            assert g.trig[2 * m].tobytes() == np.cos(m * phi).tobytes()


def _legendre_orders(cos_theta, lmax):
    """Yield (m, tab) with tab[i, l - m] = Lambda^m_l(cos_theta[i]), l = m..lmax, for m = 0..lmax (reference).

    One order at a time: the diagonal by its running product, then the
    three-term recurrence in l, each step over the theta nodes only.  The
    grid's run builder must reproduce every entry bit for bit.
    """
    x = cos_theta
    sin_theta = np.sqrt(1.0 - x * x)
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
        yield m, tab


def _padded_legendre(grid):
    """lam[m, i, l - m] = Lambda^m_l(cos theta_i) for 0 <= m <= l <= Lg, zero past l = Lg, one per-order table per m."""
    lam = np.zeros((grid.Lg + 1, grid.n_theta, grid.Lg + 1))
    for m, tab in _legendre_orders(grid.cos_theta, grid.Lg):
        lam[m, :, :tab.shape[1]] = tab
    return lam


def test_legendre_tables_match_per_order_repack():
    # run r of the m >= 0 table is the padded repack's C-contiguous block of
    # orders 16 r .. 16 r + 15 and the Lg + 1 - 16 r slots they use, and it
    # drops only zeros; the analysis weights are w_i 2 pi / n_phi
    for Lg in [*range(41), 64, 128]:
        g = make_grid(Lg)
        ref = _padded_legendre(g)
        starts = range(0, Lg + 1, 16)
        assert len(g.legendre) == len(starts)
        for run, m0 in zip(g.legendre, starts):
            orders = ref[m0:m0 + 16]
            assert run.flags.c_contiguous
            assert run.shape == (orders.shape[0], g.n_theta, Lg + 1 - m0)
            assert run.tobytes() == orders[:, :, :Lg + 1 - m0].tobytes()
            assert not orders[:, :, Lg + 1 - m0:].any()
        w = g.theta_weights * (2.0 * np.pi / g.n_phi)
        assert g.analysis_weights.shape == (g.n_theta, 1)
        assert g.analysis_weights.tobytes() == w.tobytes()


def test_analysis_weight_rows_are_the_column_repeated(rng):
    # one contiguous row per component count, built on the first analysis
    # that reads it: w_i repeated over the 2 n_comp floats of theta row i
    make_grid.cache_clear()
    g = make_grid(5)
    assert "_analysis_rows" not in vars(g)
    rows = {}
    for n_comp in (1, 3, 1, 5, 3):
        values = rng.standard_normal((g.n_theta, g.n_phi, n_comp)) + 0j
        _analysis_core(values, g, 5, None)
        rows.setdefault(n_comp, g._analysis_rows[n_comp])
        assert g._analysis_rows[n_comp] is rows[n_comp]
    assert set(g._analysis_rows) == {1, 3, 5}
    for n_comp, row in rows.items():
        assert row.flags.c_contiguous and row.shape == (g.n_theta * 2 * n_comp,)
        expect = np.broadcast_to(g.analysis_weights, (g.n_theta, 2 * n_comp))
        assert row.tobytes() == np.ascontiguousarray(expect).tobytes()


def _legendre_bytes(Lg):
    """Bytes of the run-packed table: 8 times the sum over runs of orders x n_theta x slots."""
    return 8 * sum(min(16, Lg + 1 - m0) * (Lg + 1) * (Lg + 1 - m0) for m0 in range(0, Lg + 1, 16))


def test_legendre_table_bytes_match_closed_form():
    # no padding past a run's rectangle: at Lg = 64 under 0.32 of two padded
    # (Lg + 1)^3 float tables
    for Lg in range(41):
        assert sum(b.nbytes for b in make_grid(Lg).legendre) == _legendre_bytes(Lg)
    nbytes = sum(b.nbytes for b in make_grid(64).legendre)
    assert nbytes == _legendre_bytes(64)
    assert nbytes <= 0.32 * 2 * 65 ** 3 * 8


def test_legendre_build_peaks_at_the_table_plus_one_run():
    # the runs are filled in place: building make_grid(128).legendre holds
    # the table and at most one run block's worth of temporaries besides
    g = make_grid(128)
    g0 = sht.SphereGrid(g.Lg, g.cos_theta, g.theta, g.theta_weights, g.phi)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        runs = g0.legendre
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(run.nbytes for run in runs) == _legendre_bytes(128)
    assert peak <= _legendre_bytes(128) + runs[0].nbytes


def test_sh_eval_matches_per_order_reference():
    # sh_eval reads its Legendre value from the grid's run builder, which
    # must give the per-order recurrence's bits at any order, run edges too
    theta = np.linspace(0.0, np.pi, 23)
    ref = dict(_legendre_orders(np.cos(theta), 37))
    for l in (0, 1, 15, 16, 17, 37):
        for m in range(-l, l + 1):
            tab = ref[abs(m)][:, l - abs(m)]
            expect = (-tab if (m < 0 and m % 2) else tab) * np.exp(1j * m * np.full(theta.size, 0.7))
            assert sh_eval(l, m, theta, 0.7).tobytes() == expect.tobytes(), (l, m)


def _complex_dft_tables(grid, L):
    """One signed Legendre table per order m = -L..L, and the complex DFT per direction."""
    lam_pad = np.zeros((2 * L + 1, grid.n_theta, L + 1))
    for m, tab in _legendre_orders(grid.cos_theta, L):
        lam_pad[L + m, :, : L - m + 1] = tab
        lam_pad[L - m, :, : L - m + 1] = (-1) ** m * tab
    mphi = np.outer(np.arange(-L, L + 1), grid.phi)
    return lam_pad, np.exp(1j * mphi), np.exp(-1j * mphi)


def _complex_dft_synthesis(cpad, grid, L, lam_pad, dft):
    n_comp = cpad.shape[-1]
    G = (lam_pad @ cpad.view(float)).view(complex)
    G = G.transpose(1, 2, 0).reshape(grid.n_theta * n_comp, 2 * L + 1)
    return (G @ dft).reshape(grid.n_theta, n_comp, grid.n_phi).transpose(0, 2, 1)


def _complex_dft_analysis(values, grid, L, lam_pad, dft):
    n_comp = values.shape[-1]
    F = (values.transpose(0, 2, 1).reshape(grid.n_theta * n_comp, grid.n_phi)
         @ dft.T).reshape(grid.n_theta, n_comp, 2 * L + 1)
    F *= grid.theta_weights[:, None, None] * (2.0 * np.pi / grid.n_phi)
    F = np.ascontiguousarray(F.transpose(2, 0, 1))
    return (lam_pad.transpose(0, 2, 1) @ F.view(float)).view(complex)


def _fold(cpad, L):
    """cf[0] = c[0], cf[2m] = c[m] + (-1)^m c[-m], cf[2m - 1] = i (c[m] - (-1)^m c[-m])."""
    cf = np.empty_like(cpad)
    cf[0] = cpad[L]
    for m in range(1, L + 1):
        cf[2 * m] = cpad[L + m] + (-1) ** m * cpad[L - m]
        cf[2 * m - 1] = 1j * (cpad[L + m] - (-1) ** m * cpad[L - m])
    return cf


def test_folded_cores_match_complex_dft_cores(rng):
    for Lg in range(41):
        g = make_grid(Lg)
        for L in range(Lg + 1):
            ref_valid = np.zeros((2 * L + 1, L + 1), bool)
            for m in range(-L, L + 1):
                ref_valid[m + L, : L - abs(m) + 1] = True
            lam_pad, syn_dft, ana_dft = _complex_dft_tables(g, L)
            for n_comp in range(1, 6):
                shape = (2 * L + 1, L + 1, n_comp)
                cpad = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                cpad[~ref_valid] = 0.0
                expect = _complex_dft_synthesis(cpad, g, L, lam_pad, syn_dft)
                values = _synthesis_core(_fold(cpad, L), g, L, None)
                err = np.abs(values - expect).max() / np.abs(expect).max()
                assert err <= 1e-14, (Lg, L, n_comp, err)
                shape = (g.n_theta, g.n_phi, n_comp)
                samples = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                expect = _complex_dft_analysis(samples, g, L, lam_pad, ana_dft)[ref_valid]
                got = _analysis_core(samples, g, L, None)[ref_valid]
                err = np.abs(got - expect).max() / np.abs(expect).max()
                assert err <= 1e-14, (Lg, L, n_comp, err)


def _padded_synthesis(cf, grid, L):
    """Synthesis with one Legendre matmul over the whole padded square per parity (oracle)."""
    n_comp = cf.shape[-1]
    lam, cf = _padded_legendre(grid)[:L + 1, :, :L + 1], cf.view(float)
    H = np.empty((2 * L + 1, grid.n_theta, 2 * n_comp))
    np.matmul(lam, cf[0::2], out=H[0::2])
    np.matmul(lam[1:], cf[1::2], out=H[1::2])
    values = grid.trig[:2 * L + 1].T @ H.reshape(2 * L + 1, -1)
    return values.view(complex).reshape(grid.n_phi, grid.n_theta, n_comp).transpose(1, 0, 2)


def _padded_analysis(values, grid, L):
    """Analysis with one Legendre matmul over the whole padded square per parity (oracle)."""
    n_comp = values.shape[-1]
    samples = np.ascontiguousarray(values.transpose(1, 0, 2), dtype=complex)
    F = grid.trig[:2 * L + 1] @ samples.reshape(grid.n_phi, -1).view(float)
    F = F.reshape(2 * L + 1, grid.n_theta, 2 * n_comp)
    F *= grid.theta_weights[:, None] * (2.0 * np.pi / grid.n_phi)
    lam = _padded_legendre(grid)[:L + 1, :, :L + 1].transpose(0, 2, 1)
    xpad = np.empty((2 * L + 1, L + 1, n_comp), dtype=complex)
    pos, neg = xpad[L + 1:], xpad[:L][::-1]
    np.matmul(lam, F[0::2], out=xpad[L:].view(float))
    sin = np.matmul(lam[1:], F[1::2]).view(complex)
    sin *= -1j
    np.subtract(pos[1::2], sin[1::2], out=neg[1::2])
    np.subtract(sin[0::2], pos[0::2], out=neg[0::2])
    pos += sin
    return xpad


@pytest.mark.parametrize("L", [15, 16, 17, 31, 32, 33, 64])
def test_legendre_runs_match_one_padded_matmul(L, rng):
    # runs of 16 orders trimmed to their degree slots give the padded
    # square's values on every valid slot, bitwise while one run covers L
    g = make_grid(64)
    valid = np.zeros((2 * L + 1, L + 1), bool)
    for m in range(-L, L + 1):
        valid[m + L, :L - abs(m) + 1] = True
    folded_valid = np.zeros((2 * L + 1, L + 1), bool)
    for r in range(2 * L + 1):
        folded_valid[r, :L - (r + 1) // 2 + 1] = True
    for n_comp in (1, 3):
        shape = (2 * L + 1, L + 1, n_comp)
        cf = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        cf[~folded_valid] = 0.0
        shape = (g.n_theta, g.n_phi, n_comp)
        samples = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for got, expect in [
            (_synthesis_core(cf, g, L, None), _padded_synthesis(cf, g, L)),
            (_analysis_core(samples, g, L, None)[valid], _padded_analysis(samples, g, L)[valid]),
        ]:
            if L < 16:
                assert got.tobytes() == expect.tobytes(), (L, n_comp)
            err = np.abs(got - expect).max() / np.abs(expect).max()
            assert err <= 1e-15, (L, n_comp, err)


def test_folded_scatter_is_the_fold(rng):
    # scattering padded coefficients through _folded_scatter gives _fold's rows
    for L in range(9):
        for n_comp in (1, 3):
            shape = (2 * L + 1, L + 1, n_comp)
            cpad = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for m in range(-L, L + 1):
                cpad[m + L, L - abs(m) + 1:] = 0.0
            slot = np.flatnonzero(cpad)
            fslot, factor = _folded_scatter(L, slot, n_comp)
            terms = cpad.reshape(-1)[slot] * factor
            cf = np.bincount(fslot.ravel(), terms.view(float).ravel(), 2 * cpad.size)
            assert np.array_equal(cf.view(complex).reshape(shape), _fold(cpad, L))


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


def _scatter_to_sphere(x, grid):
    """Scalar synthesis through its own packed scatter into the folded layout (oracle)."""
    L = x.L
    packed = np.zeros((L + 1) ** 2, dtype=complex)  # degree l at [l^2, (l + 1)^2)
    for l, vec in x.single_per_degree().items():
        packed[l * l:(l + 1) ** 2] = vec
    l = np.repeat(np.arange(L + 1), 2 * np.arange(L + 1) + 1)
    slot, factor = _folded_scatter(L, _padded_index(L, l, np.arange(l.size) - l * (l + 1)), 1)
    cf = np.bincount(slot.ravel(), (packed * factor).view(float).ravel(),
                     2 * (2 * L + 1) * (L + 1))
    return _synthesis_core(cf.view(complex).reshape(2 * L + 1, L + 1, 1), grid, L, None)[:, :, 0]


def _gather_from_sphere(values, grid, L):
    """Scalar analysis through its own gather from the padded layout (oracle): degree -> block."""
    xpad = _analysis_core(values[:, :, None], grid, L, None).reshape(-1)
    return {l: xpad[_padded_index(L, l, np.arange(-l, l + 1))] for l in range(L + 1)}


def test_scalar_transforms_match_scatter_oracle(rng):
    # the spin-0 encode and decode reproduce the dedicated scalar scatter and
    # gather byte for byte, with every, no and every other block filled
    for L in range(17):
        for Lg in sorted({L, 2 * L}):
            g = make_grid(Lg)
            zeros = {(l, None): np.zeros(2 * l + 1) for l in range(L + 1)}
            even = {(l, None): random_block(l, rng) for l in range(0, L + 1, 2)}
            for x in (random_coeffs(L, rng), IrrepCoeffs(L=L, blocks=zeros),
                      IrrepCoeffs(L=L, blocks=even)):
                f = to_sphere(x, g)
                assert f.values.tobytes() == _scatter_to_sphere(x, g).tobytes(), (L, Lg)
                z, ref = from_sphere(f, L), _gather_from_sphere(f.values[:, :, 0], g, L)
                assert sorted(z.blocks) == [(l, None) for l in range(L + 1)]
                assert all(z.block(l).tobytes() == ref[l].tobytes() for l in ref), (L, Lg)


def test_spin0_transforms_count_scalar_macs(rng):
    # spin 0 is the identity coupling: encode and decode count only the
    # transforms; to_sphere synthesizes at x.L, tsh_encode at the top degree present
    def synthesis(g, L):
        return g.n_theta * (L + 1) ** 2 + g.n_theta * (2 * L + 1) * g.n_phi

    def analysis(g, L):
        return g.n_theta * g.n_phi * (2 * L + 1) + g.n_theta * (L + 1) ** 2

    for L, Lg, top in [(0, 0, 0), (4, 4, 4), (5, 11, 5), (6, 9, 3)]:
        g = make_grid(Lg)
        x = IrrepCoeffs(L=L, blocks={(l, None): random_block(l, rng) for l in range(top + 1)})
        scalar, spin0 = FlopCounter(), FlopCounter()
        f = to_sphere(x, g, flops=scalar)
        tsh_encode(spin0_from_scalar(x), g, flops=spin0)
        assert (scalar.count, spin0.count) == (synthesis(g, L), synthesis(g, top))
        scalar, spin0 = FlopCounter(), FlopCounter()
        from_sphere(f, L, flops=scalar)
        tsh_decode(f, L, flops=spin0)
        assert scalar.count == spin0.count == analysis(g, L)


def test_spin0_transforms_need_no_cg_beyond_float_range(rng, monkeypatch):
    # the identity coupling builds no Clebsch-Gordan block, so scalar
    # transforms and gtp work above the float CG range (j1 + j2 <= 130)
    def no_cg(*args):
        raise AssertionError(f"cg_block{args} called at spin 0")

    monkeypatch.setattr(tsh, "cg_block", no_cg)
    L = 131
    g = make_grid(L)
    x = random_coeffs(L, rng)
    z = from_sphere(to_sphere(x, g), L)
    assert max(np.abs(z.block(l) - x.block(l)).max() for l in range(L + 1)) <= 1e-10
    y = random_coeffs(1, rng)
    out = gtp(y, y, L, g).output
    assert sorted(out.blocks) == [(l, None) for l in range(L + 1)]
    assert np.abs(out.block(L)).max() <= 1e-12


def test_from_sphere_reads_phi_major_samples_in_place(rng, monkeypatch):
    # like the encoded-sample layout guard: the analysis core copies nothing
    g = make_grid(7)
    f = to_sphere(random_coeffs(5, rng), g)
    core, copied = tsh._analysis_core, []

    def spy(values, grid, L, flops):
        samples = np.ascontiguousarray(values.transpose(1, 0, 2), dtype=complex)
        copied.append(not np.shares_memory(samples, f.values))
        return core(values, grid, L, flops)

    monkeypatch.setattr(tsh, "_analysis_core", spy)
    from_sphere(f, 5)
    assert copied == [False]


def test_to_sphere_rejects_duplicate_degree():
    x = IrrepCoeffs(L=1, blocks={(1, None): np.zeros(3), (1, "dup"): np.zeros(3)})
    with pytest.raises(ValueError):
        to_sphere(x, make_grid(1))


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


def test_product_analysis_matches_gaunt(rng):
    # pointwise product of two L=1 signals analyzed at L=2 has the
    # Gaunt-predicted coefficients
    x = random_coeffs(1, rng)
    y = random_coeffs(1, rng)
    g = make_grid(2)
    prod = SpinSignal(s=0, grid=g, values=to_sphere(x, g).values * to_sphere(y, g).values)
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
    with pytest.raises(ValueError, match="band limit L=2.5 must be an integer"):
        IrrepCoeffs(L=2.5)
    assert IrrepCoeffs(L=np.int64(2), blocks={(2, None): np.zeros(5)}).block(2).shape == (5,)


def test_irrep_coeffs_key_and_length_messages():
    # one base check serves both containers; TshCoeffs' messages are in test_tsh
    assert IrrepCoeffs._checked is tsh.TshCoeffs._checked is sht._Blocks._checked
    for key, vec, message in [
        ((2, None), np.zeros(5), "block degree 2 outside 0..L=1"),
        ((-1, "t"), np.zeros(1), "block degree -1 outside 0..L=1"),
        ((1, None), np.zeros(4), "block (1, None) has length (4,), want 3"),
        ((1, (0, 1)), np.zeros((3, 1)), "block (1, (0, 1)) has length (3, 1), want 3"),
    ]:
        with pytest.raises(ValueError) as err:
            IrrepCoeffs(L=1, blocks={key: vec})
        assert str(err.value) == message
        x = IrrepCoeffs(L=1)
        with pytest.raises(ValueError) as err:
            x.set_block(key[0], vec, tag=key[1])
        assert str(err.value) == message
        assert x.blocks == {}


@pytest.mark.parametrize("key", [(2.0, None), (1.5, None), ("1", "t")])
def test_irrep_coeffs_reject_non_integer_degrees(key):
    message = f"block {key} has a degree that is not an integer"
    with pytest.raises(ValueError) as err:
        IrrepCoeffs(L=3, blocks={(1, None): np.ones(3), key: np.ones(5)})
    assert str(err.value) == message
    x = IrrepCoeffs(L=3)
    with pytest.raises(ValueError) as err:
        x.set_block(key[0], np.ones(5), tag=key[1])
    assert str(err.value) == message
    assert x.blocks == {}
    # a tag is not a degree, and containers a core laid out stay unchecked
    assert IrrepCoeffs(L=3, blocks={(np.int64(1), 0.5): np.ones(3)}).blocks
    assert sht._trusted(IrrepCoeffs, L=3, blocks={key: np.ones(5)}).blocks


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_containers_reject_non_finite_blocks(bad):
    # both containers and set_block, through the one block check; a core's
    # unchecked container stays unchecked
    vec = [bad, 0.0, 1.0]
    for build in (lambda: IrrepCoeffs(L=1, blocks={(1, None): vec}),
                  lambda: tsh.TshCoeffs(s=1, L=1, blocks={(1, 1): vec}),
                  lambda: IrrepCoeffs(L=1).set_block(0, [bad]),
                  lambda: tsh.TshCoeffs(s=1, L=1).set_block(1, 0, vec)):
        with pytest.raises(ValueError, match="inputs must be finite, got NaN or inf"):
            build()
    assert sht._trusted(IrrepCoeffs, L=1, blocks={(1, None): vec}).blocks


def test_finite_check_is_silent_when_the_sum_of_finite_entries_overflows():
    # summed, these finite entries overflow to inf and, for the alternating
    # block, to inf - inf = nan; the check warns for neither, and an inf or
    # nan entry still raises
    big = [1e308, 1e308, 0.0]
    alternating = [1e308, -1e308] * 4 + [1e308]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = IrrepCoeffs(L=4, blocks={(1, None): big, (4, None): alternating})
        assert np.array_equal(x.block(1), big) and np.array_equal(x.block(4), alternating)
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="inputs must be finite, got NaN or inf"):
                IrrepCoeffs(L=0, blocks={(0, None): [bad]})


def _hand_layout(x):
    """Canonical keys and their blocks concatenated by hand, the reference of ``_layout``."""
    keys = tuple(sorted(x.blocks, key=x._sort_key))
    return keys, np.concatenate([np.asarray(x.blocks[key], complex) for key in keys]
                                + [np.zeros(0, complex)])


def test_layout_is_the_canonical_keys_and_the_blocks_end_to_end(rng, pending_blocks):
    # hand-built containers in a non-canonical insertion order, an empty
    # one, and a decode output unwritten, after a write and after a delete
    irreps = IrrepCoeffs(L=3, blocks={(2, None): random_block(2, rng), (0, "b"): random_block(0, rng),
                                      (3, (1, 2)): random_block(3, rng), (0, None): random_block(0, rng),
                                      (0, "a"): random_block(0, rng)})
    spin1 = random_tsh_coeffs(1, 3, rng)
    spin1 = tsh.TshCoeffs(s=1, L=3, blocks=dict(reversed(list(spin1.blocks.items()))))
    decoded = tsh_decode(tsh_encode(random_tsh_coeffs(1, 3, rng), make_grid(6)), 3)
    assert irreps._layout()[0] == ((0, None), (0, "a"), (0, "b"), (2, None), (3, (1, 2)))
    assert list(spin1.blocks) != list(spin1._layout()[0]) == tsh.valid_pairs(1, 3)
    decoded_packed = pending_blocks(decoded).packed
    assert decoded._layout()[1].tobytes() == decoded_packed.tobytes()
    cases = [irreps, spin1, IrrepCoeffs(L=2), tsh.TshCoeffs(s=2, L=1), decoded]
    written = tsh_decode(tsh_encode(random_tsh_coeffs(2, 3, rng), make_grid(6)), 3)
    written_size = pending_blocks(written).packed.size
    written.blocks[(2, 1)] = np.full(5, 3 + 1j)
    deleted = tsh_decode(tsh_encode(random_tsh_coeffs(0, 3, rng), make_grid(6)), 3)
    deleted_size = pending_blocks(deleted).packed.size
    del deleted.blocks[(1, 1)]
    for x in cases + [written, deleted]:
        keys, packed = x._layout()
        want_keys, want = _hand_layout(x)
        assert keys == want_keys and packed.dtype == complex and packed.tobytes() == want.tobytes()
        assert not any(np.shares_memory(packed, vec) for vec in x.blocks.values())
    assert written._layout()[1].size == written_size
    assert deleted._layout()[1].size == deleted_size - 3


@pytest.mark.parametrize("key", [(1,), (1, None, "t"), 1])
def test_block_keys_must_be_pairs(key):
    with pytest.raises(ValueError, match="is not a pair"):
        IrrepCoeffs(L=3, blocks={(0, None): np.ones(1), key: np.ones(3)})
    with pytest.raises(ValueError, match="is not a pair"):
        tsh.TshCoeffs(s=1, L=3)._checked(key, np.ones(3))


def test_signal_shape_validation():
    g = make_grid(1)
    with pytest.raises(ValueError):
        SpinSignal(s=0, grid=g, values=np.zeros((1, 1), dtype=complex))
