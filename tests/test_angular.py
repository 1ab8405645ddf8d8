"""Tests for Clebsch-Gordan coefficients, Wigner d/D matrices and 9j symbols."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from so3tp import angular, tenprod
from so3tp.angular import (
    CG_BLOCK_MAX,
    CG_ZERO_MAX,
    cg_block,
    cg_tensor,
    cg_zero_float,
    triangle_delta,
    wigner_9j_spin1,
    wigner_d_matrix,
)
from so3tp.exact import SQRT_ZERO, SqrtRational, cg, cg_float, cg_zero, wigner_9j
from so3tp.sht import random_coeffs


# ---------------------------------------------------------------- triangle

@pytest.mark.parametrize("tri,expect", [((1, 1, 1), 1), ((0, 0, 1), 0), ((1, 2, 3), 1)])
def test_triangle_delta_examples(tri, expect):
    assert triangle_delta(*tri) == expect


def test_triangle_delta_rejects_negative():
    with pytest.raises(ValueError):
        triangle_delta(-1, 0, 1)


@given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 12))
def test_triangle_delta_symmetric(a, b, c):
    vals = {triangle_delta(a, b, c), triangle_delta(b, c, a), triangle_delta(c, a, b),
            triangle_delta(b, a, c)}
    assert len(vals) == 1


# ---------------------------------------------------------------- CG

def test_cg_examples():
    assert cg(0, 0, 0, 0, 0, 0) == SqrtRational(1, Fraction(1))
    assert cg(1, 1, 1, 1, 2, 2) == SqrtRational(1, Fraction(1))
    assert cg(1, 1, 1, 0, 1, 1) == SqrtRational(1, Fraction(1, 2))


def test_cg_selection_zeros():
    assert cg(1, 1, 1, 1, 2, 0).is_zero()       # m3 != m1 + m2
    assert cg(1, 0, 1, 0, 3, 0).is_zero()       # triangle fails
    assert cg(1, 0, 1, 0, 1, 0).is_zero()       # antisymmetric coupling at m=0


def test_cg_rejects_bad_m():
    with pytest.raises(ValueError):
        cg(1, 2, 1, 0, 1, 1)


def test_cg_zero_examples():
    assert cg_zero(0, 0, 0) == SqrtRational(1, Fraction(1))
    assert cg_zero(1, 1, 1).is_zero()           # odd l1+l2+l3
    assert cg_zero(1, 1, 2) == SqrtRational(1, Fraction(2, 3))


def test_cg_zero_nonzero_iff_even_and_triangle():
    for l1 in range(5):
        for l2 in range(5):
            for l3 in range(7):
                nonzero = not cg_zero(l1, l2, l3).is_zero()
                expect = bool(triangle_delta(l1, l2, l3)) and (l1 + l2 + l3) % 2 == 0
                assert nonzero == expect, (l1, l2, l3)


CG_ZERO_FLOAT_RTOL = 5e-16  # cg_zero_float's stated accuracy against the exact cg_zero


def _cg_zero_float_error(l1, l2, l3):
    """Relative error of cg_zero_float against exact cg_zero; a zero must be 0.0 exactly.

    On a triangle the unchecked core gives the same float, bit for bit.
    """
    exact = cg_zero(l1, l2, l3)
    got = cg_zero_float(l1, l2, l3)
    if triangle_delta(l1, l2, l3):
        assert float.hex(angular._cg_zero_float_core(l1, l2, l3)) == float.hex(got), (l1, l2, l3)
    if exact.is_zero():
        assert got == 0.0, (l1, l2, l3)
        return 0.0
    want = float(exact)
    return abs(got - want) / abs(want)


def test_cg_zero_float_matches_exact_on_every_triple_to_degree_24():
    # zeros included: odd sums and broken triangles give 0.0 exactly
    worst = max(_cg_zero_float_error(*ls) for ls in itertools.product(range(25), repeat=3))
    assert 0.0 < worst <= CG_ZERO_FLOAT_RTOL


def test_cg_zero_float_matches_exact_at_the_top_of_its_range():
    top = CG_ZERO_MAX
    rng = np.random.default_rng(7)
    triples = [(top, top, 0), (top, top, top), (top, top - 1, 1), (top, 1, top - 1),
               (top, top // 2, top // 2), (top - 2, top, top), (3, top - 1, top)]
    while len(triples) < 40:
        l1, l2 = top, int(rng.integers(0, top + 1))
        l3 = int(rng.integers(top - l2, top + 1))
        if (l1 + l2 + l3) % 2 == 0:
            triples.append(tuple(rng.permutation((l1, l2, l3)).tolist()))
    assert max(_cg_zero_float_error(*ls) for ls in triples) <= CG_ZERO_FLOAT_RTOL


def test_cg_zero_float_rejects_degrees_past_its_range():
    top = CG_ZERO_MAX
    for bad in [(top + 1, top, 1), (0, top + 1, top + 1), (top + 1, 0, top), (1, 1, top + 2)]:
        with pytest.raises(ValueError, match=f"exceed the float C\\^\\(l3,0\\) range {top}"):
            cg_zero_float(*bad)
    with pytest.raises(ValueError, match="non-negative"):
        cg_zero_float(1, -1, 2)


def test_cg_block_matches_exact():
    # every entry, zeros included, for j1, j2 <= 5
    for j1 in range(6):
        for j2 in range(6):
            for j3 in range(abs(j1 - j2), j1 + j2 + 1):
                blk = cg_block(j1, j2, j3)
                assert blk.shape == (2 * j1 + 1, 2 * j2 + 1)
                for m1 in range(-j1, j1 + 1):
                    for m2 in range(-j2, j2 + 1):
                        expect = cg_float(j1, m1, j2, m2, j3, m1 + m2) if abs(m1 + m2) <= j3 else 0.0
                        assert abs(blk[m1 + j1, m2 + j2] - expect) <= 1e-14, (j1, m1, j2, m2, j3)
    # sampled at the top edge of the stated range
    rng = np.random.default_rng(7)
    for j1, j2 in [(128, 2), (2, 128), (65, 65)]:
        assert j1 + j2 == CG_BLOCK_MAX
        for _ in range(25):
            j3 = int(rng.integers(abs(j1 - j2), j1 + j2 + 1))
            m1 = int(rng.integers(-j1, j1 + 1))
            m2 = int(rng.integers(max(-j2, -j3 - m1), min(j2, j3 - m1) + 1))
            got = cg_block(j1, j2, j3)[m1 + j1, m2 + j2]
            assert abs(got - cg_float(j1, m1, j2, m2, j3, m1 + m2)) <= 1e-13, (j1, m1, j2, m2, j3)


def test_cg_block_rejects_negative_degree():
    with pytest.raises(ValueError):
        cg_block(-1, 1, 1)


def test_cg_block_names_a_non_integer_degree():
    with pytest.raises(ValueError, match=r"j1=1\.5 must be an integer"):
        cg_block(1.5, 1, 0.5)
    with pytest.raises(ValueError, match=r"j3=0\.5 must be an integer"):
        cg_block(1, 1, 0.5)


def test_cg_names_a_non_integer_entry_cold_and_cached():
    # the check runs before the cache lookup: 2.0 == 2 hashes alike, so a
    # cached integer call must not answer the float one
    bad = (4, 0, 5, 1, 7.0, 1)
    with pytest.raises(ValueError, match=r"j3=7\.0 must be an integer"):
        cg(*bad)
    value = cg(4, 0, 5, 1, 7, 1)
    with pytest.raises(ValueError, match=r"j3=7\.0 must be an integer"):
        cg(*bad)
    with pytest.raises(ValueError, match=r"m1=0\.5 must be an integer"):
        cg(4, 0.5, 5, 1, 7, 1)
    assert cg(*map(np.int64, (4, 0, 5, 1, 7, 1))) == value
    assert cg.cache_info().currsize > 0
    assert cg.cache_info().maxsize == 65536


def test_cg_tensor_names_a_non_integer_degree_cold_and_cached():
    with pytest.raises(ValueError, match=r"j1=3\.0 must be an integer"):
        cg_tensor(3.0, 8)
    tensor = cg_tensor(3, 8)
    with pytest.raises(ValueError, match=r"j1=3\.0 must be an integer"):
        cg_tensor(3.0, 8)
    with pytest.raises(ValueError, match=r"j2=8\.5 must be an integer"):
        cg_tensor(3, 8.5)
    assert cg_tensor(np.int64(3), np.int64(8)) is tensor


def test_cg_block_rejects_triangle_violation():
    with pytest.raises(ValueError):
        cg_block(1, 1, 3)


def test_cg_block_rejects_out_of_range():
    # j1 + j2 <= 130 for every pair, and <= 512 for a thin pair, min(j1, j2) <= 2
    cg_block(CG_BLOCK_MAX - 1, 1, CG_BLOCK_MAX)
    cg_block(CG_BLOCK_MAX - 3, 3, CG_BLOCK_MAX)
    cg_block(511, 1, 512)
    cg_block(2, 510, 512)
    for bad in [(CG_BLOCK_MAX - 2, 3, CG_BLOCK_MAX), (3, CG_BLOCK_MAX - 2, 126), (66, 65, 1),
                (512, 1, 512), (1, 512, 511), (511, 2, 511)]:
        a, b = sorted(bad[:2])
        with pytest.raises(ValueError, match=rf"^pair \({a}, {b}\) exceeds the float CG range: "
                                             r"j1 \+ j2 <= 130, or <= 512 when min\(j1, j2\) <= 2$"):
            cg_block(*bad)


@pytest.mark.parametrize("j1,j2", [(1, 511), (2, 510), (510, 2)])
def test_cg_block_matches_exact_at_the_top_of_the_thin_range(j1, j2):
    # thin pairs run to j1 + j2 = 512: every spin <= 2 coupling of a decode at 256
    rng = np.random.default_rng(j1)
    for _ in range(25):
        j3 = int(rng.integers(abs(j1 - j2), j1 + j2 + 1))
        m1 = int(rng.integers(-j1, j1 + 1))
        m2 = int(rng.integers(max(-j2, -j3 - m1), min(j2, j3 - m1) + 1))
        got = cg_block(j1, j2, j3)[m1 + j1, m2 + j2]
        assert abs(got - cg_float(j1, m1, j2, m2, j3, m1 + m2)) <= 1e-13, (j1, m1, j2, m2, j3)


def test_cg_block_swap_identity_exact():
    # both orders are gathered from one tensor, so the identity holds bit for bit;
    # an equal-degree pair is its own swap, which the build imposes.  Either
    # order reads the pair's tensor once, by one cache lookup.
    pairs = [(j1, j2) for j1 in range(25) for j2 in range(25 - j1)] + [(32, 32), (65, 65)]
    for j1, j2 in pairs:
        for j3 in range(abs(j1 - j2), j1 + j2 + 1):
            before = angular._cg_tensor.cache_info()
            swapped = cg_block(j2, j1, j3)
            after = angular._cg_tensor.cache_info()
            assert after.hits + after.misses == before.hits + before.misses + 1
            assert not swapped.flags.writeable
            assert np.array_equal(swapped, (-1) ** (j1 + j2 - j3) * cg_block(j1, j2, j3).T), \
                (j1, j2, j3)


@pytest.mark.parametrize("j1,j2", [(0, 0), (1, 4), (3, 3), (5, 12), (16, 16), (2, 128), (65, 65)])
def test_cg_tensor_mirror_identity_exact_at_m0(j1, j2):
    # M = 0 is its own mirror: C(-m1, m1) = (-1)^(j1+j2-j3) C(m1, -m1)
    S = cg_tensor(j1, j2)
    sign = (-1.0) ** (2 * j1 - np.arange(2 * j1 + 1))[:, None]
    assert np.array_equal(S[0, :, ::-1], sign * S[0])
    assert not S[0, 1::2, j1].any()  # m1 = m2 = 0 vanishes for odd j1 + j2 - j3


@settings(deadline=None)
@given(st.integers(0, 24), st.integers(0, 24), st.data())
def test_cg_tensor_sign_chain_matches_exact(ja, jb, data):
    # the top state M = j3 and the end of its J_- chain, M = 0, on every entry
    j1, j2 = min(ja, jb), max(ja, jb)
    k = data.draw(st.integers(0, 2 * j1))
    j3 = j2 - j1 + k
    S = cg_tensor(j1, j2)
    for M in (j3, 0):
        for m1 in range(max(-j1, M - j2), j1 + 1):
            expect = cg_float(j1, m1, j2, M - m1, j3, M)
            assert abs(S[M, k, m1 + j1] - expect) <= 1e-13, (j1, m1, j2, j3, M)


def test_cg_tensor_takes_unordered_pairs():
    S = cg_tensor(2, 5)
    assert S.shape == (8, 5, 5) and not S.flags.writeable
    assert S.flags.c_contiguous  # the sparse cgtp kernel's matmul reads it for every pair
    with pytest.raises(ValueError, match="unordered pair"):
        cg_tensor(5, 2)


def test_cg_tensor_rejects_negative_degree():
    before = angular._cg_tensor.cache_info()
    with pytest.raises(ValueError, match=r"degrees must be non-negative, got \(-1, 2\)"):
        cg_tensor(-1, 2)
    assert angular._cg_tensor.cache_info() == before


def test_cg_tensor_solves_only_the_m_nonnegative_subspaces(monkeypatch):
    # one recurrence pass runs the rows of M = 0..j1+j2 only; M < 0 is the mirror's
    runs = []
    rows = angular._cg_rows

    def recording_rows(a, tensors, fp, fM, *rest):
        runs.append((a, fM.tolist()))
        return rows(a, tensors, fp, fM, *rest)

    monkeypatch.setattr(angular, "_cg_rows", recording_rows)
    angular._cg_tensor.cache_clear()
    angular._cg_tensor(3, 7)
    assert runs == [(3, list(range(11)))]


def test_cg_tensor_every_entry_matches_exact_to_total_degree_12():
    # zeros included: the padding and the M > j3 slots are exact zeros
    angular._cg_tensor.cache_clear()
    for j2 in range(13):
        for j1 in range(min(j2, 12 - j2) + 1):
            S = cg_tensor(j1, j2)
            for M, k, i in itertools.product(range(j1 + j2 + 1), range(2 * j1 + 1), range(2 * j1 + 1)):
                j3, m1 = j2 - j1 + k, i - j1
                if M <= j3 and abs(M - m1) <= j2:
                    expect = cg_float(j1, m1, j2, M - m1, j3, M)
                    assert abs(S[M, k, i] - expect) <= 1e-13, (j1, j2, M, k, i)
                else:
                    assert S[M, k, i] == 0.0, (j1, j2, M, k, i)


def test_cg_tensor_bits_do_not_depend_on_the_batch(monkeypatch):
    # every recurrence step is elementwise over the rows, so a pair's tensor
    # is the same alone, beside other second degrees, or split over chunks
    alone = {(a, b): angular._cg_pass(a, [b])[0] for a in (1, 4, 9) for b in range(a, 24, 5)}
    for a in (1, 4, 9):
        bs = list(range(a, 24, 5))
        batch = angular._cg_pass(a, bs)
        monkeypatch.setattr(angular, "_CG_PASS_FLOATS", 64 * (2 * a + 2))
        chunked = angular._cg_pass(a, bs)
        monkeypatch.undo()
        for b, S, T in zip(bs, batch, chunked):
            assert S.tobytes() == alone[a, b].tobytes() == T.tobytes(), (a, b)


@pytest.mark.parametrize("j1,j2", [(65, 65), (0, 130), (40, 90), (2, 510), (1, 511)])
def test_cg_tensor_build_raises_no_floating_point_warning(j1, j2):
    # the runs grow past their meeting point in the tails they do not use
    with np.errstate(all="raise"):
        S = angular._cg_pass(j1, [j2])[0]
    assert np.isfinite(S).all()


def test_cgtp_full_caches_one_tensor_per_unordered_pair():
    angular._cg_tensor.cache_clear()
    rng = np.random.default_rng(3)
    tenprod.cgtp_full(random_coeffs(8, rng), random_coeffs(8, rng), 16)
    assert angular._cg_tensor.cache_info().currsize == 9 * 10 // 2


def test_cg_tensors_up_to_degree_16_fit_in_6_1_mb():
    # the dense per-order tensors of the same pairs took 12.1 MB
    total = sum(cg_tensor(j1, j2).nbytes for j2 in range(17) for j1 in range(j2 + 1))
    assert total <= 6.1e6


# ---------------------------------------------------------------- Wigner D

def test_wigner_d_trivial_irrep():
    rng = np.random.default_rng(0)
    for _ in range(5):
        a, b, g = rng.uniform(0, 2 * np.pi, 3)
        np.testing.assert_allclose(wigner_d_matrix(0, a, b, g), [[1.0]], atol=1e-15)


def test_wigner_d_identity_rotation():
    np.testing.assert_allclose(wigner_d_matrix(1, 0, 0, 0), np.eye(3), atol=1e-15)


def test_wigner_d_takes_integer_degrees_only():
    with pytest.raises(ValueError, match="j=1.5 must be an integer"):
        wigner_d_matrix(1.5, 0.1, 0.2, 0.3)
    with pytest.raises(ValueError, match="j=-1 must be non-negative"):
        wigner_d_matrix(-1, 0.1, 0.2, 0.3)
    assert np.array_equal(wigner_d_matrix(np.int64(2), 0.1, 0.2, 0.3),
                          wigner_d_matrix(2, 0.1, 0.2, 0.3))


def test_wigner_d_z_rotation_phases():
    theta = 0.37
    for j in (1, 2, 3):
        m = np.arange(-j, j + 1)
        D = wigner_d_matrix(j, theta, 0, 0)
        np.testing.assert_allclose(D, np.diag(np.exp(-1j * m * theta)), atol=1e-14)


@pytest.mark.parametrize("j", [32, 48, 64])
def test_wigner_d_unitary_high_degree(j):
    rng = np.random.default_rng(j)
    for _ in range(3):
        a, b, g = rng.uniform(0, 2 * np.pi, 3)
        D = wigner_d_matrix(j, a, b, g)
        assert np.abs(D @ D.conj().T - np.eye(2 * j + 1)).max() <= 1e-12, (a, b, g)


def test_wigner_d_composition():
    # D(g1)D(g2) must itself be a rotation matrix: check via group action on
    # z-rotations, D(a,b,g) = D(a,0,0)D(0,b,0)D(0,0,g)
    rng = np.random.default_rng(3)
    for j in (1, 2):
        a, b, g = rng.uniform(0, 2 * np.pi, 3)
        D = wigner_d_matrix(j, a, b, g)
        Dz1 = wigner_d_matrix(j, a, 0, 0)
        Dy = wigner_d_matrix(j, 0, b, 0)
        Dz2 = wigner_d_matrix(j, 0, 0, g)
        np.testing.assert_allclose(D, Dz1 @ Dy @ Dz2, atol=1e-13)


# ---------------------------------------------------------------- 9j

def test_wigner_9j_examples():
    assert wigner_9j(((0, 0, 0), (0, 0, 0), (0, 0, 0))) == SqrtRational(1, Fraction(1))
    assert wigner_9j(((1, 1, 1), (1, 1, 1), (1, 1, 1))).is_zero()
    v = float(wigner_9j(((1, 0, 1), (1, 1, 1), (1, 1, 1))))
    assert v == pytest.approx(wigner_9j_spin1(0, 1, 1, 0, 1, 0), abs=1e-12)


def test_wigner_9j_triangle_zero():
    assert wigner_9j(((0, 0, 1), (1, 1, 1), (1, 1, 1))).is_zero()  # row fails
    assert wigner_9j(((1, 1, 1), (1, 1, 1), (4, 1, 1))).is_zero()  # column fails


def test_wigner_9j_flat_input():
    assert wigner_9j((1, 0, 1, 1, 1, 1, 1, 1, 1)) == wigner_9j(((1, 0, 1), (1, 1, 1), (1, 1, 1)))
    with pytest.raises(ValueError):
        wigner_9j((1, 2, 3))
    with pytest.raises(ValueError):
        wigner_9j(((1, 0, 1), (1, 1, 1), (1, 1, -1)))


def test_wigner_9j_rejects_non_integral_entries():
    # int() would truncate 2.9 and return the 9j of entry 2
    for grid in [((2.9, 2, 1), (1, 1, 0), (2, 2, 1)), (1, 0, 1, 1, 1, 1, 1, 1, 1.0)]:
        with pytest.raises(ValueError):
            wigner_9j(grid)
    grid = np.array([[2, 2, 1], [1, 1, 0], [2, 2, 1]])
    assert wigner_9j(grid) == wigner_9j(grid.tolist()) == SqrtRational(1, Fraction(1, 324))


def test_wigner_9j_zero_column_reduces_to_dimension_factor():
    # {j1 j1 0; j2 j2 0; j3 j3 0} = 1/sqrt((2j1+1)(2j2+1)(2j3+1)) when triangle holds
    for j1, j2, j3 in [(1, 1, 1), (1, 1, 2), (2, 3, 4), (0, 2, 2)]:
        v = wigner_9j(((j1, j1, 0), (j2, j2, 0), (j3, j3, 0)))
        dim = (2 * j1 + 1) * (2 * j2 + 1) * (2 * j3 + 1)
        assert v == SqrtRational(1, Fraction(1, dim)), (j1, j2, j3)


def test_wigner_9j_row_swap_antisymmetry_exact():
    # odd row permutation multiplies by (-1)^S, S = sum of all nine entries
    grids = []
    for j1 in range(3):
        for l1 in range(3):
            for s1 in range(3):
                for j2 in range(3):
                    for l2 in range(3):
                        s2 = (j1 + l1 + s1 + j2 + l2) % 3
                        grids.append(((j1, l1, s1), (j2, l2, s2), (2, 1, 1)))
    for grid in grids:
        v = wigner_9j(grid)
        swapped = wigner_9j((grid[1], grid[0], grid[2]))
        S = sum(sum(row) for row in grid)
        expect = v if S % 2 == 0 else -v
        assert swapped == expect, grid


def _nine_j_by_six_cg(grid) -> SqrtRational:
    """{j1 l1 s1; j2 l2 s2; j3 l3 s3} as the recoupling overlap of six CG coefficients.

    <(j1 l1)s1, (j2 l2)s2; s3 | (j1 j2)j3, (l1 l2)l3; s3> at m_{s3} = s3, divided
    by sqrt((2s1+1)(2s2+1)(2j3+1)(2l3+1)); each of the nine momenta enters two
    CGs with the same m, so every term carries one common surd and the
    ``SqrtRational`` sum is exact.
    """
    (j1, l1, s1), (j2, l2, s2), (j3, l3, s3) = grid
    total = SQRT_ZERO
    for ms1 in range(max(-s1, s3 - s2), min(s1, s3 + s2) + 1):
        ms2 = s3 - ms1
        for mj1 in range(max(-j1, ms1 - l1), min(j1, ms1 + l1) + 1):
            ml1 = ms1 - mj1
            left = cg(s1, ms1, s2, ms2, s3, s3) * cg(j1, mj1, l1, ml1, s1, ms1)
            for mj2 in range(max(-j2, ms2 - l2), min(j2, ms2 + l2) + 1):
                ml2, mj3 = ms2 - mj2, mj1 + mj2
                ml3 = ml1 + ml2
                if abs(mj3) <= j3 and abs(ml3) <= l3:
                    total += (left * cg(j2, mj2, l2, ml2, s2, ms2) * cg(j1, mj1, j2, mj2, j3, mj3)
                              * cg(l1, ml1, l2, ml2, l3, ml3) * cg(j3, mj3, l3, ml3, s3, s3))
    norm = (2 * s1 + 1) * (2 * s2 + 1) * (2 * j3 + 1) * (2 * l3 + 1)
    return total * SqrtRational(1, Fraction(1, norm))


def test_wigner_9j_matches_six_cg_contraction():
    # every grid with entries <= 2, then the spin-1 grids {j l 1} up to degree 6
    # with ascending rows (a row permutation multiplies both sides by the
    # same sign, see test_wigner_9j_row_swap_antisymmetry_exact)
    grids = [(g[0:3], g[3:6], g[6:9]) for g in itertools.product(range(3), repeat=9)]
    for j1, l1, j2, l2, j3, l3 in itertools.product(range(7), repeat=6):
        rows = ((j1, l1, 1), (j2, l2, 1), (j3, l3, 1))
        if (rows[0] <= rows[1] <= rows[2]
                and all(triangle_delta(*tri) for tri in rows + ((j1, j2, j3), (l1, l2, l3)))):
            grids.append(rows)
    for grid in grids:
        assert wigner_9j(grid) == _nine_j_by_six_cg(grid), grid


def test_spin1_table_examples():
    # (0,0,0) cell vanishes identically
    for a, b, c in [(1, 1, 1), (2, 3, 4), (5, 5, 2)]:
        assert wigner_9j_spin1(a, 0, b, 0, c, 0) == 0.0
    # all-raise cell at a=b=c=0: magnitude [4!/(3*3!*3!*3!)]^(1/2) = 1/sqrt(27);
    # the exact 9j fixes the sign as positive
    v = wigner_9j_spin1(0, 1, 0, 1, 0, 1)
    assert v == pytest.approx(1 / math.sqrt(27), abs=1e-15)
    assert float(wigner_9j(((1, 0, 1), (1, 0, 1), (1, 0, 1)))) == pytest.approx(v, abs=1e-15)
    # any row-triangle failure gives zero
    assert wigner_9j_spin1(0, 0, 1, 1, 1, 0) == 0.0


def test_spin1_table_rejects_bad_args():
    with pytest.raises(ValueError):
        wigner_9j_spin1(1, 2, 1, 0, 1, 0)
    with pytest.raises(ValueError):
        wigner_9j_spin1(0, -1, 1, 0, 1, 0)


@pytest.mark.parametrize("entries", [(0.5, 0, 0.5, 0, 0.5, 0), (2.0, 1, 2, 1, 2, 1)])
def test_spin1_table_rejects_non_integral_entries(entries):
    # integer momenta only: a half-integer entry is neither truncated nor read as a zero symbol
    with pytest.raises(ValueError, match="integers"):
        wigner_9j_spin1(*entries)


def test_spin1_canonical_cells_equal_the_exact_9j():
    # each canonical cell's integer prefactor and radicand num / den are the
    # exact symbol; verify's nine_j_table compares only floats, to 1e-12
    checked = 0
    for (o1, o2, o3), cell in angular._SPIN1_TABLE.items():
        for a, b, c in itertools.product(range(7), repeat=3):
            rows = ((a + o1, a, 1), (b + o2, b, 1), (c + o3, c, 1))
            cols = ((a + o1, b + o2, c + o3), (a, b, c))
            if min(a + o1, b + o2, c + o3) < 0 or not all(triangle_delta(*t) for t in rows + cols):
                continue
            pref, num, den = cell(a, b, c, a + b + c)
            assert SqrtRational.from_rational(Fraction(pref), Fraction(num, den)) == wigner_9j(rows), rows
            checked += 1
    assert checked > 500


def test_spin1_table_numpy_entries_match_python_ints():
    # entries become Python ints: the radicand's integer products exceed
    # int64 near degree 130
    for a, b, c in [(2, 3, 4), (130, 129, 128), (128, 130, 129), (129, 129, 130)]:
        for lam, mu, nu in itertools.product((-1, 0, 1), repeat=3):
            args = (a, lam, b, mu, c, nu)
            assert wigner_9j_spin1(*map(np.int64, args)) == wigner_9j_spin1(*args), args


# Golden float values of all 27 spin-1 cells at a high degree, from a table
# with one closed form per cell; folding the cells onto five formulas
# through the 9j symmetries must reproduce them bit for bit.
SPIN1_GOLDEN_40_45_50 = {
    (-1, -1, -1): 0.0004363484595351201,
    (-1, -1, 0): 3.0777647291975e-05,
    (-1, -1, 1): -0.0001076204537765153,
    (-1, 0, -1): -7.9269862835273e-05,
    (-1, 0, 0): 0.0002537671606528812,
    (-1, 0, 1): 0.00022635202626040282,
    (-1, 1, -1): -0.00013972866082632496,
    (-1, 1, 0): -0.0002754856317760006,
    (-1, 1, 1): -0.00017743890780450266,
    (0, -1, -1): 4.844280367053423e-05,
    (0, -1, 0): 0.0002854653908432948,
    (0, -1, 1): -0.0001961174151505043,
    (0, 0, -1): 0.0003176428624109685,
    (0, 0, 0): 0.0,
    (0, 0, 1): 0.00031753902042397445,
    (0, 1, -1): 0.00019791627735406386,
    (0, 1, 0): 0.00028683207739874523,
    (0, 1, 1): -4.7865846590048075e-05,
    (1, -1, -1): -0.00017149498805451544,
    (1, -1, 0): 0.00027654937569125855,
    (1, -1, 1): -0.00014627114650179475,
    (1, 0, -1): -0.00022931025079097892,
    (1, 0, 0): 0.00025564652893564604,
    (1, 0, 1): 7.862819581609291e-05,
    (1, 1, -1): -0.00011545382306886536,
    (1, 1, 0): -3.080852988957148e-05,
    (1, 1, 1): 0.0004223250364533277,
}


def test_spin1_table_golden_high_degree():
    for (lam, mu, nu), want in SPIN1_GOLDEN_40_45_50.items():
        assert wigner_9j_spin1(40, lam, 45, mu, 50, nu) == want, (lam, mu, nu)
    # the cells the CGTP path coefficient reads for j = (65, 65, 66) and
    # (60, 70, 130), whose valid ells are (65, 66, 65) and (60, 71, 129)
    assert wigner_9j_spin1(65, 0, 66, -1, 65, 1) == -0.00013408939659585433
    assert wigner_9j_spin1(60, 0, 71, -1, 129, 1) == -2.9375667849132708e-06
