"""Tests for tensor product operations."""

import copy
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from so3tp import angular, exact, rules, sht, tenprod, tsh
from so3tp.flops import FlopCounter
from so3tp.exact import gaunt_coefficient, generalized_gaunt
from so3tp.rules import PathKey, find_valid_ells
from so3tp.sht import IrrepCoeffs, make_grid, random_block, random_coeffs
from so3tp.tenprod import (
    cgtp_full,
    cgtp_path,
    gtp,
    istp,
    pair_macs,
    pointwise_spin_tp,
    simulate_cgtp_path,
    vstp,
)
from so3tp.tsh import SpinSignal, TshCoeffs, random_tsh_coeffs
from so3tp.verify import _cg_contract


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
        expect = _cg_contract(u, v, j3)
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
        assert fl.count == brute == pair_macs("sparse", j1, j2, j3, j3)


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
                macs += pair_macs("sparse", j1, j2, j3, j3)
    assert set(res.output.blocks) == set(expect)
    for key, z in expect.items():
        np.testing.assert_allclose(res.output.blocks[key], z, rtol=0, atol=1e-13)
    assert res.flops == macs


def test_cgtp_full_sparse_matches_exact_cg(rng):
    # swapped pairs (j1 > j2), truncated j3 ranges (L3 < j1 + j2) and j1 = 0,
    # against the exact-CG oracle rather than cgtp_path, which shares the kernel
    x = IrrepCoeffs(L=7, blocks={(j, None): random_block(j, rng) for j in (0, 2, 5, 7)})
    y = IrrepCoeffs(L=4, blocks={(j, None): random_block(j, rng) for j in (1, 3, 4)})
    L3 = 6
    res = cgtp_full(x, y, L3, mode="sparse")
    paths = [(j1, j2, j3) for j1 in (0, 2, 5, 7) for j2 in (1, 3, 4)
             for j3 in range(abs(j1 - j2), min(j1 + j2, L3) + 1)]
    assert set(res.output.blocks) == {(j3, (j1, j2)) for j1, j2, j3 in paths}
    for j1, j2, j3 in paths:
        expect = _cg_contract(x.block(j1), y.block(j2), j3)
        np.testing.assert_allclose(res.output.block(j3, tag=(j1, j2)), expect, rtol=0, atol=1e-13)
    assert res.flops == sum(pair_macs("sparse", j1, j2, j3, j3) for j1, j2, j3 in paths)


def test_cgtp_full_visits_each_unordered_pair_once(monkeypatch, rng):
    # one tensor lookup per unordered pair serves both orders: 45 at L = 8, not 81
    fetches = []

    def counting_cg_tensors(pairs):
        fetches.append(list(pairs))
        return angular._cg_tensors(pairs)

    # the sparse kernel fetches the call's tensors in one batch; its plan checked the range
    monkeypatch.setattr(tenprod, "_cg_tensors", counting_cg_tensors)
    x, y = random_coeffs(8, rng), random_coeffs(8, rng)
    first = cgtp_full(x, y, 16)
    assert len(fetches) == 1 and len(fetches[0]) == len(set(fetches[0])) == 9 * 10 // 2
    misses = tenprod._call_plan.cache_info().misses
    second = cgtp_full(x, y, 16)
    assert tenprod._call_plan.cache_info().misses == misses
    assert fetches == [fetches[0]] * 2
    for key, z in first.output.blocks.items():
        assert np.array_equal(second.output.blocks[key], z)


def test_cold_cgtp_full_builds_its_tensors_in_one_pass_per_first_degree(cg_passes, rng):
    # every pair (a, b) of one first degree a in one recurrence pass
    tenprod._call_plan.cache_clear()
    cgtp_full(random_coeffs(8, rng), random_coeffs(8, rng), 16)
    assert cg_passes == [(a, list(range(a, 9))) for a in range(9)]
    assert angular._cg_tensor.cache_info().misses == 45


def _ordered_pair_naive_blocks(xs: dict, ys: dict, L3: int) -> dict:
    """Naive blocks from a loop over ordered pairs: one dense CG matrix product per path."""
    blocks = {}
    for j1, x in sorted(xs.items()):
        for j2, y in sorted(ys.items()):
            outer = np.multiply.outer(x, y).ravel()
            i1, i2 = np.indices((x.size, y.size))
            for j3 in range(abs(j1 - j2), min(j1 + j2, L3) + 1):
                K = 2 * j3 + 1
                i3 = i1 + i2 - j1 - j2 + j3
                valid = (i3 >= 0) & (i3 < K)
                dense = np.zeros((x.size, y.size, K))
                dense[i1[valid], i2[valid], i3[valid]] = angular.cg_block(j1, j2, j3)[valid]
                flat = dense.reshape(x.size * y.size, K).T
                blocks[(j3, (j1, j2))] = flat @ outer.real + 1j * (flat @ outer.imag)
    return blocks


@pytest.mark.parametrize("L3", [9, 3])
def test_cgtp_full_partially_overlapping_degrees(L3, rng):
    # pairs held in both orders, in one order only, and truncated by L3
    x = IrrepCoeffs(L=7, blocks={(j, None): random_block(j, rng) for j in (0, 1, 3, 4, 7)})
    y = IrrepCoeffs(L=6, blocks={(j, None): random_block(j, rng) for j in (1, 2, 4, 6)})
    paths = [(j1, j2, j3) for j1 in (0, 1, 3, 4, 7) for j2 in (1, 2, 4, 6)
             for j3 in range(abs(j1 - j2), min(j1 + j2, L3) + 1)]
    ordered = _ordered_pair_naive_blocks(x.single_per_degree(), y.single_per_degree(), L3)
    for mode in ("naive", "sparse"):
        res = cgtp_full(x, y, L3, mode=mode)
        assert set(res.output.blocks) == {(j3, (j1, j2)) for j1, j2, j3 in paths}
        for j1, j2, j3 in paths:
            got = res.output.block(j3, tag=(j1, j2))
            expect = _cg_contract(x.block(j1), y.block(j2), j3)
            np.testing.assert_allclose(got, expect, rtol=0, atol=1e-13)
            if mode == "naive":
                assert np.array_equal(got, ordered[(j3, (j1, j2))]), (j1, j2, j3)
        assert res.flops == sum(pair_macs(mode, j1, j2, j3, j3) for j1, j2, j3 in paths)


@st.composite
def _degree_sets(draw):
    """(L, x degrees, y degrees, L3) with L <= 8 and L3 = 0..2L; either set may be empty."""
    L = draw(st.integers(0, 8))
    degrees = st.frozensets(st.integers(0, L))
    return L, draw(degrees), draw(degrees), draw(st.integers(0, 2 * L))


@settings(max_examples=30, deadline=None)
@given(case=_degree_sets(), seed=st.integers(0, 2 ** 32 - 1))
@example(case=(3, frozenset(), frozenset({0, 2, 3}), 4), seed=1)  # x empty
@example(case=(4, frozenset({1, 4}), frozenset(), 2), seed=2)  # y empty
@example(case=(6, frozenset({0, 2, 5}), frozenset({1, 3, 6}), 12), seed=3)  # disjoint
@example(case=(8, frozenset({0, 3, 4, 8}), frozenset({3, 5, 8}), 0), seed=4)  # partial overlap
def test_call_plan_over_random_degree_subsets(case, seed):
    # the invariants IrrepCoeffs' per-block check enforced, which cgtp_full skips
    L, xdeg, ydeg, L3 = case
    rng = np.random.default_rng(seed)
    x = IrrepCoeffs(L=L, blocks={(j, None): random_block(j, rng) for j in sorted(xdeg)})
    y = IrrepCoeffs(L=L, blocks={(j, None): random_block(j, rng) for j in sorted(ydeg)})
    paths = [(j1, j2, j3) for j1 in sorted(xdeg) for j2 in sorted(ydeg)
             for j3 in range(abs(j1 - j2), min(j1 + j2, L3) + 1)]
    ordered = _ordered_pair_naive_blocks(x.single_per_degree(), y.single_per_degree(), L3)
    for mode in ("naive", "sparse"):
        res = cgtp_full(x, y, L3, mode=mode)
        out = res.output
        assert out.L == L3 and set(out.blocks) == {(j3, (j1, j2)) for j1, j2, j3 in paths}
        assert res.flops == sum(pair_macs(mode, j1, j2, j3, j3) for j1, j2, j3 in paths)
        views = [z.base for z in out.blocks.values()]
        assert all(v is not None and v is views[0] for v in views)
        for (j3, (j1, j2)), z in out.blocks.items():
            assert type(z) is np.ndarray and z.dtype == complex and z.shape == (2 * j3 + 1,)
            assert j3 <= L3
            if mode == "naive":
                assert np.array_equal(z, ordered[(j3, (j1, j2))]), (j1, j2, j3)
            else:
                expect = _cg_contract(x.block(j1), y.block(j2), j3)
                np.testing.assert_allclose(z, expect, rtol=0, atol=1e-13)


def test_cgtp_path_loops_evict_no_call_plan(rng):
    # cgtp_path keeps its one-pair plans in a cache of their own
    x, y = random_coeffs(4, rng), random_coeffs(4, rng)
    cgtp_full(x, y, 8)
    misses = tenprod._call_plan.cache_info().misses
    paths = [(j1, j2, j3) for j1 in range(13) for j2 in range(13)
             for j3 in range(abs(j1 - j2), j1 + j2 + 1)]
    assert len(paths) > tenprod._path_plan.cache_info().maxsize
    for j1, j2, j3 in paths:
        cgtp_path(random_block(j1, rng), random_block(j2, rng), j3)
    cgtp_full(x, y, 8)
    assert tenprod._call_plan.cache_info().misses == misses


def test_cgtp_full_warm_peak_memory(rng):
    # at the cgtp_coeff shape the packed output alone is 1.34 MB, and the
    # outer product of the packed inputs 1.35 MB
    x, y = random_coeffs(16, rng), random_coeffs(16, rng)
    cgtp_full(x, y, 32)
    tracemalloc.start()
    try:
        cgtp_full(x, y, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4_000_000


def _live_allocations(call):
    """call()'s result and the number of its allocations still live when it returns."""
    tracemalloc.start()
    try:
        result = call()
        live = sum(stat.count for stat in tracemalloc.take_snapshot().statistics("filename"))
    finally:
        tracemalloc.stop()
    return result, live


def test_cgtp_full_warm_call_builds_no_block_arrays(rng, pending_blocks):
    # the output holds one packed array and the plan's own span map until
    # its first read, so a warm call leaves far fewer live allocations than
    # it has blocks
    x, y = random_coeffs(16, rng), random_coeffs(16, rng)
    cgtp_full(x, y, 32)
    out, live = _live_allocations(lambda: cgtp_full(x, y, 32).output)
    assert pending_blocks(out).spans is tenprod._call_plan(tuple(range(17)), tuple(range(17)), 32).spans
    assert len(out.blocks) == 3281 and live < len(out.blocks) / 10


def test_warm_grid_product_builds_no_block_views(rng, pending_blocks):
    # grid_mimo's op: spin-1 vstp at L = 32 on make_grid(64), decoded at L3 = 64
    x, y, g = random_tsh_coeffs(1, 32, rng), random_tsh_coeffs(1, 32, rng), make_grid(64)
    vstp(x, y, 64, g)
    out, live = _live_allocations(lambda: vstp(x, y, 64, g).output)
    assert pending_blocks(out).spans is tsh._decode_layout(1, 64)[1]
    assert len(out.blocks) == 193 and live < len(out.blocks)


@pytest.mark.parametrize("mode", ["sparse", "naive"])
def test_cgtp_full_output_is_a_map_over_one_packed_array(mode, rng, packed_output_contract,
                                                        pending_blocks):
    # MIMO, a partial overlap of degrees, and an empty side
    for L, xdeg, ydeg, L3 in [(3, range(4), range(4), 6), (4, (0, 2, 4), (1, 4), 5),
                              (2, (), range(3), 4)]:
        x = IrrepCoeffs(L=L, blocks={(j, None): random_block(j, rng) for j in xdeg})
        y = IrrepCoeffs(L=L, blocks={(j, None): random_block(j, rng) for j in ydeg})
        out, other = (cgtp_full(x, y, L3, mode=mode).output for _ in range(2))
        xs, ys = x.single_per_degree(), y.single_per_degree()
        plan = tenprod._call_plan(tuple(xs), tuple(ys), L3)
        xv, yv = (np.concatenate([*side.values(), np.zeros(0, complex)]) for side in (xs, ys))
        packed = tenprod._KERNELS[mode](plan, xv, yv)
        expect = {key: packed[start:end] for key, (start, end) in plan.spans.items()}
        (out_packed, spans), other_packed = pending_blocks(out), pending_blocks(other).packed
        assert spans is plan.spans and other_packed is not out_packed
        packed_output_contract(out, out_packed, expect, other, shared=(plan.spans,))


def test_grid_product_outputs_are_maps_over_one_packed_array(rng, packed_output_contract,
                                                            pending_blocks):
    g = make_grid(6)
    x, y = random_tsh_coeffs(1, 3, rng), random_tsh_coeffs(1, 3, rng)
    out, other = (vstp(x, y, 5, g).output for _ in range(2))
    packed = tsh._decode(pointwise_spin_tp(tsh.tsh_encode(x, g), tsh.tsh_encode(y, g), 1), 5, None)
    spans = tsh._decode_layout(1, 5)[1]
    expect = {key: packed[start:end] for key, (start, end) in spans.items()}
    assert pending_blocks(out).spans is spans
    packed_output_contract(out, pending_blocks(out).packed, expect, other, shared=(spans,))
    # gtp reads the spin-0 decode into a dict of its views, keyed (j, None)
    a, b = random_coeffs(3, rng), random_coeffs(3, rng)
    out, other = (gtp(a, b, 5, g).output for _ in range(2))
    packed = tsh._decode(pointwise_spin_tp(tsh.to_sphere(a, g), tsh.to_sphere(b, g), 0), 5, None)
    spans = tsh._decode_layout(0, 5)[1]
    expect = {(j, None): packed[start:end] for (j, _l), (start, end) in spans.items()}
    assert type(out.blocks) is dict
    packed_output_contract(out, out.block(0).base, expect, other, shared=(spans,))


def test_a_shallow_copy_of_a_packed_output_keeps_its_writes_apart(rng, pending_blocks):
    # a copy of an unread output reads a dict of its own over the same packed
    # array: writes to each side, the first while the other is still unread,
    # match the same writes to a dict of the packed array's views
    x, y = random_coeffs(3, rng), random_coeffs(3, rng)
    for twin_first in (False, True):
        out = cgtp_full(x, y, 6).output
        twin = copy.copy(out)
        packed, spans = pending = pending_blocks(out)
        assert pending_blocks(twin) is pending
        keys, sides = list(spans), [twin, out] if twin_first else [out, twin]
        for n, side in enumerate(sides):
            side.blocks[keys[n + 1]] = np.full(1, n + 1.0)
            del side.blocks[keys[n + 3]]
            if n == 0:
                assert pending_blocks(sides[1]) is pending
        for n, side in enumerate(sides):
            side.blocks[keys[n + 5]] = np.full(1, n + 5.0)
        for n, side in enumerate(sides):
            model = {key: packed[start:end] for key, (start, end) in spans.items()}
            model[keys[n + 1]] = np.full(1, n + 1.0)
            del model[keys[n + 3]]
            model[keys[n + 5]] = np.full(1, n + 5.0)
            assert list(side.blocks) == list(model)
            assert all(side.blocks[key].tobytes() == vec.tobytes() for key, vec in model.items())
        # the views of both sides still reach the one packed array
        twin.blocks[keys[-1]][0] = 9j
        assert out.blocks is not twin.blocks and out.blocks[keys[-1]][0] == 9j


@pytest.mark.parametrize("mode", ["sparse", "naive"])
def test_cgtp_path_hands_the_callers_vectors_to_the_kernel(mode, rng, monkeypatch):
    kernel, seen = tenprod._KERNELS[mode], []

    def recording_kernel(plan, xv, yv):
        seen.append((xv, yv))
        return kernel(plan, xv, yv)

    monkeypatch.setitem(tenprod._KERNELS, mode, recording_kernel)
    x, y = random_block(2, rng), random_block(3, rng)
    z = cgtp_path(x, y, 4, mode=mode)
    assert len(seen) == 1 and seen[0][0] is x and seen[0][1] is y
    assert z.tobytes() == kernel(tenprod._path_plan(2, 3, 4), x, y).tobytes()


def _plan_index_bytes(xdeg, ydeg, lo3: int, L3: int) -> int:
    """Bytes of a plan's np.intp indices, summed over the ordered pairs (j1, j2) with a path.

    With a = min(j1, j2), lo = max(|j1 - j2|, lo3) and hi = min(j1 + j2, L3),
    a pair's order gathers 2 (hi + 1)(2a + 1) entries and scatters one per
    output slot, (hi + 1)^2 - lo^2 of them.
    """
    entries = 0
    for j1 in xdeg:
        for j2 in ydeg:
            lo, hi = max(abs(j1 - j2), lo3), min(j1 + j2, L3)
            if lo <= hi:
                entries += 2 * (hi + 1) * (2 * min(j1, j2) + 1) + (hi + 1) ** 2 - lo ** 2
    return 8 * entries


def _index_bytes(plan) -> int:
    arrays = [array for pair in plan.pairs for array in pair[7:]]
    assert all(array.dtype == np.intp for array in arrays)
    return sum(array.nbytes for array in arrays)


def test_plan_indices_are_native_width_with_closed_form_bytes():
    # take reads np.intp indices without converting them; the cost is twice
    # the bytes of int32 ones, 1.78 MB for the MIMO L = 16 -> 32 plan
    for L in range(9):
        degrees = tuple(range(L + 1))
        for L3 in sorted({L, 2 * L}):
            plan = tenprod._call_plan(degrees, degrees, L3)
            assert _index_bytes(plan) == _plan_index_bytes(degrees, degrees, 0, L3), (L, L3)
    for j1 in range(6):
        for j2 in range(6):
            for j3 in range(abs(j1 - j2), j1 + j2 + 1):
                plan = tenprod._path_plan(j1, j2, j3)
                assert _index_bytes(plan) == _plan_index_bytes((j1,), (j2,), j3, j3)
    degrees = tuple(range(17))
    nbytes = _index_bytes(tenprod._call_plan(degrees, degrees, 32))
    assert nbytes == _plan_index_bytes(degrees, degrees, 0, 32) == 1_782_552


def test_pair_macs_matches_brute_force_counts():
    # naive visits every (m1, m2, m3) triple of a path, sparse every (m1, m2)
    # with |m1 + m2| <= j3; pair_macs sums either over any j3 range of a pair
    for j1 in range(7):
        for j2 in range(7):
            ms1, ms2 = range(-j1, j1 + 1), range(-j2, j2 + 1)
            brute = {
                "naive": [sum(1 for _m1 in ms1 for _m2 in ms2 for _m3 in range(-j3, j3 + 1))
                          for j3 in range(j1 + j2 + 1)],
                "sparse": [sum(1 for m1 in ms1 for m2 in ms2 if abs(m1 + m2) <= j3)
                           for j3 in range(j1 + j2 + 1)],
            }
            for mode, counts in brute.items():
                for lo in range(abs(j1 - j2), j1 + j2 + 1):
                    for hi in range(lo, j1 + j2 + 1):
                        expect = sum(counts[lo:hi + 1])
                        assert pair_macs(mode, j1, j2, lo, hi) == expect, (mode, j1, j2, lo, hi)


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
    # the (0, 0, 0) path multiplies scalars and must check them itself
    for a, b in [(u[:1], v[:1]), (v[:1], u[:1])]:
        for product in (cgtp_path, simulate_cgtp_path):
            with pytest.raises(ValueError, match="inputs must be finite, got NaN or inf"):
                product(a, b, 0)


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
    # one check reads every block of both inputs: the first x block, the
    # last y block, and a degree only x holds, whose paths all pass L3 = 1;
    # an input with no blocks on the other side checks it all the same
    empty = IrrepCoeffs(L=3)
    for side, j, L3 in [("x", 0, 6), ("y", 3, 6), ("x", 5, 1)]:
        x, y = random_coeffs(5, rng), random_coeffs(3, rng)
        held = x if side == "x" else y
        held.block(j)[-1] = bad
        for mode in ("naive", "sparse"):
            for a, b in [(x, y), (held, empty), (empty, held)]:
                with pytest.raises(ValueError, match="inputs must be finite, got NaN or inf"):
                    cgtp_full(a, b, L3, mode=mode)
    # and with finite blocks, an input with none gives an empty output
    y = random_coeffs(3, rng)
    for mode in ("naive", "sparse"):
        for a, b in [(empty, y), (y, empty), (empty, empty)]:
            res = cgtp_full(a, b, 6, mode=mode)
            assert res.output.blocks == {} and res.output.L == 6 and res.flops == 0


@pytest.mark.parametrize("bad", _NON_FINITE)
def test_grid_products_reject_non_finite(bad, rng):
    g = make_grid(6)
    x, y = random_tsh_coeffs(1, 3, rng), random_tsh_coeffs(1, 3, rng)
    x.block(2, 3)[1] = bad
    a, b = random_coeffs(3, rng), random_coeffs(3, rng)
    a.block(2)[1] = bad
    for call in (lambda: vstp(x, y, 6, g), lambda: vstp(y, x, 6, g),
                 lambda: istp(x, random_tsh_coeffs(2, 3, rng), 2, 6, g),
                 lambda: gtp(a, b, 6, g), lambda: gtp(b, a, 6, g)):
        with pytest.raises(ValueError, match="inputs must be finite, got NaN or inf"):
            call()


def test_cgtp_full_rejects_degrees_past_float_cg_range(rng):
    x = IrrepCoeffs(L=66, blocks={(66, None): random_block(66, rng)})
    y = IrrepCoeffs(L=65, blocks={(65, None): random_block(65, rng)})
    for mode in ("naive", "sparse"):
        with pytest.raises(ValueError, match="float CG range"):
            cgtp_full(x, y, 1, mode=mode)


def test_products_take_integer_band_limits_only(rng):
    x, y = random_coeffs(2, rng), random_coeffs(2, rng)
    xv, yv = random_tsh_coeffs(1, 2, rng), random_tsh_coeffs(1, 2, rng)
    g = make_grid(4)
    for call, bad in [(lambda: cgtp_full(x, y, 2.0), "2.0"), (lambda: vstp(xv, yv, 4.0, g), "4.0")]:
        with pytest.raises(ValueError, match=f"band limit L={bad} must be an integer"):
            call()
    assert cgtp_full(x, y, np.int64(2)).output.L == 2
    assert vstp(xv, yv, np.int64(4), g).output.L == 4


# ---------------------------------------------------------------- pointwise

def test_pointwise_scalar_is_multiplication(rng):
    g = make_grid(2)
    shape = (g.n_theta, g.n_phi, 1)
    f = SpinSignal(0, g, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    h = SpinSignal(0, g, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    p = pointwise_spin_tp(f, h, 0)
    np.testing.assert_allclose(p.values, f.values * h.values, atol=1e-15)


def test_pointwise_samples_are_phi_major(rng):
    g = make_grid(4)
    f = tsh.tsh_encode(random_tsh_coeffs(1, 2, rng), g)
    h = tsh.tsh_encode(random_tsh_coeffs(2, 2, rng), g)
    for s3 in (1, 2, 3):
        values = pointwise_spin_tp(f, h, s3).values
        assert values.shape == (g.n_theta, g.n_phi, 2 * s3 + 1)
        assert values.transpose(1, 0, 2).flags.c_contiguous


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


def test_pointwise_names_a_non_integer_spin(rng):
    # a cached integer call must not let 1.0 through to the terms
    g = make_grid(2)
    f = SpinSignal(1, g, rng.standard_normal((g.n_theta, g.n_phi, 3)) + 0j)
    pointwise_spin_tp(f, f, 1)
    for bad in (1.0, 1.5):
        with pytest.raises(ValueError, match=f"s3={bad} must be an integer"):
            pointwise_spin_tp(f, f, bad)
    tenprod._pointwise_terms.cache_clear()
    with pytest.raises(ValueError, match="s3=1.0 must be an integer"):
        pointwise_spin_tp(f, f, 1.0)


def test_pointwise_terms_mark_each_component_once():
    # the first term of each output component is written, the rest added
    for spins in [(0, 0, 0), (1, 1, 0), (1, 1, 1), (1, 1, 2), (2, 1, 1), (2, 2, 2), (3, 2, 4)]:
        seen = set()
        for _i1, _i2, i3, _coef, first in tenprod._pointwise_terms(*spins):
            assert first == (i3 not in seen), spins
            seen.add(i3)
        assert seen == set(range(2 * spins[2] + 1)), spins


# ---------------------------------------------------------------- istp / gtp / vstp

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


@pytest.mark.parametrize("s3, L3, message", [
    (1, -1, "band limit L=-1 must be non-negative"),
    (3, 2, r"spins \(1, 1, 3\) violate the triangle condition"),
], ids=["negative_L3", "spin_triangle"])
def test_istp_checks_arguments_before_encoding(rng, monkeypatch, s3, L3, message):
    encodes = []

    def counting_encode(*args, **kwargs):
        encodes.append(args)
        return tsh._encode(*args, **kwargs)

    monkeypatch.setattr(tenprod, "_encode", counting_encode)
    X = random_tsh_coeffs(1, 1, rng)
    with pytest.raises(ValueError, match=message):
        istp(X, X, s3, L3, make_grid(2))
    assert encodes == []


def test_gtp_odd_single_path_vanishes(rng):
    # verify's gtp_exclusion checks the exact coefficient; this checks the grid output
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
        expect = coef * _cg_contract(u, v, j3) if j3 <= 2 else 0.0
        assert np.abs(z - expect).max() <= 1e-11, (j3, l3)


def test_grid_products_do_no_exact_arithmetic(rng):
    # coupling tables and pointwise weights come from float CG blocks; a
    # cold product at a band limit no other test uses must not evaluate
    # a single exact Clebsch-Gordan coefficient
    angular._cg_tensor.cache_clear()
    tsh._encode_table.cache_clear()
    tsh._decode_layout.cache_clear()
    tenprod._pointwise_terms.cache_clear()
    x, y = random_tsh_coeffs(1, 9, rng), random_tsh_coeffs(1, 9, rng)
    g = make_grid(18)
    misses = exact.cg.cache_info().misses
    res = vstp(x, y, 18, g)
    assert exact.cg.cache_info().misses == misses
    assert res.flops > 0
    for s1, s2, s3 in [(1, 1, 1), (1, 1, 2), (2, 1, 3), (2, 2, 0)]:
        shape = (g.n_theta, g.n_phi)
        f = SpinSignal(s1, g, rng.standard_normal(shape + (2 * s1 + 1,)) + 0j)
        h = SpinSignal(s2, g, rng.standard_normal(shape + (2 * s2 + 1,)) + 0j)
        pointwise_spin_tp(f, h, s3)
    assert exact.cg.cache_info().misses == misses


# ---------------------------------------------------------------- simulation

def test_simulate_scalar_path():
    np.testing.assert_allclose(simulate_cgtp_path(np.array([2.0 + 0j]), np.array([3.0 + 0j]), 0),
                               [6.0])


def test_simulate_triangle_error(rng):
    with pytest.raises(ValueError):
        simulate_cgtp_path(random_block(1, rng), random_block(1, rng), 3)


def test_simulate_cross_product_path(rng):
    # the (1,1,1) path: antisymmetric, invisible to the scalar product
    u, v = random_block(1, rng), random_block(1, rng)
    sim = simulate_cgtp_path(u, v, 1)
    ref = _cg_contract(u, v, 1)
    np.testing.assert_allclose(sim, ref, atol=1e-10)
    assert np.abs(ref).max() > 1e-3  # the path actually carries signal


def triangle_paths(J):
    """Every triangle-valid (j1, j2, j3) with all degrees <= J."""
    return [(j1, j2, j3) for j1 in range(J + 1) for j2 in range(J + 1)
            for j3 in range(abs(j1 - j2), min(j1 + j2, J) + 1)]


def test_simulation_coefficient_matches_exact_gaunt():
    # the closed-form float divisor against the exact coefficient
    for j1, j2, j3 in triangle_paths(10):
        if (j1, j2, j3) == (0, 0, 0):
            continue
        l1, l2, l3 = find_valid_ells(j1, j2, j3)
        exact = generalized_gaunt(PathKey(j1, l1, 1, j2, l2, 1, j3, l3, 1))
        coef = rules._path_coefficient(j1, l1, j2, l2, j3, l3)
        assert abs(coef - exact) <= 1e-14 * abs(exact), (j1, j2, j3)


def test_simulation_does_no_9j_contraction(rng):
    # cold calls, including orbital degrees past the float CG block range
    # ((65,65,66) -> l = (65,66,65); (60,70,130) -> (60,71,129)), must not
    # evaluate a single exact 9j symbol
    rules._path_coefficient.cache_clear()
    nine = exact._wigner_9j_cached.cache_info().misses
    gaunt = exact.generalized_gaunt_exact.cache_info().misses
    for j1, j2, j3 in [(1, 1, 1), (2, 3, 4), (65, 65, 66), (60, 70, 130)]:
        u, v = random_block(j1, rng), random_block(j2, rng)
        ref = cgtp_path(u, v, j3)
        err = np.abs(simulate_cgtp_path(u, v, j3) - ref).max() / np.abs(ref).max()
        assert err <= 1e-10, (j1, j2, j3, err)
    assert exact._wigner_9j_cached.cache_info().misses == nine
    assert exact.generalized_gaunt_exact.cache_info().misses == gaunt


def test_simulation_sweep_reuses_grid_tables(rng, monkeypatch):
    # each grid builds one table of each kind and serves every band from
    # it: a second sweep over the benchmark's 671 paths builds none
    paths = triangle_paths(10)
    tables = ("legendre", "analysis_weights", "trig")
    builds = []
    for name in tables:
        table = vars(sht.SphereGrid)[name]
        monkeypatch.setattr(table, "func",
                            lambda grid, build=table.func: builds.append(grid) or build(grid))

    def sweep():
        for j1, j2, j3 in paths:
            simulate_cgtp_path(random_block(j1, rng), random_block(j2, rng), j3)
        return len(builds)

    make_grid.cache_clear()
    built = sweep()
    grids = len({sum(find_valid_ells(*p)[:2]) for p in paths if p != (0, 0, 0)})
    assert 0 < built <= len(tables) * grids
    assert sweep() == built


def test_simulation_equals_the_container_route_bitwise(rng):
    # the packed route against vstp on single-block TshCoeffs, then the
    # (j3, l3) block divided by the path coefficient: same bits, same MACs
    for j1, j2, j3 in triangle_paths(10):
        if (j1, j2, j3) == (0, 0, 0):
            continue
        x, y = random_block(j1, rng), random_block(j2, rng)
        l1, l2, l3 = find_valid_ells(j1, j2, j3)
        res = vstp(TshCoeffs(s=1, L=l1, blocks={(j1, l1): x}),
                   TshCoeffs(s=1, L=l2, blocks={(j2, l2): y}), l3, make_grid(l1 + l2))
        ref = res.output.block(j3, l3) / rules._path_coefficient(j1, l1, j2, l2, j3, l3)
        fl = FlopCounter()
        assert np.array_equal(simulate_cgtp_path(x, y, j3, flops=fl), ref), (j1, j2, j3)
        assert fl.count == res.flops, (j1, j2, j3)


def test_simulation_builds_no_tsh_container(rng, monkeypatch):
    built = []
    post_init, trusted = TshCoeffs.__post_init__, tsh._trusted
    monkeypatch.setattr(TshCoeffs, "__post_init__",
                        lambda self: built.append("checked") or post_init(self))
    monkeypatch.setattr(tsh, "_trusted", lambda cls, **fields: (
        cls is TshCoeffs and built.append("trusted")) or trusted(cls, **fields))
    for j1, j2, j3 in [(0, 1, 1), (1, 1, 1), (2, 3, 4), (5, 5, 0)]:
        simulate_cgtp_path(random_block(j1, rng), random_block(j2, rng), j3)
    assert tenprod.simulate_cgtp_all_paths(3) > 0
    assert built == []
    # the counters see the container route: two checked inputs, one trusted output
    X = TshCoeffs(s=1, L=1, blocks={(1, 1): random_block(1, rng)})
    vstp(X, X, 2, make_grid(2))
    assert built == ["checked", "trusted"]


@pytest.mark.parametrize("bad", _NON_FINITE)
def test_simulation_rejects_non_finite_before_any_grid(bad, rng, monkeypatch):
    grids = []
    monkeypatch.setattr(tenprod, "make_grid", lambda Lg: grids.append(Lg) or make_grid(Lg))
    u, v = random_block(2, rng), random_block(3, rng)
    u[1] = bad
    for a, b in [(u, v), (v, u)]:
        with pytest.raises(ValueError, match="inputs must be finite, got NaN or inf"):
            simulate_cgtp_path(a, b, 4)
    assert grids == []
    simulate_cgtp_path(v, v, 4)
    assert grids == [sum(find_valid_ells(3, 3, 4)[:2])]


@pytest.mark.parametrize("product", [cgtp_path, simulate_cgtp_path])
@pytest.mark.parametrize("bad", [2.0, 2.5])
def test_path_products_name_a_non_integer_j3(product, bad, rng):
    # checked before any plan, label or coefficient cache is read, so a
    # warm call with j3 = 2 must not let 2.0 through
    x, y = random_block(1, rng), random_block(2, rng)
    with pytest.raises(ValueError, match=f"j3={bad} must be an integer"):
        product(x, y, bad)
    product(x, y, 2)
    with pytest.raises(ValueError, match=f"j3={bad} must be an integer"):
        product(x, y, bad)


def test_simulation_mac_count_pinned(rng):
    # one cycle over every path with j <= 10 spends the benchmark's pinned count
    fl = FlopCounter()
    for j1, j2, j3 in triangle_paths(10):
        simulate_cgtp_path(random_block(j1, rng), random_block(j2, rng), j3, flops=fl)
    assert fl.count == 36_442_041


def test_grid_mimo_mac_count_pinned(rng):
    # spin-1 vstp, MIMO L = 32 on make_grid(64), decoded at L3 = 64: the
    # benchmark's pinned count, whatever the transforms skip of the padding
    x, y = random_tsh_coeffs(1, 32, rng), random_tsh_coeffs(1, 32, rng)
    assert vstp(x, y, 64, make_grid(64)).flops == 7_879_010
