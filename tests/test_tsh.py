"""Tests for tensor spherical harmonics and spin-signal transforms."""

import dataclasses
import math

import numpy as np
import pytest

from so3tp import angular, serialize, sht, tsh
from so3tp.angular import CG_BLOCK_MAX, cg_block, wigner_d_matrix
from so3tp.exact import cg_float
from so3tp.flops import FlopCounter
from so3tp.tenprod import cgtp_full
from so3tp.sht import IrrepCoeffs, make_grid, random_block, random_coeffs, rotate_coeffs, sh_eval
from so3tp.tsh import (
    SpinSignal,
    TshCoeffs,
    from_sphere,
    random_tsh_coeffs,
    scalar_from_spin0,
    spin0_from_scalar,
    tsh_decode,
    tsh_encode,
    tsh_eval,
    tsh_evaluate,
    valid_pairs,
)
from so3tp.verify import rotated_node_angles


def test_valid_pairs_small():
    assert valid_pairs(0, 2) == [(0, 0), (1, 1), (2, 2)]
    assert valid_pairs(1, 1) == [(0, 1), (1, 0), (1, 1), (2, 1)]


def test_valid_pairs_names_a_non_integer_argument():
    with pytest.raises(ValueError, match=r"spin s=0\.5 must be an integer"):
        valid_pairs(0.5, 1)
    with pytest.raises(ValueError, match=r"band limit L=-1 must be non-negative"):
        valid_pairs(1, -1)


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


@pytest.mark.parametrize("args, name", [
    ((2.0, 1, 2, 1), "j"), ((2, 1.0, 2, 1), "m_j"), ((2, 1, 2.0, 1), "l"), ((2, 1, 2, 1.0), "s"),
])
def test_tsh_eval_names_a_non_integer_argument(args, name):
    bad = args[("j", "m_j", "l", "s").index(name)]
    with pytest.raises(ValueError, match=f"^{name}={bad} must be an integer$"):
        tsh_eval(*args, 0.4, 0.2)
    np.testing.assert_array_equal(tsh_eval(*map(np.int64, args), 0.4, 0.2),
                                  tsh_eval(*map(int, args), 0.4, 0.2))


def test_tsh_eval_at_the_top_of_the_float_cg_range():
    # the weights are cg_block(l, s, j), so l + s = CG_BLOCK_MAX is the top edge
    th, ph = 1.1, 0.3
    for j, m_j, l, s in [(129, 77, 128, 2), (130, -3, 128, 2), (0, 0, 65, 65)]:
        assert l + s == CG_BLOCK_MAX
        got = tsh_eval(j, m_j, l, s, th, ph)
        for m_s in range(-s, s + 1):
            m_l = m_j - m_s
            expect = (cg_float(l, m_l, s, m_s, j, m_j) * sh_eval(l, m_l, th, ph)
                      if abs(m_l) <= l else 0.0)
            assert abs(got[m_s + s] - expect) <= 1e-13, (j, m_j, l, m_s)
    # (l, s) = (128, 3) is one past it; a thin pair, s <= 2, runs to l + s = 512
    with pytest.raises(ValueError, match="exceeds the float CG range"):
        tsh_eval(128, 0, 128, 3, th, ph)


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


@pytest.mark.parametrize("key, length", [((1.5, 1), 4), ((0, 1.5), 1), ((2.0, 1), 5), ((1, 1.0), 3),
                                         (("1", 1), 3)])
def test_tsh_coeffs_reject_non_integer_degrees(key, length):
    message = f"block {key} has a degree that is not an integer"
    with pytest.raises(ValueError) as err:
        TshCoeffs(s=1, L=3, blocks={key: np.ones(length)})
    assert str(err.value) == message
    x = TshCoeffs(s=1, L=3)
    with pytest.raises(ValueError) as err:
        x.set_block(*key, np.ones(length))
    assert str(err.value) == message
    assert x.blocks == {}
    # numpy integers are integer degrees
    assert TshCoeffs(s=1, L=3, blocks={(np.int64(1), np.int32(1)): np.ones(3)}).blocks


@pytest.mark.parametrize("s, L, message", [
    (1, -1, "band limit L=-1 must be non-negative"),
    (-1, 1, "spin s=-1 must be non-negative"),
    (1, 2.5, "band limit L=2.5 must be an integer"),
    (1.5, 1, "spin s=1.5 must be an integer"),
])
def test_tsh_coeffs_reject_negative_limits(s, L, message):
    with pytest.raises(ValueError, match=message):
        TshCoeffs(s=s, L=L)


def test_decode_rejects_negative_band_limit_before_any_table():
    make_grid.cache_clear()
    g = make_grid(2)
    f = SpinSignal(s=1, grid=g, values=np.zeros((g.n_theta, g.n_phi, 3), complex))
    with pytest.raises(ValueError, match="band limit L=-1 must be non-negative"):
        tsh_decode(f, -1)
    assert not {"legendre", "analysis_weights", "trig"} & vars(g).keys()


def test_spin_and_decode_band_limit_must_be_integers():
    g = make_grid(2)
    values = np.zeros((g.n_theta, g.n_phi, 3), complex)
    with pytest.raises(ValueError, match="spin s=1.0 must be an integer"):
        SpinSignal(s=1.0, grid=g, values=values)
    f = SpinSignal(s=np.int64(1), grid=g, values=values)
    with pytest.raises(ValueError, match="band limit L=2.0 must be an integer"):
        tsh_decode(f, 2.0)
    assert sorted(tsh_decode(f, np.int64(2)).blocks) == valid_pairs(1, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_spin_signal_rejects_non_finite_samples(bad):
    g = make_grid(2)
    values = np.zeros((g.n_theta, g.n_phi, 3), complex)
    values[1, 2, 0] = bad
    with pytest.raises(ValueError, match="inputs must be finite, got NaN or inf"):
        SpinSignal(s=1, grid=g, values=values)


def test_decoded_blocks_are_views_of_one_packed_array(rng):
    for s in (0, 1, 2):
        z = tsh_decode(tsh_encode(random_tsh_coeffs(s, 4, rng), make_grid(4)), 4)
        bases = [vec.base for vec in z.blocks.values()]
        assert all(base is not None and base is bases[0] for base in bases), s


def test_encoded_samples_are_phi_major(rng):
    for s, L in [(0, 0), (1, 3), (2, 5)]:
        values = tsh_encode(random_tsh_coeffs(s, L, rng), make_grid(L + 1)).values
        assert values.shape == (L + 2, 2 * L + 3, 2 * s + 1)
        assert values.transpose(1, 0, 2).flags.c_contiguous


def test_decode_accepts_theta_major_samples(rng):
    # a C-contiguous (n_theta, n_phi, 2s+1) signal, such as a sample file's,
    # decodes to the same blocks as the phi-major signal it copies
    g = make_grid(6)
    x = random_tsh_coeffs(2, 3, rng)
    f = tsh_encode(x, g)
    f2 = serialize.samples_from_obj(serialize.samples_to_obj(f))
    assert f2.values.flags.c_contiguous
    z, z2 = tsh_decode(f, 3), tsh_decode(f2, 3)
    assert all(np.array_equal(vec, z2.block(*key)) for key, vec in z.items())
    assert max(np.abs(vec - z.block(*key)).max() for key, vec in x.items()) <= 1e-12


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
    if s == 0:
        return 0  # spin 0 is the identity coupling and counts no MACs
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


@pytest.mark.parametrize("s", [0, 1, 2])
def test_decode_output_is_a_map_over_one_packed_array(s, rng, packed_output_contract):
    g = make_grid(5)
    f = tsh_encode(random_tsh_coeffs(s, 4, rng), g)
    z, other = tsh_decode(f, 4), tsh_decode(f, 4)
    spans = tsh._decode_layout(s, 4)[1]
    packed = tsh._decode(f, 4, None)
    expect = {key: packed[start:end] for key, (start, end) in spans.items()}
    assert z.blocks.spans is spans
    packed_output_contract(z, z.blocks.packed, expect, other, shared=(spans,))
    # the encode reads a rebound block
    key = list(spans)[len(spans) // 2]
    z = tsh_decode(f, 4)
    z.blocks[key] = random_block(key[0], rng)
    as_dict = TshCoeffs(s=s, L=4, blocks=dict(z.blocks))
    assert tsh_encode(z, g).values.tobytes() == tsh_encode(as_dict, g).values.tobytes()
    if s == 0:
        # scalar_from_spin0, and so from_sphere, reads a decode through the
        # mapping API into a dict of its views, keyed (j, None)
        scalar = {(j, None): vec for (j, _l), vec in expect.items()}
        a, b = from_sphere(f, 4), from_sphere(f, 4)
        packed_output_contract(a, a.block(0).base, scalar, b, shared=(spans,))
        z = tsh_decode(f, 4)
        packed_output_contract(scalar_from_spin0(z), z.blocks.packed, scalar,
                               scalar_from_spin0(tsh_decode(f, 4)), shared=(spans,))


@pytest.mark.parametrize("s, L", [(0, 3), (1, 0), (1, 4), (2, 3)])
def test_decode_keys_in_valid_pairs_order(s, L):
    g = make_grid(L)
    values = np.ones((g.n_theta, g.n_phi, 2 * s + 1), complex)
    z = tsh_decode(SpinSignal(s=s, grid=g, values=values), L)
    assert list(z.blocks) == valid_pairs(s, L) and (z.s, z.L) == (s, L)
    # the output skips TshCoeffs' per-block check; it must pass it unchanged
    # (each read cuts a fresh view, so the check keeps the bytes and the memory, not the object)
    checked = TshCoeffs(s=s, L=L, blocks=z.blocks)
    assert all(checked.blocks[key].tobytes() == vec.tobytes()
               and np.shares_memory(checked.blocks[key], z.blocks.packed)
               for key, vec in z.blocks.items())
    assert all(vec.dtype == complex and vec.shape == (2 * j + 1,) for (j, _l), vec in z.items())


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


def test_coupling_table_is_cached_only_by_its_callers():
    # _encode_table and _decode_layout cache what they build from the table;
    # a cache on the table itself would hold a second copy of every array
    assert not hasattr(tsh._coupling_table, "cache_info")


def _per_key_coupling_table(s, keys, L):
    """``_coupling_table`` by one ``cg_block`` call and one column block per key (reference)."""
    ms = np.arange(-s, s + 1)[:, None]
    macs, slots, weights = 0, [np.zeros((2 * s + 1, 0), np.intp)], [np.zeros((2 * s + 1, 0))]
    for j, l in keys:
        ml = np.arange(-j, j + 1) - ms
        clipped = np.clip(ml, -l, l)
        slots.append(sht._padded_index(L, l, clipped) * (2 * s + 1) + ms + s)
        if s:
            inside = clipped == ml
            macs += int(inside.sum())
            weights.append(np.where(inside, cg_block(l, s, j)[clipped + l, ms + s], 0.0))
        else:
            weights.append(np.ones(ml.shape))
    return macs, np.concatenate(slots, axis=1), np.concatenate(weights, axis=1)


@pytest.mark.parametrize("s", [0, 1, 2])
@pytest.mark.parametrize("L", [0, 1, 2, 16, 64])
def test_coupling_table_matches_per_key_cg_blocks_bitwise(s, L):
    # the whole-array build equals the per-key loop in slot, weight and
    # MACs, signed zeros included, for the decode's key set and the
    # subsets an encode packs: one key, the keys of one l, none
    keys = tuple(valid_pairs(s, L))
    subsets = [keys, keys[len(keys) // 2:len(keys) // 2 + 1],
               tuple(key for key in keys if key[1] == L // 2), ()]
    for subset in subsets:
        (macs, *arrays), (expect_macs, *expect) = (tsh._coupling_table(s, subset, L),
                                                   _per_key_coupling_table(s, subset, L))
        assert macs == expect_macs, subset
        for got, want in zip(arrays, expect):
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), subset


def test_table_builds_call_no_cg_block(monkeypatch):
    # one gather of CG entries serves every key of a table
    def no_cg(*args):
        raise AssertionError(f"cg_block{args} called by a table build")

    monkeypatch.setattr(tsh, "cg_block", no_cg)
    monkeypatch.setattr(angular, "cg_block", no_cg)
    for s in (1, 2):
        keys = tuple(valid_pairs(s, 12))
        assert tsh._encode_table.__wrapped__(s, keys, 12)[0] == _coupling_pairs(s, keys)
        assert tsh._decode_layout.__wrapped__(s, 12)[0][0] == _coupling_pairs(s, keys)


def test_coupling_table_at_the_top_of_the_float_cg_range():
    # spin-1 weights read the thin (1, l) tensors: l = 511 is the last in range
    for j in (510, 511, 512):
        macs, _slot, weight = tsh._coupling_table(1, ((j, 511),), 511)
        expect = _per_key_coupling_table(1, ((j, 511),), 511)
        assert macs == expect[0] and weight.tobytes() == expect[2].tobytes()
    with pytest.raises(ValueError, match=r"^pair \(1, 512\) exceeds the float CG range: "
                                         r"j1 \+ j2 <= 130, or <= 512 when min\(j1, j2\) <= 2$"):
        tsh._coupling_table(1, ((512, 512),), 512)


def test_spin1_decode_layout_builds_past_degree_130(cg_passes):
    # a pair product decoded at 192 needs (l, 1) weights with l + 1 > 130;
    # a cold layout builds its tensors in one recurrence pass per first degree
    tsh._decode_layout.__wrapped__(1, 64)
    assert cg_passes == [(0, [1]), (1, list(range(1, 65)))]
    (_macs, _slot, weight), spans = tsh._decode_layout.__wrapped__(1, 200)
    assert len(spans) == len(valid_pairs(1, 200))
    # the top key's weights, each held twice, are C^{j,mj}_{l,mj-ms,1,ms}
    start, end = spans[(200, 199)]
    C = cg_block(199, 1, 200)
    ml = np.arange(-200, 201)[:, None] - np.arange(-1, 2)
    expect = np.where(np.abs(ml) <= 199, C[np.clip(ml, -199, 199) + 199, np.arange(3)], 0.0)
    assert np.array_equal(weight[:, 2 * start:2 * end:2], expect.T)


def _bincount_decode(xpad, s, L):
    """Packed decode of a padded analysis by a loop over ``cg_block`` entries and np.bincount (oracle).

    Each packed coefficient sums its terms with |ml| <= l, ms ascending.
    """
    src, slot, weight = [], [], []
    n = 0
    for j, l in valid_pairs(s, L):
        C = cg_block(l, s, j)
        for m_j in range(-j, j + 1):
            for m_s in range(-s, s + 1):
                m_l = m_j - m_s
                if abs(m_l) <= l:
                    src.append(n)
                    slot.append(sht._padded_index(L, l, m_l) * (2 * s + 1) + m_s + s)
                    weight.append(C[m_l + l, m_s + s])
            n += 1
    terms = xpad.reshape(-1)[slot] * np.array(weight)
    src2 = (2 * np.array(src)[:, None] + np.arange(2)).reshape(-1)
    return np.bincount(src2, terms.view(float), 2 * n).view(complex)


@pytest.mark.parametrize("s", [0, 1, 2])
def test_dense_decode_gather_matches_bincount_bitwise(s, rng):
    for L, Lg in [(0, 2), (3, 3), (5, 9), (17, 20)]:
        g = make_grid(Lg)
        shape = (g.n_theta, g.n_phi, 2 * s + 1)
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        f = SpinSignal(s=s, grid=g, values=values)
        expect = _bincount_decode(sht._analysis_core(f.values, g, L, None), s, L)
        assert tsh._decode(f, L, None).tobytes() == expect.tobytes(), (s, L)


@pytest.mark.parametrize("s", [0, 1, 2])
def test_coupling_table_columns_do_not_depend_on_the_packed_blocks(s):
    # any key subset, packed alone, gets the full band's columns at its spans
    L = 9
    full = valid_pairs(s, L)
    _macs, slot, weight = tsh._coupling_table(s, tuple(full), L)
    spans = tsh._decode_layout(s, L)[1]
    rng = np.random.default_rng(37 + s)
    for size in (1, 2, 5, len(full) // 2, len(full) - 1):
        subset = tuple(full[i] for i in sorted(rng.choice(len(full), size, replace=False)))
        macs, sub_slot, sub_weight = tsh._coupling_table(s, subset, L)
        columns = np.concatenate([np.arange(*spans[key]) for key in subset])
        assert sub_slot.tobytes() == slot[:, columns].tobytes(), subset
        assert sub_weight.tobytes() == weight[:, columns].tobytes(), subset
        assert macs == _coupling_pairs(s, subset), subset


@pytest.mark.parametrize("s", [0, 1, 2])
def test_decode_reads_no_pad_slot(s, rng, monkeypatch):
    # slots past l = L of the padded analysis are unspecified; NaN there
    # must not reach any block
    core = tsh._analysis_core

    def nan_padded(values, grid, L, flops):
        xpad = core(values, grid, L, flops)
        for m in range(-L, L + 1):
            xpad[m + L, L - abs(m) + 1:] = np.nan
        return xpad

    L = 18
    x = random_tsh_coeffs(s, L, rng)
    f = tsh_encode(x, make_grid(L))
    expect = tsh_decode(f, L)
    monkeypatch.setattr(tsh, "_analysis_core", nan_padded)
    z = tsh_decode(f, L)
    for key, vec in z.items():
        assert np.isfinite(vec).all(), key
        assert vec.tobytes() == expect.block(*key).tobytes(), key


def test_decode_band_limit_cut(rng):
    # decoding at a smaller band limit returns exactly the l <= L3 blocks
    x = random_tsh_coeffs(1, 4, rng)
    g = make_grid(4)
    z = tsh_decode(tsh_encode(x, g), 2)
    assert set(z.blocks) == set(valid_pairs(1, 2))
    for j, l in z.blocks:
        assert np.abs(z.block(j, l) - x.block(j, l)).max() <= 1e-12


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
        f_rot = tsh_encode(rotate_coeffs(x, a, b, c), g).values
        th_b, ph_b = rotated_node_angles(g, a, b, c)
        f_back = tsh_evaluate(x, th_b, ph_b)
        expect = f_back @ wigner_d_matrix(s, a, b, c).T
        assert np.abs(f_rot - expect).max() <= 1e-10


def test_rotate_coeffs_keeps_the_container(rng):
    # a TshCoeffs stays a TshCoeffs, and a path-tagged IrrepCoeffs keeps its tags
    angles = (0.3, 1.1, -0.4)
    x = random_tsh_coeffs(1, 3, rng)
    tagged = cgtp_full(random_coeffs(2, rng), random_coeffs(2, rng), 3).output
    for z in (x, tagged):
        rot = rotate_coeffs(z, *angles)
        assert type(rot) is type(z) and vars(rot).keys() == vars(z).keys()
        assert [key for key, _ in rot.items()] == [key for key, _ in z.items()]
        assert all(getattr(rot, name) == getattr(z, name) for name in vars(z) if name != "blocks")
        for (j, tag), vec in z.items():
            np.testing.assert_array_equal(rot.block(j, tag), wigner_d_matrix(j, *angles) @ vec)


def test_containers_hold_exactly_their_fields(rng):
    # perfbench rebuilds outputs as type(out)(**{**vars(out), "blocks": ...}), so
    # vars() holds the dataclass fields and nothing else however a container is made
    irrep, spin = random_coeffs(2, rng), random_tsh_coeffs(1, 2, rng)
    made = [
        irrep, spin,
        sht._trusted(IrrepCoeffs, L=2, blocks=dict(irrep.blocks)),
        sht._trusted(TshCoeffs, s=1, L=2, blocks=dict(spin.blocks)),
        cgtp_full(irrep, irrep, 3).output,
        tsh_decode(tsh_encode(spin, make_grid(2)), 2),
        scalar_from_spin0(spin0_from_scalar(irrep)),
        dataclasses.replace(irrep, L=3), dataclasses.replace(spin, blocks={}),
        rotate_coeffs(irrep, 0.3, 1.1, -0.4), rotate_coeffs(spin, 0.3, 1.1, -0.4),
    ]
    for z in made:
        fields = {f.name for f in dataclasses.fields(z)}
        assert vars(z).keys() == fields, type(z)
        if isinstance(z, TshCoeffs):
            z.set_block(1, 1, random_block(1, rng))
        else:
            z.set_block(1, random_block(1, rng), tag="t")
        assert vars(z).keys() == fields, type(z)
        again = type(z)(**{**vars(z), "blocks": dict(z.blocks)})
        assert [key for key, _ in again.items()] == [key for key, _ in z.items()]


def test_rotate_coeffs_builds_d_once_per_degree(rng, monkeypatch):
    # a path-tagged cgtp_full output holds many blocks of each degree
    z = cgtp_full(random_coeffs(4, rng), random_coeffs(4, rng), 8).output
    angles = (0.3, 1.1, -0.4)
    degrees = []

    def counted(j, *args):
        degrees.append(j)
        return wigner_d_matrix(j, *args)

    monkeypatch.setattr(sht, "wigner_d_matrix", counted)
    rot = rotate_coeffs(z, *angles)
    assert sorted(degrees) == sorted({j for j, _ in z.blocks}) and len(z.blocks) > 3 * len(degrees)
    for (j, tag), vec in z.items():
        np.testing.assert_array_equal(rot.block(j, tag), wigner_d_matrix(j, *angles) @ vec)


def test_high_spin_round_trip(rng):
    x = random_tsh_coeffs(2, 6, rng)
    g = make_grid(6)
    z = tsh_decode(tsh_encode(x, g), 6)
    err = max(np.abs(x.block(j, l) - z.block(j, l)).max() for j, l in x.blocks)
    assert err <= 1e-12


# ---------------------------------------------------------------- spin 0

def test_spin0_conversion_round_trips_bytes(rng):
    x = random_coeffs(3, rng)
    z = spin0_from_scalar(x)
    assert (z.s, z.L, sorted(z.blocks)) == (0, 3, [(j, j) for j in range(4)])
    back = scalar_from_spin0(z)
    assert back.L == x.L and sorted(back.blocks) == sorted(x.blocks)
    for key, vec in x.items():
        assert back.blocks[key].tobytes() == vec.tobytes()


def test_spin0_conversion_rejects_repeated_degree_and_spin(rng):
    x = IrrepCoeffs(L=1, blocks={(1, None): random_block(1, rng), (1, "a"): random_block(1, rng)})
    with pytest.raises(ValueError, match="multiple blocks share degree 1"):
        spin0_from_scalar(x)
    with pytest.raises(ValueError, match="spin-1 coefficients have no scalar form"):
        scalar_from_spin0(random_tsh_coeffs(1, 1, rng))
