"""Tests for canonical JSON serialization and schema validation."""

import json
import re

import numpy as np
import pytest

from so3tp import serialize
from so3tp.serialize import SchemaError
from so3tp.sht import IrrepCoeffs, make_grid, random_coeffs
from so3tp.tsh import random_tsh_coeffs, tsh_encode


def test_canonical_json_is_sorted_and_fixed_format():
    text = serialize.canonical_json({"b": 1, "a": [1.5, 0.1], "c": None, "d": True})
    assert text == '{"a": [1.5, 0.10000000000000001], "b": 1, "c": null, "d": true}\n'


def test_canonical_json_round_trips_floats():
    rng = np.random.default_rng(0)
    vals = list(rng.standard_normal(50)) + [1e-300, 1e300, 0.1, 2.0 ** -52]
    text = serialize.canonical_json(vals)
    parsed = json.loads(text)
    assert all(a == b for a, b in zip(parsed, vals))  # 17 digits is lossless


def test_canonical_json_rejects_non_finite():
    with pytest.raises(ValueError):
        serialize.canonical_json(float("nan"))


def test_coeffs_round_trip(rng):
    x = random_coeffs(3, rng)
    obj = serialize.coeffs_to_obj(x)
    y = serialize.coeffs_from_obj(json.loads(serialize.canonical_json(obj)))
    assert y.L == x.L
    for l in range(4):
        np.testing.assert_array_equal(x.block(l), y.block(l))


def test_reserialization_is_byte_stable(rng, tmp_path):
    x = random_coeffs(4, rng)
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    serialize.write_file(serialize.coeffs_to_obj(x), p1)
    parsed = serialize.coeffs_from_obj(serialize.read_file(p1))
    serialize.write_file(serialize.coeffs_to_obj(parsed), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_tsh_round_trip(rng):
    x = random_tsh_coeffs(1, 3, rng)
    obj = serialize.tsh_to_obj(x)
    assert obj["s"] == 1 and all("l" in b and b["l"] is not None for b in obj["blocks"])
    y = serialize.tsh_from_obj(json.loads(serialize.canonical_json(obj)))
    for key in x.blocks:
        np.testing.assert_array_equal(x.block(*key), y.block(*key))


def test_path_tagged_blocks_round_trip(rng):
    x = IrrepCoeffs(L=2, blocks={(2, (1, 1)): rng.standard_normal(5) + 0j,
                                 (2, (0, 2)): rng.standard_normal(5) + 0j})
    obj = serialize.coeffs_to_obj(x)
    assert sorted(b["path"] for b in obj["blocks"]) == [[0, 2], [1, 1]]
    y = serialize.coeffs_from_obj(json.loads(serialize.canonical_json(obj)))
    np.testing.assert_array_equal(x.block(2, (1, 1)), y.block(2, (1, 1)))


def test_samples_round_trip(rng):
    x = random_tsh_coeffs(1, 2, rng)
    sig = tsh_encode(x, make_grid(3))
    obj = serialize.samples_to_obj(sig)
    sig2 = serialize.samples_from_obj(json.loads(serialize.canonical_json(obj)))
    assert sig2.s == 1 and sig2.grid.Lg == 3
    np.testing.assert_array_equal(sig.values, sig2.values)


@pytest.mark.parametrize("mutate,pointer", [
    (lambda o: o.pop("L"), "/L"),
    (lambda o: o.__setitem__("blocks", "nope"), "/blocks"),
    (lambda o: o["blocks"][0].pop("re"), "/blocks/0/re"),
    (lambda o: o["blocks"][0].__setitem__("j", -1), "/blocks/0/j"),
    (lambda o: o["blocks"][0].__setitem__("m", [0, 1]), "/blocks/0/m"),
    (lambda o: o["blocks"][0].__setitem__("re", ["x"]), "/blocks/0/re"),
    (lambda o: o["blocks"][0]["re"].__setitem__(0, float("nan")), "/blocks/0/re"),
    (lambda o: o["blocks"][0]["re"].__setitem__(0, float("-inf")), "/blocks/0/re"),
    (lambda o: o["blocks"][0]["im"].__setitem__(0, float("inf")), "/blocks/0/im"),
    (lambda o: o["blocks"][0]["im"].__setitem__(0, float("nan")), "/blocks/0/im"),
    pytest.param(lambda o: o.__setitem__("L", 2.5), "/L", id="L-not-integer"),
    pytest.param(lambda o: o.__setitem__("L", -1), "/L", id="L-negative"),
    # JSON true/false load as bool, an int subclass; they are not integers here
    pytest.param(lambda o: o.__setitem__("L", True), "/L", id="L-bool"),
    pytest.param(lambda o: o["blocks"][0].update(j=True, m=[-1, 0, 1], re=[0.0] * 3,
                                                 im=[0.0] * 3), "/blocks/0/j", id="j-bool"),
    pytest.param(lambda o: o["blocks"][0].__setitem__("l", False), "/blocks/0/l", id="l-bool"),
    pytest.param(lambda o: o["blocks"][0].__setitem__("path", [True, 1]), "/blocks/0/path",
                 id="path-bool"),
    # a null path would load as absent and be dropped on writing
    pytest.param(lambda o: o["blocks"][0].__setitem__("path", None), "/blocks/0/path",
                 id="path-null"),
    # a path's degrees are non-negative and couple to the block's j
    pytest.param(lambda o: o["blocks"][0].__setitem__("path", [-5, 99]), "/blocks/0/path",
                 id="path-negative"),
    pytest.param(lambda o: o["blocks"][0].__setitem__("path", [1, 3]), "/blocks/0/path",
                 id="path-off-triangle"),
    # l is j on a scalar block and within s of j on a tensor-harmonic one
    pytest.param(lambda o: o["blocks"][0].__setitem__("l", 7), "/blocks/0/l", id="l-off-degree"),
    # a valid path tags a scalar block (j = 0 here) and no tensor-harmonic one,
    # whose file would drop it on writing
    pytest.param(lambda o: o["blocks"][0].__setitem__("path", [1, 1]), (None, "/blocks/0/path"),
                 id="path-on-tsh-block"),
])
def test_schema_errors_carry_pointers(rng, mutate, pointer):
    # scalar and tensor-harmonic files validate their shared fields alike; a
    # (scalar, tensor-harmonic) pair of pointers marks a field they treat
    # apart, None where that file loads
    files = [
        (serialize.coeffs_to_obj(random_coeffs(0, rng)), serialize.coeffs_from_obj),
        (serialize.tsh_to_obj(random_tsh_coeffs(1, 1, rng)), serialize.tsh_from_obj),
    ]
    pointers = pointer if isinstance(pointer, tuple) else (pointer, pointer)
    for (obj, from_obj), expect in zip(files, pointers):
        mutate(obj)
        if expect is None:
            from_obj(obj)
            continue
        with pytest.raises(SchemaError) as err:
            from_obj(obj)
        assert err.value.pointer == expect


@pytest.mark.parametrize("field, value", [("s", False), ("Lg", True)])
def test_sample_header_rejects_bool(rng, field, value):
    # read as integers, "s": false and "Lg": true load as spin 0 on make_grid(1)
    obj = serialize.samples_to_obj(tsh_encode(random_tsh_coeffs(0, 1, rng), make_grid(1)))
    obj[field] = value
    with pytest.raises(SchemaError) as err:
        serialize.samples_from_obj(obj)
    assert err.value.pointer == f"/{field}"


@pytest.mark.parametrize("field, value", [("kind", "coefficients"), ("n_theta", 999),
                                          ("n_phi", -4), ("n_theta", 3.0)])
def test_sample_header_must_agree_with_lg(rng, field, value):
    # the optional kind and grid sizes must describe the samples the dump carries
    obj = serialize.samples_to_obj(tsh_encode(random_tsh_coeffs(0, 1, rng), make_grid(2)))
    obj[field] = value
    with pytest.raises(SchemaError) as err:
        serialize.samples_from_obj(obj)
    assert err.value.pointer == f"/{field}"


def test_sample_dump_without_header_fields_stays_readable(rng):
    sig = tsh_encode(random_tsh_coeffs(1, 2, rng), make_grid(3))
    obj = serialize.samples_to_obj(sig)
    for field in ("kind", "n_theta", "n_phi"):
        del obj[field]
    np.testing.assert_array_equal(serialize.samples_from_obj(obj).values, sig.values)


def test_tsh_spin_rejects_bool(rng):
    obj = serialize.tsh_to_obj(random_tsh_coeffs(0, 1, rng))
    obj["s"] = False
    with pytest.raises(SchemaError) as err:
        serialize.tsh_from_obj(obj)
    assert err.value.pointer == "/s"


def test_tsh_schema_requires_l(rng):
    obj = serialize.tsh_to_obj(random_tsh_coeffs(1, 1, rng))
    obj["blocks"][0]["l"] = None
    with pytest.raises(SchemaError):
        serialize.tsh_from_obj(obj)


@pytest.mark.parametrize("keys", [
    [(2, None), (2, 2), (2, (1, 1)), (2, (0, 2)), (2, (3, 1)), (0, (4, 4)), (1, 1), (1, None)],
    # numpy integers are written as ints, in the order of the tags they read back as
    [(2, np.int64(2)), (2, (np.int64(0), 2)), (2, (1, 1)), (3, (np.int64(4), np.int64(1)))],
])
def test_every_written_tag_round_trips_byte_for_byte(keys, rng):
    x = IrrepCoeffs(L=3, blocks={key: rng.standard_normal(2 * key[0] + 1) + 0j for key in keys})
    text = serialize.canonical_json(serialize.coeffs_to_obj(x))
    y = serialize.coeffs_from_obj(json.loads(text))
    assert serialize.canonical_json(serialize.coeffs_to_obj(y)) == text
    assert y.blocks.keys() == x.blocks.keys()
    for key, vec in x.blocks.items():
        np.testing.assert_array_equal(y.blocks[key], vec)


@pytest.mark.parametrize("tag", [
    5, 1.0, "a", (0, 5), (-1, 2), (1, 1, 1), (0.0, 1), ("a", "b"), (1,), (),
])
def test_writer_rejects_a_tag_its_reader_refuses(tag, rng, tmp_path):
    # l must equal j and a path must sit on the triangle with j; the check runs
    # before anything is written
    x = IrrepCoeffs(L=2, blocks={(0, None): rng.standard_normal(1) + 0j,
                                 (1, tag): rng.standard_normal(3) + 0j})
    path = tmp_path / "out.json"
    path.write_text("kept")
    with pytest.raises(ValueError, match=re.escape(f"block {(1, tag)} has a tag")):
        serialize.write_file(serialize.coeffs_to_obj(x), path)
    assert path.read_text() == "kept"


def test_duplicate_block_rejected(rng):
    obj = serialize.coeffs_to_obj(random_coeffs(1, rng))
    obj["blocks"].append(dict(obj["blocks"][0]))
    with pytest.raises(SchemaError):
        serialize.coeffs_from_obj(obj)


def test_samples_shape_validation(rng):
    x = random_tsh_coeffs(0, 1, rng)
    obj = serialize.samples_to_obj(tsh_encode(x, make_grid(1)))
    obj["re"] = [[0.0]]
    with pytest.raises(SchemaError):
        serialize.samples_from_obj(obj)


def test_samples_shape_checked_before_the_grid(monkeypatch):
    # the header alone fixes the shape; a mismatched dump builds no grid
    def no_grid(Lg):
        raise AssertionError(f"make_grid({Lg}) called")

    monkeypatch.setattr(serialize, "make_grid", no_grid)
    obj = {"kind": "samples", "s": 0, "Lg": 1500, "re": [[[0.0]]], "im": [[[0.0]]]}
    with pytest.raises(SchemaError) as err:
        serialize.samples_from_obj(obj)
    assert str(err.value) == "/re: expected shape (1501, 3001, 1), got (1, 1, 1)"


@pytest.mark.parametrize("field,value", [("re", float("nan")), ("im", float("inf"))])
def test_samples_reject_non_finite(rng, field, value):
    obj = serialize.samples_to_obj(tsh_encode(random_tsh_coeffs(1, 1, rng), make_grid(1)))
    obj[field][0][0][0] = value
    with pytest.raises(SchemaError) as err:
        serialize.samples_from_obj(obj)
    assert err.value.pointer == f"/{field}"
    assert str(err.value) == f"/{field}: samples must be finite"


def test_failed_write_leaves_file_untouched(rng, tmp_path):
    old = tmp_path / "old.json"
    serialize.write_file(serialize.coeffs_to_obj(random_coeffs(1, rng)), old)
    before = old.read_bytes()
    bad = {"L": 0, "blocks": [{"re": [float("nan")]}]}
    with pytest.raises(ValueError):
        serialize.write_file(bad, old)
    assert old.read_bytes() == before
    new = tmp_path / "new.json"
    with pytest.raises(ValueError):
        serialize.write_file(bad, new)
    assert not new.exists()
