"""Tests for canonical JSON serialization and schema validation."""

import json

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
])
def test_schema_errors_carry_pointers(rng, mutate, pointer):
    # scalar and tensor-harmonic files validate their shared fields alike
    for obj, from_obj in [
        (serialize.coeffs_to_obj(random_coeffs(0, rng)), serialize.coeffs_from_obj),
        (serialize.tsh_to_obj(random_tsh_coeffs(1, 1, rng)), serialize.tsh_from_obj),
    ]:
        mutate(obj)
        with pytest.raises(SchemaError) as err:
            from_obj(obj)
        assert err.value.pointer == pointer


def test_tsh_schema_requires_l(rng):
    obj = serialize.tsh_to_obj(random_tsh_coeffs(1, 1, rng))
    obj["blocks"][0]["l"] = None
    with pytest.raises(SchemaError):
        serialize.tsh_from_obj(obj)


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


@pytest.mark.parametrize("field,value", [("re", float("nan")), ("im", float("inf"))])
def test_samples_reject_non_finite(rng, field, value):
    obj = serialize.samples_to_obj(tsh_encode(random_tsh_coeffs(1, 1, rng), make_grid(1)))
    obj[field][0][0][0] = value
    with pytest.raises(SchemaError) as err:
        serialize.samples_from_obj(obj)
    assert err.value.pointer == f"/{field}"


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
