import dataclasses

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def cg_passes(monkeypatch):
    """(a, bs) of every CG tensor recurrence pass the test runs, from an empty tensor cache."""
    from so3tp import angular

    passes, build = [], angular._cg_pass

    def recording_pass(a, bs):
        passes.append((a, list(bs)))
        return build(a, bs)

    monkeypatch.setattr(angular, "_cg_pass", recording_pass)
    angular._cg_tensor.cache_clear()
    return passes


def _outcome(compare):
    """compare()'s value, or ValueError where it raised one: a dict of arrays can't be true or false."""
    try:
        return compare()
    except ValueError:
        return ValueError


def _check_packed_output(out, packed, expect, other, shared=()):
    """The contract of a product output whose blocks are views of one packed array.

    ``out`` and ``other`` are two outputs of one call shape; ``packed`` is
    the array ``out``'s blocks must be cut from; ``expect`` is a dict of
    views of an independent recomputation, laid out as the output dict
    was when each block was a stored view; ``shared`` holds span maps
    that no write may touch.  Every write to ``out`` is mirrored on a
    plain dict, which ``out.blocks`` must match in order, length,
    membership, values and ``repr``; ``==`` is checked against ``{}`` and
    the second output, where a dict of fresh views gives the same outcome.
    """
    blocks = out.blocks
    shared_before = [dict(spans) for spans in shared]
    other_before = {key: vec.copy() for key, vec in other.blocks.items()}
    assert list(blocks) == list(expect) and len(blocks) == len(expect)
    for key, want in expect.items():
        vec = blocks[key]
        assert key in blocks and vec.dtype == complex and vec.tobytes() == want.tobytes(), key
        assert np.shares_memory(vec, packed), key
    missing = ("no", "key")
    assert missing not in blocks and blocks.get(missing) is None
    with pytest.raises(KeyError):
        blocks[missing]
    model = dict(blocks)
    assert (blocks == {}) == ({} == blocks) == (not expect) == (not blocks != {})
    assert repr(blocks) == repr(model)
    assert _outcome(lambda: blocks == other.blocks) == _outcome(lambda: model == dict(other.blocks))
    if not expect:
        return
    first, last = next(iter(expect)), list(expect)[-1]
    # an in-place write through block() reaches the packed array
    out.block(*first)[0] = 7 + 7j
    assert blocks[first][0] == 7 + 7j and np.count_nonzero(packed == 7 + 7j) == 1
    # a raw rebind is unchecked and seen by every reader; the packed array keeps the old block
    old, bad = blocks[last], np.full(3, np.nan)
    blocks[last] = model[last] = bad
    assert blocks[last] is bad and blocks.get(last) is bad and out.block(*last) is bad
    assert dict(blocks)[last] is bad and dict(out.items())[last] is bad
    assert old.tobytes() == expect[last].tobytes() and np.shares_memory(old, packed)
    # set_block runs the one block check, then stores the checked vector
    j = last[0]
    setter = (lambda vec: out.set_block(*last, vec)) if hasattr(out, "s") else (
        lambda vec: out.set_block(j, vec, tag=last[1]))
    for wrong in (np.full(2 * j + 1, np.inf), np.ones(2 * j + 2)):
        with pytest.raises(ValueError):
            setter(wrong)
    good = np.arange(2 * j + 1) + 1j
    setter(good)
    model[last] = good
    assert blocks[last] is good
    # an added key goes last; a deleted one leaves the order of the others, and comes back last
    added = np.ones(1, complex)
    blocks[missing] = model[missing] = added
    del blocks[first], model[first]
    with pytest.raises(KeyError):
        del blocks[first]
    assert first not in blocks and list(blocks) == list(model) and len(blocks) == len(model)
    blocks[first] = model[first] = added
    assert list(blocks) == list(model) and len(blocks) == len(model)
    assert all(blocks[key] is vec or blocks[key].tobytes() == vec.tobytes()
               for key, vec in model.items())
    assert repr(blocks) == repr(model)
    # the second output, the shared span maps and a rebuilt copy
    assert all(other.blocks[key].tobytes() == vec.tobytes() for key, vec in other_before.items())
    assert [dict(spans) for spans in shared] == shared_before
    fields = {f.name for f in dataclasses.fields(other)}
    rebuilt = type(other)(**{**vars(other), "blocks": dict(other.blocks)})
    assert vars(other).keys() == fields == vars(rebuilt).keys()
    assert [(key, vec.tobytes()) for key, vec in rebuilt.items()] == \
        [(key, vec.tobytes()) for key, vec in other.items()]


@pytest.fixture
def packed_output_contract():
    """``_check_packed_output``, for the product tests of every module."""
    return _check_packed_output
