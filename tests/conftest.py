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


def _pending(out):
    """The packed array and span map a product output holds in its ``blocks`` field before the first read."""
    from so3tp import sht

    pending = vars(out)["blocks"]
    assert type(pending) is sht._Pending
    return pending


@pytest.fixture
def pending_blocks():
    """``_pending``, for the product tests of every module."""
    return _pending


def _check_packed_output(out, packed, expect, other, shared=()):
    """The contract of a product output whose blocks are views of one packed array.

    ``out`` and ``other`` are two outputs of one call shape; ``packed`` is
    the array ``out``'s blocks must be cut from; ``expect`` is a dict of
    views of an independent recomputation, in span order; ``shared``
    holds span maps that no write may touch.  Once read, ``blocks`` is a
    plain dict, so what is checked is what a dict does not promise: the
    blocks are views of ``packed`` with the expected bytes and order, and
    writes reach neither the second output nor a shared span map.
    """
    shared_before = [dict(spans) for spans in shared]
    other_before = {key: vec.copy() for key, vec in other.blocks.items()}
    blocks = out.blocks
    assert type(blocks) is dict and list(blocks) == list(expect)
    for key, want in expect.items():
        vec = blocks[key]
        assert vec.dtype == complex and vec.tobytes() == want.tobytes(), key
        assert np.shares_memory(vec, packed), key
    if not expect:
        return
    first, last = next(iter(expect)), list(expect)[-1]
    # an in-place write through block() reaches the packed array
    out.block(*first)[0] = 7 + 7j
    assert blocks[first][0] == 7 + 7j and np.count_nonzero(packed == 7 + 7j) == 1
    # set_block runs the one block check, then stores the checked vector; the packed array keeps the old block
    old, j = blocks[last], last[0]
    setter = (lambda vec: out.set_block(*last, vec)) if hasattr(out, "s") else (
        lambda vec: out.set_block(j, vec, tag=last[1]))
    for wrong in (np.full(2 * j + 1, np.inf), np.ones(2 * j + 2)):
        with pytest.raises(ValueError):
            setter(wrong)
    good = np.arange(2 * j + 1) + 1j
    setter(good)
    assert out.block(*last) is good and blocks[last] is good
    assert old.tobytes() == expect[last].tobytes() and np.shares_memory(old, packed)
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
