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
