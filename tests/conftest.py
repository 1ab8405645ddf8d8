import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def grid_angles(grid):
    return np.meshgrid(grid.theta, grid.phi, indexing="ij")
