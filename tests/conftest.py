import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def grid_angles(grid):
    return np.meshgrid(grid.theta, grid.phi, indexing="ij")


def angles_from_unit_vectors(vec):
    theta = np.arccos(np.clip(vec[..., 2], -1.0, 1.0))
    phi = np.arctan2(vec[..., 1], vec[..., 0])
    return theta, phi
