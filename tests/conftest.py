import numpy as np
import pytest

from gwsos import MetricMeasureSpace
from gwsos.geometry import concentrate_space, partition_from_cells


def random_space(rng, size, diameter=1.0):
    """Random metric measure space from points on a line segment.

    Embedding into [0, diameter] guarantees the triangle inequality
    exactly, which keeps validation out of the way of the property under
    test.
    """
    pts = np.sort(rng.uniform(0.0, diameter, size=size))
    pts[0] = 0.0
    if size > 1:
        pts[-1] = diameter
    dist = np.abs(pts[:, None] - pts[None, :])
    w = rng.uniform(0.2, 1.0, size=size)
    w = w / w.sum()
    return MetricMeasureSpace(labels=[f"p{i}" for i in range(size)],
                              dist=dist, weights=w)


def concentration_pair():
    """Criterion 8's pair: 16 interval midpoints, their 4-cell coarsening."""
    pts = (np.arange(16) + 0.5) / 16
    fine = MetricMeasureSpace(labels=[f"t{i}" for i in range(16)],
                              dist=np.abs(pts[:, None] - pts[None, :]),
                              weights=np.full(16, 1 / 16))
    cells = [tuple(range(4 * k, 4 * k + 4)) for k in range(4)]
    part = partition_from_cells(fine, cells, [1, 5, 9, 13])
    return fine, concentrate_space(fine, part)


def random_tree_space(rng, size, diameter=1.0):
    """Random ultrametric-free space from a random distance perturbation.

    Starts from line-segment distances and mixes in a discrete component,
    preserving the triangle inequality (sum of two metrics).
    """
    base = random_space(rng, size, diameter=diameter * 0.5)
    disc = (1.0 - np.eye(size)) * (diameter * 0.5)
    w = rng.uniform(0.2, 1.0, size=size)
    w = w / w.sum()
    return MetricMeasureSpace(labels=base.labels,
                              dist=base.dist + disc, weights=w)


@pytest.fixture
def rng():
    return np.random.default_rng(20260824)


@pytest.fixture
def two_point_pair():
    """The reference 2x2 pair: distances 1 and 0.5, uniform weights."""
    X = MetricMeasureSpace(labels=["a", "b"],
                           dist=np.array([[0.0, 1.0], [1.0, 0.0]]),
                           weights=np.array([0.5, 0.5]))
    Y = MetricMeasureSpace(labels=["c", "d"],
                           dist=np.array([[0.0, 0.5], [0.5, 0.0]]),
                           weights=np.array([0.5, 0.5]))
    return X, Y
