import numpy as np
import pytest

from gwsos import hierarchy, moments
from gwsos.spaces import MetricMeasureSpace


@pytest.mark.parametrize("nvars", [1, 2, 9, 64])
def test_quadratic_rows_match_the_basis(nvars):
    basis = moments.get_basis(nvars, 2)
    eye = np.eye(nvars, dtype=np.int64)
    want = basis.index_rows((eye[:, None] + eye[None, :]).reshape(-1, nvars))
    assert np.array_equal(hierarchy._quadratic_rows(nvars), want)


def test_isometries_within_the_t_entries_assemble():
    # Y's swap of its first two points maps t-entries to t-entries, so no
    # pi-monomial outside the t-monomials joins their orbits
    pts = np.arange(4) / 3
    X = MetricMeasureSpace(labels=list("abcd"),
                           dist=np.abs(pts[:, None] - pts[None, :]),
                           weights=np.full(4, 0.25))
    dist = np.array([[0, 2, 1], [2, 0, 1], [1, 1, 0]]) / 3
    Y = MetricMeasureSpace(labels=list("xyz"), dist=dist,
                           weights=np.array([0.25, 0.25, 0.5]))
    res = hierarchy.gw_lower_bound(X, Y, level=1)
    assert res.status == "optimal"
    assert res.value == pytest.approx(1 / 6, abs=1e-6)  # the oracle's value
