import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwsos import (Coupling, MetricMeasureSpace, ValidationError,
                   build_cost_tensor, concentrate_space, hierarchy,
                   lipschitz_constant, load_space, merge_coincident_points,
                   normalize_diameter, product_coupling, spaces)
from gwsos.geometry import partition_from_cells
from gwsos.sampling import ground_circle, ground_interval
from gwsos.spaces import isometries

from conftest import random_space


def make(dist, weights):
    n = len(weights)
    return MetricMeasureSpace(labels=[str(i) for i in range(n)],
                              dist=np.asarray(dist, float),
                              weights=np.asarray(weights, float))


class TestValidation:
    def test_valid_space_roundtrips(self):
        sp = make([[0, 1], [1, 0]], [0.5, 0.5])
        assert sp.size == 2
        assert sp.diameter == 1.0

    def test_asymmetry_rejected_with_indices(self):
        with pytest.raises(ValidationError, match=r"\(0, 1\)"):
            make([[0, 1], [0.9, 0]], [0.5, 0.5])

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValidationError, match="diagonal"):
            make([[0.1, 1], [1, 0]], [0.5, 0.5])

    def test_negative_distance_rejected(self):
        with pytest.raises(ValidationError, match="negative distance"):
            make([[0, -1], [-1, 0]], [0.5, 0.5])

    def test_triangle_violation_rejected(self):
        d = [[0, 1, 3], [1, 0, 1], [3, 1, 0]]
        with pytest.raises(ValidationError, match="triangle"):
            make(d, [1 / 3] * 3)

    def test_first_triangle_violation_reported_past_first_slab(self):
        # stretching one distance breaks only the triangles with it as
        # the long side; the first in (i, j, k) order has i = 250, j = 0
        n = 300
        pts = np.linspace(0.0, 1.0, n)
        d = np.abs(pts[:, None] - pts[None, :])
        d[250, 260] = d[260, 250] = 5.0
        with pytest.raises(ValidationError, match=r"\(i=250, j=0, k=260\)"):
            make(d, np.full(n, 1.0 / n))

    def test_triangle_check_memory_is_bounded(self):
        # all 300**3 triangles at once take two 216 MB temporaries
        n = 300
        pts = np.linspace(0.0, 1.0, n)
        d = np.abs(pts[:, None] - pts[None, :])
        tracemalloc.start()
        try:
            make(d, np.full(n, 1.0 / n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError, match="negative weight"):
            make([[0, 1], [1, 0]], [1.5, -0.5])

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValidationError, match="sum"):
            make([[0, 1], [1, 0]], [0.5, 0.6])

    def test_empty_space_rejected(self):
        with pytest.raises(ValidationError):
            MetricMeasureSpace(labels=[], dist=np.zeros((0, 0)),
                               weights=np.zeros(0))

    def test_zero_weights_allowed_and_reported(self):
        sp = make([[0, 1], [1, 0]], [1.0, 0.0])
        assert sp.size == 2 and sp.weights.tolist() == [1.0, 0.0]

    def test_arrays_read_only(self):
        sp = make([[0, 1], [1, 0]], [0.5, 0.5])
        with pytest.raises(ValueError):
            sp.dist[0, 1] = 2.0
        with pytest.raises(ValueError):
            sp.weights[0] = 0.0


class TestLoadSpace:
    DOC = {"labels": ["a", "b"], "dist": [[0, 1], [1, 0]],
           "weights": [0.5, 0.5], "name": "pair"}

    def test_from_dict(self):
        sp = load_space(self.DOC)
        assert sp.name == "pair"

    def test_from_json_string(self):
        sp = load_space(json.dumps(self.DOC))
        assert sp.labels == ("a", "b")

    def test_from_path(self, tmp_path):
        path = tmp_path / "sp.json"
        path.write_text(json.dumps(self.DOC))
        sp = load_space(str(path))
        assert sp.size == 2

    def test_from_file_object(self, tmp_path):
        path = tmp_path / "sp.json"
        path.write_text(json.dumps(self.DOC))
        with open(path) as fh:
            sp = load_space(fh)
        assert sp.size == 2

    def test_unknown_field_warns(self):
        doc = dict(self.DOC, color="blue")
        with pytest.warns(UserWarning, match="color"):
            load_space(doc)

    def test_missing_field_raises(self):
        doc = {k: v for k, v in self.DOC.items() if k != "weights"}
        with pytest.raises(ValidationError, match="weights"):
            load_space(doc)


class TestNormalizeAndMerge:
    def test_normalize_records_scale(self):
        sp = make([[0, 4], [4, 0]], [0.5, 0.5])
        ns = normalize_diameter(sp)
        assert ns.diameter == 1.0
        assert ns.scale == 4.0

    def test_normalize_singleton_passthrough(self):
        sp = make([[0.0]], [1.0])
        assert normalize_diameter(sp) is sp

    def test_merge_sums_weights(self):
        d = [[0, 0, 1], [0, 0, 1], [1, 1, 0]]
        sp = make(d, [0.25, 0.25, 0.5])
        merged = merge_coincident_points(sp)
        assert merged.size == 2
        assert merged.weights[0] == pytest.approx(0.5)

    def test_merge_noop_when_separated(self):
        sp = make([[0, 1], [1, 0]], [0.5, 0.5])
        assert merge_coincident_points(sp) is sp


class TestDerivedSpacesSkipTriangles:
    """Restrictions and shrinkings of a valid space skip the O(n^3) check."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []
        check = spaces._check_triangles
        monkeypatch.setattr(spaces, "_check_triangles",
                            lambda d: calls.append(len(d)) or check(d))
        return calls

    def test_restrictions_and_shrinking_do_not_recheck(self, counted):
        pts = np.array([0.0, 0.0, 0.8, 1.7, 3.0])  # points 0 and 1 coincide
        sp = MetricMeasureSpace(labels=list("abcde"),
                                dist=np.abs(pts[:, None] - pts),
                                weights=[0.1, 0.2, 0.0, 0.3, 0.4])
        assert counted == [5]
        derived = [normalize_diameter(sp), merge_coincident_points(sp),
                   hierarchy._support(sp)[0],
                   concentrate_space(sp, partition_from_cells(
                       sp, [(0, 1), (2, 3), (4,)], [0, 3, 4]))]
        assert counted == [5]
        # each equals the space built with every check
        for got in derived:
            want = MetricMeasureSpace(labels=got.labels, dist=got.dist,
                                      weights=got.weights, name=got.name,
                                      scale=got.scale)
            assert (got.labels, got.name, got.scale) == \
                (want.labels, want.name, want.scale)
            assert np.array_equal(got.dist, want.dist)
            assert np.array_equal(got.weights, want.weights)
        assert [d.size for d in derived] == [5, 4, 4, 3]

    def test_enlarging_still_checks(self, counted):
        # a violation inside TRIANGLE_TOL grows past it when the diameter
        # 0.5 is scaled up to 1, so normalize_diameter must check
        eps = 0.9 * spaces.TRIANGLE_TOL
        dist = np.array([[0.0, 0.25, 0.5 + eps],
                         [0.25, 0.0, 0.25],
                         [0.5 + eps, 0.25, 0.0]])
        sp = make(dist, [0.25, 0.25, 0.5])
        with pytest.raises(ValidationError, match="triangle"):
            normalize_diameter(sp)
        assert counted == [3, 3]

    def test_shape_and_weight_checks_still_run(self):
        sp = make([[0, 1], [1, 0]], [0.5, 0.5])
        with pytest.raises(ValidationError, match="weights sum"):
            spaces.restrict_space(sp, [0], [0.5], "")
        with pytest.raises(ValidationError, match="negative weight"):
            spaces.restrict_space(sp, [0, 1], [1.5, -0.5], "")


class TestCostTensor:
    def test_formula_entrywise(self, rng):
        X = random_space(rng, 3)
        Y = random_space(rng, 2)
        for p, q in [(1, 1), (2, 1), (1, 2), (2, 2)]:
            cost = build_cost_tensor(X, Y, p, q)
            for i in range(3):
                for j in range(2):
                    for k in range(3):
                        for l in range(2):
                            want = abs(X.dist[i, k] ** q
                                       - Y.dist[j, l] ** q) ** p
                            assert cost.entries[i, j, k, l] == \
                                pytest.approx(want, abs=1e-15)

    def test_rejects_unnormalized(self):
        big = make([[0, 2], [2, 0]], [0.5, 0.5])
        unit = make([[0, 1], [1, 0]], [0.5, 0.5])
        with pytest.raises(ValidationError, match="diameter"):
            build_cost_tensor(big, unit, 1, 1)

    def test_rejects_exponents_below_one(self):
        unit = make([[0, 1], [1, 0]], [0.5, 0.5])
        with pytest.raises(ValidationError, match=">= 1"):
            build_cost_tensor(unit, unit, 0.5, 1)

    @settings(max_examples=25, deadline=None)
    @given(p=st.sampled_from([1.0, 1.5, 2.0]),
           q=st.sampled_from([1.0, 2.0]),
           seed=st.integers(0, 10 ** 6))
    def test_lipschitz_bound_holds(self, p, q, seed):
        # |c(i,j,k,l) - c(i',j',k',l')| <= pq * (dX(i,i') + dY(j,j')
        #                                        + dX(k,k') + dY(l,l'))
        r = np.random.default_rng(seed)
        X = random_space(r, 3)
        Y = random_space(r, 3)
        c = build_cost_tensor(X, Y, p, q).entries
        L = lipschitz_constant(p, q)
        idx = r.integers(0, 3, size=(20, 8))
        for i, j, k, l, i2, j2, k2, l2 in idx:
            move = (X.dist[i, i2] + Y.dist[j, j2]
                    + X.dist[k, k2] + Y.dist[l, l2])
            assert abs(c[i, j, k, l] - c[i2, j2, k2, l2]) <= \
                L * move + 1e-12


class TestCoupling:
    def test_product_coupling_marginals(self, rng):
        mu = rng.dirichlet(np.ones(3))
        nu = rng.dirichlet(np.ones(4))
        cp = product_coupling(mu, nu)
        assert np.allclose(cp.pi.sum(axis=1), mu)
        assert np.allclose(cp.pi.sum(axis=0), nu)

    def test_marginal_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="marginal"):
            Coupling(pi=np.array([[0.5, 0.0], [0.0, 0.5]]),
                     mu=np.array([0.4, 0.6]),
                     nu=np.array([0.5, 0.5]))

    def test_negative_entry_rejected(self):
        with pytest.raises(ValidationError, match="negative"):
            Coupling(pi=np.array([[0.6, -0.1], [0.0, 0.5]]),
                     mu=np.array([0.5, 0.5]),
                     nu=np.array([0.6, 0.4]))


class TestIsometries:
    def assert_exact(self, space, perms):
        assert np.array_equal(perms[0], np.arange(space.size))
        assert len({p.tobytes() for p in perms}) == len(perms)
        for p in perms:
            assert np.array_equal(space.dist[np.ix_(p, p)], space.dist)
            assert np.array_equal(space.weights[p], space.weights)

    def test_interval_has_its_reflection(self):
        space = ground_interval(64).space
        perms = isometries(space)
        assert len(perms) == 2
        self.assert_exact(space, perms)

    def test_circle_has_its_dihedral_group(self):
        space = ground_circle(16).space
        perms = isometries(space)
        assert len(perms) == 32
        self.assert_exact(space, perms)

    def test_third_spaced_grid_is_trivial(self):
        # 1 - 2/3 != 1/3 in floating point, so the reflection is inexact
        pts = np.array([0.0, 1 / 3, 2 / 3, 1.0])
        assert 1.0 - 2 / 3 != 1 / 3
        space = make(np.abs(pts[:, None] - pts[None, :]), [0.25] * 4)
        assert len(isometries(space)) == 1

    def test_weights_one_bit_apart_are_trivial(self):
        w = np.array([0.5, np.nextafter(0.5, 1.0)])
        space = make([[0, 1], [1, 0]], w)
        assert space.weights[0] != space.weights[1]
        assert len(isometries(space)) == 1
        assert len(isometries(make([[0, 1], [1, 0]], [0.5, 0.5]))) == 2

    def test_search_stops_at_its_cap(self):
        # the equidistant space has all 8! permutations as isometries
        space = make(1.0 - np.eye(8), np.full(8, 1 / 8))
        perms = isometries(space)
        assert 1 < len(perms) < 40320
        self.assert_exact(space, perms)
