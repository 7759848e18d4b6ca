import itertools

import numpy as np
import pytest

from gwsos import (MetricMeasureSpace, ValidationError, assemble_relaxation,
                   brute_force_gw, build_cost_tensor, check_tensor_measure,
                   coupling_tensor_measure, evaluate_objective,
                   gw_lower_bound, moments_to_tensor_measure,
                   product_coupling, tensor_measure_to_moments)
from gwsos import moments as mom
from gwsos.hierarchy import pair_index

from conftest import random_space


class TestAssembly:
    def test_level_below_one_rejected(self, two_point_pair):
        X, Y = two_point_pair
        with pytest.raises(ValidationError, match="level"):
            assemble_relaxation(X, Y, level=0)

    def test_block_labels(self, two_point_pair):
        X, Y = two_point_pair
        _, info = assemble_relaxation(X, Y, level=1)
        assert "trunc" in info.block_labels
        assert "moment" in info.block_labels
        # one localizing block per pair of distinct coupling entries
        locs = [l for l in info.block_labels if l.startswith("loc")]
        assert len(locs) == 6  # C(4, 2)

    def test_objective_matches_cost_quadratic(self, rng):
        # the linear objective on product-coupling moments equals the
        # quadratic distortion of that coupling
        X = random_space(rng, 2)
        Y = random_space(rng, 3)
        prob, info = assemble_relaxation(X, Y, p=2, q=1, level=1)
        pi = product_coupling(X.weights, Y.weights).pi
        y = mom.point_moments(info.basis, pi.ravel())
        cost = build_cost_tensor(X, Y, 2, 1)
        assert prob.objective @ y == pytest.approx(
            evaluate_objective(cost, pi), rel=1e-12)

    def test_coupling_moments_satisfy_equalities(self, rng):
        for level in (1, 2):
            X = random_space(rng, 2)
            Y = random_space(rng, 2)
            prob, info = assemble_relaxation(X, Y, level=level)
            pi = product_coupling(X.weights, Y.weights).pi
            y = mom.point_moments(info.basis, pi.ravel())
            resid = np.abs(prob.eq_lhs @ y - prob.eq_rhs).max()
            assert resid <= 1e-12

    def test_pair_index_layout(self):
        assert pair_index(0, 0, 3) == 0
        assert pair_index(1, 2, 3) == 5


class TestLowerBound:
    def test_reference_value(self, two_point_pair):
        X, Y = two_point_pair
        res = gw_lower_bound(X, Y, level=1)
        assert res.status == "optimal"
        assert res.value <= 0.25 + 1e-6
        assert res.value >= 0.25 - 1e-4  # level 1 is tight here

    def test_below_oracle(self, rng):
        for _ in range(5):
            X = random_space(rng, 3)
            Y = random_space(rng, 2)
            oracle = brute_force_gw(X, Y, p=1, q=2).value
            res = gw_lower_bound(X, Y, p=1, q=2, level=1)
            assert res.status == "optimal"
            assert res.value <= oracle + 1e-5

    def test_levels_monotone(self, rng):
        X = random_space(rng, 2)
        Y = random_space(rng, 3)
        r1 = gw_lower_bound(X, Y, level=1)
        r2 = gw_lower_bound(X, Y, level=2)
        assert r1.value <= r2.value + 1e-6

    def test_identity_vanishes(self, rng):
        X = random_space(rng, 3)
        res = gw_lower_bound(X, X, level=1)
        assert res.status == "optimal"
        assert res.root <= 1e-4

    def test_root_is_pth_root(self, rng):
        X = random_space(rng, 2)
        Y = random_space(rng, 2)
        res = gw_lower_bound(X, Y, p=2, q=1)
        assert res.root == pytest.approx(res.value ** 0.5, rel=1e-12)

    def test_value_clamped_nonnegative(self, rng):
        X = random_space(rng, 3)
        res = gw_lower_bound(X, X, level=1)
        assert res.value >= 0.0


class TestTensorRoundtrip:
    def test_coupling_tensor_matches_moments(self, rng):
        X = random_space(rng, 2)
        Y = random_space(rng, 2)
        pi = product_coupling(X.weights, Y.weights).pi
        basis = mom.get_basis(4, 2)
        y = mom.point_moments(basis, pi.ravel())
        T = moments_to_tensor_measure(y, 2, 2, level=1)
        direct = coupling_tensor_measure(pi, level=1)
        assert np.allclose(T.data, direct.data, atol=1e-15)

    def test_roundtrip_on_solver_output(self, rng):
        X = random_space(rng, 2)
        Y = random_space(rng, 3)
        res = gw_lower_bound(X, Y, level=1)
        T = moments_to_tensor_measure(res.moments, 2, 3, level=1)
        back = tensor_measure_to_moments(T)
        assert np.abs(back - res.moments).max() <= 1e-8

    def test_roundtrip_level_two(self, rng):
        X = random_space(rng, 2)
        Y = random_space(rng, 2)
        res = gw_lower_bound(X, Y, level=2)
        T = moments_to_tensor_measure(res.moments, 2, 2, level=2)
        back = tensor_measure_to_moments(T, level=2)
        assert np.abs(back - res.moments).max() <= 1e-8

    def test_order_mismatch_rejected(self, rng):
        pi = np.full((2, 2), 0.25)
        T = coupling_tensor_measure(pi, level=1)
        with pytest.raises(ValueError, match="order"):
            tensor_measure_to_moments(T, level=2)

    def test_total_mass_one(self, rng):
        pi = product_coupling([0.3, 0.7], [0.5, 0.5]).pi
        T = coupling_tensor_measure(pi, level=2)
        assert T.total_mass == pytest.approx(1.0, abs=1e-12)


class TestTensorChecks:
    def test_coupling_tensor_passes(self, rng):
        X = random_space(rng, 2)
        Y = random_space(rng, 3)
        pi = product_coupling(X.weights, Y.weights).pi
        T = coupling_tensor_measure(pi, level=1)
        report = check_tensor_measure(T, X.weights, Y.weights)
        assert report.passed
        assert report.symmetry_error <= 1e-12
        assert report.marginal_error <= 1e-12
        assert report.min_eigenvalue >= -1e-12

    def test_solver_tensor_passes(self, rng):
        X = random_space(rng, 2)
        Y = random_space(rng, 2)
        res = gw_lower_bound(X, Y, level=1)
        T = moments_to_tensor_measure(res.moments, 2, 2, level=1)
        report = check_tensor_measure(T, X.weights, Y.weights, tol=1e-6)
        assert report.passed

    def test_broken_symmetry_detected(self):
        pi = product_coupling([0.5, 0.5], [0.5, 0.5]).pi
        T = coupling_tensor_measure(pi, level=1)
        data = T.data.copy()
        data[0, 1] += 0.01
        bad = type(T)(m=2, n=2, order=2, data=data)
        report = check_tensor_measure(bad, np.array([0.5, 0.5]),
                                      np.array([0.5, 0.5]))
        assert not report.symmetric

    def test_broken_marginal_detected(self):
        pi = np.array([[0.6, 0.0], [0.0, 0.4]])
        T = coupling_tensor_measure(pi, level=1)
        report = check_tensor_measure(T, np.array([0.5, 0.5]),
                                      np.array([0.5, 0.5]))
        assert not report.marginal

    def test_indefinite_tensor_detected(self):
        data = np.zeros((4, 4))
        data[0, 1] = data[1, 0] = 0.5  # symmetric but not psd
        bad = coupling_tensor_measure(np.full((2, 2), 0.25), 1)
        bad = type(bad)(m=2, n=2, order=2, data=data)
        report = check_tensor_measure(bad, np.array([0.5, 0.5]),
                                      np.array([0.5, 0.5]))
        assert not report.psd
