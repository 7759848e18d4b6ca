import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwsos import (MetricMeasureSpace, ValidationError, brute_force_gw,
                   build_cost_tensor, evaluate_objective, product_coupling)

from conftest import random_space


class TestEvaluateObjective:
    def test_zero_for_identical_spaces_on_diagonal(self):
        X = MetricMeasureSpace(labels=["a", "b"],
                               dist=np.array([[0.0, 1.0], [1.0, 0.0]]),
                               weights=np.array([0.5, 0.5]))
        cost = build_cost_tensor(X, X, 1, 1)
        diag = np.diag(X.weights)
        assert evaluate_objective(cost, diag) == pytest.approx(0.0, abs=1e-15)

    def test_quadratic_form_identity(self, rng):
        X = random_space(rng, 3)
        Y = random_space(rng, 3)
        cost = build_cost_tensor(X, Y, 2, 1)
        pi = product_coupling(X.weights, Y.weights).pi
        flat = pi.ravel()
        want = flat @ cost.entries.reshape(9, 9) @ flat
        assert evaluate_objective(cost, pi) == pytest.approx(want, rel=1e-14)


class TestClosedForm2x2:
    def test_reference_instance(self, two_point_pair):
        # objective 2t - 4t^2 + 1/4 on t in [0, 1/2]: concave, min 1/4
        X, Y = two_point_pair
        res = brute_force_gw(X, Y, p=1, q=1)
        assert res.value == pytest.approx(0.25, abs=1e-12)

    def test_identical_pair_is_zero(self, two_point_pair):
        X, _ = two_point_pair
        res = brute_force_gw(X, X, p=1, q=1)
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_coupling_feasible(self, two_point_pair):
        X, Y = two_point_pair
        res = brute_force_gw(X, Y)
        assert (res.coupling >= -1e-12).all()
        assert np.allclose(res.coupling.sum(axis=1), X.weights, atol=1e-9)
        assert np.allclose(res.coupling.sum(axis=0), Y.weights, atol=1e-9)


class TestGridRefine:
    def test_matches_closed_form_on_embedded_2x2(self, rng):
        # a 2x3 instance with one zero-weight column degenerates to 2x2
        X = random_space(rng, 2)
        Y2 = random_space(rng, 2)
        d3 = np.zeros((3, 3))
        d3[:2, :2] = Y2.dist
        half = Y2.dist[0, 1] / 2.0  # metric midpoint keeps the triangle
        d3[2, :2] = d3[:2, 2] = [half, half]
        Y3 = MetricMeasureSpace(labels=["a", "b", "c"], dist=d3,
                                weights=np.array([Y2.weights[0],
                                                  Y2.weights[1], 0.0]))
        res2 = brute_force_gw(X, Y2, p=1, q=1)
        res3 = brute_force_gw(X, Y3, p=1, q=1)
        assert res3.value == pytest.approx(res2.value, abs=1e-9)

    def test_singleton_instances_unique(self, rng):
        X = MetricMeasureSpace(labels=["o"], dist=np.zeros((1, 1)),
                               weights=np.ones(1))
        Y = random_space(rng, 3)
        res = brute_force_gw(X, Y)
        assert res.evaluations == 1
        assert np.allclose(res.coupling, Y.weights[None, :])

    def test_deterministic_reruns(self, rng):
        X = random_space(rng, 3)
        Y = random_space(rng, 3)
        r1 = brute_force_gw(X, Y, p=2, q=1)
        r2 = brute_force_gw(X, Y, p=2, q=1)
        assert r1.value == r2.value
        assert np.array_equal(r1.coupling, r2.coupling)


class TestFaceEnumeration:
    def test_couplings_feasible(self, rng):
        combos = itertools.product([2, 3], [2, 3], [1.0, 2.0], [1.0, 2.0])
        for m, n, p, q in list(combos) * 3:
            X, Y = random_space(rng, m), random_space(rng, n)
            pi = brute_force_gw(X, Y, p=p, q=q).coupling
            assert (pi >= 0).all()
            assert np.abs(pi.sum(axis=1) - X.weights).max() <= 1e-12
            assert np.abs(pi.sum(axis=0) - Y.weights).max() <= 1e-12

    def test_not_above_any_grid_coupling(self, rng):
        # 11 points per free entry of the upper-left 2x2 block
        for _ in range(3):
            X, Y = random_space(rng, 3), random_space(rng, 3)
            mu, nu = X.weights, Y.weights
            axes = [np.linspace(0.0, min(mu[i], nu[j]), 11)
                    for i, j in itertools.product(range(2), range(2))]
            T = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 4)
            P = np.zeros((len(T), 3, 3))
            P[:, :2, :2] = T.reshape(-1, 2, 2)
            P[:, :2, 2] = mu[:2] - P[:, :2, :2].sum(axis=2)
            P[:, 2, :] = nu - P[:, :2, :].sum(axis=1)
            P = P[(P >= 0).all(axis=(1, 2))]
            cost = build_cost_tensor(X, Y, 1, 1)
            grid_min = min(evaluate_objective(cost, pi) for pi in P)
            assert brute_force_gw(X, Y).value <= grid_min + 1e-12

    def test_identical_4x4_is_zero_without_warning(self, rng):
        X = random_space(rng, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = brute_force_gw(X, X)
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_marginals_exact_after_weight_renormalization(self):
        # the weights sum to 1 + 5e-9, within the validation tolerance
        X = MetricMeasureSpace(labels=["a", "b"],
                               dist=np.array([[0.0, 1.0], [1.0, 0.0]]),
                               weights=np.array([0.5, 0.5 + 5e-9]))
        Y = MetricMeasureSpace(labels=["c", "d"],
                               dist=np.array([[0.0, 0.5], [0.5, 0.0]]),
                               weights=np.array([0.5, 0.5]))
        pi = brute_force_gw(X, Y).coupling
        assert np.abs(pi.sum(axis=1) - X.weights).max() <= 1e-15
        assert np.abs(pi.sum(axis=0) - Y.weights).max() <= 1e-15

    def test_size_cap_refuses_4x5(self, rng):
        X, Y = random_space(rng, 4), random_space(rng, 5)
        with pytest.raises(ValidationError, match="cap"):
            brute_force_gw(X, Y)


class TestInvariances:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10 ** 6),
           p=st.sampled_from([1.0, 2.0]),
           q=st.sampled_from([1.0, 2.0]))
    def test_symmetry_in_arguments(self, seed, p, q):
        r = np.random.default_rng(seed)
        X = random_space(r, 2)
        Y = random_space(r, 3)
        a = brute_force_gw(X, Y, p=p, q=q)
        b = brute_force_gw(Y, X, p=p, q=q)
        assert a.value == pytest.approx(b.value, abs=1e-6)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_value_below_product_coupling(self, seed):
        r = np.random.default_rng(seed)
        X = random_space(r, 3)
        Y = random_space(r, 3)
        cost = build_cost_tensor(X, Y, 1, 1)
        res = brute_force_gw(X, Y)
        prod = evaluate_objective(cost,
                                  product_coupling(X.weights, Y.weights).pi)
        assert res.value <= prod + 1e-10
