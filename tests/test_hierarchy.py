import dataclasses
import itertools

import numpy as np
import pytest

from gwsos import (MetricMeasureSpace, ValidationError, assemble_relaxation,
                   brute_force_gw, build_cost_tensor, check_tensor_measure,
                   coupling_tensor_measure, evaluate_objective,
                   gw_lower_bound, moments_to_tensor_measure,
                   product_coupling, tensor_measure_to_moments)
from gwsos import moments as mom
from gwsos import sdp
from gwsos.geometry import concentrate_space, partition_from_cells
from gwsos.hierarchy import _entry_permutations, reduce_by_symmetry
from gwsos.spaces import isometries

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
        # the full moment matrix is implied by "trunc" and the marginals
        assert "moment" not in info.block_labels
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


def assert_free_spans_equalities(X, Y, level):
    """{eq_lhs y = eq_rhs} = {offset + basis @ w}, with basis of full rank."""
    prob, _ = assemble_relaxation(X, Y, level=level)
    offset, basis = prob.free
    assert np.abs(prob.eq_lhs @ offset - prob.eq_rhs).max() <= 1e-12
    assert np.abs(prob.eq_lhs @ basis).max(initial=0.0) <= 1e-12
    nullity = prob.nvars - np.linalg.matrix_rank(prob.eq_lhs)
    assert basis.shape[1] == nullity
    assert np.linalg.matrix_rank(basis) == nullity


class TestSubstitution:
    @pytest.mark.parametrize("m,n,level",
                             itertools.product([1, 2, 3], [1, 2, 3], [1, 2]))
    def test_free_spans_equality_solutions(self, rng, m, n, level):
        assert_free_spans_equalities(random_space(rng, m),
                                     random_space(rng, n), level)

    def test_zero_weight_point(self, rng):
        Y = MetricMeasureSpace(labels=["a", "b", "c"],
                               dist=random_space(rng, 3).dist,
                               weights=np.array([0.4, 0.0, 0.6]))
        for level in (1, 2):
            assert_free_spans_equalities(random_space(rng, 2), Y, level)

    def test_offset_is_the_parametrization_base(self, rng):
        X, Y = random_space(rng, 2), random_space(rng, 3)
        prob, info = assemble_relaxation(X, Y, level=2)
        base = np.zeros((2, 3))
        base[0, -1] = X.weights[0]
        base[-1] = Y.weights - base[0]
        want = mom.point_moments(info.basis, base.ravel())
        assert np.abs(prob.free[0] - want).max() <= 1e-15


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

    @pytest.mark.parametrize("seed,index,level", [(1, 56, 1), (8, 43, 2)])
    def test_former_dual_residual_stalls_converge(self, seed, index, level):
        # pairs of the benchmark's small_batch workload, drawn by the same
        # generator; a Schur ridge that was always on left the dual
        # residual stuck at 1e-6 while mu went to zero
        rng = np.random.default_rng(seed)
        shapes = list(itertools.product([2, 3], [2, 3], [1, 2], [1, 2])) * 4
        for m, n, p, q in shapes[:index + 1]:
            X, Y = random_space(rng, m), random_space(rng, n)
        res = gw_lower_bound(X, Y, p=p, q=q, level=level)
        assert res.status == "optimal"

    def test_former_stall_without_moment_block_converges(self):
        # pair 6 of the benchmark's ladder_l2 workload at seed 21; with
        # separate primal and dual step lengths it stalled once the
        # redundant full moment block was dropped
        rng = np.random.default_rng(21)
        spaces = [random_space(rng, 3) for _ in range(14)]
        res = gw_lower_bound(spaces[-2], spaces[-1], level=2)
        assert res.status == "optimal"


def line(*points):
    """Uniform weights on points of [0, 1]."""
    pts = np.array(points, dtype=float)
    return MetricMeasureSpace(labels=[f"p{i}" for i in range(len(pts))],
                              dist=np.abs(pts[:, None] - pts[None, :]),
                              weights=np.full(len(pts), 1 / len(pts)))


# dyadic points keep every distance exact, so the reflections are isometries
LINES = {2: line(0, 1), 3: line(0, 0.5, 1), 4: line(0, 0.25, 0.75, 1)}


def square():
    """Corners of a square of side 1/2 under the l1 metric (8 isometries)."""
    corners = np.array([[0, 0], [0, 0.5], [0.5, 0.5], [0.5, 0]])
    return MetricMeasureSpace(
        labels=list("abcd"), weights=np.full(4, 0.25),
        dist=np.abs(corners[:, None] - corners[None]).sum(axis=-1))


def concentration_pair():
    """16 interval midpoints against their 4-cell coarsening."""
    fine = line(*((np.arange(16) + 0.5) / 16))
    cells = [tuple(range(4 * k, 4 * k + 4)) for k in range(4)]
    part = partition_from_cells(fine, cells, [1, 5, 9, 13])
    return fine, concentrate_space(fine, part)


def reduced_relaxation(X, Y, level):
    prob, info = assemble_relaxation(X, Y, level=level)
    perms = _entry_permutations(isometries(X), isometries(Y))
    return (prob,) + reduce_by_symmetry(prob, info.basis, perms)


def assert_reduced_free_exact(X, Y, level):
    """The reduced affine set is the invariant part of the assembled one."""
    prob, reduced, orbit = reduced_relaxation(X, Y, level)
    offset, basis = reduced.free
    assert np.abs(prob.eq_lhs @ offset[orbit] - prob.eq_rhs).max() <= 1e-12
    assert np.abs(prob.eq_lhs @ basis[orbit]).max(initial=0.0) <= 1e-11
    # invariant solutions of the equalities: y = u[orbit] with A P u = b
    A = prob.eq_lhs @ np.eye(reduced.nvars)[orbit]
    A = A[np.linalg.norm(A, axis=1) > 0]
    A /= np.linalg.norm(A, axis=1)[:, None]
    assert basis.shape[1] == reduced.nvars - np.linalg.matrix_rank(A)


def assert_reduction_exact(X, Y, level, symmetries):
    res = gw_lower_bound(X, Y, level=level)
    prob, _ = assemble_relaxation(X, Y, level=level)
    direct = sdp.solve(prob)
    assert res.symmetries == symmetries
    assert res.status == direct.status == "optimal"
    assert abs(res.raw_objective - direct.objective_value) <= 1e-6
    return res


class TestSymmetryReduction:
    @pytest.mark.parametrize("m,n,level", [
        (m, n, level) for m, n in [(2, 2), (2, 3), (3, 3), (3, 4)]
        for level in (1, 2)])
    def test_dyadic_lines_match_direct_solve(self, m, n, level):
        assert_reduction_exact(LINES[m], LINES[n], level, 4)

    @pytest.mark.parametrize("level", [1, 2])
    def test_square_against_line_matches_direct_solve(self, level):
        assert_reduction_exact(square(), LINES[3], level, 16)

    def test_concentration_pair_matches_direct_solve(self):
        fine, coarse = concentration_pair()
        assert_reduction_exact(fine, coarse, 1, 4)

    def test_capped_search_still_exact(self):
        # the equidistant space has 8! isometries; the search finds some
        space = MetricMeasureSpace(labels=list("abcdefgh"),
                                   dist=1.0 - np.eye(8),
                                   weights=np.full(8, 1 / 8))
        found = len(isometries(space))
        assert 1 < found < 40320
        assert_reduction_exact(space, LINES[2], 1, 2 * found)

    def test_one_point_side(self):
        # k = 0: the coupling is fixed and the reduced basis is empty
        point = MetricMeasureSpace(labels=["o"], dist=np.zeros((1, 1)),
                                   weights=np.ones(1))
        for level in (1, 2):
            _, reduced, _ = reduced_relaxation(LINES[2], point, level)
            assert reduced.free[1].shape == (reduced.nvars, 0)
            res = assert_reduction_exact(LINES[2], point, level, 2)
            assert res.raw_objective == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("m,n,level", [
        (m, n, level) for m, n in [(2, 2), (2, 3), (3, 3), (3, 4)]
        for level in (1, 2)])
    def test_reduced_free_spans_invariant_solutions(self, m, n, level):
        assert_reduced_free_exact(LINES[m], LINES[n], level)

    def test_reduced_free_square_and_concentration_pair(self):
        assert_reduced_free_exact(square(), LINES[3], 2)
        assert_reduced_free_exact(*concentration_pair(), 1)

    def test_optimum_independent_of_reduced_basis(self):
        _, reduced, _ = reduced_relaxation(LINES[3], LINES[4], 2)
        offset, basis = reduced.free
        rot = np.linalg.qr(np.random.default_rng(7).normal(
            size=(basis.shape[1],) * 2))[0]
        rotated = dataclasses.replace(reduced, free=(offset, basis @ rot))
        a, b = sdp.solve(reduced), sdp.solve(rotated)
        assert a.status == b.status == "optimal"
        assert abs(a.objective_value - b.objective_value) <= 1e-6

    def test_trivial_group_solves_the_assembled_problem(self, rng):
        X, Y = random_space(rng, 3), random_space(rng, 2)
        res = gw_lower_bound(X, Y, level=1)
        prob, _ = assemble_relaxation(X, Y, level=1)
        direct = sdp.solve(prob)
        assert res.symmetries == 1
        assert np.array_equal(res.moments, direct.y)
        assert res.iterations == direct.iterations

    def test_expanded_moments_are_a_tensor_measure(self):
        X, Y = square(), LINES[3]
        res = gw_lower_bound(X, Y, level=1)
        assert res.symmetries == 16
        T = moments_to_tensor_measure(res.moments, 4, 3, level=1)
        assert check_tensor_measure(T, X.weights, Y.weights,
                                    tol=1e-6).passed
        back = tensor_measure_to_moments(T)
        assert np.abs(back - res.moments).max() <= 1e-12


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
