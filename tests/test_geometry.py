import numpy as np
import pytest

from gwsos import (MetricMeasureSpace, build_cell_partition,
                   build_cost_tensor, check_tensor_measure,
                   concentrate_coupling, concentrate_space,
                   concentrate_tensor, concentration_error_bound,
                   coupling_tensor_measure, evaluate_objective,
                   extend_coupling, extend_tensor, glue, gw_lower_bound,
                   product_coupling, pseudo_metric_check)
from gwsos.geometry import partition_from_cells

from conftest import random_space


def interval_space(n):
    pts = (np.arange(n) + 0.5) / n
    dist = np.abs(pts[:, None] - pts[None, :])
    return MetricMeasureSpace(labels=[f"t{i}" for i in range(n)],
                              dist=dist, weights=np.full(n, 1.0 / n))


class TestCellPartition:
    def test_greedy_cover_radius(self, rng):
        X = random_space(rng, 12)
        part = build_cell_partition(X, 0.2)
        assert part.radius <= 0.2
        # every point covered exactly once
        assert sorted(i for c in part.cells for i in c) == list(range(12))

    def test_zero_epsilon_gives_singletons(self, rng):
        X = random_space(rng, 5)
        part = build_cell_partition(X, 0.0)
        assert part.num_cells == 5
        assert part.radius == 0.0

    def test_explicit_cells_radius(self):
        X = interval_space(16)
        cells = [tuple(range(4 * k, 4 * k + 4)) for k in range(4)]
        part = partition_from_cells(X, cells, [1, 5, 9, 13])
        assert part.num_cells == 4
        assert part.radius == pytest.approx(0.125, abs=1e-15)

    def test_explicit_cells_must_cover(self):
        X = interval_space(4)
        with pytest.raises(ValueError, match="partition"):
            partition_from_cells(X, [(0, 1)], [0])

    def test_cell_of_mapping(self):
        X = interval_space(6)
        part = partition_from_cells(X, [(0, 1, 2), (3, 4, 5)], [1, 4])
        assert list(part.cell_of(6)) == [0, 0, 0, 1, 1, 1]


class TestConcentrateSpace:
    def test_mass_preserved_per_cell(self, rng):
        X = random_space(rng, 10)
        part = build_cell_partition(X, 0.3)
        coarse = concentrate_space(X, part)
        for ci, cell in enumerate(part.cells):
            assert coarse.weights[ci] == pytest.approx(
                X.weights[list(cell)].sum(), abs=1e-12)

    def test_distances_restricted_to_reps(self, rng):
        X = random_space(rng, 8)
        part = build_cell_partition(X, 0.25)
        coarse = concentrate_space(X, part)
        reps = list(part.representatives)
        assert np.array_equal(coarse.dist, X.dist[np.ix_(reps, reps)])


class TestCouplingTransforms:
    def test_concentrate_then_extend_preserves_marginals(self, rng):
        X = random_space(rng, 8)
        Y = random_space(rng, 6)
        px = build_cell_partition(X, 0.3)
        py = build_cell_partition(Y, 0.3)
        pi = product_coupling(X.weights, Y.weights).pi
        coarse = concentrate_coupling(pi, px, py)
        assert coarse.sum() == pytest.approx(1.0, abs=1e-12)
        fine = extend_coupling(coarse, px, py, X.weights, Y.weights)
        assert np.allclose(fine.sum(axis=1), X.weights, atol=1e-12)
        assert np.allclose(fine.sum(axis=0), Y.weights, atol=1e-12)

    def test_extend_of_product_is_product(self, rng):
        X = random_space(rng, 6)
        Y = random_space(rng, 6)
        px = build_cell_partition(X, 0.4)
        py = build_cell_partition(Y, 0.4)
        pi = product_coupling(X.weights, Y.weights).pi
        back = extend_coupling(concentrate_coupling(pi, px, py),
                               px, py, X.weights, Y.weights)
        assert np.allclose(back, pi, atol=1e-12)

    def test_objective_shift_bounded(self, rng):
        # |obj(fine pi) - obj(extended coarse pi)| <= 4 pq radius
        for p, q in [(1, 1), (2, 1), (1, 2)]:
            X = random_space(rng, 8)
            Y = random_space(rng, 8)
            px = build_cell_partition(X, 0.2)
            py = build_cell_partition(Y, 0.2)
            radius = max(px.radius, py.radius)
            pi = product_coupling(X.weights, Y.weights).pi
            ext = extend_coupling(concentrate_coupling(pi, px, py),
                                  px, py, X.weights, Y.weights)
            cost = build_cost_tensor(X, Y, p, q)
            shift = abs(evaluate_objective(cost, pi)
                        - evaluate_objective(cost, ext))
            assert shift <= concentration_error_bound(p, q, radius) + 1e-10

    def test_tensor_transforms_match_coupling_transforms(self, rng):
        X = random_space(rng, 5)
        Y = random_space(rng, 4)
        px = build_cell_partition(X, 0.4)
        py = build_cell_partition(Y, 0.4)
        pi = product_coupling(X.weights, Y.weights).pi
        T = coupling_tensor_measure(pi, level=1)
        Tc = concentrate_tensor(T, px, py)
        pc = concentrate_coupling(pi, px, py)
        assert np.allclose(Tc.data, coupling_tensor_measure(pc, 1).data,
                           atol=1e-12)
        Te = extend_tensor(Tc, px, py, X.weights, Y.weights)
        pe = extend_coupling(pc, px, py, X.weights, Y.weights)
        assert np.allclose(Te.data, coupling_tensor_measure(pe, 1).data,
                           atol=1e-12)


class TestGluing:
    def _tensors(self, rng, m=2, n=3, u=2, level=1):
        X = random_space(rng, m)
        Y = random_space(rng, n)
        Z = random_space(rng, u)
        P = coupling_tensor_measure(
            product_coupling(X.weights, Y.weights).pi, level)
        Q = coupling_tensor_measure(
            product_coupling(Y.weights, Z.weights).pi, level)
        return X, Y, Z, P, Q

    def test_product_tensors_glue_cleanly(self, rng):
        X, Y, Z, P, Q = self._tensors(rng)
        S, R = glue(P, Q, Y.weights)
        assert S.data.sum() == pytest.approx(1.0, abs=1e-12)
        report = check_tensor_measure(R, X.weights, Z.weights, tol=1e-9)
        assert report.passed

    def test_glued_marginals_recover_inputs(self, rng):
        X, Y, Z, P, Q = self._tensors(rng)
        m, n, u = P.m, P.n, Q.n
        S, _ = glue(P, Q, Y.weights)
        cube = S.data.reshape((m, n, u) * S.order)
        # summing out Z per slot recovers P, summing out X recovers Q
        axP = tuple(3 * s + 2 for s in range(S.order))
        axQ = tuple(3 * s for s in range(S.order))
        got_P = cube.sum(axis=axP).reshape(P.data.shape)
        got_Q = cube.sum(axis=axQ).reshape(Q.data.shape)
        assert np.abs(got_P - P.data).max() <= 1e-9
        assert np.abs(got_Q - Q.data).max() <= 1e-9

    def test_solver_tensors_glue(self, rng):
        X = random_space(rng, 2)
        Y = random_space(rng, 2)
        Z = random_space(rng, 2)
        rp = gw_lower_bound(X, Y, level=1)
        rq = gw_lower_bound(Y, Z, level=1)
        from gwsos import moments_to_tensor_measure
        P = moments_to_tensor_measure(rp.moments, 2, 2, 1)
        Q = moments_to_tensor_measure(rq.moments, 2, 2, 1)
        _, R = glue(P, Q, Y.weights)
        report = check_tensor_measure(R, X.weights, Z.weights, tol=1e-6)
        assert report.passed

    def test_mismatched_middle_space_rejected(self, rng):
        X, Y, Z, P, Q = self._tensors(rng, n=3)
        _, _, _, _, Q_bad = self._tensors(rng, m=2, n=2, u=2)
        with pytest.raises(ValueError, match="middle"):
            glue(P, Q_bad, Y.weights)

    def test_inconsistent_marginals_rejected(self, rng):
        Ya = np.array([0.5, 0.5])
        Yb = np.array([0.9, 0.1])
        P = coupling_tensor_measure(product_coupling([0.5, 0.5], Ya).pi, 1)
        Q = coupling_tensor_measure(product_coupling(Yb, [0.5, 0.5]).pi, 1)
        with pytest.raises(ValueError, match="marginals"):
            glue(P, Q, Ya)


class TestPseudoMetric:
    def test_axioms_on_small_family(self, rng):
        spaces = [random_space(rng, k) for k in (2, 2, 3)]
        report = pseudo_metric_check(spaces, p=1, q=1, level=1)
        assert report.passed(tol=1e-4)
        assert report.roots.shape == (3, 3)
        assert all(status == "optimal" for _, status in report.statuses)

    def test_roots_match_a_per_pair_loop(self, rng):
        # one batched solve gives each pair the bound of its solo solve
        spaces = [random_space(rng, k) for k in (2, 3, 3)]
        report = pseudo_metric_check(spaces, p=1, q=1, level=1)
        want = [[gw_lower_bound(a, b, p=1, q=1, level=1).root
                 for b in spaces] for a in spaces]
        np.testing.assert_allclose(report.roots, want, rtol=0, atol=1e-12)
