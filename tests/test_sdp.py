import json

import numpy as np
import pytest
from scipy import linalg

from gwsos import assemble_relaxation, sdp

from conftest import random_space


def analytic_problem():
    """min -x subject to [[1, x], [x, 1]] psd; optimum x = 1, value -1."""
    blk = sdp.PsdBlock(dim=2,
                       const=np.eye(2),
                       var_idx=np.array([0, 0]),
                       rows=np.array([0, 1]),
                       cols=np.array([1, 0]),
                       vals=np.array([1.0, 1.0]),
                       label="corr")
    return sdp.SdpProblem(nvars=1, objective=np.array([-1.0]),
                          free=([0.0], np.eye(1)), blocks=[blk])


class TestAnalyticInstances:
    def test_correlation_matrix_extreme(self):
        sol = sdp.solve(analytic_problem())
        assert sol.status == "optimal"
        assert abs(sol.y[0] - 1.0) <= 1e-6
        assert abs(sol.objective_value + 1.0) <= 1e-6

    def test_lp_via_one_by_one_blocks(self):
        # min x subject to x >= 2 (block [x - 2] psd) -> x = 2
        blk = sdp.PsdBlock(dim=1,
                           const=np.array([[-2.0]]),
                           var_idx=np.array([0]),
                           rows=np.array([0]),
                           cols=np.array([0]),
                           vals=np.array([1.0]))
        prob = sdp.SdpProblem(nvars=1, objective=np.array([1.0]),
                              free=([0.0], np.eye(1)), blocks=[blk])
        sol = sdp.solve(prob)
        assert sol.status == "optimal"
        assert sol.y[0] == pytest.approx(2.0, abs=1e-6)

    def test_equality_only_problem(self):
        # fully determined by equalities, no free directions left
        blk = sdp.PsdBlock(dim=1, const=np.zeros((1, 1)),
                           var_idx=np.array([0]), rows=np.array([0]),
                           cols=np.array([0]), vals=np.array([1.0]))
        prob = sdp.SdpProblem(nvars=1, objective=np.array([1.0]),
                              free=([3.0], np.zeros((1, 0))), blocks=[blk])
        sol = sdp.solve(prob)
        assert sol.status == "optimal"
        assert sol.y[0] == pytest.approx(3.0, abs=1e-9)

    def test_unbounded_like_instance_does_not_claim_optimal(self):
        # min -x with x >= 0 only: dual infeasible, no optimum exists
        blk = sdp.PsdBlock(dim=1, const=np.zeros((1, 1)),
                           var_idx=np.array([0]), rows=np.array([0]),
                           cols=np.array([0]), vals=np.array([1.0]))
        prob = sdp.SdpProblem(nvars=1, objective=np.array([-1.0]),
                              free=([0.0], np.eye(1)), blocks=[blk])
        sol = sdp.solve(prob, max_iter=60)
        assert sol.status != "optimal"


def lp_problem(objective, const, free):
    """One LP row, const + y_0 >= 0, over nvars = len(objective)."""
    blk = sdp.PsdBlock(dim=1, const=np.array([[const]]),
                       var_idx=np.array([0]), rows=np.array([0]),
                       cols=np.array([0]), vals=np.array([1.0]))
    return sdp.SdpProblem(nvars=len(objective), objective=objective,
                          free=free, blocks=[blk])


class TestSolveMany:
    def test_each_problem_gets_its_solo_solve(self, rng):
        relaxations = [assemble_relaxation(random_space(rng, 2),
                                           random_space(rng, 3), level=1)[0]
                       for _ in range(3)]
        problems = relaxations + [
            analytic_problem(),
            # unbounded: min -y_0 with y_0 >= 0 only
            lp_problem([-1.0], 0.0, ([0.0], np.eye(1))),
            # min y_0 with y_0 >= -2: optimal
            lp_problem([1.0], 2.0, ([0.0], np.eye(1))),
            # y_0 is fixed and y_1 appears in no block, so the Schur
            # matrix is zero and its factorization fails
            lp_problem([0.0, 1.0], 1.0, (np.zeros(2), np.eye(2)[:, 1:])),
            # nothing free: y = 3 is checked, not solved for
            lp_problem([1.0], 0.0, ([3.0], np.zeros((1, 0)))),
        ]
        assert len({sdp._shape(p) for p in problems}) == 4
        solo = [sdp.solve(p, max_iter=60) for p in problems]
        assert [s.status for s in solo[-4:]] == [
            "numerical_failure", "optimal", "numerical_failure", "optimal"]
        assert solo[-2].iterations == 0
        for order in (range(len(problems)), [6, 0, 4, 7, 3, 5, 2, 1]):
            order = list(order)
            sols = sdp.solve_many([problems[i] for i in order], max_iter=60)
            for i, sol in zip(order, sols):
                assert sol.status == solo[i].status
                assert sol.iterations == solo[i].iterations
                assert np.allclose(sol.y, solo[i].y, rtol=0, atol=1e-9)


class TestFreeCoordinates:
    def test_iterates_start_at_the_offset(self, rng):
        prob, _ = assemble_relaxation(random_space(rng, 2),
                                      random_space(rng, 3), level=1)
        sol = sdp.solve(prob, max_iter=0)
        assert sol.status == "max_iterations"
        assert np.array_equal(sol.y, prob.free[0])


class TestDeterminism:
    def test_bit_identical_reruns(self):
        sols = [sdp.solve(analytic_problem()) for _ in range(3)]
        for s in sols[1:]:
            assert np.array_equal(s.y, sols[0].y)
            assert s.objective_value == sols[0].objective_value
            assert s.iterations == sols[0].iterations

    def test_bit_identical_reruns_with_stacks(self, rng):
        prob, _ = assemble_relaxation(random_space(rng, 3),
                                      random_space(rng, 3), level=2)
        N = np.linalg.qr(prob.free[1])[0]
        lp_g0, _, G0s, _ = sdp._stack_blocks(prob.blocks, prob.free[0], N)
        assert len(lp_g0) == 126
        assert [G0.shape for G0 in G0s] == [(1, 15, 15), (36, 5, 5)]
        first, again = sdp.solve(prob), sdp.solve(prob)
        assert first.status == "optimal"
        assert np.array_equal(again.y, first.y)
        assert again.objective_value == first.objective_value
        assert again.iterations == first.iterations


def _random_pd_stack(rng, k, d):
    A = rng.normal(size=(k, d, d))
    return A @ A.mT + 0.1 * np.eye(d)


class TestStacks:
    def test_stacked_data_matches_each_block(self, rng):
        # block by block, each entry is const + sum of vals * y[var_idx],
        # at y_p and along each column of N, over the block's scale
        prob, _ = assemble_relaxation(random_space(rng, 3),
                                      random_space(rng, 3), level=2)
        y_p = prob.free[0]
        N = np.linalg.qr(prob.free[1])[0]
        lp_g0, lp_G, G0s, Gs = sdp._stack_blocks(prob.blocks, y_p, N)
        got = {1: iter(zip(lp_g0[:, None, None], lp_G[:, None, None, :]))}
        for G0, G in zip(G0s, Gs):
            got[G0.shape[1]] = iter(zip(G0, G.transpose(1, 2, 3, 0)))

        def dense(blk, y):
            M = np.array(blk.const, dtype=float)
            np.add.at(M, (blk.rows, blk.cols), blk.vals * y[blk.var_idx])
            return M

        for blk in prob.blocks:
            g0 = dense(blk, y_p)
            g = np.stack([dense(blk, col) - blk.const for col in N.T],
                         axis=-1)
            scale = max(1.0, np.abs(g0).max(), np.abs(g).max())
            have0, have = next(got[blk.dim])
            assert np.allclose(have0, g0 / scale, rtol=0, atol=1e-15)
            assert np.allclose(have, g / scale, rtol=0, atol=1e-15)

    def test_max_step_is_least_generalized_eigenvalue(self, rng):
        M = _random_pd_stack(rng, 6, 4)
        dM = _sym(3.0 * rng.normal(size=(6, 4, 4)))
        lam = min(linalg.eigh(dM[i], M[i], eigvals_only=True)[0]
                  for i in range(6))
        assert lam < 0
        want = min(1.0, -0.98 / lam)
        Li = np.linalg.inv(np.linalg.cholesky(M))
        assert sdp._max_step(Li, dM) == pytest.approx(want, abs=1e-10)
        assert sdp._max_step(Li, 0.0 * dM) == 1.0

    def test_block_order_does_not_change_optimum(self, rng):
        # an elliptope block bounds y; the others are I + sum y_t A_t
        nvars = 3
        blocks = [sdp.PsdBlock(dim=3, const=np.eye(3),
                               var_idx=np.array([0, 0, 1, 1, 2, 2]),
                               rows=np.array([0, 1, 0, 2, 1, 2]),
                               cols=np.array([1, 0, 2, 0, 2, 1]),
                               vals=np.ones(6))]
        for d in (1, 2, 3, 2):
            rr, cc = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
            coef = _sym(rng.normal(size=(nvars, d, d)))
            blocks.append(sdp.PsdBlock(
                dim=d, const=np.eye(d),
                var_idx=np.repeat(np.arange(nvars), d * d),
                rows=np.tile(rr.ravel(), nvars),
                cols=np.tile(cc.ravel(), nvars), vals=coef.ravel()))
        c = rng.normal(size=nvars)

        def solve(order):
            return sdp.solve(sdp.SdpProblem(
                nvars=nvars, objective=c,
                free=(np.zeros(nvars), np.eye(nvars)),
                blocks=[blocks[i] for i in order]))

        assert [blocks[i].dim for i in range(5)] == [3, 1, 2, 3, 2]
        a, b = solve([0, 1, 2, 3, 4]), solve([4, 3, 1, 2, 0])
        assert a.status == b.status == "optimal"
        assert a.objective_value == pytest.approx(b.objective_value,
                                                  abs=1e-8)


def _sym(M):
    return 0.5 * (M + M.mT)


class TestSerialization:
    def test_dump_load_roundtrip(self, tmp_path):
        prob = analytic_problem()
        path = tmp_path / "prob.json"
        sdp.dump_problem(prob, path)
        again = sdp.load_problem(path)
        assert again.nvars == prob.nvars
        assert np.array_equal(again.objective, prob.objective)
        assert len(again.blocks) == 1
        blk0, blk1 = prob.blocks[0], again.blocks[0]
        assert blk1.dim == blk0.dim
        assert np.array_equal(np.asarray(blk1.const),
                              np.asarray(blk0.const))
        assert blk1.label == blk0.label
        # solving the reloaded problem gives the same answer
        s0, s1 = sdp.solve(prob), sdp.solve(again)
        assert s1.objective_value == pytest.approx(s0.objective_value,
                                                   abs=1e-12)

    def test_free_roundtrips(self, tmp_path, rng):
        prob, _ = assemble_relaxation(random_space(rng, 2),
                                      random_space(rng, 2), level=1)
        path = tmp_path / "prob.json"
        sdp.dump_problem(prob, path)
        again = sdp.load_problem(path)
        for a, b in zip(again.free, prob.free):
            assert np.array_equal(a, b)

    def test_dump_without_free_refused(self, tmp_path):
        path = tmp_path / "prob.json"
        sdp.dump_problem(analytic_problem(), path)
        doc = json.loads(path.read_text())
        del doc["free"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="'free'"):
            sdp.load_problem(path)
