import json
from unittest import mock

import numpy as np
import pytest
from scipy import linalg, sparse

from gwsos import (MetricMeasureSpace, assemble_relaxation, gw_lower_bound,
                   hierarchy, sdp)

from conftest import concentration_pair, random_space


def analytic_problem():
    """min -x subject to [[1, x], [x, 1]] psd; optimum x = 1, value -1."""
    blk = sdp.PsdBlock(const=np.eye(2)[None],
                       var_idx=np.array([0, 0]),
                       cells=np.array([1, 2]),
                       vals=np.array([1.0, 1.0]))
    return sdp.SdpProblem(nvars=1, objective=np.array([-1.0]),
                          free=([0.0], [0]), blocks=[blk])


class TestAnalyticInstances:
    def test_correlation_matrix_extreme(self):
        sol = sdp.solve(analytic_problem())
        assert sol.status == "optimal"
        assert abs(sol.y[0] - 1.0) <= 1e-6
        assert abs(sol.objective_value + 1.0) <= 1e-6

    def test_lp_via_one_by_one_blocks(self):
        # min x subject to x >= 2 (block [x - 2] psd) -> x = 2
        blk = sdp.PsdBlock(const=np.array([[[-2.0]]]),
                           var_idx=np.array([0]),
                           cells=np.array([0]),
                           vals=np.array([1.0]))
        prob = sdp.SdpProblem(nvars=1, objective=np.array([1.0]),
                              free=([0.0], [0]), blocks=[blk])
        sol = sdp.solve(prob)
        assert sol.status == "optimal"
        assert sol.y[0] == pytest.approx(2.0, abs=1e-6)

    def test_equality_only_problem(self):
        # fully determined by equalities, no free directions left
        blk = sdp.PsdBlock(const=np.zeros((1, 1, 1)),
                           var_idx=np.array([0]), cells=np.array([0]),
                           vals=np.array([1.0]))
        prob = sdp.SdpProblem(nvars=1, objective=np.array([1.0]),
                              free=([3.0], np.arange(0)), blocks=[blk])
        sol = sdp.solve(prob)
        assert sol.status == "optimal"
        assert sol.y[0] == pytest.approx(3.0, abs=1e-9)

    def test_unbounded_like_instance_does_not_claim_optimal(self):
        # min -x with x >= 0 only: dual infeasible, no optimum exists
        blk = sdp.PsdBlock(const=np.zeros((1, 1, 1)),
                           var_idx=np.array([0]), cells=np.array([0]),
                           vals=np.array([1.0]))
        prob = sdp.SdpProblem(nvars=1, objective=np.array([-1.0]),
                              free=([0.0], [0]), blocks=[blk])
        sol = sdp.solve(prob, max_iter=60)
        assert sol.status != "optimal"


def lp_problem(objective, const, free):
    """One LP row, const + y_0 >= 0, over nvars = len(objective)."""
    blk = sdp.PsdBlock(const=np.array([[[const]]]),
                       var_idx=np.array([0]), cells=np.array([0]),
                       vals=np.array([1.0]))
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
            lp_problem([-1.0], 0.0, ([0.0], [0])),
            # min y_0 with y_0 >= -2: optimal
            lp_problem([1.0], 2.0, ([0.0], [0])),
            # y_0 is fixed and y_1 appears in no block, so the Schur
            # matrix is zero and its factorization fails
            lp_problem([0.0, 1.0], 1.0, (np.zeros(2), [1])),
            # nothing free: y = 3 is checked, not solved for
            lp_problem([1.0], 0.0, ([3.0], np.arange(0))),
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


def relabelled(space, perm):
    return MetricMeasureSpace(labels=[space.labels[i] for i in perm],
                              dist=space.dist[np.ix_(perm, perm)],
                              weights=space.weights[perm])


class TestCorrectorSafeguard:
    def test_concentration_pair_iteration_ceiling(self):
        # an unguarded corrector takes 35 iterations here with one BLAS
        # thread and 20 with two; the safeguard takes 19 with either
        res = gw_lower_bound(*concentration_pair(), level=1)
        assert res.status == "optimal"
        assert res.iterations <= 22
        assert res.value == pytest.approx(0.078125, rel=0, abs=1e-6)

    def test_lockstep_equals_solo_when_rows_choose_apart(self):
        fine, coarse = concentration_pair()
        rng = np.random.default_rng(1)
        spaces = [fine] + [relabelled(fine, rng.permutation(16))
                           for _ in range(3)]
        problems = [assemble_relaxation(X, coarse, level=1)[0]
                    for X in spaces]
        assert len({sdp._shape(p) for p in problems}) == 1
        solo = [sdp.solve(p) for p in problems]
        with mock.patch.object(sdp, "_pick", wraps=sdp._pick) as pick:
            sols = sdp.solve_many(problems)
        # the rows took the uncorrected direction on different iterations
        # (the centering fallback, the other per-row pick, does not fire
        # on these four)
        masks = {tuple(c.args[0].tolist()) for c in pick.call_args_list}
        assert len({m for m in masks if 0 < sum(m) < len(m)}) >= 2
        for sol, alone in zip(sols, solo):
            assert alone.status == "optimal"
            assert sol.status == alone.status
            assert sol.iterations == alone.iterations
            assert np.allclose(sol.y, alone.y, rtol=0, atol=1e-9)


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
        lp_g0, _, G0s, _ = sdp._stack_blocks(prob.blocks, *prob.free)
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
        # block by block, each entry is const + sum of vals * y[var_idx]
        # over the triplets of its cell, at y_p and along each free
        # coordinate N, over the block's scale
        prob, _ = assemble_relaxation(random_space(rng, 3),
                                      random_space(rng, 3), level=2)
        y_p, N = prob.free
        lp_g0, lp_G, G0s, Gs = sdp._stack_blocks(prob.blocks, y_p, N)
        got = {1: (lp_g0[:, None, None], lp_G[:, None, None, :])}
        for G0, G in zip(G0s, Gs):
            got[G0.shape[1]] = (G0, G.transpose(1, 2, 3, 0))
        Y = np.column_stack([y_p, np.eye(prob.nvars)[:, N]])
        for blk in prob.blocks:
            k, d, _ = blk.const.shape
            have0, have = got[d]
            assert len(have0) == len(have) == k
            which, cell = np.divmod(blk.cells, d * d)
            for i in range(k):
                mine = which == i
                M = np.zeros((d * d, Y.shape[1]))
                np.add.at(M, cell[mine],
                          blk.vals[mine, None] * Y[blk.var_idx[mine]])
                g0 = blk.const[i] + M[:, 0].reshape(d, d)
                g = M[:, 1:].reshape(d, d, -1)
                scale = max(1.0, np.abs(g0).max(), np.abs(g).max())
                assert np.allclose(have0[i], g0 / scale, rtol=0, atol=1e-15)
                assert np.allclose(have[i], g / scale, rtol=0, atol=1e-15)

    def test_two_records_of_one_size_refused(self):
        blk = analytic_problem().blocks[0]
        with pytest.raises(ValueError, match="one per size"):
            sdp.SdpProblem(nvars=1, objective=[-1.0],
                           free=([0.0], [0]), blocks=[blk, blk])

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
        # an elliptope block bounds y; the others are I + sum y_t A_t.
        # Each block is (d, var_idx, cells, vals).
        nvars = 3
        blocks = [(3, np.array([0, 0, 1, 1, 2, 2]),
                   np.array([1, 3, 2, 6, 5, 7]), np.ones(6))]
        for d in (1, 2, 3, 2):
            coef = _sym(rng.normal(size=(nvars, d, d)))
            blocks.append((d, np.repeat(np.arange(nvars), d * d),
                           np.tile(np.arange(d * d), nvars), coef.ravel()))
        c = rng.normal(size=nvars)

        def solve(order):
            """Records in order of first appearance, blocks in order."""
            by_size = {}
            for i in order:
                by_size.setdefault(blocks[i][0], []).append(blocks[i][1:])
            return sdp.solve(sdp.SdpProblem(
                nvars=nvars, objective=c,
                free=(np.zeros(nvars), np.arange(nvars)),
                blocks=[_record(d, group) for d, group in by_size.items()]))

        assert [blocks[i][0] for i in range(5)] == [3, 1, 2, 3, 2]
        a, b = solve([0, 1, 2, 3, 4]), solve([4, 3, 1, 2, 0])
        assert a.status == b.status == "optimal"
        assert a.objective_value == pytest.approx(b.objective_value,
                                                  abs=1e-8)


def _record(d, blocks):
    """The record of the blocks I + sum_t vals_t y[var_t] E(cells_t)."""
    return sdp.PsdBlock(
        const=np.broadcast_to(np.eye(d), (len(blocks), d, d)).copy(),
        var_idx=np.concatenate([var for var, _, _ in blocks]),
        cells=np.concatenate([i * d * d + cells
                              for i, (_, cells, _) in enumerate(blocks)]),
        vals=np.concatenate([vals for _, _, vals in blocks]))


def _sym(M):
    return 0.5 * (M + M.mT)


def _random_record(rng, k, d, nvars, ntrip):
    """A record with duplicate (cell, var) triplets and empty cells."""
    cells = rng.integers(0, k * d * d, size=ntrip // 2)
    var_idx = rng.integers(0, nvars, size=ntrip // 2)
    return sdp.PsdBlock(const=rng.normal(size=(k, d, d)),
                        var_idx=np.concatenate([var_idx, var_idx[:5]]),
                        cells=np.concatenate([cells, cells[:5]]),
                        vals=rng.normal(size=ntrip // 2 + 5))


class TestKernels:
    def test_stacking_matches_sparse_reference(self, rng):
        nvars = 7
        blocks = [_random_record(rng, 3, 4, nvars, 40),
                  _random_record(rng, 5, 1, nvars, 12),
                  _random_record(rng, 2, 2, nvars, 10)]
        assert len(np.unique(blocks[0].cells)) < blocks[0].const.size
        y_p = rng.normal(size=nvars)
        N = np.array([1, 2, 4, 6])
        lp_g0, lp_G, G0s, Gs = sdp._stack_blocks(blocks, y_p, N)
        got = {1: (lp_g0[:, None, None], lp_G.T[:, :, None, None])}
        for G0, G in zip(G0s, Gs):
            got[G0.shape[-1]] = (G0, G)
        Nd = np.eye(nvars)[:, N]
        for blk in blocks:
            k, d, _ = blk.const.shape
            A = sparse.csr_array((blk.vals, (blk.cells, blk.var_idx)),
                                 shape=(k * d * d, nvars))
            G0 = blk.const + (A @ y_p).reshape(k, d, d)
            G = (A @ Nd).T.reshape(4, k, d, d)
            scale = np.maximum.reduce([np.ones(k), np.abs(G0).max(axis=(1, 2)),
                                       np.abs(G).max(axis=(0, 2, 3))])
            assert np.allclose(got[d][0], G0 / scale[:, None, None],
                               rtol=0, atol=1e-15)
            assert np.allclose(got[d][1], G / scale[:, None, None],
                               rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 312])
    @pytest.mark.parametrize("count", [1, 3])
    def test_schur_solve_matches_cho_solve(self, rng, n, count):
        A = rng.normal(size=(count, n, n))
        M = A @ A.mT + 0.1 * np.eye(n)
        L, bad = sdp._schur_factor(M)
        assert not bad.any()
        rhs = rng.normal(size=(count, n))
        x = sdp._schur_solver(L)(rhs)
        for i in range(count):
            want = linalg.cho_solve((L[i], True), rhs[i])
            assert np.abs(x[i] - want).max() <= 1e-12 * np.abs(want).max()

    def test_schur_solve_with_ridge(self, rng):
        # the second problem's matrix is singular: only it gets the ridge
        A = rng.normal(size=(3, 65, 65))
        A[1, :, 40:] = 0.0
        M = A @ A.mT
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(M[1])
        L, bad = sdp._schur_factor(M)
        assert not bad.any()
        rhs = rng.normal(size=(3, 65))
        x = sdp._schur_solver(L)(rhs)
        for i in range(3):
            want = linalg.cho_solve((L[i], True), rhs[i])
            assert np.abs(x[i] - want).max() <= 1e-12 * np.abs(want).max()

    def test_free_coordinates_match_an_explicit_basis(self, rng):
        # without isometries the free set is w[1:]; the same set as the
        # explicit basis W = [w0, I[:, 1:]] gives the problem restated in
        # its coordinates y = (1, z), as symmetric pairs are, with dense
        # triplets and the constants in const
        X, Y = random_space(rng, 3), random_space(rng, 3)
        prob, info = assemble_relaxation(X, Y, level=2)
        assert info.symmetries == 1
        offset, coords = prob.free
        assert np.array_equal(coords, np.arange(1, prob.nvars))
        W = np.eye(prob.nvars)
        W[:, 0] = offset
        with mock.patch.object(hierarchy, "isometries",
                               lambda space: [np.arange(space.size)] * 2), \
                mock.patch.object(hierarchy, "reduce_by_symmetry",
                                  lambda *args: (None, W[:, 1:])), \
                mock.patch.object(hierarchy, "_isotypic_split",
                                  lambda *args: [((), np.eye(args[3]))]):
            restated, _ = assemble_relaxation(X, Y, level=2)
        assert np.array_equal(restated.free[0], np.eye(1, prob.nvars)[0])
        assert np.array_equal(restated.free[1], coords)
        assert [blk.dim for blk in restated.blocks] == \
            [blk.dim for blk in prob.blocks]
        a, b = sdp.solve(prob), sdp.solve(restated)
        assert a.status == b.status == "optimal"
        assert a.iterations == b.iterations
        assert abs(a.objective_value - b.objective_value) <= 1e-12


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
        for name in ("const", "var_idx", "cells", "vals"):
            assert np.array_equal(getattr(blk1, name), getattr(blk0, name))
        # solving the reloaded problem gives the same answer
        s0, s1 = sdp.solve(prob), sdp.solve(again)
        assert s1.objective_value == pytest.approx(s0.objective_value,
                                                   abs=1e-12)

    def test_assembled_records_roundtrip(self, tmp_path, rng):
        prob, _ = assemble_relaxation(random_space(rng, 2),
                                      random_space(rng, 3), level=2)
        path = tmp_path / "prob.json"
        sdp.dump_problem(prob, path)
        again = sdp.load_problem(path)
        assert [blk.dim for blk in again.blocks] == [6, 3, 1]
        for blk1, blk0 in zip(again.blocks, prob.blocks):
            for name in ("const", "var_idx", "cells", "vals"):
                assert np.array_equal(getattr(blk1, name),
                                      getattr(blk0, name))
        s0, s1 = sdp.solve(prob), sdp.solve(again)
        assert s0.status == s1.status == "optimal"
        assert s1.iterations == s0.iterations
        assert np.array_equal(s1.y, s0.y)

    def test_free_roundtrips(self, tmp_path, rng):
        prob, _ = assemble_relaxation(random_space(rng, 2),
                                      random_space(rng, 2), level=1)
        path = tmp_path / "prob.json"
        sdp.dump_problem(prob, path)
        assert "coords" in json.loads(path.read_text())["free"]
        again = sdp.load_problem(path)
        for a, b in zip(again.free, prob.free):
            assert np.array_equal(a, b)
        assert again.free[1].dtype.kind == "i"
        s0, s1 = sdp.solve(prob), sdp.solve(again)
        assert s1.iterations == s0.iterations
        assert np.array_equal(s1.y, s0.y)

    @pytest.mark.parametrize("coords", [[1.0], [1, 1], [2], [-1]])
    def test_malformed_coordinates_refused(self, coords):
        with pytest.raises(ValueError, match="distinct integers"):
            sdp.SdpProblem(nvars=2, objective=[1.0, 0.0], blocks=[],
                           free=([1.0, 0.0], np.array(coords)))

    def test_dense_basis_refused(self, tmp_path):
        # the solver reads free coordinates only; a dump of a dense basis
        # (the form the solver used to orthonormalize) is refused by name
        path = tmp_path / "prob.json"
        sdp.dump_problem(analytic_problem(), path)
        doc = json.loads(path.read_text())
        doc["free"] = {"offset": [0.0], "basis": [[1.0]]}
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="'basis'"):
            sdp.load_problem(path)
        with pytest.raises(ValueError, match="1-D"):
            sdp.SdpProblem(nvars=1, objective=[-1.0], blocks=[],
                           free=([0.0], np.eye(1)))

    def test_dump_without_free_refused(self, tmp_path):
        path = tmp_path / "prob.json"
        sdp.dump_problem(analytic_problem(), path)
        doc = json.loads(path.read_text())
        del doc["free"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="'free'"):
            sdp.load_problem(path)
