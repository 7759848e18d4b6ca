import numpy as np
import pytest

from gwsos import sdp


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
                          eq_lhs=np.zeros((0, 1)), eq_rhs=np.zeros(0),
                          blocks=[blk])


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
                              eq_lhs=np.zeros((0, 1)), eq_rhs=np.zeros(0),
                              blocks=[blk])
        sol = sdp.solve(prob)
        assert sol.status == "optimal"
        assert sol.y[0] == pytest.approx(2.0, abs=1e-6)

    def test_equality_only_problem(self):
        # fully determined by equalities, no free directions left
        blk = sdp.PsdBlock(dim=1, const=np.zeros((1, 1)),
                           var_idx=np.array([0]), rows=np.array([0]),
                           cols=np.array([0]), vals=np.array([1.0]))
        prob = sdp.SdpProblem(nvars=1, objective=np.array([1.0]),
                              eq_lhs=np.array([[2.0]]),
                              eq_rhs=np.array([6.0]),
                              blocks=[blk])
        sol = sdp.solve(prob)
        assert sol.status == "optimal"
        assert sol.y[0] == pytest.approx(3.0, abs=1e-9)

    def test_inconsistent_equalities_flagged(self):
        prob = sdp.SdpProblem(nvars=1, objective=np.array([1.0]),
                              eq_lhs=np.array([[1.0], [1.0]]),
                              eq_rhs=np.array([0.0, 1.0]),
                              blocks=[])
        sol = sdp.solve(prob)
        assert sol.status == "infeasible_suspected"
        assert not np.isfinite(sol.objective_value)

    def test_unbounded_like_instance_does_not_claim_optimal(self):
        # min -x with x >= 0 only: dual infeasible, no optimum exists
        blk = sdp.PsdBlock(dim=1, const=np.zeros((1, 1)),
                           var_idx=np.array([0]), rows=np.array([0]),
                           cols=np.array([0]), vals=np.array([1.0]))
        prob = sdp.SdpProblem(nvars=1, objective=np.array([-1.0]),
                              eq_lhs=np.zeros((0, 1)), eq_rhs=np.zeros(0),
                              blocks=[blk])
        sol = sdp.solve(prob, max_iter=60)
        assert sol.status != "optimal"


class TestDeterminism:
    def test_bit_identical_reruns(self):
        sols = [sdp.solve(analytic_problem()) for _ in range(3)]
        for s in sols[1:]:
            assert np.array_equal(s.y, sols[0].y)
            assert s.objective_value == sols[0].objective_value
            assert s.iterations == sols[0].iterations


@pytest.fixture
def svd_calls(monkeypatch):
    """Count the SVDs the solver computes."""
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(kwargs.get("full_matrices", True))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


class TestEliminateEqualities:
    def test_machine_precision_satisfaction(self, rng, svd_calls):
        A = rng.normal(size=(4, 9))
        b = rng.normal(size=4)
        y_p, N, resid = sdp._eliminate_equalities(A, b)
        assert resid <= 1e-12
        assert np.abs(A @ y_p - b).max() <= 1e-12
        assert np.abs(A @ N).max() <= 1e-12
        # N orthonormal
        assert np.allclose(N.T @ N, np.eye(N.shape[1]), atol=1e-12)
        # a wide A needs the full factorization to complete the basis
        assert svd_calls == [False, True]

    def test_tall_rank_deficient(self, rng, svd_calls):
        # 9 rows, 7 columns, rank 4: duplicated and combined rows
        A0 = rng.normal(size=(4, 7))
        A = np.vstack([A0, A0[1], A0[0] + 2 * A0[2], A0[3] - A0[1],
                       A0[2], A0.sum(axis=0)])
        x = rng.normal(size=7)
        b = A @ x
        y_p, N, resid = sdp._eliminate_equalities(A, b)
        assert resid <= 1e-12
        assert np.abs(A @ y_p - b).max() <= 1e-12
        assert N.shape == (7, 3)
        assert np.abs(A @ N).max() <= 1e-12
        assert np.allclose(N.T @ N, np.eye(3), atol=1e-12)
        assert svd_calls == [False]

    def test_tall_full_rank(self, rng, svd_calls):
        A = rng.normal(size=(9, 5))
        x = rng.normal(size=5)
        y_p, N, resid = sdp._eliminate_equalities(A, A @ x)
        assert resid <= 1e-12
        assert np.allclose(y_p, x, atol=1e-12)
        assert N.shape == (5, 0)
        assert svd_calls == [False]

    def test_redundant_rows_handled(self, rng):
        A = rng.normal(size=(3, 5))
        A = np.vstack([A, A[0]])
        b = np.array([1.0, 2.0, 3.0, 1.0])
        y_p, N, resid = sdp._eliminate_equalities(A, b)
        assert resid <= 1e-12
        assert N.shape == (5, 2)

    def test_zero_row_nonzero_rhs_infeasible(self):
        A = np.zeros((1, 3))
        b = np.array([1.0])
        y_p, N, resid = sdp._eliminate_equalities(A, b)
        assert y_p is None and resid == np.inf


class TestFacialReduction:
    def test_common_kernel_removed(self, rng):
        # build matrices all annihilating a shared direction u
        d = 5
        u = rng.normal(size=d)
        u /= np.linalg.norm(u)
        P = np.eye(d) - np.outer(u, u)
        G0 = P @ rng.normal(size=(d, d))
        G0 = P @ (G0 + G0.T) @ P
        G = np.stack([P @ _sym(rng.normal(size=(d, d))) @ P
                      for _ in range(3)])
        G0r, Gr = sdp._facial_reduction(G0, G)
        assert G0r.shape == (d - 1, d - 1)
        assert Gr.shape == (3, d - 1, d - 1)

    def test_full_rank_untouched(self, rng):
        d = 4
        G0 = _sym(rng.normal(size=(d, d))) + 5 * np.eye(d)
        G = np.stack([_sym(rng.normal(size=(d, d)))])
        G0r, Gr = sdp._facial_reduction(G0, G)
        assert np.array_equal(G0r, G0)
        assert np.array_equal(Gr, G)

    def test_spectrum_preserved_on_complement(self, rng):
        d = 6
        u = rng.normal(size=d)
        u /= np.linalg.norm(u)
        P = np.eye(d) - np.outer(u, u)
        A = P @ (_sym(rng.normal(size=(d, d))) + 4 * np.eye(d)) @ P
        G0r, _ = sdp._facial_reduction(A, np.zeros((0, d, d)))
        want = np.sort(np.linalg.eigvalsh(A))[1:]  # drop the forced zero
        got = np.sort(np.linalg.eigvalsh(G0r))
        assert np.allclose(got, want, atol=1e-10)


def _sym(M):
    return 0.5 * (M + M.T)


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
