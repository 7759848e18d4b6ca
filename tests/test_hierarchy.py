import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from gwsos import (MetricMeasureSpace, ValidationError, assemble_relaxation,
                   brute_force_gw, build_cost_tensor, check_tensor_measure,
                   coupling_tensor_measure, evaluate_objective,
                   gw_lower_bound, moments_to_tensor_measure,
                   product_coupling, tensor_measure_to_moments)
from gwsos import hierarchy, sdp
from gwsos import moments as mom
from gwsos.cli import _block_labels
from gwsos.hierarchy import _entry_permutations
from gwsos.oracle import _affine_parametrization
from gwsos.spaces import isometries

from conftest import concentration_pair, random_space


class TestAssembly:
    def test_level_below_one_rejected(self, two_point_pair):
        X, Y = two_point_pair
        with pytest.raises(ValidationError, match="level"):
            assemble_relaxation(X, Y, level=0)

    def test_block_labels(self, rng):
        # M_r, then one localizing block per subset I with |I| = 2h
        for m, n, level in [(2, 2, 1), (2, 3, 2)]:
            _, info = assemble_relaxation(random_space(rng, m),
                                          random_space(rng, n), level=level)
            assert info.symmetries == 1
            labels = _block_labels(info.parts)
            assert labels[0] == "moment"
            locs = [l for l in labels if l.startswith("loc")]
            assert len(labels) == 1 + len(locs)
            assert len(locs) == sum(math.comb(m * n, 2 * h)
                                    for h in range(1, level + 1))
            assert locs[:2] == ["loc[0,1]", "loc[0,2]"]

    def test_one_record_per_block_size(self, rng):
        # one record per h, holding a block per label; at 2x2 level 3 no
        # subset of 6 of the 4 entries exists, so h = 3 gets no record
        for m, n, level, sizes in [(2, 2, 1, [2, 1]),
                                   (2, 3, 2, [6, 3, 1]),
                                   (3, 3, 2, [15, 5, 1]),
                                   (2, 2, 3, [4, 3, 2])]:
            prob, info = assemble_relaxation(random_space(rng, m),
                                             random_space(rng, n), level=level)
            assert [blk.dim for blk in prob.blocks] == sizes
            assert [d for d, _ in info.parts] == sizes
            assert sum(len(blk.const) for blk in prob.blocks) == \
                len(_block_labels(info.parts))

    def test_objective_matches_cost_quadratic(self, rng):
        # the linear objective on the product coupling's t-moments equals
        # the quadratic distortion of that coupling
        X = random_space(rng, 2)
        Y = random_space(rng, 3)
        prob, _ = assemble_relaxation(X, Y, p=2, q=1, level=1)
        pi = product_coupling(X.weights, Y.weights).pi
        w = mom.point_moments(mom.get_basis(2, 2), pi[:-1, :-1].ravel())
        cost = build_cost_tensor(X, Y, 2, 1)
        assert prob.objective @ w == pytest.approx(
            evaluate_objective(cost, pi), rel=1e-12)

    def test_coupling_moments_satisfy_equalities(self, rng):
        # the Dirac at a random positive coupling satisfies w_0 = 1, makes
        # every block psd, and its objective is the coupling's distortion
        for m, n, level in [(2, 2, 1), (2, 3, 2), (3, 3, 1), (3, 3, 2)]:
            X, Y = random_space(rng, m), random_space(rng, n)
            prob, info = assemble_relaxation(X, Y, level=level)
            t0 = np.outer(X.weights, Y.weights)[:-1, :-1].ravel()
            step = X.weights.min() * Y.weights.min() / len(t0)
            t = t0 + 0.9 * step * rng.uniform(-1, 1, size=len(t0))
            w = mom.point_moments(mom.get_basis(len(t), 2 * level), t)
            pi = parametrized_coupling(X, Y, t)
            assert pi.min() > 0
            assert np.abs(prob.eq_lhs @ w - prob.eq_rhs).max() <= 1e-15
            for blk in prob.blocks:
                lam = np.linalg.eigvalsh(block_matrices(blk, w))
                floor = -1e-12 * np.maximum(1.0, lam[:, -1])
                assert (lam[:, 0] >= floor).all()
            cost = build_cost_tensor(X, Y, 1, 1)
            assert prob.objective @ w == pytest.approx(
                evaluate_objective(cost, pi), rel=1e-12)


def parametrized_coupling(X, Y, t):
    """pi(t) = base + B^T t, the oracle's parametrization."""
    base, B = _affine_parametrization(X.weights, Y.weights)
    return base + np.tensordot(t, B, axes=1)


def block_matrices(blk, w):
    """The (k, d, d) stack a record's blocks take at the moment vector w."""
    M = np.array(blk.const, dtype=float)
    np.add.at(M.reshape(-1), blk.cells, blk.vals * w[blk.var_idx])
    return M


def dense(rows):
    """A SparseRows matrix, such as ``RelaxationInfo.lift``, as an array."""
    return rows.dense(np.arange(rows.shape[0]), rows.shape[1])


def dense_substitution_map(basis, mu, nu):
    """L by the dense recurrence, row by row in graded order (k >= 1).

    Row g is pi_v(t) times its parent row g - e_v, v the first variable
    of g: the parent scaled by b0_v, plus its shifts by the u with
    B[u, v] != 0, added in ascending u.
    """
    base, B = _affine_parametrization(mu, nu)
    b0, k = base.ravel(), len(B)
    B = B.reshape(k, basis.nvars)
    tbasis = mom.get_basis(k, basis.maxdeg)
    L = np.zeros((len(basis), len(tbasis)))
    L[0, 0] = 1.0
    for g in range(1, len(basis)):
        exps = basis.exponents[g].astype(np.int64)
        v = np.argmax(exps > 0)
        exps[v] -= 1
        parent = L[basis.index_rows(exps)[0]]
        L[g] = b0[v] * parent
        for u in np.flatnonzero(B[:, v]):
            for j in np.flatnonzero(parent):
                shift = tbasis.exponents[j].astype(np.int64)
                shift[u] += 1
                L[g, tbasis.index_rows(shift)[0]] += B[u, v] * parent[j]
    return L


class TestSubstitution:
    @pytest.mark.parametrize("m,n,level",
                             itertools.product([1, 2, 3], [1, 2, 3], [1, 2]))
    def test_free_spans_equality_solutions(self, rng, m, n, level):
        # the lift of the Dirac at t is the Dirac at the coupling pi(t), so
        # lifting the free set {w : w_0 = 1} gives the moments of measures
        # on the coupling polytope, which solve the marginal identities
        X, Y = random_space(rng, m), random_space(rng, n)
        prob, info = assemble_relaxation(X, Y, level=level)
        k = (m - 1) * (n - 1)
        for _ in range(3):
            t = rng.normal(size=k)
            w = (mom.point_moments(mom.get_basis(k, 2 * level), t) if k
                 else np.ones(1))
            want = mom.point_moments(info.basis,
                                     parametrized_coupling(X, Y, t).ravel())
            assert np.abs(info.lift @ w - want).max() <= \
                1e-12 * np.abs(want).max()
        offset, basis = prob.free
        assert np.array_equal(prob.eq_lhs, np.eye(1, prob.nvars))
        assert np.array_equal(prob.eq_rhs, [1.0])
        assert offset[0] == 1.0
        # without isometries the free set is the coordinates w[1:]
        assert np.array_equal(basis, np.arange(1, prob.nvars))

    def test_zero_weight_point(self, rng):
        # a point no coupling can load is dropped: the bound is that of the
        # pair without it, and the moments vanish on its entries
        dist = random_space(rng, 3).dist
        Y = MetricMeasureSpace(labels=["a", "b", "c"], dist=dist,
                               weights=np.array([0.4, 0.0, 0.6]))
        Y_kept = MetricMeasureSpace(labels=["a", "c"],
                                    dist=dist[np.ix_([0, 2], [0, 2])],
                                    weights=np.array([0.4, 0.6]))
        X = random_space(rng, 2)
        for level in (1, 2):
            res = gw_lower_bound(X, Y, level=level)
            ref = gw_lower_bound(X, Y_kept, level=level)
            assert res.status == ref.status == "optimal"
            assert res.value == ref.value
            basis = mom.get_basis(6, 2 * level)
            loads_b = basis.exponents[:, [1, 4]].any(axis=1)
            assert not res.moments[loads_b].any()
            assert np.array_equal(res.moments[~loads_b], ref.moments)
        # one point left: the coupling is unique and nothing is solved
        X_point = MetricMeasureSpace(labels=["o", "z"], dist=dist[:2, :2],
                                     weights=np.array([1.0, 0.0]))
        res = gw_lower_bound(X_point, Y_kept, level=2)
        assert res.status == "optimal"
        assert res.iterations == 0
        pi = np.zeros((2, 2))
        pi[0] = Y_kept.weights
        cost = build_cost_tensor(X_point, Y_kept, 1, 1)
        assert res.raw_objective == pytest.approx(
            evaluate_objective(cost, pi), abs=1e-15)

    def test_offset_is_the_product_coupling(self, rng):
        X, Y = random_space(rng, 2), random_space(rng, 3)
        prob, info = assemble_relaxation(X, Y, level=2)
        pi = product_coupling(X.weights, Y.weights).pi
        want = mom.point_moments(info.basis, pi.ravel())
        assert np.abs(info.lift @ prob.free[0] - want).max() <= 1e-15


class TestSparseSubstitution:
    """The sparse map against a dense loop over the same recurrence.

    Entries must agree bit for bit under ``==``, which takes zeros of
    either sign as equal.  The stored pattern depends on the shape only
    and may hold exact zeros, so zero patterns are compared on values.
    """

    @staticmethod
    def assert_matches_dense(mu, nu, level):
        basis = mom.get_basis(len(mu) * len(nu), 2 * level)
        L = hierarchy._substitution_map(basis, mu, nu)
        ref = dense_substitution_map(basis, mu, nu)
        got = dense(L)
        assert got.shape == ref.shape
        assert np.array_equal(got, ref)
        assert np.array_equal(np.nonzero(got), np.nonzero(ref))
        # columns ascend within each row, as the records read them
        inner = np.ones(len(L.cols) - 1, dtype=bool)
        inner[L.indptr[1:-1] - 1] = False
        assert (np.diff(L.cols)[inner] > 0).all()
        return L

    @pytest.mark.parametrize("m,n,level", [(2, 2, 1), (2, 3, 2), (3, 3, 2),
                                           (3, 4, 2), (4, 4, 1)])
    def test_random_weights(self, rng, m, n, level):
        self.assert_matches_dense(random_space(rng, m).weights,
                                  random_space(rng, n).weights, level)

    def test_concentration_pair(self):
        fine, coarse = concentration_pair()
        self.assert_matches_dense(fine.weights, coarse.weights, 1)

    def test_zero_corner_base(self):
        # base[-1, -1] = nu[-1] - sum(mu[:-1]) is exactly 0 here, so the
        # plan's constant term of the corner is 0: the map stores zeros,
        # and the records keep none of them
        half = np.array([0.5, 0.5])
        assert _affine_parametrization(half, half)[0][-1, -1] == 0.0
        L = self.assert_matches_dense(half, half, 2)
        assert (L.vals == 0).any()
        prob, _ = direct_relaxation(line(0, 1), line(0, 0.5), 2)
        for blk in prob.blocks:
            assert (blk.vals != 0).all()

    def test_assembly_peak_memory(self):
        # a dense L of this 16x4 level-1 pair alone takes 17.7 MB, and
        # an assembly that builds it peaks at about 40 MB under
        # tracemalloc; with sparse rows the peak is about 22 MB
        fine, coarse = concentration_pair()
        tracemalloc.start()
        try:
            assemble_relaxation(fine, coarse, level=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24e6


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


def direct_relaxation(X, Y, level):
    """The relaxation as assembled when no isometry is found."""
    with mock.patch.object(hierarchy, "isometries",
                           lambda space: [np.arange(space.size)]):
        return assemble_relaxation(X, Y, level=level)


def equidistant():
    """Eight points at mutual distance 1: 8! isometries, more than found."""
    return MetricMeasureSpace(labels=list("abcdefgh"), dist=1.0 - np.eye(8),
                              weights=np.full(8, 1 / 8))


def symmetric_cases():
    """(X, Y, level) of every symmetric pair the reduction is tested on."""
    return ([(LINES[m], LINES[n], level)
             for m, n in [(2, 2), (2, 3), (3, 3), (3, 4)] for level in (1, 2)]
            + [(square(), LINES[3], 1), (square(), LINES[3], 2),
               (*concentration_pair(), 1), (equidistant(), LINES[2], 1)])


def t_rows(info, X, Y):
    """Rows of the pi-basis at the t-monomials, as the hierarchy reads them."""
    k = (X.size - 1) * (Y.size - 1)
    tbasis = mom.get_basis(k, 2 * info.level)
    grid = np.arange(X.size * Y.size).reshape(X.size, Y.size)[:-1, :-1]
    t_exps = np.zeros((len(tbasis), X.size * Y.size), dtype=np.int64)
    t_exps[:, grid.ravel()] = tbasis.exponents
    return info.basis.index_rows(t_exps)


def assert_reduced_free_exact(X, Y, level):
    """The reduced affine set is the invariant part of the assembled one.

    Symmetric pairs are stated over y = (1, z), with the t-moments
    w = W y for W = [w0, N] (``RelaxationInfo.reduced``).
    """
    prob, info = assemble_relaxation(X, Y, level=level)
    W = info.reduced
    offset, basis = W[:, 0], W[:, 1:]
    nt = len(W)
    assert prob.nvars == W.shape[1]
    assert np.array_equal(prob.free[0], np.eye(1, prob.nvars)[0])
    assert np.array_equal(prob.free[1], np.arange(1, prob.nvars))
    assert offset[0] == 1.0
    assert np.abs(basis[0]).max(initial=0.0) <= 1e-14
    # N is orthonormal as built
    assert np.abs(basis.T @ basis - np.eye(basis.shape[1])).max(
        initial=0.0) <= 1e-12
    perms = _entry_permutations(isometries(X), isometries(Y))
    mono = [info.basis.index_rows(info.basis.exponents[:, np.argsort(perm)])
            for perm in perms]
    # every direction lifts to pi-moments that the permutations keep
    lift = dense(info.lift)
    lifted = lift @ W
    for g in mono:
        assert np.abs(lifted[g] - lifted).max() <= 1e-12
    # and the invariant w with w_0 = 0 are all spanned: the action of g
    # on t-moments is A_g = lift[g] read at the t-monomials
    ul = t_rows(info, X, Y)
    D = np.vstack([lift[g][ul][:, 1:] - np.eye(nt)[:, 1:]
                   for g in mono])
    dim = nt - 1 - np.linalg.matrix_rank(D)
    assert basis.shape[1] == dim
    assert np.linalg.matrix_rank(basis) == dim


def assert_reduction_exact(X, Y, level, symmetries):
    res = gw_lower_bound(X, Y, level=level)
    prob, _ = direct_relaxation(X, Y, level)
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
        space = equidistant()
        found = len(isometries(space))
        assert 1 < found < 40320
        assert_reduction_exact(space, LINES[2], 1, 2 * found)

    def test_one_point_side(self):
        # k = 0: the coupling is fixed and the reduced basis is empty
        point = MetricMeasureSpace(labels=["o"], dist=np.zeros((1, 1)),
                                   weights=np.ones(1))
        for level in (1, 2):
            reduced, _ = assemble_relaxation(LINES[2], point, level=level)
            assert reduced.free[1].shape == (0,)
            res = assert_reduction_exact(LINES[2], point, level, 2)
            assert res.raw_objective == pytest.approx(0.5, abs=1e-12)
            assert res.iterations == 0

    @pytest.mark.parametrize("m,n,level", [
        (m, n, level) for m, n in [(2, 2), (2, 3), (3, 3), (3, 4)]
        for level in (1, 2)])
    def test_reduced_free_spans_invariant_solutions(self, m, n, level):
        assert_reduced_free_exact(LINES[m], LINES[n], level)

    def test_reduced_free_square_and_concentration_pair(self):
        assert_reduced_free_exact(square(), LINES[3], 2)
        assert_reduced_free_exact(*concentration_pair(), 1)

    def test_only_one_block_per_orbit_is_built(self):
        reduced, info = assemble_relaxation(LINES[2], LINES[2], level=1)
        direct, _ = direct_relaxation(LINES[2], LINES[2], level=1)
        # the 6 pairs of the 4 entries fall into 3 orbits under the
        # reflections: {01, 23}, {02, 13} and {03, 12}
        assert info.symmetries == 4
        assert sum(len(blk.const) for blk in direct.blocks) == 7
        subsets = [what for _, what in info.parts
                   if isinstance(what, np.ndarray)]
        assert np.concatenate(subsets).tolist() == [[0, 1], [0, 2], [0, 3]]
        # M_1 over (1, t) splits into two 1x1 blocks, which join the LP rows
        assert _block_labels(info.parts) == [
            "moment[+,+]", "moment[-,-]", "loc[0,1]", "loc[0,2]", "loc[0,3]"]
        assert [blk.const.shape for blk in reduced.blocks] == [(5, 1, 1)]

    def test_optimum_independent_of_reduced_basis(self):
        # another orthonormal basis of the invariant directions states
        # another problem with the same optimum
        orbits_and_basis = hierarchy.reduce_by_symmetry

        def rotated(*args):
            orbit, N = orbits_and_basis(*args)
            rot = np.linalg.qr(np.random.default_rng(7).normal(
                size=(N.shape[1],) * 2))[0]
            return orbit, N @ rot

        a = gw_lower_bound(LINES[3], LINES[4], level=2)
        with mock.patch.object(hierarchy, "reduce_by_symmetry", rotated):
            b = gw_lower_bound(LINES[3], LINES[4], level=2)
        assert a.status == b.status == "optimal"
        assert abs(a.raw_objective - b.raw_objective) <= 1e-6

    @pytest.mark.parametrize("case", range(len(symmetric_cases())))
    def test_isotypic_blocks(self, case):
        # each Q_s spans the joint eigenspace of signs s of the T_g', its
        # size is the trace of P_s, the sizes add up to that of M_r, and
        # for the offset and every basis direction the blocks between two
        # components vanish
        X, Y, level = symmetric_cases()[case]
        _, info = assemble_relaxation(X, Y, level=level)
        k = (X.size - 1) * (Y.size - 1)
        d = mom.basis_size(k, level)
        rows = t_rows(info, X, Y)
        perms = hierarchy._involutions(isometries(X), isometries(Y))
        assert perms
        split = hierarchy._isotypic_split(info.basis, info.lift, rows, d,
                                          perms)
        exps = info.basis.exponents[rows[:d]]
        lift = dense(info.lift)
        Ts = [lift[info.basis.index_rows(exps[:, g]), :d].T for g in perms]
        for signs, Q in split:
            P = np.eye(d)
            for s, T in zip(signs, Ts):
                assert np.abs(T @ Q - s * Q).max() <= 1e-12
                P = P @ (np.eye(d) + s * T) / 2
            assert len(Q.T) == pytest.approx(np.trace(P), abs=1e-9)
        assert sum(len(Q.T) for _, Q in split) == d
        texps = mom.get_basis(k, 2 * level).exponents[:d].astype(np.int64)
        shift = mom.get_basis(k, 2 * level).index_rows(
            texps[:, None] + texps[None]).reshape(d, d)
        M = info.reduced[shift].transpose(2, 0, 1)
        for (_, Q1), (_, Q2) in itertools.combinations(split, 2):
            assert np.abs(Q1.T @ M @ Q2).max() <= 1e-12

    @pytest.mark.parametrize("case", range(len(symmetric_cases())))
    def test_invariant_rank_is_the_svd_rank(self, case):
        # the rank from eigh of the scaled Gram matrix is that of one SVD
        # of the orbit means of L at the t-orbits, cut at max(shape) * eps
        X, Y, level = symmetric_cases()[case]
        _, info = assemble_relaxation(X, Y, level=level)
        perms = _entry_permutations(isometries(X), isometries(Y))
        mono = [info.basis.index_rows(info.basis.exponents[:, np.argsort(g)])
                for g in perms]
        orbit = np.unique(hierarchy._orbit_labels(mono),
                          return_inverse=True)[1]
        sums = np.zeros((orbit.max() + 1, info.nvars - 1))
        np.add.at(sums, orbit, dense(info.lift)[:, 1:])
        mean = sums / np.bincount(orbit)[:, None]
        A = mean[np.unique(orbit[t_rows(info, X, Y)])]
        sv = np.linalg.svd(A, compute_uv=False)
        rank = int((sv > max(A.shape) * np.finfo(float).eps * sv[0]).sum())
        assert info.reduced.shape[1] - 1 == rank

    def test_split_problem_reruns_bit_identical(self):
        X, Y = square(), LINES[3]
        first, again = (assemble_relaxation(X, Y, level=2)[0]
                        for _ in range(2))
        assert np.array_equal(first.objective, again.objective)
        for a, b in zip(first.blocks, again.blocks):
            for name in ("const", "var_idx", "cells", "vals"):
                assert np.array_equal(getattr(a, name), getattr(b, name))
        a, b = (gw_lower_bound(X, Y, level=2) for _ in range(2))
        assert a.status == b.status == "optimal"
        assert a.iterations == b.iterations
        assert a.raw_objective == b.raw_objective
        assert np.array_equal(a.moments, b.moments)

    def test_trivial_group_solves_the_assembled_problem(self, rng):
        X, Y = random_space(rng, 3), random_space(rng, 2)
        res = gw_lower_bound(X, Y, level=1)
        prob, info = assemble_relaxation(X, Y, level=1)
        direct = sdp.solve(prob)
        assert res.symmetries == 1
        assert np.array_equal(res.moments, info.lift @ direct.y)
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
