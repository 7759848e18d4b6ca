"""Moment relaxations of the quadratic coupling program.

The distortion objective is a quadratic form in the coupling entries
pi_ij, so its infimum over the coupling polytope can be bounded from
below by a hierarchy of semidefinite programs over truncated moment
vectors.  Level r uses moments up to degree 2r and imposes:

  * normalization y_0 = 1;
  * marginal identities sum_j y_{d+e_ij} = mu_i y_d (and the column
    analogue) for every monomial d of degree at most 2r - 1;
  * one truncated PSD block per squarefree even-cardinality subset I of
    the coupling entries, with rows indexed by the monomials of degree
    exactly r - |I|/2 and entries y_{a+b+I}.

The full moment matrix over all monomials of degree at most r is not a
block: with sum pi = 1 the "trunc" block and the marginal identities
already imply that it is PSD.

Moment vectors of feasible couplings satisfy every constraint, so each
level's optimum is a true lower bound, and levels are monotone.

The normalization and marginal identities also reach the solver in
solved form.  With pi = base + B^T t over the k = (m-1)(n-1) free
coordinates t, their solutions are exactly the pushforwards of
functionals on t-polynomials of degree <= 2r, so the map from t-moments
to pi-moments spans them without any factorization.

Isometries shrink the problem.  A weight-preserving isometry s of X and
t of Y permute the coupling entries by (i, j) -> (s(i), t(j)) and leave
the objective, the marginal identities and the set of blocks unchanged,
so averaging a feasible moment vector over the group they generate gives
a feasible one with the same objective: some optimum is constant on the
orbits of monomials.  :func:`reduce_by_symmetry` solves over one moment
per orbit, on the orbit average of the solved marginal identities, and
keeps one block of each orbit of blocks (one LP row per orbit of subsets
I at the top degree).  The reduction is exact only when
every permutation keeps every distance and weight exactly, which is why
:func:`gwsos.spaces.isometries` compares with ``==``; a subset of the
isometries, as a capped search returns, still gives the exact orbits of
the subgroup it generates.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from . import moments as mom
from . import sdp
from .oracle import _affine_parametrization
from .spaces import (MetricMeasureSpace, ValidationError, build_cost_tensor,
                     isometries)


@dataclasses.dataclass(frozen=True)
class RelaxationInfo:
    level: int
    m: int
    n: int
    nvars: int
    num_equalities: int
    block_labels: tuple
    basis: mom.MonomialBasis


def _marginal_equalities(basis, m, n, mu, nu):
    """Rows enforcing the coupling marginals on all low-degree moments.

    For each monomial d of degree below the top, in basis order, m row
    identities sum_j y_{d+e_ij} - mu_i y_d and then n column identities.
    """
    low = np.flatnonzero(basis.degrees <= basis.maxdeg - 1)
    shifts = np.eye(m * n, dtype=np.int64).reshape(m, n, m * n)
    shifted = basis.index_rows(
        (basis.exponents[low, None, None].astype(np.int64) + shifts)
        .reshape(-1, m * n)).reshape(len(low), m, n)
    rows = np.zeros((len(low), m + n, len(basis)))
    d = np.arange(len(low))[:, None, None]
    rows[d, np.arange(m)[:, None], shifted] = 1.0
    rows[d, m + np.arange(n), shifted] = 1.0
    rows[d[:, :, 0], np.arange(m), low[:, None]] -= mu
    rows[d[:, :, 0], m + np.arange(n), low[:, None]] -= nu
    return rows.reshape(-1, len(basis))


def _substitution_map(basis, mu, nu):
    """Matrix L with y = L w for pi = base + B^T t (oracle's parametrization).

    Row g holds the coefficients of the polynomial pi(t)^g over the
    t-monomials up to the basis degree 2r, so the moments of any measure on t map to
    those of its pushforward.  Rows are filled in graded order: with v the
    first variable of g, pi^g = pi_v(t) * pi^(g - e_v), and multiplying by
    the affine form b0_v + sum_u B[u, v] t_u is one scale plus k shifts.
    Column 0 is the Dirac measure at t = 0 and the others span the
    solutions of the marginal identities with y_0 = 0.
    """
    base, B = _affine_parametrization(mu, nu)
    b0 = base.ravel()
    k = len(B)
    if k == 0:  # a one-point space: the coupling is fixed
        return mom.point_moments(basis, b0)[:, None]
    B = B.reshape(k, basis.nvars)
    tbasis = mom.get_basis(k, basis.maxdeg)
    low = np.flatnonzero(tbasis.degrees < basis.maxdeg)
    low_exps = tbasis.exponents[low].astype(np.int64)
    shifts = [tbasis.index_rows(low_exps + e)
              for e in np.eye(k, dtype=np.int64)]
    exps = basis.exponents.astype(np.int64)
    first = np.argmax(exps > 0, axis=1)
    exps[np.arange(len(exps)), first] -= 1
    L = np.zeros((len(basis), len(tbasis)))
    L[0, 0] = 1.0
    for d in range(1, basis.maxdeg + 1):
        rows = np.flatnonzero(basis.degrees == d)
        v = first[rows]
        prev = L[basis.index_rows(exps[rows])]
        L[rows] = b0[v, None] * prev
        prev = prev[:, low]
        for u, shift in enumerate(shifts):
            L[rows[:, None], shift] += B[u, v, None] * prev
    return L


def _localizing_blocks(basis, level):
    """Index tables for the truncated PSD blocks of one hierarchy level."""
    nvars = basis.nvars
    blocks = []
    for d_half in range(level + 1):
        row_exps = basis.exponents[basis.degrees == level - d_half]
        row_exps = row_exps.astype(np.int64)
        for subset in itertools.combinations(range(nvars), 2 * d_half):
            shift = np.zeros(nvars, dtype=np.int64)
            shift[list(subset)] = 1
            table = mom.index_table(basis, row_exps, shift)
            label = f"loc[{','.join(map(str, subset))}]" if subset else "trunc"
            blocks.append(sdp.PsdBlock.from_index_table(table, label=label))
    return blocks


def assemble_relaxation(X: MetricMeasureSpace, Y: MetricMeasureSpace,
                        p: float = 1.0, q: float = 1.0, level: int = 1):
    """Build the level-r SDP; returns (problem, info)."""
    if level < 1:
        raise ValidationError(f"hierarchy level must be >= 1, got {level}")
    cost = build_cost_tensor(X, Y, p, q)
    m, n = cost.m, cost.n
    nvars = m * n
    basis = mom.get_basis(nvars, 2 * level)

    # objective: sum_{ijkl} c[i,j,k,l] y_{e_ij + e_kl}
    objective = np.zeros(len(basis))
    flat_cost = cost.entries.reshape(nvars, nvars)
    for v1 in range(nvars):
        for v2 in range(nvars):
            e = np.zeros(nvars, dtype=np.int64)
            e[v1] += 1
            e[v2] += 1
            objective[basis.index(e)] += flat_cost[v1, v2]

    marg = _marginal_equalities(basis, m, n, X.weights, Y.weights)
    eq_lhs = np.vstack([np.eye(1, len(basis)), marg])
    eq_rhs = np.zeros(len(eq_lhs))
    eq_rhs[0] = 1.0
    L = _substitution_map(basis, X.weights, Y.weights)

    blocks = _localizing_blocks(basis, level)
    problem = sdp.SdpProblem(nvars=len(basis), objective=objective,
                             eq_lhs=eq_lhs, eq_rhs=eq_rhs, blocks=blocks,
                             free=(L[:, 0], L[:, 1:]))
    info = RelaxationInfo(level=level, m=m, n=n, nvars=len(basis),
                          num_equalities=len(eq_rhs),
                          block_labels=tuple(b.label for b in blocks),
                          basis=basis)
    return problem, info


def _entry_permutations(gx, gy):
    """Coupling-entry permutations (i, j) -> (s(i), j) and (i, j) -> (i, t(j)).

    Each non-identity isometry s of X and t of Y gives one; together they
    generate the action of the found isometries on the entries.
    """
    grid = np.arange(len(gx[0]) * len(gy[0])).reshape(len(gx[0]), len(gy[0]))
    return ([grid[s].ravel() for s in gx[1:]] +
            [grid[:, t].ravel() for t in gy[1:]])


def _orbit_labels(perms):
    """Least member of each element's orbit under the group perms generate."""
    label = np.arange(len(perms[0]))
    while True:
        new = label.copy()
        for perm in perms:
            new = np.minimum(new, new[perm])
            new[perm] = np.minimum(new[perm], new)
        if np.array_equal(new, label):
            return label
        label = new


def _range_basis(A):
    """Orthonormal basis of the column space of A, by one thin SVD.

    Singular values at or below max(A.shape) * eps times the largest are
    dropped; a matrix without columns gives an empty basis.
    """
    U, sv = np.linalg.svd(A, full_matrices=False)[:2]
    rtol = max(A.shape) * np.finfo(float).eps
    rank = int((sv > rtol * sv[0]).sum()) if len(sv) else 0
    return U[:, :rank]


def reduce_by_symmetry(problem, basis, entry_perms):
    """Restrict a relaxation to moment vectors constant on orbits.

    A coupling-entry permutation acts on monomials by renaming variables.
    Moments are relabelled by their orbit u under the group the
    permutations generate, with y = u[orbit]; the objective is summed over
    each orbit.  The group maps the affine set ``free`` onto itself, so
    its invariant points are its image under the group average, which is
    the orbit mean: the reduced set is the orbit mean of the offset plus
    the range of the orbit means of the basis rows.  Blocks that a
    permutation maps onto each other agree up to a simultaneous
    row and column permutation at every invariant y, so one block of each
    such orbit stays, the first in problem order.  Returns the reduced
    problem and ``orbit``.
    """
    mono = [basis.index_rows(basis.exponents[:, np.argsort(perm)])
            for perm in entry_perms]
    orbit = np.unique(_orbit_labels(mono), return_inverse=True)[1]
    blocks = problem.blocks
    which = {np.unique(b.var_idx).tobytes(): k for k, b in enumerate(blocks)}
    block_perms = [np.array([which[np.unique(perm[b.var_idx]).tobytes()]
                             for b in blocks]) for perm in mono]
    first = _orbit_labels(block_perms) == np.arange(len(blocks))
    order = np.argsort(orbit, kind="stable")
    starts = np.flatnonzero(np.diff(orbit[order], prepend=-1))
    sizes = np.diff(np.append(starts, len(orbit)))

    def orbit_sum(a):
        return np.add.reduceat(a[order], starts, axis=0)

    offset, L = problem.free
    reduced = sdp.SdpProblem(
        nvars=len(starts), objective=orbit_sum(problem.objective),
        free=(orbit_sum(offset) / sizes,
              _range_basis(orbit_sum(L) / sizes[:, None])),
        blocks=[dataclasses.replace(b, var_idx=orbit[b.var_idx])
                for b, keep in zip(blocks, first) if keep])
    return reduced, orbit


@dataclasses.dataclass(frozen=True)
class GwBound:
    """Outcome of one hierarchy level on one instance pair."""

    value: float          # lower bound on gw, clamped at zero
    raw_objective: float  # SDP optimum before clamping
    root: float           # value ** (1/p), bounds the GW distance itself
    status: str
    iterations: int
    residuals: dict
    level: int
    p: float
    q: float
    m: int
    n: int
    moments: np.ndarray
    symmetries: int       # coupling-entry permutations the solve used


def gw_lower_bound(X: MetricMeasureSpace, Y: MetricMeasureSpace,
                   p: float = 1.0, q: float = 1.0, level: int = 1,
                   feas_tol: float = sdp.DEFAULT_FEAS_TOL,
                   gap_tol: float = sdp.DEFAULT_GAP_TOL,
                   max_iter: int = sdp.DEFAULT_MAX_ITER) -> GwBound:
    """Level-r semidefinite lower bound on the distortion infimum gw(X, Y).

    When X or Y has an exact isometry, the relaxation is solved over the
    orbits of the coupling entries (:func:`reduce_by_symmetry`).
    """
    problem, info = assemble_relaxation(X, Y, p, q, level)
    gx, gy = isometries(X), isometries(Y)
    symmetries = len(gx) * len(gy)
    orbit = None
    if symmetries > 1:
        problem, orbit = reduce_by_symmetry(problem, info.basis,
                                            _entry_permutations(gx, gy))
    sol = sdp.solve(problem, feas_tol=feas_tol, gap_tol=gap_tol,
                    max_iter=max_iter)
    raw = sol.objective_value
    value = max(raw, 0.0) if np.isfinite(raw) else np.nan
    root = value ** (1.0 / p) if np.isfinite(raw) else np.nan
    return GwBound(value=value, raw_objective=raw, root=root,
                   status=sol.status, iterations=sol.iterations,
                   residuals=sol.residuals, level=level, p=p, q=q,
                   m=info.m, n=info.n,
                   moments=sol.y if orbit is None else sol.y[orbit],
                   symmetries=symmetries)


@dataclasses.dataclass(frozen=True)
class TensorMeasure:
    """A symmetric tensor over coupling-entry atoms of even order 2r.

    ``data`` has shape (m*n,) * order; entry (v_1, ..., v_2r) is the mass
    the represented measure on couplings assigns to the monomial evaluated
    at those atoms.  For moment vectors of probability measures the total
    mass is one.
    """

    m: int
    n: int
    order: int
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        expected = (self.m * self.n,) * self.order
        if data.shape != expected:
            raise ValueError(f"tensor shape {data.shape}, expected {expected}")
        object.__setattr__(self, "data", data)

    @property
    def total_mass(self) -> float:
        return float(self.data.sum())


def _tuple_exponents(tuples, nvars):
    exps = np.zeros((len(tuples), nvars), dtype=np.int64)
    rows = np.arange(len(tuples))
    for col in np.asarray(tuples, dtype=np.int64).T:
        np.add.at(exps, (rows, col), 1)
    return exps


def moments_to_tensor_measure(y: np.ndarray, m: int, n: int,
                              level: int) -> TensorMeasure:
    """Spread a moment vector onto the order-2r atom tensor.

    Entry (v_1, ..., v_2r) receives the moment of the product monomial
    pi_{v_1} ... pi_{v_2r}, so coincident tuples share one moment value.
    """
    nvars = m * n
    basis = mom.get_basis(nvars, 2 * level)
    order = 2 * level
    tuples = np.array(list(itertools.product(range(nvars), repeat=order)),
                      dtype=np.int64)
    idx = basis.index_rows(_tuple_exponents(tuples, nvars))
    data = y[idx].reshape((nvars,) * order)
    return TensorMeasure(m=m, n=n, order=order, data=data)


def tensor_measure_to_moments(T: TensorMeasure, level: int = None) -> np.ndarray:
    """Recover a moment vector from an atom tensor by marginalization.

    The degree-g moment is read off the slice whose first |g| coordinates
    pin the atoms of the monomial, summed over the remaining coordinates.
    On tensors coming from measures with the prescribed marginals this
    inverts :func:`moments_to_tensor_measure` exactly.
    """
    if level is None:
        level = T.order // 2
    if T.order != 2 * level:
        raise ValueError(f"tensor order {T.order} does not match level {level}")
    nvars = T.m * T.n
    basis = mom.get_basis(nvars, 2 * level)
    y = np.empty(len(basis))
    for g, exp in enumerate(basis.exponents):
        rep = np.repeat(np.arange(nvars), exp.astype(np.int64))
        slc = T.data[tuple(rep)]
        y[g] = slc.sum() if getattr(slc, "ndim", 0) else float(slc)
    return y


def coupling_tensor_measure(pi: np.ndarray, level: int) -> TensorMeasure:
    """Atom tensor of the point mass at one coupling: a pure product tensor."""
    pi = np.asarray(pi, dtype=float)
    m, n = pi.shape
    flat = pi.ravel()
    data = flat
    for _ in range(2 * level - 1):
        data = np.multiply.outer(data, flat)
    return TensorMeasure(m=m, n=n, order=2 * level, data=data)


@dataclasses.dataclass(frozen=True)
class TensorCheckReport:
    symmetric: bool
    symmetry_error: float
    marginal: bool
    marginal_error: float
    psd: bool
    min_eigenvalue: float

    @property
    def passed(self) -> bool:
        return self.symmetric and self.marginal and self.psd


def check_tensor_measure(T: TensorMeasure, mu: np.ndarray, nu: np.ndarray,
                         tol: float = 1e-7) -> TensorCheckReport:
    """Verify the structural conditions a coupling-measure tensor satisfies.

    Checks full permutation symmetry, the two marginal identities on the
    first coordinate, and positive semidefiniteness of every contraction
    matrix obtained by pinning an even number of coordinates to atoms and
    unfolding the rest symmetrically.
    """
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    m, n, order = T.m, T.n, T.order
    nvars = m * n
    level = order // 2

    sym_err = 0.0
    for perm in itertools.permutations(range(order)):
        sym_err = max(sym_err,
                      float(np.abs(T.data - T.data.transpose(perm)).max()))

    pairs = T.data.reshape((m, n) + (nvars,) * (order - 1))
    rest = T.data.sum(axis=0)
    marg_err = float(np.abs(pairs.sum(axis=1) -
                            mu.reshape((m,) + (1,) * (order - 1)) * rest).max())
    marg_err = max(marg_err, float(
        np.abs(pairs.sum(axis=0) -
               nu.reshape((n,) + (1,) * (order - 1)) * rest).max()))

    min_eig = np.inf
    for d_half in range(level + 1):
        side = nvars ** (level - d_half)
        for pinned in itertools.combinations_with_replacement(
                range(nvars), 2 * d_half):
            block = T.data[(Ellipsis,) + pinned] if pinned else T.data
            mat = np.asarray(block).reshape(side, side)
            if side == 1:
                min_eig = min(min_eig, float(mat[0, 0]))
            else:
                min_eig = min(min_eig,
                              float(np.linalg.eigvalsh(
                                  0.5 * (mat + mat.T))[0]))

    return TensorCheckReport(symmetric=sym_err <= tol,
                             symmetry_error=sym_err,
                             marginal=marg_err <= tol,
                             marginal_error=marg_err,
                             psd=min_eig >= -tol,
                             min_eigenvalue=float(min_eig))
