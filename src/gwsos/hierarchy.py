"""Moment relaxations of the quadratic coupling program.

The distortion is a quadratic form in the coupling entries pi_ij, and
the couplings of (mu, nu) are the points pi(t) = base + B^T t of a
polytope over the k = (m-1)(n-1) upper-left entries t (the oracle's
parametrization).  Level r of the moment-SOS hierarchy (Lasserre 2001)
over that polytope is an SDP over the moments w of a measure on t up to
degree 2r, with w_0 = 1 and these blocks:

  * the moment matrix M_r(w) over the t-monomials of degree <= r;
  * for each squarefree subset I of 2h coupling entries, 1 <= h <= r,
    the localizing block M_{r-h}(pi_I w) with entries
    sum_g L[e_I, g] w_{a+b+g}; at |I| = 2r it is one LP row.

The substitution map L takes t-moments to pi-moments, y = L w: row e_I
holds the t-coefficients of prod_{v in I} pi_v(t), the objective is
L^T c, and a solution reports its pi-moments L w.  Moments of couplings
satisfy every constraint, so each level is a lower bound, and levels are
monotone.

Zero-weight points carry no mass under any coupling and are dropped
first; their moments are reported as zeros.  Kept, their entries would
vanish on the polytope and leave no block strictly feasible.  With all
weights positive, Diracs near the product coupling make every block
positive definite.  A side left with one point (k = 0) has a unique
coupling and nothing to solve.

Isometries shrink the problem.  Weight-preserving isometries s of X and
t of Y permute the coupling entries by (i, j) -> (s(i), t(j)) and leave
the objective, the polytope and the set of blocks unchanged, so some
optimum has pi-moments constant on the orbits of monomials
(:func:`reduce_by_symmetry`), and blocks of subsets in one orbit are
congruent there: only the first of each orbit is built.  The reduction
is exact only when every permutation keeps every distance and weight
exactly, which is why :func:`gwsos.spaces.isometries` compares with
``==``; the isometries a capped search returns still give the exact
orbits of the subgroup they generate.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

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
    nvars: int                # t-moments w
    block_labels: tuple
    basis: mom.MonomialBasis  # pi-monomials of degree <= 2r
    lift: np.ndarray          # the pi-moments are lift @ w
    symmetries: int           # coupling-entry permutations the problem used


def _substitution_map(basis, mu, nu):
    """Matrix L with y = L w for pi = base + B^T t (oracle's parametrization).

    Row g holds the coefficients of the polynomial pi(t)^g over the
    t-monomials up to the basis degree 2r, so the moments of any measure
    on t map to those of its pushforward.  Rows are filled in graded
    order: with v the first variable of g, pi^g = pi_v(t) * pi^(g - e_v),
    and multiplying by the affine form b0_v + sum_u B[u, v] t_u is one
    scale plus one scatter of the shifts by the u with B[u, v] != 0.
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
    low = tbasis.exponents[tbasis.degrees < basis.maxdeg].astype(np.int64)
    shifts = np.stack([tbasis.index_rows(low + e)
                       for e in np.eye(k, dtype=np.int64)])
    exps = basis.exponents.astype(np.int64)
    first = np.argmax(exps > 0, axis=1)
    exps[np.arange(len(exps)), first] -= 1
    L = np.zeros((len(basis), len(tbasis)))
    L[0, 0] = 1.0
    for d in range(1, basis.maxdeg + 1):
        rows = np.flatnonzero(basis.degrees == d)
        v = first[rows]
        prev = L[basis.index_rows(exps[rows])]
        new = b0[v, None] * prev
        r, u = np.nonzero(B[:, v].T)
        width = mom.basis_size(k, d - 1)  # prev has degree d - 1
        np.add.at(new, (r[:, None], shifts[u, :width]),
                  B[u, v[r], None] * prev[r, :width])
        L[rows] = new
    return L


def _support(space):
    """The space without its zero-weight points, and the mask of kept ones."""
    keep = space.weights > 0
    if keep.all():
        return space, keep
    return MetricMeasureSpace(labels=np.asarray(space.labels)[keep],
                              dist=space.dist[np.ix_(keep, keep)],
                              weights=space.weights[keep], name=space.name,
                              scale=space.scale), keep


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


def reduce_by_symmetry(basis, L, t_rows, entry_perms):
    """Monomial orbits and a basis of the invariant t-moment directions.

    Entry permutations rename the variables of pi-monomials; ``orbit``
    labels each by its orbit.  The invariant moments are the image of the
    group average, so as orbit values u (y = u[orbit]) their directions
    span the orbit means of L's columns past the first.  Row t_rows[g] of
    L is the unit vector of t-monomial g, so w = u[orbit[t_rows]], which
    is one to one there: only the orbits of t-monomials enter the SVD.
    """
    mono = [basis.index_rows(basis.exponents[:, np.argsort(perm)])
            for perm in entry_perms]
    orbit = np.unique(_orbit_labels(mono), return_inverse=True)[1]
    order = np.argsort(orbit, kind="stable")
    starts = np.flatnonzero(np.diff(orbit[order], prepend=-1))
    sizes = np.diff(np.append(starts, len(orbit)))
    mean = np.add.reduceat(L[order, 1:], starts, axis=0) / sizes[:, None]
    t_orbits, t_orbit = np.unique(orbit[t_rows], return_inverse=True)
    return orbit, _range_basis(mean[t_orbits])[t_orbit]


def _localizing_blocks(basis, tbasis, L, level, orbit, entry_ids):
    """M_r (h = 0), then the localizing blocks, in h order.

    One shift table T[a, b, g] = index of t^(a+b+g) serves all subsets I
    of one h: block I adds L[e_I, g] w[T[a, b, g]] at (a, b) for each g
    with L[e_I, g] != 0.  With ``orbit``, only the first subset of each
    orbit of e_I gets a block; labels name entries by ``entry_ids``.
    """
    nvars, k = basis.nvars, tbasis.nvars
    exps = tbasis.exponents.astype(np.int64)
    blocks = []
    for h in range(level + 1):
        d = mom.basis_size(k, level - h)
        width = mom.basis_size(k, 2 * h)
        subsets = np.array(list(itertools.combinations(range(nvars), 2 * h)),
                           dtype=np.int64).reshape(math.comb(nvars, 2 * h),
                                                   2 * h)
        e_I = np.zeros((len(subsets), nvars), dtype=np.int64)
        np.put_along_axis(e_I, subsets, 1, axis=1)
        rows = basis.index_rows(e_I)
        if orbit is not None:
            keep = np.sort(np.unique(orbit[rows], return_index=True)[1])
            subsets, rows = subsets[keep], rows[keep]
        T = tbasis.index_rows(
            (exps[:d, None, None] + exps[None, :d, None] +
             exps[None, None, :width]).reshape(-1, k)).reshape(d * d, width)
        coef = L[rows, :width]
        which, g = np.nonzero(coef)
        var_idx = T[:, g].T.ravel()
        vals = np.repeat(coef[which, g], d * d)
        cells = np.tile(np.arange(d * d), len(g))
        bounds = np.append(0, np.cumsum(
            np.bincount(which, minlength=len(rows)))) * d * d
        cell_rows, cell_cols = np.divmod(cells, d)
        for subset, lo, hi in zip(subsets, bounds[:-1], bounds[1:]):
            label = (f"loc[{','.join(map(str, entry_ids[subset]))}]"
                     if h else "moment")
            blocks.append(sdp.PsdBlock(
                dim=d, const=np.zeros((d, d)), var_idx=var_idx[lo:hi],
                rows=cell_rows[lo:hi], cols=cell_cols[lo:hi],
                vals=vals[lo:hi], label=label))
    return blocks


def assemble_relaxation(X: MetricMeasureSpace, Y: MetricMeasureSpace,
                        p: float = 1.0, q: float = 1.0, level: int = 1):
    """Build the level-r SDP over t-moments; returns (problem, info).

    Zero-weight points are dropped, and exact isometries of what is left
    reduce the problem (module docstring).
    """
    if level < 1:
        raise ValidationError(f"hierarchy level must be >= 1, got {level}")
    (Xs, kx), (Ys, ky) = _support(X), _support(Y)
    cost = build_cost_tensor(Xs, Ys, p, q)
    nvars = Xs.size * Ys.size
    basis = mom.get_basis(nvars, 2 * level)
    L = _substitution_map(basis, Xs.weights, Ys.weights)

    # objective: sum_{v,w} c[v, w] y_{e_v + e_w}, pulled back through L
    eye = np.eye(nvars, dtype=np.int64)
    quad = basis.index_rows((eye[:, None] + eye[None, :]).reshape(-1, nvars))
    c = np.bincount(quad, weights=cost.entries.ravel(), minlength=len(basis))

    gx, gy = isometries(Xs), isometries(Ys)
    perms = _entry_permutations(gx, gy)
    entry_ids = np.flatnonzero(np.outer(kx, ky))  # kept among all m*n
    k = (Xs.size - 1) * (Ys.size - 1)
    nt = L.shape[1]
    blocks, free = [], (np.ones(1), np.zeros((1, 0)))
    if k:
        tbasis = mom.get_basis(k, 2 * level)
        grid = np.arange(nvars).reshape(Xs.size, Ys.size)
        t_exps = np.zeros((nt, nvars), dtype=np.int64)
        t_exps[:, grid[:-1, :-1].ravel()] = tbasis.exponents
        t0 = np.outer(Xs.weights, Ys.weights)[:-1, :-1].ravel()
        orbit, free_basis = None, np.eye(nt)[:, 1:]
        if perms:
            orbit, free_basis = reduce_by_symmetry(
                basis, L, basis.index_rows(t_exps), perms)
        free = (mom.point_moments(tbasis, t0), free_basis)
        blocks = _localizing_blocks(basis, tbasis, L, level, orbit,
                                    entry_ids)
    problem = sdp.SdpProblem(nvars=nt, objective=c @ L, blocks=blocks,
                             free=free, eq_lhs=np.eye(1, nt), eq_rhs=[1.0])

    lift = L
    if len(entry_ids) < X.size * Y.size:  # zero moments on dropped entries
        full = mom.get_basis(X.size * Y.size, 2 * level)
        exps = np.zeros((len(basis), full.nvars), dtype=np.int64)
        exps[:, entry_ids] = basis.exponents
        lift = np.zeros((len(full), nt))
        lift[full.index_rows(exps)], basis = L, full
    info = RelaxationInfo(level=level, m=X.size, n=Y.size, nvars=nt,
                          block_labels=tuple(b.label for b in blocks),
                          basis=basis, lift=lift,
                          symmetries=len(gx) * len(gy))
    return problem, info


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
    moments: np.ndarray   # pi-moments of the solution
    symmetries: int       # coupling-entry permutations the solve used


# Dense solver data (sdp.dense_bytes) per chunk of gw_lower_bounds.  A 4x4
# level-1 relaxation has 0.12 MB of them, and its assembled problem, lift
# and IPM temporaries take about three times that again, so a chunk adds
# about 2 MB to peak RSS however many pairs there are, while its lockstep
# batches still share each kernel call among several problems.
_CHUNK_BYTES = 1 << 19


def gw_lower_bound(X: MetricMeasureSpace, Y: MetricMeasureSpace,
                   p: float = 1.0, q: float = 1.0, level: int = 1) -> GwBound:
    """Level-r semidefinite lower bound on the distortion infimum gw(X, Y).

    When X or Y has an exact isometry, the relaxation is solved over
    invariant moments (module docstring).  The SDP stops on
    :mod:`gwsos.sdp`'s fixed tolerances or iteration cap, and ``status``
    says which.  This is :func:`gw_lower_bounds` on one pair.
    """
    return gw_lower_bounds([(X, Y)], p, q, level)[0]


def gw_lower_bounds(pairs, p: float = 1.0, q: float = 1.0,
                    level: int = 1) -> list:
    """:func:`gw_lower_bound` of each (X, Y) of the iterable pairs, in order.

    Pairs are taken from the iterable, assembled and solved in chunks; a
    chunk closes once its dense solver data pass ``_CHUNK_BYTES``, so
    memory does not grow with the number of pairs.  Within a chunk,
    relaxations of one shape are solved in lockstep by
    :func:`gwsos.sdp.solve_many`, and each bound is the one its pair gets
    alone.  A chunk of one problem goes through :func:`gwsos.sdp.solve`.
    """
    bounds, chunk, used = [], [], 0
    for X, Y in pairs:
        chunk.append(assemble_relaxation(X, Y, p, q, level))
        used += sdp.dense_bytes(chunk[-1][0])
        if used > _CHUNK_BYTES:
            bounds += _solve_chunk(chunk, p, q)
            chunk, used = [], 0
    return bounds + _solve_chunk(chunk, p, q)


def _solve_chunk(chunk, p, q):
    """The GwBounds of a list of assembled (problem, info) pairs."""
    if not chunk:
        return []
    problems, infos = zip(*chunk)
    # a lone problem goes through sdp.solve, so that tracing which wraps
    # sdp.solve (perfbench --trace 1) sees each gw_lower_bound solve
    sols = (sdp.solve_many(problems) if len(problems) > 1
            else [sdp.solve(problems[0])])
    return [_bound(info, sol, p, q) for info, sol in zip(infos, sols)]


def _bound(info, sol, p, q):
    """The GwBound of one solved relaxation."""
    raw = sol.objective_value
    value = max(raw, 0.0) if np.isfinite(raw) else np.nan
    root = value ** (1.0 / p) if np.isfinite(raw) else np.nan
    return GwBound(value=value, raw_objective=raw, root=root,
                   status=sol.status, iterations=sol.iterations,
                   residuals=sol.residuals, level=info.level, p=p, q=q,
                   m=info.m, n=info.n, moments=info.lift @ sol.y,
                   symmetries=info.symmetries)


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
