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
    exactly r - |I|/2 and entries y_{a+b+I};
  * the full moment matrix over all monomials of degree at most r as one
    more PSD block.  With sum pi = 1 the "trunc" block and the marginal
    identities already imply it; it stays because removing it changes the
    interior-point iterates and moves the bounds by about 1e-8.

Moment vectors of feasible couplings satisfy every constraint, so each
level's optimum is a true lower bound, and levels are monotone.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from . import moments as mom
from . import sdp
from .spaces import MetricMeasureSpace, ValidationError, build_cost_tensor


def pair_index(i: int, j: int, n: int) -> int:
    """Flat variable index of coupling entry (i, j)."""
    return i * n + j


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
    """Rows enforcing the coupling marginals on all low-degree moments."""
    maxdeg = basis.maxdeg
    low = basis.exponents[basis.degrees <= maxdeg - 1]
    rows = []
    for delta in low:
        delta = delta.astype(np.int64)
        base = basis.index(delta)
        for i in range(m):
            row = np.zeros(len(basis))
            for j in range(n):
                e = delta.copy()
                e[pair_index(i, j, n)] += 1
                row[basis.index(e)] += 1.0
            row[base] -= mu[i]
            rows.append(row)
        for j in range(n):
            row = np.zeros(len(basis))
            for i in range(m):
                e = delta.copy()
                e[pair_index(i, j, n)] += 1
                row[basis.index(e)] += 1.0
            row[base] -= nu[j]
            rows.append(row)
    return np.asarray(rows)


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
    row_exps = basis.exponents[basis.degrees <= level].astype(np.int64)
    table = mom.index_table(basis, row_exps)
    blocks.append(sdp.PsdBlock.from_index_table(table, label="moment"))
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

    eq_rows = [np.zeros(len(basis))]
    eq_rows[0][0] = 1.0
    eq_rhs = [1.0]
    marg = _marginal_equalities(basis, m, n, X.weights, Y.weights)
    stacked = np.column_stack([marg, np.zeros(len(marg))])
    stacked = np.unique(stacked, axis=0)
    eq_lhs = np.vstack([eq_rows, stacked[:, :-1]])
    eq_rhs = np.concatenate([eq_rhs, stacked[:, -1]])

    blocks = _localizing_blocks(basis, level)
    problem = sdp.SdpProblem(nvars=len(basis), objective=objective,
                             eq_lhs=eq_lhs, eq_rhs=eq_rhs, blocks=blocks)
    info = RelaxationInfo(level=level, m=m, n=n, nvars=len(basis),
                          num_equalities=len(eq_rhs),
                          block_labels=tuple(b.label for b in blocks),
                          basis=basis)
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
    moments: np.ndarray


def gw_lower_bound(X: MetricMeasureSpace, Y: MetricMeasureSpace,
                   p: float = 1.0, q: float = 1.0, level: int = 1,
                   feas_tol: float = sdp.DEFAULT_FEAS_TOL,
                   gap_tol: float = sdp.DEFAULT_GAP_TOL,
                   max_iter: int = sdp.DEFAULT_MAX_ITER) -> GwBound:
    """Level-r semidefinite lower bound on the distortion infimum gw(X, Y)."""
    problem, info = assemble_relaxation(X, Y, p, q, level)
    sol = sdp.solve(problem, feas_tol=feas_tol, gap_tol=gap_tol,
                    max_iter=max_iter)
    raw = sol.objective_value
    value = max(raw, 0.0) if np.isfinite(raw) else np.nan
    root = value ** (1.0 / p) if np.isfinite(raw) else np.nan
    return GwBound(value=value, raw_objective=raw, root=root,
                   status=sol.status, iterations=sol.iterations,
                   residuals=sol.residuals, level=level, p=p, q=q,
                   m=info.m, n=info.n, moments=sol.y)


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
