"""Coarsening, extension, and gluing of couplings and their tensors.

Concentrating a space onto cell representatives perturbs the distortion
objective by at most 4*C*radius for a C-Lipschitz cost, which is how the
hierarchy bounds transfer between discretizations.  Gluing composes a
coupling tensor on X x Y with one on Y x Z through their shared
Y-marginal, the mechanism behind the triangle inequality of the bounds.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from .hierarchy import TensorMeasure, gw_lower_bounds
from .spaces import MetricMeasureSpace, lipschitz_constant, restrict_space


@dataclasses.dataclass(frozen=True)
class CellPartition:
    """A covering of a finite space by cells around representative points."""

    cells: tuple          # tuple of tuples of point indices
    representatives: tuple
    radius: float         # max distance from a point to its representative

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    def cell_of(self, size: int) -> np.ndarray:
        """Map from point index to cell index."""
        out = np.empty(size, dtype=np.int64)
        for ci, cell in enumerate(self.cells):
            out[list(cell)] = ci
        return out


def _farthest_point_cover(d: np.ndarray, radius: float) -> tuple:
    """Sorted representatives and, per point, the position of its own.

    The farthest-point cover of :func:`build_cell_partition`, on the
    distance matrix d with cell radius at most ``radius``.
    """
    reps = [0]
    dist_to_reps = d[0].copy()
    while dist_to_reps.max() > radius:
        far = int(np.argmax(dist_to_reps))
        reps.append(far)
        dist_to_reps = np.minimum(dist_to_reps, d[far])
    reps = sorted(reps)
    return reps, np.argmin(d[np.asarray(reps)], axis=0)


def build_cell_partition(space: MetricMeasureSpace,
                         epsilon: float) -> CellPartition:
    """Greedy farthest-point cover with cells of radius at most epsilon.

    Representatives are chosen by repeatedly taking the point farthest
    from the current representative set (lowest index on ties), starting
    from point 0, until every point lies within epsilon of some
    representative.  Points are then assigned to their nearest
    representative, earlier representatives winning ties.
    """
    n = space.size
    d = space.dist
    reps, assign = _farthest_point_cover(d, epsilon)
    cells = tuple(tuple(np.flatnonzero(assign == k)) for k in range(len(reps)))
    radius = float(max(d[reps[assign[i]], i] for i in range(n)))
    return CellPartition(cells=cells, representatives=tuple(reps),
                         radius=radius)


def partition_from_cells(space: MetricMeasureSpace, cells,
                         representatives) -> CellPartition:
    """Wrap an explicit cell decomposition, computing its radius."""
    seen = sorted(i for cell in cells for i in cell)
    if seen != list(range(space.size)):
        raise ValueError("cells must partition all point indices")
    radius = 0.0
    for rep, cell in zip(representatives, cells):
        for i in cell:
            radius = max(radius, float(space.dist[rep, i]))
    return CellPartition(cells=tuple(tuple(c) for c in cells),
                         representatives=tuple(representatives),
                         radius=radius)


def concentrate_space(space: MetricMeasureSpace,
                      partition: CellPartition) -> MetricMeasureSpace:
    """Push the space onto the representatives, cells carrying their mass."""
    reps = np.asarray(partition.representatives)
    weights = np.array([space.weights[list(cell)].sum()
                        for cell in partition.cells])
    weights = weights / weights.sum()
    return restrict_space(space, reps, weights,
                          f"{space.name}|{len(reps)}" if space.name else "")


def _aggregation_matrix(part_x: CellPartition, part_y: CellPartition,
                        m: int, n: int) -> np.ndarray:
    """0/1 matrix summing pair atoms (i, j) into cell pairs (ci, cj)."""
    cx = part_x.cell_of(m)
    cy = part_y.cell_of(n)
    mc, nc = part_x.num_cells, part_y.num_cells
    T = np.zeros((mc * nc, m * n))
    for i in range(m):
        for j in range(n):
            T[cx[i] * nc + cy[j], i * n + j] = 1.0
    return T


def _extension_matrix(part_x: CellPartition, part_y: CellPartition,
                      mu: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Right inverse of the aggregation matrix, spreading mass by mu x nu."""
    m, n = len(mu), len(nu)
    cx = part_x.cell_of(m)
    cy = part_y.cell_of(n)
    mc, nc = part_x.num_cells, part_y.num_cells
    mass_x = np.array([mu[list(c)].sum() for c in part_x.cells])
    mass_y = np.array([nu[list(c)].sum() for c in part_y.cells])
    E = np.zeros((m * n, mc * nc))
    for i in range(m):
        for j in range(n):
            mx, my = mass_x[cx[i]], mass_y[cy[j]]
            if mx > 0 and my > 0:
                E[i * n + j, cx[i] * nc + cy[j]] = (mu[i] / mx) * (nu[j] / my)
    return E


def _apply_per_axis(data: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Multiply every axis of a tensor by the matrix M."""
    out = data
    for axis in range(data.ndim):
        out = np.moveaxis(np.tensordot(M, out, axes=(1, axis)), 0, axis)
    return out


def concentrate_coupling(pi: np.ndarray, part_x: CellPartition,
                         part_y: CellPartition) -> np.ndarray:
    pi = np.asarray(pi, dtype=float)
    m, n = pi.shape
    T = _aggregation_matrix(part_x, part_y, m, n)
    return (T @ pi.ravel()).reshape(part_x.num_cells, part_y.num_cells)


def extend_coupling(pi_c: np.ndarray, part_x: CellPartition,
                    part_y: CellPartition, mu, nu) -> np.ndarray:
    mu = np.asarray(mu, float)
    nu = np.asarray(nu, float)
    E = _extension_matrix(part_x, part_y, mu, nu)
    return (E @ np.asarray(pi_c, float).ravel()).reshape(len(mu), len(nu))


def concentrate_tensor(T: TensorMeasure, part_x: CellPartition,
                       part_y: CellPartition) -> TensorMeasure:
    """Push an atom tensor onto cell-pair atoms, axis by axis."""
    A = _aggregation_matrix(part_x, part_y, T.m, T.n)
    return TensorMeasure(m=part_x.num_cells, n=part_y.num_cells,
                         order=T.order, data=_apply_per_axis(T.data, A))


def extend_tensor(T: TensorMeasure, part_x: CellPartition,
                  part_y: CellPartition, mu, nu) -> TensorMeasure:
    """Spread a cell-pair atom tensor back onto the fine atoms."""
    mu = np.asarray(mu, float)
    nu = np.asarray(nu, float)
    E = _extension_matrix(part_x, part_y, mu, nu)
    return TensorMeasure(m=len(mu), n=len(nu), order=T.order,
                         data=_apply_per_axis(T.data, E))


def concentration_error_bound(p: float, q: float, radius: float) -> float:
    """Objective shift when either space is coarsened to cells of this radius."""
    return 4.0 * lipschitz_constant(p, q) * radius


@dataclasses.dataclass(frozen=True)
class GluedMeasure:
    """Three-space atom tensor mediating two coupling tensors.

    ``data`` has one (m, n, u) triple of axes per tensor order slot,
    flattened to m*n*u per axis.
    """

    m: int
    n: int
    u: int
    order: int
    data: np.ndarray


def glue(P: TensorMeasure, Q: TensorMeasure, nu) -> tuple:
    """Compose tensors on X x Y and Y x Z through the shared marginal nu.

    Returns (S, R): the three-space tensor S with
    S(a, b, c) = P(a, b) Q(b, c) / prod_s nu[b_s], and its X x Z marginal
    R.  When P and Q are tensors of coupling measures with Y-marginal
    nu^(2r), R is again such a tensor and its distortion objective obeys
    the triangle-style composition bound.
    """
    if P.n != Q.m or P.order != Q.order:
        raise ValueError("tensors do not share a middle space or order")
    nu = np.asarray(nu, dtype=float)
    m, n, u, order = P.m, P.n, Q.n, P.order
    marg_P = P.data.reshape((m, n) + P.data.shape[1:]).sum(
        axis=(0,) + tuple(range(2, order + 1)))
    marg_Q = Q.data.reshape((n, u) + Q.data.shape[1:]).sum(
        axis=(1,) + tuple(range(2, order + 1)))
    if np.abs(marg_P - marg_Q).max() > 1e-7:
        raise ValueError("middle-space marginals of the two tensors differ "
                         f"by {np.abs(marg_P - marg_Q).max():.3e}")
    inv_nu = np.where(nu > 0, 1.0 / np.where(nu > 0, nu, 1.0), 0.0)

    letters = "abcdefghijklmnopqrstuvwx"
    x_ax = [letters[3 * s] for s in range(order)]
    y_ax = [letters[3 * s + 1] for s in range(order)]
    z_ax = [letters[3 * s + 2] for s in range(order)]
    Pd = P.data.reshape((m, n) * order).transpose(
        _interleave(order)).reshape((m,) * order + (n,) * order)
    Qd = Q.data.reshape((n, u) * order).transpose(
        _interleave(order)).reshape((n,) * order + (u,) * order)
    spec = ("".join(x_ax) + "".join(y_ax) + ","
            + "".join(y_ax) + "".join(z_ax) + "->"
            + "".join(x_ax) + "".join(y_ax) + "".join(z_ax))
    S = np.einsum(spec, Pd, Qd, optimize=True)
    for s in range(order):
        shape = [1] * (3 * order)
        shape[order + s] = n
        S = S * inv_nu.reshape(shape)
    # reorder to one (x, y, z) triple per slot and flatten each triple
    perm = []
    for s in range(order):
        perm.extend([s, order + s, 2 * order + s])
    S_slotted = S.transpose(perm).reshape((m * n * u,) * order)
    glued = GluedMeasure(m=m, n=n, u=u, order=order, data=S_slotted)

    R = S.sum(axis=tuple(range(order, 2 * order)))
    perm = []
    for s in range(order):
        perm.extend([s, order + s])
    R = R.transpose(perm).reshape((m * u,) * order)
    return glued, TensorMeasure(m=m, n=u, order=order, data=R)


def _interleave(order):
    """Permutation turning (a1, b1, a2, b2, ...) axes into (a..., b...)."""
    return [2 * s for s in range(order)] + [2 * s + 1 for s in range(order)]


@dataclasses.dataclass(frozen=True)
class PseudoMetricReport:
    roots: np.ndarray
    symmetry_error: float
    diagonal_max: float
    max_triangle_violation: float
    statuses: tuple

    def passed(self, tol: float = 1e-6) -> bool:
        return (self.symmetry_error <= tol
                and self.diagonal_max <= tol
                and self.max_triangle_violation <= tol)


def pseudo_metric_check(spaces, p: float = 1.0, q: float = 1.0,
                        level: int = 1) -> PseudoMetricReport:
    """Evaluate the bound on all ordered pairs and test the metric axioms.

    The rooted bound (value^(1/p)) should vanish on the diagonal, be
    symmetric, and satisfy the triangle inequality up to solver accuracy.
    The k^2 relaxations are solved in one :func:`gw_lower_bounds` call.
    """
    k = len(spaces)
    pairs = list(itertools.product(range(k), repeat=2))
    results = gw_lower_bounds(((spaces[a], spaces[b]) for a, b in pairs),
                              p=p, q=q, level=level)
    roots = np.array([res.root for res in results]).reshape(k, k)
    statuses = {pair: res.status for pair, res in zip(pairs, results)}
    sym_err = float(np.abs(roots - roots.T).max())
    diag_max = float(np.abs(np.diag(roots)).max())
    tri = 0.0
    for a, b, c in itertools.product(range(k), repeat=3):
        tri = max(tri, roots[a, c] - roots[a, b] - roots[b, c])
    return PseudoMetricReport(roots=roots, symmetry_error=sym_err,
                              diagonal_max=diag_max,
                              max_triangle_violation=float(tri),
                              statuses=tuple(sorted(statuses.items())))
