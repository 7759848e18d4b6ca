"""Exact distortion minimum on tiny instances by KKT face enumeration.

The coupling polytope with marginals (mu, nu) is affinely parametrized by
its upper-left (m-1) x (n-1) block, pi = b0 + B^T t with k = (m-1)(n-1)
free coordinates t, which turns the distortion into a quadratic in t.
Take the smallest face whose relative interior holds a minimizer.  The
minimizer is the unique stationary point of the objective on that face's
affine hull, since otherwise the stationary set would reach a smaller
face, and at most k independent constraints pi_v = 0 cut that hull out.
So solving the equality-constrained KKT system of every zero set Z with
|Z| <= k, keeping the nonsingular systems whose solutions are feasible and
taking the least objective gives the exact minimum.  The number of systems
grows like 2^(mn), so instances needing more than ``MAX_SYSTEMS`` of them
are refused.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from .spaces import (CostTensor, MetricMeasureSpace, ValidationError,
                     build_cost_tensor)

MAX_SYSTEMS = 2 ** 17
_FEAS_TOL = 1e-9


def evaluate_objective(cost: CostTensor, pi: np.ndarray) -> float:
    """Quadratic distortion sum_{ijkl} c[i,j,k,l] pi_ij pi_kl."""
    flat = np.asarray(pi, dtype=float).ravel()
    C = cost.entries.reshape(len(flat), len(flat))
    return float(flat @ C @ flat)


@dataclasses.dataclass(frozen=True)
class OracleResult:
    value: float
    coupling: np.ndarray
    evaluations: int  # nonsingular KKT systems solved


def _affine_parametrization(mu, nu):
    """pi(t) = base + sum_k t_k basis_k over the free upper-left block."""
    m, n = len(mu), len(nu)
    dim = (m - 1) * (n - 1)
    base = np.zeros((m, n))
    base[:-1, -1] = mu[:-1]
    base[-1, :] = nu - base[:-1, :].sum(axis=0)
    basis = np.zeros((dim, m, n))
    for k, (i, j) in enumerate(itertools.product(range(m - 1), range(n - 1))):
        basis[k, i, j] = 1.0
        basis[k, i, -1] = -1.0
        basis[k, -1, j] = -1.0
        basis[k, -1, -1] = 1.0
    return base, basis


def brute_force_gw(X: MetricMeasureSpace, Y: MetricMeasureSpace,
                   p: float = 1.0, q: float = 1.0) -> OracleResult:
    """Minimize the distortion exactly over all couplings.

    Zero sets are enumerated by size, then in ``itertools.combinations``
    order; among couplings of equal value the first one found is returned.
    Raises :class:`ValidationError` when the instance needs more than
    ``MAX_SYSTEMS`` KKT systems (4x4 needs 50,643; 4x5 needs 910,596).
    """
    m, n = X.size, Y.size
    k, nvars = (m - 1) * (n - 1), m * n
    systems = sum(math.comb(nvars, s) for s in range(k + 1))
    if systems > MAX_SYSTEMS:
        raise ValidationError(
            f"a {m}x{n} oracle solves {systems} KKT systems, above the cap "
            f"of {MAX_SYSTEMS}; use smaller spaces")
    cost = build_cost_tensor(X, Y, p, q)
    C = cost.entries.reshape(nvars, nvars)
    base, basis = _affine_parametrization(X.weights, Y.weights)
    b0, B = base.ravel(), basis.reshape(k, nvars)
    H, g = B @ C @ B.T, B @ C @ b0

    best_val, best_pi, evaluations = np.inf, None, 0
    for s in range(k + 1):
        Z = np.array(list(itertools.combinations(range(nvars), s)),
                     dtype=np.int64).reshape(math.comb(nvars, s), s)
        A = B.T[Z]
        K = np.zeros((len(Z), k + s, k + s))
        K[:, :k, :k] = H
        K[:, k:, :k] = A
        K[:, :k, k:] = A.transpose(0, 2, 1)
        rhs = np.concatenate([np.broadcast_to(-g, (len(Z), k)), -b0[Z]],
                             axis=1)
        nonsingular = np.linalg.slogdet(K)[0] != 0
        evaluations += int(nonsingular.sum())
        t = np.linalg.solve(K[nonsingular], rhs[nonsingular, :, None])
        pi = b0 + t[:, :k, 0] @ B
        pi = np.maximum(pi[(pi >= -_FEAS_TOL).all(axis=1)], 0.0)
        if len(pi):
            vals = np.einsum("np,pq,nq->n", pi, C, pi)
            i = int(np.argmin(vals))
            if vals[i] < best_val:
                best_val, best_pi = float(vals[i]), pi[i]
    return OracleResult(value=best_val, coupling=best_pi.reshape(m, n),
                        evaluations=evaluations)
