"""A small dense semidefinite programming solver.

Problems are stated over a moment-style variable vector y:

    minimize    c' y
    subject to  y in {offset + basis @ w}
                S_b(y) = C_b + sum_t vals_t y[var_t] E(rows_t, cols_t)  psd

The caller states the affine set as ``free = (offset, basis)``.  The
iterates are y = offset + N z, with N an orthonormal basis of the range
of ``basis`` from one thin QR, so the affine constraints hold to machine
precision at every iterate, no equality matrix is factored, and the
method starts at z = 0, the caller's offset.  ``eq_lhs``/``eq_rhs`` may
record equalities with the same solutions; the solver does not read
them.  The triplets of the blocks of one size d form one sparse
(k*d*d) x nvars matrix, so the data of each size in z comes from one
sparse product; one-dimensional blocks form a nonnegativity cone.

The method is an infeasible-start primal-dual interior point method with
Nesterov-Todd scaling and a Mehrotra-style predictor-corrector.  Primal
and dual iterates move by one common step length, as in the infeasible
IPM of Kojima, Megiddo & Mizuno (Math. Prog. 1993); separate lengths let
the primal step collapse while the dual one stays long, and the solve
can stall.  It stops when the primal and dual residuals are below
``FEAS_TOL`` and the gap relative to the objective in the caller's units
is below ``GAP_TOL``, or after ``max_iter`` iterations.  Each iteration
factors every S and X block once by Cholesky; the factors and their
inverses serve the scaling, S^-1 and every step length.  The Schur
complement is factored as it is, with a small ridge only when its
Cholesky factorization fails, and each direction is one solve with it.
The PSD blocks are stacked by size into dense (k, d, d) arrays, and
every kernel of an iteration runs once per stack as a batched call, not
once per block.  Results are deterministic for a fixed input.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
from scipy import linalg, sparse

FEAS_TOL = 1e-7  # primal and dual residuals at the stop
GAP_TOL = 1e-7   # gap relative to the objective at the stop
DEFAULT_MAX_ITER = 200

_STEP_FRACTION = 0.98


@dataclasses.dataclass
class PsdBlock:
    """One PSD constraint in sparse triplet form.

    The triplets must describe a symmetric matrix: off-diagonal
    contributions appear once for each of the two mirror positions.
    """

    dim: int
    const: np.ndarray
    var_idx: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    label: str = ""


@dataclasses.dataclass
class SdpProblem:
    nvars: int
    objective: np.ndarray
    blocks: list
    # (offset (nvars,), basis (nvars, nfree)): the feasible y are
    # {offset + basis @ w}
    free: tuple
    # equalities with the same solution set, kept for dumps and counters
    eq_lhs: np.ndarray = ()  # (neq, nvars)
    eq_rhs: np.ndarray = ()  # (neq,)

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        self.free = tuple(np.asarray(a, dtype=float) for a in self.free)
        self.eq_lhs = np.asarray(self.eq_lhs, dtype=float).reshape(
            -1, self.nvars)
        self.eq_rhs = np.asarray(self.eq_rhs, dtype=float)


@dataclasses.dataclass
class SdpSolution:
    y: np.ndarray
    objective_value: float
    status: str
    iterations: int
    residuals: dict


def dump_problem(problem: SdpProblem, path) -> None:
    doc = {
        "nvars": problem.nvars,
        "objective": problem.objective.tolist(),
        "eq_lhs": problem.eq_lhs.tolist(),
        "eq_rhs": problem.eq_rhs.tolist(),
        "free": {
            "offset": problem.free[0].tolist(),
            "basis": problem.free[1].tolist(),
        },
        "blocks": [{
            "dim": blk.dim,
            "const": np.asarray(blk.const).tolist(),
            "var_idx": np.asarray(blk.var_idx).tolist(),
            "rows": np.asarray(blk.rows).tolist(),
            "cols": np.asarray(blk.cols).tolist(),
            "vals": np.asarray(blk.vals).tolist(),
            "label": blk.label,
        } for blk in problem.blocks],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_problem(path) -> SdpProblem:
    with open(path) as fh:
        doc = json.load(fh)
    blocks = [PsdBlock(dim=b["dim"],
                       const=np.asarray(b["const"], dtype=float),
                       var_idx=np.asarray(b["var_idx"], dtype=np.int64),
                       rows=np.asarray(b["rows"], dtype=np.int64),
                       cols=np.asarray(b["cols"], dtype=np.int64),
                       vals=np.asarray(b["vals"], dtype=float),
                       label=b.get("label", ""))
              for b in doc["blocks"]]
    free = doc.get("free")
    if free is None:
        raise ValueError(f"{path}: no 'free' key; the solver needs the "
                         "affine set as free = {offset, basis}")
    return SdpProblem(nvars=doc["nvars"],
                      objective=np.asarray(doc["objective"], dtype=float),
                      eq_lhs=np.asarray(doc["eq_lhs"], dtype=float),
                      eq_rhs=np.asarray(doc["eq_rhs"], dtype=float),
                      blocks=blocks,
                      free=(free["offset"], free["basis"]))


def _sym(A):
    """Symmetric part of each matrix of a stack."""
    return 0.5 * (A + A.mT)


def _max_step(Li, dM):
    """Largest a in (0, 1] with every M[i] + a*dM[i] positive definite.

    Li[i] is the inverse of the Cholesky factor of M[i].
    """
    lam = np.linalg.eigvalsh(_sym(Li @ dM @ Li.mT))[:, 0].min()
    if lam >= 0:
        return 1.0
    return min(1.0, -_STEP_FRACTION / lam)


def _nt_scaling(Ls, Lx):
    """Factors R[i] R[i]' = W[i], the point with W[i] S[i] W[i] = X[i].

    Ls and Lx are the Cholesky factors of S and X.
    """
    _, sig, Vt = np.linalg.svd(Ls.mT @ Lx)
    return Lx @ (Vt.mT / np.sqrt(sig)[:, None, :])


def _schur_factor(M):
    """Cholesky factor of M, with a small ridge only if M alone fails.

    The directions take one solve with this factor.  A ridge that is
    always on biases them: as mu -> 0 the small eigenvalues of M shrink
    toward the ridge, the directions stop solving the Newton system on
    those eigendirections, and the dual residual climbs.
    """
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        ridge = 1e-13 * np.trace(M) / len(M)
        return np.linalg.cholesky(M + ridge * np.eye(len(M)))


def _stack_blocks(blocks, y_p, N):
    """Cone data in z for y = y_p + N z: a nonnegativity cone and stacks.

    The triplets of the k blocks of one size d form one sparse
    (k*d*d) x nvars matrix A, so the constants are const + A y_p and the
    coefficients A N.  Each block is divided by its largest entry when
    that exceeds 1.  Size 1 gives the LP data (k,) and (k, nz); the other
    sizes give stacks in order of first appearance, problem order within
    a stack: constants (k, d, d) and coefficients (nz, k, d, d).
    """
    nz = N.shape[1]
    by_dim = {}
    for blk in blocks:
        by_dim.setdefault(blk.dim, []).append(blk)
    lp_g0, lp_G = np.zeros(0), np.zeros((0, nz))
    G0s, Gs = [], []
    for d, group in by_dim.items():
        k = len(group)
        which = np.repeat(np.arange(k), [len(b.var_idx) for b in group])
        cells = ((which * d + np.concatenate([b.rows for b in group])) * d +
                 np.concatenate([b.cols for b in group]))
        A = sparse.csr_array(
            (np.concatenate([b.vals for b in group]),
             (cells, np.concatenate([b.var_idx for b in group]))),
            shape=(k * d * d, len(y_p)))
        G0 = np.stack([b.const for b in group]) + (A @ y_p).reshape(k, d, d)
        G = (A @ N).reshape(k, d * d, nz)
        scale = 1.0 / np.maximum.reduce([
            np.ones(k), np.abs(G0).max(axis=(1, 2)),
            np.abs(G).max(axis=(1, 2), initial=0.0)])
        G0 *= scale[:, None, None]
        G *= scale[:, None, None]
        if d == 1:
            lp_g0, lp_G = G0[:, 0, 0], G[:, 0]
        else:
            G0s.append(G0)
            Gs.append(np.ascontiguousarray(G.transpose(2, 0, 1)).reshape(
                nz, k, d, d))
    return lp_g0, lp_G, G0s, Gs


def solve(problem: SdpProblem,
          max_iter: int = DEFAULT_MAX_ITER) -> SdpSolution:
    """Solve an SDP; see the module docstring for the problem format."""
    c_full = problem.objective
    y_p = problem.free[0]
    N = np.linalg.qr(problem.free[1])[0]
    nz = N.shape[1]

    lp_g0, lp_G, G0s, Gs = _stack_blocks(problem.blocks, y_p, N)
    nlp = len(lp_g0)
    nst = len(Gs)
    Gflat = [G.reshape(nz, -1) for G in Gs]
    G0_norm = [np.linalg.norm(G0, axis=(1, 2)) for G0 in G0s]

    c = N.T @ c_full
    obj_scale = 1.0 / max(1.0, np.abs(c).max() if nz else 1.0)
    c = c * obj_scale

    def finish(z, status, iters, residuals):
        y = y_p + (N @ z if nz else 0.0)
        return SdpSolution(y=y, objective_value=float(c_full @ y),
                           status=status, iterations=iters,
                           residuals=residuals)

    if nz == 0:
        lam_min = min((np.linalg.eigvalsh(G0)[:, 0].min() for G0 in G0s),
                      default=0.0)
        lp_min = lp_g0.min() if nlp else 0.0
        ok = lam_min >= -FEAS_TOL and lp_min >= -FEAS_TOL
        return finish(np.zeros(0),
                      "optimal" if ok else "infeasible_suspected", 0,
                      {"min_eig": float(min(lam_min, lp_min))})

    # infeasible start: z = 0, slacks pushed inside the cone
    z = np.zeros(nz)
    S, X = [], []
    for G0 in G0s:
        k, d, _ = G0.shape
        lam = np.linalg.eigvalsh(G0)[:, 0]
        S.append(G0 + np.maximum(1.0, -1.5 * lam)[:, None, None] * np.eye(d))
        X.append(np.tile(np.eye(d), (k, 1, 1)))
    s_lp = np.maximum(1.0, lp_g0 + 1.0)
    x_lp = np.ones(nlp)
    nu = sum(G0.shape[0] * G0.shape[1] for G0 in G0s) + nlp

    def apply_G(v, s):
        """sum_n v[n] G_n over stack s, as a (k, d, d) array."""
        return (v @ Gflat[s]).reshape(G0s[s].shape)

    best_err = np.inf
    stall = 0
    residuals = {}
    for it in range(max_iter):
        # residuals of the current iterate
        Rp = [S[s] - G0s[s] - apply_G(z, s) for s in range(nst)]
        r_lp = s_lp - lp_g0 - lp_G @ z if nlp else np.zeros(0)
        r_stat = c.copy()
        for s in range(nst):
            r_stat -= Gflat[s] @ X[s].ravel()
        if nlp:
            r_stat -= lp_G.T @ x_lp
        gap = sum(np.vdot(X[s], S[s]) for s in range(nst)) + x_lp @ s_lp
        mu = gap / nu
        pobj = c @ z
        dobj = -sum(np.vdot(G0s[s], X[s]) for s in range(nst))
        dobj -= lp_g0 @ x_lp if nlp else 0.0
        pres = max([(np.linalg.norm(Rp[s], axis=(1, 2)) /
                     (1 + G0_norm[s])).max() for s in range(nst)] +
                   ([np.abs(r_lp).max() / (1 + np.abs(lp_g0).max())]
                    if nlp else [0.0]))
        dres = np.abs(r_stat).max() / (1 + np.abs(c).max())
        # the gap relative to the objective in the caller's units
        relgap = abs(gap) / (obj_scale + abs(pobj) + abs(dobj))
        residuals = {"primal": float(pres), "dual": float(dres),
                     "gap": float(relgap), "mu": float(mu)}
        if pres < FEAS_TOL and dres < FEAS_TOL and relgap < GAP_TOL:
            return finish(z, "optimal", it, residuals)
        err = max(pres, dres, relgap)
        if err < best_err * 0.99:
            best_err, stall = err, 0
        else:
            stall += 1
        if stall > 30 or np.linalg.norm(z) > 1e9:
            status = ("infeasible_suspected"
                      if pres > 1e3 * FEAS_TOL else "numerical_failure")
            return finish(z, status, it, residuals)

        # one Cholesky factorization and inverse of each iterate serve the
        # Nesterov-Todd scaling, S^-1 and every step length
        try:
            Ls = [np.linalg.cholesky(S[s]) for s in range(nst)]
            Lx = [np.linalg.cholesky(X[s]) for s in range(nst)]
            scal = [_nt_scaling(Ls[s], Lx[s]) for s in range(nst)]
        except np.linalg.LinAlgError:
            return finish(z, "numerical_failure", it, residuals)
        Lsi = [np.linalg.inv(L) for L in Ls]
        Lxi = [np.linalg.inv(L) for L in Lx]
        Sinv = [L.mT @ L for L in Lsi]
        # the congruence runs block by block: a whole stack at once would
        # make two stack-sized temporaries
        M = np.zeros((nz, nz))
        for s in range(nst):
            for i, R in enumerate(scal[s]):
                Bf = (R.T @ Gs[s][:, i] @ R).reshape(nz, -1)
                M += Bf @ Bf.T
        if nlp:
            Lw = lp_G * np.sqrt(x_lp / s_lp)[:, None]
            M += Lw.T @ Lw
        try:
            Lm = _schur_factor(M)
        except np.linalg.LinAlgError:
            return finish(z, "numerical_failure", it, residuals)

        def directions(sigma_mu, corr=None, corr_lp=None):
            targets = []
            rhs = -r_stat.copy()
            for s in range(nst):
                R = scal[s]
                Ts = sigma_mu * Sinv[s] - X[s]
                if corr is not None:
                    Ts = Ts - corr[s]
                Ts = _sym(Ts)
                targets.append(Ts)
                Zs = Ts + R @ (R.mT @ Rp[s] @ R) @ R.mT
                rhs += Gflat[s] @ _sym(Zs).ravel()
            lp_target = np.zeros(0)
            if nlp:
                lp_target = (sigma_mu - x_lp * s_lp) / s_lp
                if corr_lp is not None:
                    lp_target = lp_target - corr_lp / s_lp
                rhs += lp_G.T @ (lp_target + (x_lp / s_lp) * r_lp)
            dz = linalg.cho_solve((Lm, True), rhs)
            dS, dX = [], []
            for s in range(nst):
                R = scal[s]
                dSs = -Rp[s] + apply_G(dz, s)
                WdSW = R @ (R.mT @ dSs @ R) @ R.mT
                dX.append(_sym(targets[s] - WdSW))
                dS.append(_sym(dSs))
            if nlp:
                ds_lp = -r_lp + lp_G @ dz
                dx_lp = lp_target - (x_lp / s_lp) * ds_lp
            else:
                ds_lp = dx_lp = np.zeros(0)
            return dz, dS, dX, ds_lp, dx_lp

        def step_length(dS, dX, ds_lp, dx_lp):
            """One length for primal and dual: the shorter of the two."""
            a = min([_max_step(Lxi[s], dX[s]) for s in range(nst)] +
                    [_max_step(Lsi[s], dS[s]) for s in range(nst)],
                    default=1.0)
            for v, dv in ((x_lp, dx_lp), (s_lp, ds_lp)):
                neg = dv < 0
                if neg.any():
                    a = min(a, _STEP_FRACTION * (v[neg] / -dv[neg]).min())
            return min(a, 1.0)

        # predictor
        dz, dS, dX, ds_lp, dx_lp = directions(0.0)
        a = step_length(dS, dX, ds_lp, dx_lp)
        gap_aff = sum(np.vdot(X[s] + a * dX[s], S[s] + a * dS[s])
                      for s in range(nst))
        gap_aff += (x_lp + a * dx_lp) @ (s_lp + a * ds_lp)
        sigma = min(1.0, max(1e-8, (max(gap_aff, 0.0) / gap) ** 3))

        # Mehrotra-style second-order correction from the affine direction
        corr = [_sym(dX[s] @ dS[s] @ Sinv[s]) for s in range(nst)]
        corr_lp = dx_lp * ds_lp if nlp else None

        # corrector (reuses the factored Schur system)
        dz, dS, dX, ds_lp, dx_lp = directions(sigma * mu, corr, corr_lp)
        a = step_length(dS, dX, ds_lp, dx_lp)
        if a < 0.05:
            # poor centrality: fall back to a pure centering step
            sigma = max(sigma, 0.9)
            dz, dS, dX, ds_lp, dx_lp = directions(sigma * mu)
            a = step_length(dS, dX, ds_lp, dx_lp)
        if a < 1e-10:
            return finish(z, "numerical_failure", it, residuals)
        z = z + a * dz
        for s in range(nst):
            S[s] = S[s] + a * dS[s]
            X[s] = X[s] + a * dX[s]
        s_lp = s_lp + a * ds_lp
        x_lp = x_lp + a * dx_lp

    return finish(z, "max_iterations", max_iter, residuals)
