"""A small dense semidefinite programming solver.

Problems are stated over a moment-style variable vector y:

    minimize    c' y
    subject to  A y = b
                S_b(y) = C_b + sum_t vals_t y[var_t] E(rows_t, cols_t)  psd

The solver eliminates the equalities through an SVD (so they hold to
machine precision at every iterate); when the equality matrix has at least
as many rows as columns, one thin SVD yields both the particular solution
and the nullspace basis.  It then splits one-dimensional blocks into a
nonnegativity cone, and runs an infeasible-start primal-dual interior
point method with Nesterov-Todd scaling and a Mehrotra-style
predictor-corrector.  Everything is dense numpy; results are
deterministic for a fixed input.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
from scipy import linalg

DEFAULT_FEAS_TOL = 1e-7
DEFAULT_GAP_TOL = 1e-7
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

    @classmethod
    def from_index_table(cls, table: np.ndarray, label: str = "") -> "PsdBlock":
        """Block whose (a, b) entry is the moment y[table[a, b]]."""
        table = np.asarray(table, dtype=np.int64)
        dim = table.shape[0]
        rr, cc = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
        return cls(dim=dim,
                   const=np.zeros((dim, dim)),
                   var_idx=table.ravel(),
                   rows=rr.ravel(),
                   cols=cc.ravel(),
                   vals=np.ones(dim * dim),
                   label=label)


@dataclasses.dataclass
class SdpProblem:
    nvars: int
    objective: np.ndarray
    eq_lhs: np.ndarray  # (neq, nvars)
    eq_rhs: np.ndarray  # (neq,)
    blocks: list

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
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
    return SdpProblem(nvars=doc["nvars"],
                      objective=np.asarray(doc["objective"], dtype=float),
                      eq_lhs=np.asarray(doc["eq_lhs"], dtype=float),
                      eq_rhs=np.asarray(doc["eq_rhs"], dtype=float),
                      blocks=blocks)


def _eliminate_equalities(A, b):
    """Min-norm particular solution and an orthonormal nullspace basis.

    When A has at least as many rows as columns, the thin SVD's Vt is
    already square and holds the nullspace basis; only a wide A needs the
    full factorization to complete it.
    """
    nvars = A.shape[1]
    if A.shape[0] == 0:
        return np.zeros(nvars), np.eye(nvars), 0.0
    norms = np.linalg.norm(A, axis=1)
    keep = norms > 0
    bad = (~keep) & (np.abs(b) > 1e-12)
    if bad.any():
        return None, None, np.inf
    A, b, norms = A[keep], b[keep], norms[keep]
    A = A / norms[:, None]
    b = b / norms
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    rtol = max(A.shape) * np.finfo(float).eps
    rank = int((s > rtol * s[0]).sum()) if len(s) else 0
    y_p = Vt[:rank].T @ ((U[:, :rank].T @ b) / s[:rank])
    if len(Vt) < nvars:
        Vt = np.linalg.svd(A, full_matrices=True)[2]
    N = Vt[rank:].T
    resid = np.linalg.norm(A @ y_p - b) / (1.0 + np.linalg.norm(b))
    return y_p, N, resid


def _reduce_block(blk, y_p, N):
    """Constant term and per-free-variable coefficient matrices."""
    d, nz = blk.dim, N.shape[1]
    G0 = np.array(blk.const, dtype=float, copy=True)
    np.add.at(G0, (blk.rows, blk.cols), blk.vals * y_p[blk.var_idx])
    G0 = 0.5 * (G0 + G0.T)
    G = np.zeros((d, d, nz))
    if nz:
        contrib = blk.vals[:, None] * N[blk.var_idx]
        np.add.at(G, (blk.rows, blk.cols), contrib)
        G = 0.5 * (G + G.transpose(1, 0, 2))
    return G0, np.ascontiguousarray(G.transpose(2, 0, 1))


def _facial_reduction(G0, G, rel_tol=1e-9):
    """Project a block onto the complement of its forced null space.

    Directions u with G0 u = 0 and G_j u = 0 for every j are annihilated
    by the block at every feasible point (the equality constraints force
    entire rows to vanish, e.g. through functionals that are constant on
    the coupling polytope).  Keeping them destroys strict feasibility, so
    the block is restricted to their orthogonal complement, which is an
    exact reformulation.
    """
    K = G0 @ G0
    for Gj in G:
        K += Gj @ Gj
    lam, V = np.linalg.eigh(K)
    scale = lam[-1] if lam[-1] > 0 else 1.0
    keep = lam > rel_tol * scale
    if keep.all():
        return G0, G
    Vk = V[:, keep]
    G0r = Vk.T @ G0 @ Vk
    Gr = np.einsum("ai,nab,bj->nij", Vk, G, Vk, optimize=True) if len(G) \
        else G.reshape(len(G), Vk.shape[1], Vk.shape[1])
    return G0r, Gr


def _max_step(M, dM):
    """Largest a in (0, 1] with M + a*dM staying positive definite."""
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return 0.0
    Z = linalg.solve_triangular(L, dM, lower=True)
    Z = linalg.solve_triangular(L, Z.T, lower=True)
    lam = np.linalg.eigvalsh(0.5 * (Z + Z.T))[0]
    if lam >= 0:
        return 1.0
    return min(1.0, -_STEP_FRACTION / lam)


def _nt_scaling(S, X):
    """Factor R with R R' = W, where W is the point with W S W = X."""
    Ls = np.linalg.cholesky(S)
    Lx = np.linalg.cholesky(X)
    _, sig, Vt = np.linalg.svd(Ls.T @ Lx)
    return Lx @ (Vt.T / np.sqrt(sig))


def solve(problem: SdpProblem,
          feas_tol: float = DEFAULT_FEAS_TOL,
          gap_tol: float = DEFAULT_GAP_TOL,
          max_iter: int = DEFAULT_MAX_ITER) -> SdpSolution:
    """Solve an SDP; see the module docstring for the problem format."""
    c_full = problem.objective
    y_p, N, eq_resid = _eliminate_equalities(problem.eq_lhs, problem.eq_rhs)
    if y_p is None or eq_resid > 1e-8:
        return SdpSolution(y=np.zeros(problem.nvars),
                           objective_value=np.nan,
                           status="infeasible_suspected",
                           iterations=0,
                           residuals={"equality_residual": float(eq_resid)})
    nz = N.shape[1]

    # reduced data: psd blocks and a nonnegativity cone for 1x1 blocks
    sdp_G0, sdp_G, dims, labels = [], [], [], []
    lp_g0, lp_G = [], []
    for blk in problem.blocks:
        G0, G = _reduce_block(blk, y_p, N)
        if blk.dim > 1:
            G0, G = _facial_reduction(G0, G)
            if len(G0) == 0:
                continue
        scale = 1.0 / max(1.0, np.abs(G0).max(),
                          np.abs(G).max() if G.size else 0.0)
        G0, G = G0 * scale, G * scale
        if len(G0) == 1:
            lp_g0.append(G0[0, 0])
            lp_G.append(G[:, 0, 0] if nz else np.zeros(0))
        else:
            sdp_G0.append(G0)
            sdp_G.append(G)
            dims.append(len(G0))
            labels.append(blk.label)
    lp_g0 = np.asarray(lp_g0)
    lp_G = np.asarray(lp_G).reshape(len(lp_g0), nz)
    nlp = len(lp_g0)
    nblk = len(dims)
    Gflat = [G.reshape(nz, d * d) for G, d in zip(sdp_G, dims)]

    c = N.T @ c_full
    obj_scale = 1.0 / max(1.0, np.abs(c).max() if nz else 1.0)
    c = c * obj_scale

    def finish(z, status, iters, residuals):
        y = y_p + (N @ z if nz else 0.0)
        return SdpSolution(y=y, objective_value=float(c_full @ y),
                           status=status, iterations=iters,
                           residuals=residuals)

    if nz == 0:
        lam_min = min((np.linalg.eigvalsh(G0)[0] for G0 in sdp_G0),
                      default=0.0)
        lp_min = lp_g0.min() if nlp else 0.0
        ok = lam_min >= -feas_tol and lp_min >= -feas_tol
        return finish(np.zeros(0),
                      "optimal" if ok else "infeasible_suspected", 0,
                      {"min_eig": float(min(lam_min, lp_min))})

    # infeasible start: z = 0, slacks pushed inside the cone
    z = np.zeros(nz)
    S = []
    for G0 in sdp_G0:
        lam = np.linalg.eigvalsh(G0)[0]
        S.append(G0 + max(1.0, -1.5 * lam) * np.eye(len(G0)))
    X = [np.eye(d) for d in dims]
    s_lp = np.maximum(1.0, lp_g0 + 1.0)
    x_lp = np.ones(nlp)
    nu = sum(dims) + nlp

    best_err = np.inf
    stall = 0
    residuals = {}
    for it in range(max_iter):
        # residuals of the current iterate
        Rp = [S[b] - sdp_G0[b] - np.tensordot(z, sdp_G[b], axes=(0, 0))
              for b in range(nblk)]
        r_lp = s_lp - lp_g0 - lp_G @ z if nlp else np.zeros(0)
        r_stat = c.copy()
        for b in range(nblk):
            r_stat -= Gflat[b] @ X[b].ravel()
        if nlp:
            r_stat -= lp_G.T @ x_lp
        gap = sum(np.tensordot(X[b], S[b]) for b in range(nblk)) + x_lp @ s_lp
        mu = gap / nu
        pobj = c @ z
        dobj = -sum(np.tensordot(sdp_G0[b], X[b]) for b in range(nblk))
        dobj -= lp_g0 @ x_lp if nlp else 0.0
        pres = max([np.linalg.norm(Rp[b]) / (1 + np.linalg.norm(sdp_G0[b]))
                    for b in range(nblk)] +
                   ([np.abs(r_lp).max() / (1 + np.abs(lp_g0).max())]
                    if nlp else [0.0]))
        dres = np.abs(r_stat).max() / (1 + np.abs(c).max())
        relgap = abs(gap) / (1 + abs(pobj) + abs(dobj))
        residuals = {"primal": float(pres), "dual": float(dres),
                     "gap": float(relgap), "mu": float(mu)}
        if pres < feas_tol and dres < feas_tol and relgap < gap_tol:
            return finish(z, "optimal", it, residuals)
        err = max(pres, dres, relgap)
        if err < best_err * 0.99:
            best_err, stall = err, 0
        else:
            stall += 1
        if stall > 30 or np.linalg.norm(z) > 1e9:
            status = ("infeasible_suspected"
                      if pres > 1e3 * feas_tol else "numerical_failure")
            return finish(z, status, it, residuals)

        # Nesterov-Todd scaling and the Schur complement system
        try:
            scal = [_nt_scaling(S[b], X[b]) for b in range(nblk)]
        except np.linalg.LinAlgError:
            return finish(z, "numerical_failure", it, residuals)
        M = np.zeros((nz, nz))
        for b in range(nblk):
            R = scal[b]
            Bf = np.einsum("ai,nab,bj->nij", R, sdp_G[b], R,
                           optimize=True).reshape(nz, -1)
            M += Bf @ Bf.T
        if nlp:
            M += (lp_G.T * (x_lp / s_lp)) @ lp_G
        try:
            Lm = np.linalg.cholesky(M + 1e-13 * np.trace(M) / nz * np.eye(nz))
        except np.linalg.LinAlgError:
            return finish(z, "numerical_failure", it, residuals)

        Sinv = []
        for b in range(nblk):
            Ls = np.linalg.cholesky(S[b])
            Si = linalg.solve_triangular(Ls, np.eye(dims[b]), lower=True)
            Sinv.append(Si.T @ Si)

        def directions(sigma_mu, corr=None, corr_lp=None):
            targets = []
            rhs = -r_stat.copy()
            for b in range(nblk):
                R = scal[b]
                Tb = sigma_mu * Sinv[b] - X[b]
                if corr is not None:
                    Tb = Tb - corr[b]
                Tb = 0.5 * (Tb + Tb.T)
                targets.append(Tb)
                Zb = Tb + R @ (R.T @ Rp[b] @ R) @ R.T
                rhs += Gflat[b] @ (0.5 * (Zb + Zb.T)).ravel()
            lp_target = np.zeros(0)
            if nlp:
                lp_target = (sigma_mu - x_lp * s_lp) / s_lp
                if corr_lp is not None:
                    lp_target = lp_target - corr_lp / s_lp
                rhs += lp_G.T @ (lp_target + (x_lp / s_lp) * r_lp)
            dz = linalg.cho_solve((Lm, True), rhs)
            dz += linalg.cho_solve((Lm, True), rhs - M @ dz)
            dS, dX = [], []
            for b in range(nblk):
                R = scal[b]
                dSb = -Rp[b] + np.tensordot(dz, sdp_G[b], axes=(0, 0))
                WdSW = R @ (R.T @ dSb @ R) @ R.T
                dXb = targets[b] - WdSW
                dX.append(0.5 * (dXb + dXb.T))
                dS.append(0.5 * (dSb + dSb.T))
            if nlp:
                ds_lp = -r_lp + lp_G @ dz
                dx_lp = lp_target - (x_lp / s_lp) * ds_lp
            else:
                ds_lp = dx_lp = np.zeros(0)
            return dz, dS, dX, ds_lp, dx_lp

        def step_lengths(dS, dX, ds_lp, dx_lp):
            a_p = min([_max_step(X[b], dX[b]) for b in range(nblk)],
                      default=1.0)
            a_d = min([_max_step(S[b], dS[b]) for b in range(nblk)],
                      default=1.0)
            if nlp:
                neg = dx_lp < 0
                if neg.any():
                    a_p = min(a_p, _STEP_FRACTION *
                              (x_lp[neg] / -dx_lp[neg]).min())
                neg = ds_lp < 0
                if neg.any():
                    a_d = min(a_d, _STEP_FRACTION *
                              (s_lp[neg] / -ds_lp[neg]).min())
            return min(a_p, 1.0), min(a_d, 1.0)

        # predictor
        dz, dS, dX, ds_lp, dx_lp = directions(0.0)
        a_p, a_d = step_lengths(dS, dX, ds_lp, dx_lp)
        gap_aff = sum(np.tensordot(X[b] + a_p * dX[b], S[b] + a_d * dS[b])
                      for b in range(nblk))
        gap_aff += (x_lp + a_p * dx_lp) @ (s_lp + a_d * ds_lp)
        sigma = min(1.0, max(1e-8, (max(gap_aff, 0.0) / gap) ** 3))

        # Mehrotra-style second-order correction from the affine direction
        corr = [0.5 * (M2 + M2.T) for M2 in
                (dX[b] @ dS[b] @ Sinv[b] for b in range(nblk))]
        corr_lp = dx_lp * ds_lp if nlp else None

        # corrector (reuses the factored Schur system)
        dz, dS, dX, ds_lp, dx_lp = directions(sigma * mu, corr, corr_lp)
        a_p, a_d = step_lengths(dS, dX, ds_lp, dx_lp)
        if min(a_p, a_d) < 0.05:
            # poor centrality: fall back to a pure centering step
            sigma = max(sigma, 0.9)
            dz, dS, dX, ds_lp, dx_lp = directions(sigma * mu)
            a_p, a_d = step_lengths(dS, dX, ds_lp, dx_lp)
        if max(a_p, a_d) < 1e-10:
            return finish(z, "numerical_failure", it, residuals)
        z = z + a_d * dz
        for b in range(nblk):
            S[b] = S[b] + a_d * dS[b]
            X[b] = X[b] + a_p * dX[b]
        s_lp = s_lp + a_d * ds_lp
        x_lp = x_lp + a_p * dx_lp

    return finish(z, "max_iterations", max_iter, residuals)
