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

:func:`solve_many` adds a leading batch axis.  Problems of one shape --
the same free dimension nz, the same (k, d) for each stack and the same
number of LP rows -- run in lockstep: every array holds the group's
problems along axis 0, so each kernel of an iteration is one call for
the whole group, and the per-call overhead that dominates small solves
is paid once per iteration of the group, not once per problem.  Each
problem keeps its own step length, sigma, mu, stall counter and stop
test.  It leaves the batch, its rows compacted away, when its own stop
fires or its own factorization fails; a batched Cholesky factorization
fails for the whole stack, so the failing problems are found one by one
and the rest factor again.  No kernel mixes the rows of two problems,
so a problem's iterates in a batch are those of its solo run, and
:func:`solve` is :func:`solve_many` on one problem.  A batch holds the
dense data of all its problems at once, and :func:`dense_bytes` gives a
problem's share.  Callers with many problems solve them in chunks under
a byte budget (:func:`gwsos.hierarchy.gw_lower_bounds`), so that peak
memory does not grow with the number of problems.
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
_GROUP_BYTES = 1 << 18  # coefficients per congruence call in _schur


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


def _dot(a, b):
    """Dot product of a[i] and b[i], each flattened, for each problem i."""
    n = len(a)
    return np.vecdot(a.reshape(n, -1), b.reshape(n, -1))


def _per_problem(a, ndim):
    """The (B,) array a shaped to broadcast against (B, ...) of ndim axes."""
    return a.reshape((-1,) + (1,) * (ndim - 1))


def _max_step(Li, dM):
    """Largest a in (0, 1] with all M[..., i] + a dM[..., i] positive definite.

    Li[..., i] is the inverse of the Cholesky factor of M[..., i]; the last
    stack axis is reduced, so a (B, k, d, d) stack gives one a per problem.
    """
    lam = np.linalg.eigvalsh(_sym(Li @ dM @ Li.mT))[..., 0].min(axis=-1)
    # -f / lam with lam clamped at -f is 1 for every lam >= -f
    return -_STEP_FRACTION / np.minimum(lam, -_STEP_FRACTION)


def _nt_scaling(Ls, Lx):
    """Factors R[i] R[i]' = W[i], the point with W[i] S[i] W[i] = X[i].

    Ls and Lx are the Cholesky factors of S and X.
    """
    _, sig, Vt = np.linalg.svd(Ls.mT @ Lx)
    return Lx @ (Vt.mT / np.sqrt(sig)[..., None, :])


def _halves(a):
    """The S and X parts of a (B, 2k, ...) stack laid out as in _factors."""
    k = a.shape[1] // 2
    return a[:, :k], a[:, k:]


def _factors(S, X):
    """Cholesky factors of the S and X stacks, and their NT scalings.

    Factor stack s holds the factors of S[s] in its first half and those
    of X[s] in its second, so one batched call serves both.
    """
    L = [np.linalg.cholesky(np.concatenate([a, b], axis=1))
         for a, b in zip(S, X)]
    return L, [_nt_scaling(*_halves(Ls)) for Ls in L]


def _failing_factors(S, X, count):
    """Mask of the problems whose own factorizations in _factors fail.

    A batched Cholesky raises for the whole stack, so each problem is
    tried alone.
    """
    bad = np.zeros(count, dtype=bool)
    for i in range(count):
        try:
            _factors([a[i:i + 1] for a in S], [a[i:i + 1] for a in X])
        except np.linalg.LinAlgError:
            bad[i] = True
    # a stack that fails as a whole and in no part fails for all
    return bad if bad.any() else ~bad


def _schur(Gs, scal, lp_G, lp_w):
    """Schur matrix of each problem: sum_i B_i B_i' + lp_G' diag(lp_w) lp_G.

    Row n of B_i is block i's coefficient G_n congruent by its scaling R,
    R' G_n R, flattened.  The congruence runs on groups of blocks whose
    coefficients take at most _GROUP_BYTES per problem: one group per
    stack makes few calls on small stacks, and bounds the two temporaries
    of the congruence on large ones.
    """
    B, _, nz = lp_G.shape
    M = np.zeros((B, nz, nz))
    for G, R in zip(Gs, scal):
        d = G.shape[-1]
        step = max(1, _GROUP_BYTES // (8 * nz * d * d))
        for i in range(0, G.shape[2], step):
            Ri = R[:, None, i:i + step]
            Bf = (Ri.mT @ G[:, :, i:i + step] @ Ri).reshape(B, nz, -1)
            M += Bf @ Bf.mT
    if lp_G.shape[1]:
        Lw = lp_G * np.sqrt(lp_w)[:, :, None]
        M += Lw.mT @ Lw
    return M


def _schur_factor(M):
    """Cholesky factors of each M[i], and the mask of problems where it fails.

    A small ridge is added only to the M[i] whose Cholesky factorization
    fails alone.  The directions take one solve with these factors.  A
    ridge that is always on biases them: as mu -> 0 the small eigenvalues
    of M shrink toward the ridge, the directions stop solving the Newton
    system on those eigendirections, and the dual residual climbs.
    """
    bad = np.zeros(len(M), dtype=bool)
    try:
        return np.linalg.cholesky(M), bad
    except np.linalg.LinAlgError:
        L = np.zeros_like(M)
    for i, Mi in enumerate(M):
        try:
            L[i] = np.linalg.cholesky(Mi)
        except np.linalg.LinAlgError:
            ridge = 1e-13 * np.trace(Mi) / len(Mi)
            try:
                L[i] = np.linalg.cholesky(Mi + ridge * np.eye(len(Mi)))
            except np.linalg.LinAlgError:
                bad[i] = True
    return L, bad


def _cho_solve(L, rhs):
    """Solve L[i] L[i]' x = rhs[i] for each problem i."""
    x = np.empty_like(rhs)
    for i, (Li, r) in enumerate(zip(L, rhs)):
        x[i] = linalg.lapack.dpotrs(Li, r, lower=1)[0]
    return x


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


def _shape(problem):
    """(nz, (k, d) of each stack, LP count): what lockstep solving shares."""
    counts = {}
    for blk in problem.blocks:
        counts[blk.dim] = counts.get(blk.dim, 0) + 1
    return (min(problem.free[1].shape),
            tuple((k, d) for d, k in counts.items() if d > 1),
            counts.get(1, 0))


def dense_bytes(problem: SdpProblem) -> int:
    """Bytes of the dense coefficients and Schur matrix of one problem.

    Both are nz-sized per entry: one coefficient vector per block entry,
    and the nz x nz Schur matrix, with nz the free dimension.  The IPM's
    other arrays are of the size of the blocks alone.
    """
    nz = _shape(problem)[0]
    return 8 * nz * (nz + sum(blk.dim ** 2 for blk in problem.blocks))


def _solution(problem, N, z, status, iters, residuals):
    y = problem.free[0] + (N @ z if len(z) else 0.0)
    return SdpSolution(y=y, objective_value=float(problem.objective @ y),
                       status=status, iterations=iters, residuals=residuals)


def _fixed_point(problem):
    """The solution when nothing is free: the offset, checked as feasible."""
    N = np.zeros((problem.nvars, 0))
    lp_g0, _, G0s, _ = _stack_blocks(problem.blocks, problem.free[0], N)
    lam_min = min((np.linalg.eigvalsh(G0)[:, 0].min() for G0 in G0s),
                  default=0.0)
    lp_min = lp_g0.min() if len(lp_g0) else 0.0
    ok = lam_min >= -FEAS_TOL and lp_min >= -FEAS_TOL
    return _solution(problem, N, np.zeros(0),
                     "optimal" if ok else "infeasible_suspected", 0,
                     {"min_eig": float(min(lam_min, lp_min))})


def _stack(arrays):
    """The arrays stacked on a new first axis; a single one is not copied."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


class _Batch:
    """Data and iterates of problems of one shape; axis 0 is the problem.

    The data are those of each problem in z for y = free[0] + N z.  The
    start is infeasible: z = 0, with the slacks pushed inside the cone.
    """

    def __init__(self, problems, Ns):
        c = np.stack([N.T @ problem.objective
                      for problem, N in zip(problems, Ns)])
        self.ids = np.arange(len(problems))
        self.obj_scale = 1.0 / np.maximum(1.0, np.abs(c).max(axis=1))
        self.c = c * self.obj_scale[:, None]
        lp_g0, lp_G, G0s, Gs = zip(*(
            _stack_blocks(problem.blocks, problem.free[0], N)
            for problem, N in zip(problems, Ns)))
        self.lp_g0, self.lp_G = _stack(lp_g0), _stack(lp_G)
        self.G0s = [_stack(G0) for G0 in zip(*G0s)]
        self.Gs = [_stack(G) for G in zip(*Gs)]
        # residual scales: primal per block and LP row, dual per problem
        self.p_scale = [1 + np.linalg.norm(G0, axis=(2, 3))
                        for G0 in self.G0s]
        self.lp_scale = 1 + np.abs(self.lp_g0).max(axis=1, initial=0.0)
        self.d_scale = 1 + np.abs(self.c).max(axis=1)
        self.z = np.zeros_like(self.c)
        self.S, self.X = [], []
        for G0 in self.G0s:
            d = G0.shape[-1]
            lam = np.linalg.eigvalsh(G0)[..., 0]
            self.S.append(G0 + np.maximum(1.0, -1.5 * lam)[..., None, None] *
                          np.eye(d))
            self.X.append(np.broadcast_to(np.eye(d), G0.shape).copy())
        self.s_lp = np.maximum(1.0, self.lp_g0 + 1.0)
        self.x_lp = np.ones_like(self.lp_g0)
        self.best_err = np.full(len(problems), np.inf)
        self.stall = np.zeros(len(problems), dtype=int)
        # residuals of the current iterate: [primal, dual, gap, mu] per row
        self.res = None

    def __len__(self):
        return len(self.ids)

    def take(self, keep):
        """Keep only the rows in the mask keep, in every array."""
        for name, v in vars(self).items():
            if isinstance(v, list):
                setattr(self, name, [a[keep] for a in v])
            elif v is not None:
                setattr(self, name, v[keep])


def solve(problem: SdpProblem,
          max_iter: int = DEFAULT_MAX_ITER) -> SdpSolution:
    """Solve an SDP; see the module docstring for the problem format."""
    return solve_many([problem], max_iter)[0]


def solve_many(problems, max_iter: int = DEFAULT_MAX_ITER) -> list:
    """Solve SDPs, same-shape ones in lockstep; one solution per problem.

    Each solution is the one :func:`solve` returns for its problem alone.
    """
    out = [None] * len(problems)
    groups = {}
    for i, problem in enumerate(problems):
        groups.setdefault(_shape(problem), []).append(i)
    for shape, idx in groups.items():
        group = [problems[i] for i in idx]
        sols = (_lockstep(group, shape, max_iter) if shape[0] else
                [_fixed_point(problem) for problem in group])
        for i, sol in zip(idx, sols):
            out[i] = sol
    return out


def _lockstep(problems, shape, max_iter):
    """The IPM on problems of one shape, each with its own steps and stop."""
    out = [None] * len(problems)
    Ns = [np.linalg.qr(problem.free[1])[0] for problem in problems]
    st = _Batch(problems, Ns)
    nz, stacks, nlp = shape
    nst = len(stacks)
    nu = sum(k * d for k, d in stacks) + nlp

    def end(status, iters):
        """Return the problems whose status is set at their current iterate.

        status holds one entry per row, None for the rows that stay; the
        others leave the batch.
        """
        keep = np.array([why is None for why in status], dtype=bool)
        for row in np.flatnonzero(~keep):
            res = ({} if st.res is None else
                   dict(zip(("primal", "dual", "gap", "mu"),
                            map(float, st.res[row]))))
            i = st.ids[row]
            out[i] = _solution(problems[i], Ns[i], st.z[row], status[row],
                               iters, res)
        st.take(keep)

    def apply_G(v, s):
        """sum_n v[:, n] G_n over stack s, as a (B, k, d, d) array."""
        G = st.Gs[s]
        return np.vecmat(v, G.reshape(len(G), nz, -1)).reshape(
            st.G0s[s].shape)

    def adjoint_G(V, s):
        """The inner products of each G_n of stack s with V, as (B, nz)."""
        return np.matvec(st.Gs[s].reshape(len(V), nz, -1),
                         V.reshape(len(V), -1))

    for it in range(max_iter):
        if not len(st):
            break
        B = len(st)
        # residuals of the current iterate
        st.Rp = [st.S[s] - st.G0s[s] - apply_G(st.z, s) for s in range(nst)]
        st.r_lp = st.s_lp - st.lp_g0 - np.matvec(st.lp_G, st.z)
        st.r_stat = st.c - np.vecmat(st.x_lp, st.lp_G)
        for s in range(nst):
            st.r_stat = st.r_stat - adjoint_G(st.X[s], s)
        st.gap = _dot(st.x_lp, st.s_lp)
        dobj = -_dot(st.lp_g0, st.x_lp)
        pres = np.zeros(B)
        for s in range(nst):
            st.gap = st.gap + _dot(st.X[s], st.S[s])
            dobj = dobj - _dot(st.G0s[s], st.X[s])
            pres = np.maximum(pres, (np.linalg.norm(st.Rp[s], axis=(2, 3)) /
                                     st.p_scale[s]).max(axis=1))
        if nlp:
            pres = np.maximum(pres,
                              np.abs(st.r_lp).max(axis=1) / st.lp_scale)
        st.mu = st.gap / nu
        dres = np.abs(st.r_stat).max(axis=1) / st.d_scale
        # the gap relative to the objective in the caller's units
        relgap = np.abs(st.gap) / (st.obj_scale + np.abs(_dot(st.c, st.z)) +
                                   np.abs(dobj))
        st.res = np.array([pres, dres, relgap, st.mu]).T
        # the stop test, one problem at a time: these are a few scalars
        # per problem, and numpy calls on them would cost more
        status = [None] * B
        zz = _dot(st.z, st.z).tolist()
        for row, (pr, du, gp, _) in enumerate(st.res.tolist()):
            if pr < FEAS_TOL and du < FEAS_TOL and gp < GAP_TOL:
                status[row] = "optimal"
                continue
            err = max(pr, du, gp)
            if err < st.best_err[row] * 0.99:
                st.best_err[row], st.stall[row] = err, 0
            else:
                st.stall[row] += 1
            if st.stall[row] > 30 or zz[row] > 1e18:
                status[row] = ("infeasible_suspected" if pr > 1e3 * FEAS_TOL
                               else "numerical_failure")
        if any(status):
            end(status, it)

        # one Cholesky factorization and inverse of each iterate serve the
        # Nesterov-Todd scaling, S^-1 and every step length; a problem
        # whose own factorization fails leaves, and the rest refactor
        while len(st):
            try:
                L, scal = _factors(st.S, st.X)
            except np.linalg.LinAlgError:
                end(np.where(_failing_factors(st.S, st.X, len(st)),
                             "numerical_failure", None), it)
                continue
            w_lp = st.x_lp / st.s_lp
            Lm, bad = _schur_factor(_schur(st.Gs, scal, st.lp_G, w_lp))
            if not bad.any():
                break
            end(np.where(bad, "numerical_failure", None), it)
        if not len(st):
            break
        B = len(st)
        Li = [np.linalg.inv(l) for l in L]
        Sinv = [Lsi.mT @ Lsi for Lsi in (_halves(l)[0] for l in Li)]
        WRpW = [R @ (R.mT @ Rp @ R) @ R.mT for R, Rp in zip(scal, st.Rp)]
        v_lp = np.concatenate([st.s_lp, st.x_lp], axis=1)

        def directions(sigma_mu, corr=None, corr_lp=None):
            targets = []
            rhs = -st.r_stat
            for s in range(nst):
                Ts = _per_problem(sigma_mu, 4) * Sinv[s] - st.X[s]
                if corr is not None:
                    Ts = Ts - corr[s]
                Ts = _sym(Ts)
                targets.append(Ts)
                rhs = rhs + adjoint_G(_sym(Ts + WRpW[s]), s)
            lp_target = (sigma_mu[:, None] - st.x_lp * st.s_lp) / st.s_lp
            if corr_lp is not None:
                lp_target = lp_target - corr_lp / st.s_lp
            rhs = rhs + np.vecmat(lp_target + w_lp * st.r_lp, st.lp_G)
            dz = _cho_solve(Lm, rhs)
            dS, dX = [], []
            for s in range(nst):
                R = scal[s]
                dSs = -st.Rp[s] + apply_G(dz, s)
                WdSW = R @ (R.mT @ dSs @ R) @ R.mT
                dX.append(_sym(targets[s] - WdSW))
                dS.append(_sym(dSs))
            ds_lp = -st.r_lp + np.matvec(st.lp_G, dz)
            dx_lp = lp_target - w_lp * ds_lp
            return dz, dS, dX, ds_lp, dx_lp

        def step_length(dS, dX, ds_lp, dx_lp):
            """One length for primal and dual: the shorter of the two."""
            a = np.ones(B)
            for s in range(nst):
                a = np.minimum(a, _max_step(
                    Li[s], np.concatenate([dS[s], dX[s]], axis=1)))
            dv = np.concatenate([ds_lp, dx_lp], axis=1)
            ratio = np.divide(v_lp, -dv, out=np.full_like(dv, np.inf),
                              where=dv < 0)
            return np.minimum(a, _STEP_FRACTION * ratio.min(
                axis=1, initial=np.inf))

        # predictor
        dz, dS, dX, ds_lp, dx_lp = directions(np.zeros(B))
        a = step_length(dS, dX, ds_lp, dx_lp)
        a4 = _per_problem(a, 4)
        gap_aff = _dot(st.x_lp + a[:, None] * dx_lp,
                       st.s_lp + a[:, None] * ds_lp)
        for s in range(nst):
            gap_aff = gap_aff + _dot(st.X[s] + a4 * dX[s],
                                     st.S[s] + a4 * dS[s])
        sigma = np.minimum(1.0, np.maximum(
            1e-8, (np.maximum(gap_aff, 0.0) / st.gap) ** 3))

        # Mehrotra-style second-order correction from the affine direction
        corr = [_sym(dX[s] @ dS[s] @ Sinv[s]) for s in range(nst)]

        # corrector (reuses the factored Schur system)
        step = directions(sigma * st.mu, corr, dx_lp * ds_lp)
        a = step_length(*step[1:])
        weak = a < 0.05
        if weak.any():
            # poor centrality: those problems take a pure centering step
            center = directions(np.maximum(sigma, 0.9) * st.mu)
            a = np.where(weak, step_length(*center[1:]), a)
            step = [_pick(weak, c, d) for c, d in zip(center, step)]
        dz, dS, dX, ds_lp, dx_lp = step
        stuck = a < 1e-10
        a = np.where(stuck, 0.0, a)
        a4 = _per_problem(a, 4)
        st.z = st.z + a[:, None] * dz
        for s in range(nst):
            st.S[s] = st.S[s] + a4 * dS[s]
            st.X[s] = st.X[s] + a4 * dX[s]
        st.s_lp = st.s_lp + a[:, None] * ds_lp
        st.x_lp = st.x_lp + a[:, None] * dx_lp
        if stuck.any():
            end(np.where(stuck, "numerical_failure", None), it)

    end(["max_iterations"] * len(st), max_iter)
    return out


def _pick(mask, new, old):
    """Rows of new where mask is set, of old elsewhere (arrays or lists)."""
    if isinstance(new, list):
        return [_pick(mask, n, o) for n, o in zip(new, old)]
    return np.where(_per_problem(mask, new.ndim), new, old)
