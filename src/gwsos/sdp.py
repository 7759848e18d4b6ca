"""A small dense semidefinite programming solver.

Problems are stated over a moment-style variable vector y:

    minimize    c' y
    subject to  y = offset off the free coordinates
                S(y) = C + sum_t vals_t y[var_t] E(cells_t)  psd

The PSD constraints come in SDPA's block-diagonal form (Fujisawa,
Kojima & Nakata, Math. Prog. 1997): one :class:`PsdBlock` record per
block size d holds the k blocks of that size, and no size has two
records.  The caller states the affine set as ``free = (offset,
coords)``: the 1-D integer ``coords`` name the free coordinates z, and
the others stay at the offset.  A caller with another affine set states
its problem in that set's own coordinates, as the hierarchy does for
symmetric pairs.  So the affine constraints hold exactly at every
iterate, no equality matrix or basis is factored, and the method starts
at z = 0, the caller's offset.  ``eq_lhs``/``eq_rhs`` may record
equalities with the same solutions; the solver does not read them.  The
triplets of a record form one sparse (k*d*d) x nvars matrix A, and the
data of each size in z are const + A offset and the columns of A at the
free coordinates, one bincount over (coordinate, cell) with numpy alone.
One-dimensional blocks form a nonnegativity cone.

The method is an infeasible-start primal-dual interior point method with
Nesterov-Todd scaling and a Mehrotra-style predictor-corrector.  Primal
and dual iterates move by one common step length, as in the infeasible
IPM of Kojima, Megiddo & Mizuno (Math. Prog. 1993); separate lengths let
the primal step collapse while the dual one stays long, and the solve
can stall.  After a long predictor step Mehrotra's sigma is tiny, the
corrector's second-order term can dominate its direction, and its step
falls far below the predictor's.  So the corrector is safeguarded, after
Salahi, Peng & Terlaky (SIAM J. Optim. 2007): a problem whose corrector
step is below ``_SHORT_CORRECTOR`` times its predictor step takes the
direction at the same target sigma * mu without the second-order terms
wherever that one goes further.
It stops when the primal and dual residuals are below
``FEAS_TOL`` and the gap relative to the objective in the caller's units
is below ``GAP_TOL``, or after ``max_iter`` iterations.  Each iteration
factors every S and X block once by Cholesky; the factors and their
inverses serve the scaling, S^-1 and every step length.  The Schur
complement is factored as it is, with a small ridge only when its
Cholesky factorization fails, and each direction is one solve with it:
forward and back substitution by diagonal blocks of at most 64 rows,
whose inverses are taken once per iteration, so that each step is one
batched product for the whole batch of problems.
Each record becomes a dense (k, d, d) stack, and every kernel of an
iteration runs once per stack as a batched call, not once per block.
Results are deterministic for a fixed input.

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

FEAS_TOL = 1e-7  # primal and dual residuals at the stop
GAP_TOL = 1e-7   # gap relative to the objective at the stop
DEFAULT_MAX_ITER = 200

_STEP_FRACTION = 0.98
# A corrector step below this share of the predictor's falls back to the
# uncorrected direction where that goes further.  On criterion 8's 16x4
# pair the solve takes 19 iterations at 0.8, 0.85 and 0.9, and 25 at 0.5
# and at 1.0 (35 without the safeguard).
_SHORT_CORRECTOR = 0.9
_GROUP_BYTES = 1 << 18  # coefficients per congruence call in _schur
_SOLVE_BLOCK = 64  # rows per diagonal block of the Schur factor's solve

# glibc serves allocations above its mmap threshold (128 KB at start) with
# fresh pages, and gives the heap's free top back to the system once it
# passes twice that threshold; freeing an mmap'd block raises both to its
# size.  Every IPM iteration allocates temporaries of a few hundred KB, so
# one 2 MB block freed here keeps them on the heap instead of faulting in
# new pages each iteration: a small_batch pass of perfbench took about
# 14,000 minor page faults without it and under 10 with it (importing
# scipy used to do the same as a side effect).  Other allocators ignore it.
np.empty(1 << 18)


@dataclasses.dataclass
class PsdBlock:
    """The k PSD constraints of one size d in sparse triplet form.

    ``const`` is the (k, d, d) stack of constant terms.  Triplet t adds
    vals[t] * y[var_idx[t]] at cell cells[t] of the stacked (k*d*d)
    array, so block i, entry (r, c) is cell (i*d + r)*d + c.  The
    triplets must describe symmetric matrices: off-diagonal
    contributions appear once for each of the two mirror positions.
    """

    const: np.ndarray
    var_idx: np.ndarray
    cells: np.ndarray
    vals: np.ndarray

    @property
    def dim(self) -> int:
        return self.const.shape[-1]


@dataclasses.dataclass
class SdpProblem:
    nvars: int
    objective: np.ndarray
    blocks: list  # PsdBlock records, one per block size
    # (offset (nvars,), coords): the feasible y are those equal to the
    # offset off the free coordinates
    free: tuple
    # equalities with the same solution set, kept for dumps and counters
    eq_lhs: np.ndarray = ()  # (neq, nvars)
    eq_rhs: np.ndarray = ()  # (neq,)

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        offset, coords = self.free
        coords = np.asarray(coords)
        if coords.ndim != 1 or coords.size and (
                coords.dtype.kind not in "iu" or
                coords.min() < 0 or coords.max() >= self.nvars or
                not np.diff(np.sort(coords)).all()):
            raise ValueError("free coordinates must be a 1-D array of "
                             f"distinct integers in [0, {self.nvars})")
        self.free = (np.asarray(offset, dtype=float), coords.astype(np.int64))
        self.eq_lhs = np.asarray(self.eq_lhs, dtype=float).reshape(
            -1, self.nvars)
        self.eq_rhs = np.asarray(self.eq_rhs, dtype=float)
        dims = [blk.dim for blk in self.blocks]
        if len(set(dims)) < len(dims):
            raise ValueError(f"PSD records of sizes {dims}: one per size")


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
        "free": {"offset": problem.free[0].tolist(),
                 "coords": problem.free[1].tolist()},
        "blocks": [{key: a.tolist() for key, a in vars(blk).items()}
                   for blk in problem.blocks],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_problem(path) -> SdpProblem:
    with open(path) as fh:
        doc = json.load(fh)
    blocks = [PsdBlock(const=np.asarray(b["const"], dtype=float),
                       var_idx=np.asarray(b["var_idx"], dtype=np.int64),
                       cells=np.asarray(b["cells"], dtype=np.int64),
                       vals=np.asarray(b["vals"], dtype=float))
              for b in doc["blocks"]]
    free = doc.get("free")
    if free is None:
        raise ValueError(f"{path}: no 'free' key; the solver needs the "
                         "affine set as free = {offset, coords}")
    if "basis" in free:
        raise ValueError(f"{path}: 'free' has a dense 'basis'; the solver "
                         "reads only free 'coords', so state the problem "
                         "in the coordinates of its affine set")
    return SdpProblem(nvars=doc["nvars"],
                      objective=np.asarray(doc["objective"], dtype=float),
                      eq_lhs=np.asarray(doc["eq_lhs"], dtype=float),
                      eq_rhs=np.asarray(doc["eq_rhs"], dtype=float),
                      blocks=blocks,
                      free=(free["offset"],
                            np.asarray(free["coords"], dtype=np.int64)))


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


def _tri_inv(T):
    """Inverse of each lower-triangular T[i] of 2^j rows.

    By doubling: from the reciprocals of the diagonal, the inverses of
    the diagonal blocks of s rows give those of 2s rows,
    inv [[A, 0], [C, D]] = [[A^-1, 0], [-D^-1 C A^-1, D^-1]], one batched
    product per level for all blocks of all matrices.
    """
    K, m, _ = T.shape
    X = np.zeros_like(T)
    np.einsum("kii->ki", X)[...] = 1.0 / np.einsum("kii->ki", T)
    s = 1
    while s < m:
        q = m // (2 * s)
        # pair j of s-blocks on the diagonal: view [k, j, a, :, b, :]
        Tp, Xp = (np.einsum("kjaxjby->kjaxby",
                            A.reshape(K, q, 2, s, q, 2, s)) for A in (T, X))
        Xp[:, :, 1, :, 0] = -(Xp[:, :, 1, :, 1] @ Tp[:, :, 1, :, 0]) @ \
            Xp[:, :, 0, :, 0]
        s *= 2
    return X


def _diag_inverses(L):
    """Inverses of the diagonal blocks of each Schur factor L[i].

    Up to 16 rows, L is one block, inverted by one batched call.  Beyond,
    the blocks have b = 32 or _SOLVE_BLOCK rows (_tri_inv), so that up to
    _SOLVE_BLOCK rows L is still one block, and an identity pads the last
    one.  The result is (nb, B, b, b).
    """
    B, n, _ = L.shape
    if n <= 16:
        return np.linalg.inv(L)[None]
    b = 32 if n <= 32 else _SOLVE_BLOCK
    nb = -(-n // b)
    T = np.zeros((nb, B, b, b))
    for j in range(nb):
        w = min(b, n - j * b)
        T[j, :, :w, :w] = L[:, j * b:j * b + w, j * b:j * b + w]
    pad = np.arange(n - (nb - 1) * b, b)
    T[-1, :, pad, pad] = 1.0
    return _tri_inv(T.reshape(nb * B, b, b)).reshape(nb, B, b, b)


def _schur_solver(L):
    """The solve of L[i] L[i]' x = rhs[i] for each problem i, as rhs -> x.

    Forward and back substitution by the diagonal blocks of L, whose
    inverses (_diag_inverses) are taken once: each step is one batched
    product for all problems.  The inverse of L L' itself is never
    formed; near the optimum its condition number reaches 1e16.
    """
    n = L.shape[1]
    Linv = _diag_inverses(L)
    b = Linv.shape[-1]
    if len(Linv) == 1:
        X = Linv[0, :, :n, :n]
        return lambda rhs: np.vecmat(np.matvec(X, rhs), X)

    def solve(rhs):
        u = np.empty_like(rhs)
        for j, D in enumerate(Linv):
            lo, hi = j * b, min(n, (j + 1) * b)
            r = rhs[:, lo:hi]
            if lo:
                r = r - np.matvec(L[:, lo:hi, :lo], u[:, :lo])
            u[:, lo:hi] = np.matvec(D[:, :hi - lo, :hi - lo], r)
        x = np.empty_like(rhs)
        for j in reversed(range(len(Linv))):
            lo, hi = j * b, min(n, (j + 1) * b)
            r = u[:, lo:hi]
            if hi < n:
                r = r - np.vecmat(x[:, hi:], L[:, hi:, lo:hi])
            x[:, lo:hi] = np.vecmat(r, Linv[j, :, :hi - lo, :hi - lo])
        return x
    return solve


def _coefficients(blk, N, nvars):
    """The columns of A at the free coordinates N, as an (nz, k*d*d) array.

    A is the record's sparse triplet matrix; the triplets of the other
    variables drop out.
    """
    size = blk.const.size
    nz = len(N)
    col = np.full(nvars, -1)
    col[N] = np.arange(nz)
    j = col[blk.var_idx]
    on = j >= 0
    G = np.bincount(j[on] * size + blk.cells[on], weights=blk.vals[on],
                    minlength=nz * size)
    # an empty bincount is an integer array
    return G.astype(float, copy=False).reshape(nz, size)


def _stack_blocks(blocks, y_p, N):
    """Cone data in the free coordinates N around y_p: LP and stacks.

    The triplets of a record of k blocks of size d form one sparse
    (k*d*d) x nvars matrix A, so the constants are const + A y_p and the
    coefficients the columns of A at N (_coefficients).  Each block is
    divided by its largest entry when that exceeds 1.  Size 1 gives the
    LP data (k,) and (k, nz); the other sizes give stacks in record
    order: constants (k, d, d) and coefficients (nz, k, d, d).
    """
    nz = len(N)
    lp_g0, lp_G = np.zeros(0), np.zeros((0, nz))
    G0s, Gs = [], []
    for blk in blocks:
        k, d, _ = blk.const.shape
        G0 = blk.const + np.bincount(
            blk.cells, weights=blk.vals * y_p[blk.var_idx],
            minlength=blk.const.size).reshape(k, d, d)
        G = _coefficients(blk, N, len(y_p)).reshape(nz, k, d, d)
        scale = 1.0 / np.maximum.reduce([
            np.ones(k), np.abs(G0).max(axis=(1, 2)),
            np.abs(G).max(axis=(0, 2, 3), initial=0.0)])
        G0 *= scale[:, None, None]
        G *= scale[:, None, None]
        if d == 1:
            lp_g0, lp_G = G0[:, 0, 0], np.ascontiguousarray(G[:, :, 0, 0].T)
        else:
            G0s.append(G0)
            Gs.append(G)
    return lp_g0, lp_G, G0s, Gs


def _shape(problem):
    """(nz, (k, d) of each stack, LP count): what lockstep solving shares."""
    shapes = [blk.const.shape[:2] for blk in problem.blocks]
    return (len(problem.free[1]),
            tuple((k, d) for k, d in shapes if d > 1),
            sum(k for k, d in shapes if d == 1))


def dense_bytes(problem: SdpProblem) -> int:
    """Bytes of the dense coefficients and Schur matrix of one problem.

    Both are nz-sized per entry: one coefficient vector per block entry,
    and the nz x nz Schur matrix, with nz the free dimension.  The IPM's
    other arrays are of the size of the blocks alone.
    """
    nz = _shape(problem)[0]
    return 8 * nz * (nz + sum(blk.const.size for blk in problem.blocks))


def _solution(problem, z, status, iters, residuals):
    y = problem.free[0].copy()
    y[problem.free[1]] += z
    return SdpSolution(y=y, objective_value=float(problem.objective @ y),
                       status=status, iterations=iters, residuals=residuals)


def _fixed_point(problem):
    """The solution when nothing is free: the offset, checked as feasible."""
    lp_g0, _, G0s, _ = _stack_blocks(problem.blocks, *problem.free)
    lam_min = min((np.linalg.eigvalsh(G0)[:, 0].min() for G0 in G0s),
                  default=0.0)
    lp_min = lp_g0.min() if len(lp_g0) else 0.0
    ok = lam_min >= -FEAS_TOL and lp_min >= -FEAS_TOL
    return _solution(problem, np.zeros(0),
                     "optimal" if ok else "infeasible_suspected", 0,
                     {"min_eig": float(min(lam_min, lp_min))})


def _stack(arrays):
    """The arrays stacked on a new first axis; a single one is not copied."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


class _Batch:
    """Data and iterates of problems of one shape; axis 0 is the problem.

    The data are those of each problem in its free coordinates z.  The
    start is infeasible: z = 0, with the slacks pushed inside the cone.
    """

    def __init__(self, problems):
        c = np.stack([problem.objective[problem.free[1]]
                      for problem in problems])
        self.ids = np.arange(len(problems))
        self.obj_scale = 1.0 / np.maximum(1.0, np.abs(c).max(axis=1))
        self.c = c * self.obj_scale[:, None]
        lp_g0, lp_G, G0s, Gs = zip(*(
            _stack_blocks(problem.blocks, *problem.free)
            for problem in problems))
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
    st = _Batch(problems)
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
            out[i] = _solution(problems[i], st.z[row], status[row], iters,
                               res)
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
                schur_solve = _schur_solver(Lm)
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
            dz = schur_solve(rhs)
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
        a_aff = step_length(dS, dX, ds_lp, dx_lp)
        a4 = _per_problem(a_aff, 4)
        gap_aff = _dot(st.x_lp + a_aff[:, None] * dx_lp,
                       st.s_lp + a_aff[:, None] * ds_lp)
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
        short = a < _SHORT_CORRECTOR * a_aff
        if short.any():
            # the second-order term dominates: those problems take the
            # direction at the same target without it where it goes further
            plain = directions(sigma * st.mu)
            a_plain = step_length(*plain[1:])
            longer = short & (a_plain > a)
            a = np.where(longer, a_plain, a)
            step = [_pick(longer, p, d) for p, d in zip(plain, step)]
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
