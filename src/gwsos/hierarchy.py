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
monotone.  L is mostly zeros (0.85% nonzero at 16x4 level 1, 2% at 4x5
level 2), so it is held as sparse rows (:class:`SparseRows`) and never
as a dense matrix.  Its pattern, and which entries of a row's parent
feed each entry, depend on the shape alone, so they are planned once per
(m, n, level) (:func:`_substitution_plan`) and a pair only sums the
planned terms with its weights.

Zero-weight points carry no mass under any coupling and are dropped
first; their moments are reported as zeros.  Kept, their entries would
vanish on the polytope and leave no block strictly feasible.  With all
weights positive, Diracs near the product coupling make every block
positive definite.  A side left with one point (k = 0) has a unique
coupling and nothing to solve.

Isometries shrink the problem.  Weight-preserving isometries s of X and
t of Y permute the coupling entries by (i, j) -> (s(i), t(j)) and leave
the objective, the polytope and the set of blocks unchanged, so some
optimum has pi-moments constant on the orbits of monomials.  Such w are
w = w0 + N z, with w0 the product coupling's Dirac and N an orthonormal
basis of the invariant directions (:func:`reduce_by_symmetry`), and the
problem is stated to the solver in the coordinates y = (1, z): each
block's coefficients are those of w0 and of N's columns, dense.  Blocks
of subsets in one orbit are congruent there, so only the first of each
orbit is built, and M_r is block-diagonal in a basis adapted to the
commuting involutions among the isometries: it becomes one block per
joint sign of their eigenspaces (:func:`_isotypic_split`; Gatermann &
Parrilo, JPAA 2004).  Blocks of one size share one record.  The
reduction is exact only when every permutation keeps every distance and
weight exactly, which is why :func:`gwsos.spaces.isometries` compares
with ``==``; the isometries a capped search returns still give the
exact orbits of the subgroup they generate, and the involutions kept
lie in that subgroup.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math

import numpy as np

from . import moments as mom
from . import sdp
from .oracle import _affine_parametrization
from .spaces import (MetricMeasureSpace, ValidationError, build_cost_tensor,
                     isometries, restrict_space)


@dataclasses.dataclass(frozen=True)
class RelaxationInfo:
    level: int
    m: int
    n: int
    nvars: int                # t-moments w
    # the blocks in assembly order as (size, what) parts: what is None
    # for M_r, the sign vector of one of its isotypic blocks on symmetric
    # pairs, and for the localizing blocks of one h their subsets I, as a
    # (count, 2h) array of entries among all m*n
    parts: tuple
    basis: mom.MonomialBasis  # pi-monomials of degree <= 2r
    # the pi-moments are lift @ w: L's sparse rows, placed at the rows of
    # all m*n entries' monomials when zero-weight points were dropped
    lift: SparseRows
    # symmetric pairs: W = [w0, N], with w = W y for the solution y = (1, z)
    reduced: np.ndarray | None
    symmetries: int           # coupling-entry permutations the problem used


@dataclasses.dataclass(frozen=True)
class SparseRows:
    """A matrix held by rows: row i has the values vals[indptr[i]:indptr[i+1]]
    in the columns cols[indptr[i]:indptr[i+1]], ascending.

    Values may be exact zeros where the pattern has an entry.
    """

    indptr: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    shape: tuple

    def gather(self, rows):
        """(which, cols, vals) of the entries of the given rows, in order;
        which[e] is the position in ``rows`` of entry e's row."""
        start = self.indptr[rows]
        count = self.indptr[rows + 1] - start
        at = _ranges(start, count)
        return (np.repeat(np.arange(len(count)), count), self.cols[at],
                self.vals[at])

    def dense(self, rows, width):
        """The given rows as a dense (len(rows), width) array; every entry of
        those rows must lie in the first ``width`` columns."""
        which, cols, vals = self.gather(rows)
        out = np.zeros((len(rows), width))
        out[which, cols] = vals
        return out

    def __matmul__(self, x):
        """The product with a vector x."""
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        return np.bincount(rows, weights=self.vals * x[self.cols],
                           minlength=self.shape[0])


def _ranges(start, count):
    """The ranges start[i], ..., start[i] + count[i] - 1, concatenated."""
    return np.arange(count.sum()) + np.repeat(start - np.cumsum(count) + count,
                                              count)


@functools.lru_cache(maxsize=64)
def _substitution_plan(m, n, maxdeg):
    """Pattern of L for an m x n pair up to degree maxdeg, and how to fill it.

    Rows are filled in graded order: with v the first variable of g,
    pi^g = pi_v(t) * pi^(g - e_v), and pi_v(t) = b0_v + sum_u B[u, v] t_u.
    B has entries in {0, +-1} that depend on the shape alone, and b0_v is
    exactly 0 on the upper-left block, so which parent entries feed each
    entry of g, and by which factor, depends on (m, n, maxdeg) only.
    Returns (indptr, cols, terms); the terms of degree d are (src, tgt,
    fac, (lo, hi)): entry lo + tgt[e] receives factor[fac[e]] *
    vals[src[e]], where factor is b0 followed by 1 and -1.  Each entry's
    terms come in the dense recurrence's order, the b0 term first, then
    the shifts by ascending u, so L is bit for bit what a dense build
    gives.
    """
    nvars, k = m * n, (m - 1) * (n - 1)
    basis, tbasis = mom.get_basis(nvars, maxdeg), mom.get_basis(k, maxdeg)
    nt = len(tbasis)
    B = _affine_parametrization(np.ones(m), np.ones(n))[1].reshape(k, nvars)
    # the terms of pi_v in the order they are summed, as (order key, u or
    # -1, index into factor): b0_v unless v is on the upper-left block,
    # then t_u by ascending u
    upper_left = np.zeros((m, n), dtype=bool)
    upper_left[:-1, :-1] = True
    opts = [[(0, -1, v)] * (not upper_left.flat[v]) +
            [(1 + u, u, nvars + (B[u, v] < 0))
             for u in np.flatnonzero(B[:, v])]
            for v in range(nvars)]
    opt_ptr = np.cumsum([0] + [len(o) for o in opts])
    opt_key, opt_u, opt_fac = np.array(sum(opts, []), dtype=np.int64).T
    low = tbasis.exponents[tbasis.degrees < maxdeg].astype(np.int64)
    shifts = tbasis.index_rows(
        low + np.eye(k, dtype=np.int64)[:, None]).reshape(k, len(low))
    # monomial g past the constant: its first variable and g - e_v
    exps = basis.exponents[1:].astype(np.int64)
    first = np.argmax(exps > 0, axis=1)
    exps[np.arange(len(exps)), first] -= 1
    parent = basis.index_rows(exps)
    indptr = np.zeros(len(basis) + 1, dtype=np.int64)
    indptr[1] = 1
    cols, terms = [np.zeros(1, dtype=np.int32)], []
    for d in range(1, maxdeg + 1):
        lo, hi = (mom.basis_size(nvars, e) for e in (d - 1, d))
        p, v = parent[lo - 1:hi - 1], first[lo - 1:hi - 1]
        # one pair per (row, parent entry), then one term per pair and option
        count = indptr[p + 1] - indptr[p]
        row = np.repeat(np.arange(hi - lo), count)
        src = _ranges(indptr[p], count)
        nopt = (opt_ptr[v + 1] - opt_ptr[v])[row]
        pair = np.repeat(np.arange(len(row)), nopt)
        o = _ranges(opt_ptr[v][row], nopt)
        row, src = row[pair], src[pair]
        col = np.concatenate(cols)[src]
        col = np.where(opt_u[o] < 0, col, shifts[opt_u[o], col])
        key = (row * nt + col) * (k + 1) + opt_key[o]
        order = np.argsort(key)
        entry = key[order] // (k + 1)
        new = np.concatenate([[True], entry[1:] != entry[:-1]])
        entry = entry[new]
        indptr[lo + 1:hi + 1] = indptr[lo] + np.cumsum(
            np.bincount(entry // nt, minlength=hi - lo))
        cols.append((entry % nt).astype(np.int32))
        terms.append((src[order].astype(np.int32),
                      (np.cumsum(new) - 1).astype(np.int32),
                      opt_fac[o][order].astype(np.int16),
                      (indptr[lo], indptr[hi])))
    cols = np.concatenate(cols)
    # every map of this shape shares these arrays
    for a in (indptr, cols, *(a for t in terms for a in t[:3])):
        a.setflags(write=False)
    return indptr, cols, terms


def _substitution_map(basis, mu, nu):
    """Sparse rows of the matrix L with y = L w for pi = base + B^T t.

    Row g holds the coefficients of the polynomial pi(t)^g over the
    t-monomials up to the basis degree 2r (oracle's parametrization), so
    the moments of any measure on t map to those of its pushforward.
    Column 0 is the Dirac measure at t = 0 and the others span the
    solutions of the marginal identities with y_0 = 0.  The recurrence
    that fills the rows is planned once per shape
    (:func:`_substitution_plan`), so a call only sums the planned terms.
    """
    base, B = _affine_parametrization(mu, nu)
    b0 = base.ravel()
    if len(B) == 0:  # a one-point space: the coupling is fixed
        return SparseRows(np.arange(len(basis) + 1), np.zeros(len(basis), int),
                          mom.point_moments(basis, b0), (len(basis), 1))
    indptr, cols, terms = _substitution_plan(len(mu), len(nu), basis.maxdeg)
    factor = np.concatenate([b0, [1.0, -1.0]])
    vals = np.empty(len(cols))
    vals[0] = 1.0
    for src, tgt, fac, (lo, hi) in terms:
        vals[lo:hi] = np.bincount(tgt, weights=factor[fac] * vals[src],
                                  minlength=hi - lo)
    nt = mom.basis_size(len(B), basis.maxdeg)
    return SparseRows(indptr, cols, vals, (len(basis), nt))


def _support(space):
    """The space without its zero-weight points, and the mask of kept ones."""
    keep = space.weights > 0
    if keep.all():
        return space, keep
    return restrict_space(space, np.flatnonzero(keep), space.weights[keep],
                          space.name), keep


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


# The invariant directions are the range of the scaled orbit means A
# (reduce_by_symmetry), taken from eigh of A A'.  Its eigenvalues are the
# squared singular values of A, which eigh resolves only down to about
# len(A) * eps (1e-13) times the largest.  On every symmetric pair tried
# the singular values split into those of invariant directions, at least
# 0.015 times the largest, and rounding, at most 1e-14 times it, so the
# cut at 1e-8 of the largest eigenvalue (singular values at 1e-4) sits in
# that gap, far below the smallest kept eigenvalue (2e-4) and far above
# the rounding of eigh.
_GRAM_RTOL = 1e-8


def reduce_by_symmetry(basis, L, t_rows, entry_perms):
    """Monomial orbits and an orthonormal basis N of the invariant t-moments.

    Entry permutations rename the variables of pi-monomials; ``orbit``
    labels each by its orbit.  The invariant moments are the image of the
    group average, so as orbit values u (y = u[orbit]) their directions
    span the orbit means of L's columns past the first.  Row t_rows[g] of
    L is the unit vector of t-monomial g, so w = u[orbit[t_rows]], which
    is one to one there: only the orbits of t-monomials enter.  Scaled by
    the square root of its number c of t-monomials, each orbit's row of
    means takes the Euclidean product of w to that of the rows, so an
    orthonormal basis V of the scaled rows' range expands to the
    orthonormal N = (V / sqrt(c))[orbit of each t-monomial] with no QR.
    """
    mono = [basis.index_rows(basis.exponents[:, np.argsort(perm)])
            for perm in entry_perms]
    orbit = np.unique(_orbit_labels(mono), return_inverse=True)[1]
    t_orbits, t_orbit, count = np.unique(orbit[t_rows], return_inverse=True,
                                         return_counts=True)
    pos = np.full(orbit.max() + 1, -1)
    pos[t_orbits] = np.arange(len(t_orbits))
    group = pos[orbit]  # the t-orbit of each pi-monomial, or -1
    # orbit sums of L[:, 1:]: the other pi-monomials of the t-orbits, by
    # orbit in row order, plus the unit rows of the t-monomials
    group[t_rows] = -1
    rows = np.flatnonzero(group >= 0)
    which, col, val = L.gather(rows)
    on = col > 0
    nt = L.shape[1]
    A = np.bincount(group[rows][which[on]] * (nt - 1) + col[on] - 1,
                    weights=val[on], minlength=len(t_orbits) * (nt - 1)
                    ).reshape(len(t_orbits), nt - 1)
    A[t_orbit[1:], np.arange(nt - 1)] += 1.0
    sizes = count + np.bincount(group[rows], minlength=len(count))
    A *= (np.sqrt(count) / sizes)[:, None]
    lam, V = np.linalg.eigh(A @ A.T)
    keep = lam > _GRAM_RTOL * lam[-1]
    # eigh leaves eigenvector i within about eps * lam_max / lam_i of the
    # range; one product with A A' / lam brings it within eps times the
    # condition of A, and one Newton-Schulz step restores orthonormality
    V = A @ (A.T @ (V[:, keep] / lam[keep]))
    V = V @ (1.5 * np.eye(len(V.T)) - 0.5 * (V.T @ V))
    return orbit, (V / np.sqrt(count)[:, None])[t_orbit]


def _involutions(gx, gy):
    """Commuting order-2 isometries of X and of Y, as entry permutations.

    Each side keeps, in list order, every order-2 element that commutes
    with those it kept and is no product of them, so the kept ones
    generate an elementary abelian 2-group, independently, inside the
    group whose orbits reduce the problem; elements of X and of Y always
    commute.
    """
    kept = []
    for group in (gx, gy):
        gens, elems = [], [group[0]]
        for g in group[1:]:
            if (np.array_equal(g[g], group[0]) and
                    not any(np.array_equal(g, e) for e in elems) and
                    all(np.array_equal(g[h], h[g]) for h in gens)):
                gens.append(g)
                elems += [e[g] for e in elems]
        kept.append([group[0]] + gens)
    return _entry_permutations(*kept)


def _isotypic_split(basis, L, t_rows, d, involutions):
    """(signs s, basis Q_s) of each joint eigenspace of the moment matrix.

    Row a of T_g is the row of L at the pi-monomial g(t^a): the
    t-polynomial g makes of t^a, read on the first d t-monomials, those
    of degree <= r.  For invariant w, T_g M_r(w) T_g' = M_r(w); the T_g
    commute and square to I, so M_r(w) T_g' = T_g M_r(w), and the joint
    eigenspaces of the T_g' are orthogonal under every such M_r(w).  With
    bases Q_s of them, M_r(w) is PSD iff every Q_s' M_r(w) Q_s is
    (Gatermann & Parrilo, JPAA 2004).  P_s = prod_i (I + s_i T_i')/2
    projects onto the space of signs s; its rank is its trace, and Q_s is
    an orthonormal basis of its range.  Empty spaces are left out.
    """
    exps = basis.exponents[t_rows[:d]]
    Ts = [L.dense(basis.index_rows(exps[:, perm]), d).T
          for perm in involutions]
    out = []
    for signs in itertools.product((1, -1), repeat=len(Ts)):
        P = np.eye(d)
        for s, T in zip(signs, Ts):
            P = P @ (np.eye(d) + s * T) / 2
        rank = round(np.trace(P))
        if rank:
            out.append((signs, np.linalg.svd(P)[0][:, :rank]))
    return out


def _block_terms(basis, tbasis, level, orbit):
    """M_r (h = 0), then the localizing blocks: (d, subsets, T, rows) per h.

    One shift table T[a, b, g] = index of t^(a+b+g), flattened to
    (d*d, width), serves all subsets I of one h: block I adds
    L[e_I, g] w[T[a, b, g]] at (a, b), and rows holds the e_I.  With
    ``orbit``, only the first subset of each orbit of e_I is kept.
    """
    nvars, k = basis.nvars, tbasis.nvars
    exps = tbasis.exponents.astype(np.int64)
    terms = []
    for h in range(min(level, nvars // 2) + 1):
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
        terms.append((d, subsets, T, rows))
    return terms


def _records(terms, L):
    """One triplet record per h over w: the nonzero L[e_I, g] of each block."""
    blocks = []
    for d, _, T, rows in terms:
        which, g, coef = L.gather(rows)
        on = coef != 0
        which, g = which[on], g[on]
        blocks.append(sdp.PsdBlock(
            const=np.zeros((len(rows), d, d)), var_idx=T[:, g].T.ravel(),
            cells=(which[:, None] * (d * d) + np.arange(d * d)).ravel(),
            vals=np.repeat(coef[on], d * d)))
    return blocks


def _reduced_records(terms, L, W, split):
    """Records over y = (1, z) for w = W y, one per block size.

    The coefficient of y_j at (a, b) of block I is
    sum_g L[e_I, g] W[T[a, b, g], j]; y_0 = 1 gives the constants, and
    each z_j one triplet per cell.  M_r gives its isotypic blocks
    Q_s' M_r Q_s instead (``split``).  Blocks of one size are stacked in
    order of first appearance.
    """
    ny = W.shape[1]
    stacks = {}
    for h, (d, _, T, rows) in enumerate(terms):
        C = L.dense(rows, T.shape[1]) @ W[T.T].reshape(T.shape[1], -1)
        C = C.reshape(len(rows), d * d, ny).transpose(2, 0, 1).reshape(
            ny, len(rows), d, d)
        if h:
            stacks.setdefault(d, []).append(C)
        else:
            for _, Q in split:
                stacks.setdefault(len(Q.T), []).append(
                    (Q.T @ C[:, 0] @ Q)[:, None])
    blocks = []
    for group in stacks.values():
        S = np.concatenate(group, axis=1) if len(group) > 1 else group[0]
        size = S[0].size
        blocks.append(sdp.PsdBlock(
            const=S[0], var_idx=np.repeat(np.arange(1, ny), size),
            cells=np.tile(np.arange(size), ny - 1), vals=S[1:].ravel()))
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
    rows = np.flatnonzero(c)
    which, g, coef = L.gather(rows)
    objective = np.bincount(g, weights=c[rows][which] * coef,
                            minlength=L.shape[1])

    gx, gy = isometries(Xs), isometries(Ys)
    perms = _entry_permutations(gx, gy)
    entry_ids = np.flatnonzero(np.outer(kx, ky))  # kept among all m*n
    k = (Xs.size - 1) * (Ys.size - 1)
    nt = L.shape[1]
    blocks, parts, W = [], [], None
    free = (np.ones(1), np.arange(0))  # k = 0: w = (1,) is all there is
    if k:
        tbasis = mom.get_basis(k, 2 * level)
        t0 = np.outer(Xs.weights, Ys.weights)[:-1, :-1].ravel()
        # without isometries the free set is the coordinates w[1:]
        free = (mom.point_moments(tbasis, t0), np.arange(1, nt))
        d = mom.basis_size(k, level)
        orbit, parts = None, [(d, None)]
        if perms:
            grid = np.arange(nvars).reshape(Xs.size, Ys.size)
            t_exps = np.zeros((nt, nvars), dtype=np.int64)
            t_exps[:, grid[:-1, :-1].ravel()] = tbasis.exponents
            t_rows = basis.index_rows(t_exps)
            orbit, N = reduce_by_symmetry(basis, L, t_rows, perms)
            W = np.column_stack([free[0], N])
            split = _isotypic_split(basis, L, t_rows, d,
                                    _involutions(gx, gy))
            parts = [(len(Q.T), signs) for signs, Q in split]
        terms = _block_terms(basis, tbasis, level, orbit)
        parts += [(dh, entry_ids[subsets]) for dh, subsets, _, _ in terms[1:]]
        if W is None:
            blocks = _records(terms, L)
        else:
            blocks = _reduced_records(terms, L, W, split)
            objective = W.T @ objective
            free = (np.eye(1, len(objective))[0],
                    np.arange(1, len(objective)))
    problem = sdp.SdpProblem(nvars=len(objective), objective=objective,
                             blocks=blocks, free=free,
                             eq_lhs=np.eye(1, len(objective)), eq_rhs=[1.0])

    lift = L
    if len(entry_ids) < X.size * Y.size:  # zero moments on dropped entries
        # the kept monomials keep their order among all, so L's entries
        # stay as they are and only the rows move
        full = mom.get_basis(X.size * Y.size, 2 * level)
        exps = np.zeros((len(basis), full.nvars), dtype=np.int64)
        exps[:, entry_ids] = basis.exponents
        count = np.zeros(len(full), dtype=np.int64)
        count[full.index_rows(exps)] = np.diff(L.indptr)
        lift = SparseRows(np.concatenate([[0], np.cumsum(count)]), L.cols,
                          L.vals, (len(full), nt))
        basis = full
    info = RelaxationInfo(level=level, m=X.size, n=Y.size, nvars=nt,
                          parts=tuple(parts), basis=basis, lift=lift,
                          reduced=W, symmetries=len(gx) * len(gy))
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
# level-1 relaxation has 0.12 MB of them; its assembled problem, lift and
# IPM temporaries take about 2.0 times that again (tracemalloc peak of a
# chunk of five such pairs), so a chunk adds about 1.8 MB to peak RSS
# however many pairs there are, while its lockstep batches still share
# each kernel call among several problems.  A symmetric pair holds more
# per dense byte: its records are dense triplets of 24 B per coefficient,
# and its W is dense over the t-moments, so between assembly and solve it
# holds 3.5 to 5 times its dense bytes (4x4, 8x4 and 16x4 at level 1, 3x4
# at level 2), and a chunk of such pairs up to about 2.5 MB.
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
    w = sol.y if info.reduced is None else info.reduced @ sol.y
    value = max(raw, 0.0) if np.isfinite(raw) else np.nan
    root = value ** (1.0 / p) if np.isfinite(raw) else np.nan
    return GwBound(value=value, raw_objective=raw, root=root,
                   status=sol.status, iterations=sol.iterations,
                   residuals=sol.residuals, level=info.level, p=p, q=q,
                   m=info.m, n=info.n, moments=info.lift @ w,
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
