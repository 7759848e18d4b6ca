"""Finite metric measure spaces, couplings, and distortion cost tensors."""

from __future__ import annotations

import dataclasses
import json
import warnings

import numpy as np

TRIANGLE_TOL = 1e-9
DIAMETER_TOL = 1e-9
MAX_ISOMETRY_NODES = 1024  # partial assignments one isometry search visits
# Triangles per slab of the triangle check: its two float temporaries take
# 16 MB at any n (16 GB at n = 1000 in one pass); n <= 101 takes one slab.
_TRIANGLE_SLAB = 1 << 20

_KNOWN_FIELDS = {"labels", "dist", "weights", "name"}


class ValidationError(ValueError):
    """An input space or coupling violates a structural invariant."""


@dataclasses.dataclass(frozen=True)
class MetricMeasureSpace:
    """A finite metric space together with a probability weight vector.

    ``dist`` must be symmetric with zero diagonal and satisfy the triangle
    inequality; ``weights`` must be nonnegative and sum to one within
    1e-8, and are then divided by their sum, so that two spaces always
    carry the same mass and have couplings.  Instances are immutable and
    safe to share across threads.  ``_triangles_checked`` is for
    constructors in this package that restrict or shrink the distances
    of a valid space, which keeps the triangle inequality: they skip its
    O(n^3) check.
    """

    labels: tuple
    dist: np.ndarray
    weights: np.ndarray
    name: str = ""
    scale: float = 1.0  # factor distances were divided by, if normalized
    _triangles_checked: dataclasses.InitVar[bool] = False

    def __post_init__(self, _triangles_checked):
        dist = np.ascontiguousarray(np.asarray(self.dist, dtype=float))
        weights = np.ascontiguousarray(np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "dist", dist)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "labels", tuple(str(l) for l in self.labels))
        validate_space(self, triangles=not _triangles_checked)
        object.__setattr__(self, "weights", weights / weights.sum())
        self.dist.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def diameter(self) -> float:
        return float(self.dist.max()) if self.size else 0.0

    def is_normalized(self) -> bool:
        return self.diameter <= 1.0 + DIAMETER_TOL


def validate_space(space: MetricMeasureSpace, *,
                   triangles: bool = True) -> None:
    """Raise :class:`ValidationError` on the first violated invariant.

    ``triangles=False`` skips the triangle inequality, for distances
    already known to satisfy it.
    """
    d, w = space.dist, space.weights
    n = len(space.labels)
    if d.shape != (n, n):
        raise ValidationError(f"dist has shape {d.shape}, expected ({n}, {n})")
    if w.shape != (n,):
        raise ValidationError(f"weights has shape {w.shape}, expected ({n},)")
    if n == 0:
        raise ValidationError("space must contain at least one point")
    neg = np.argwhere(d < 0)
    if neg.size:
        i, j = neg[0]
        raise ValidationError(f"negative distance at ({i}, {j}): {d[i, j]}")
    asym = np.argwhere(np.abs(d - d.T) > 0)
    if asym.size:
        i, j = asym[0]
        raise ValidationError(
            f"asymmetry at ({i}, {j}): {d[i, j]} != {d[j, i]}")
    bad_diag = np.argwhere(np.diag(d) != 0)
    if bad_diag.size:
        i = int(bad_diag[0][0])
        raise ValidationError(f"nonzero diagonal at ({i}, {i}): {d[i, i]}")
    if triangles:
        _check_triangles(d)
    if (w < 0).any():
        i = int(np.argwhere(w < 0)[0][0])
        raise ValidationError(f"negative weight at index {i}: {w[i]}")
    total = float(w.sum())
    if abs(total - 1.0) > 1e-8:
        raise ValidationError(f"weights sum to {total}, expected 1")


def _check_triangles(d):
    """Triangle inequality d[i,k] <= d[i,j] + d[j,k], in slabs of rows i."""
    n = len(d)
    step = max(1, _TRIANGLE_SLAB // (n * n))
    for lo in range(0, n, step):
        rows = d[lo:lo + step]
        viol = np.argwhere(rows[:, None, :] - (rows[:, :, None] + d) >
                           TRIANGLE_TOL)
        if not viol.size:
            continue
        i, j, k = viol[0] + (lo, 0, 0)
        raise ValidationError(
            f"triangle inequality violated for (i={i}, j={j}, k={k}): "
            f"d[{i},{k}]={d[i, k]} > d[{i},{j}] + d[{j},{k}]="
            f"{d[i, j] + d[j, k]}")


def restrict_space(space: MetricMeasureSpace, points, weights,
                   name: str) -> MetricMeasureSpace:
    """The space on the given point indices, with new weights.

    A restriction of a metric keeps the triangle inequality, so it is
    not checked again; shapes and weights are.
    """
    points = np.asarray(points)
    return MetricMeasureSpace(labels=[space.labels[i] for i in points],
                              dist=space.dist[np.ix_(points, points)],
                              weights=weights, name=name, scale=space.scale,
                              _triangles_checked=True)


def isometries(space: MetricMeasureSpace) -> list:
    """Point permutations that keep every distance and every weight.

    Distances and weights are compared with ``==``: a tolerance would let
    a nearly symmetric space pass as symmetric, and a relaxation reduced
    by a false symmetry can bound above the true optimum.  Backtracking
    assigns images to points 0, 1, ... in turn, each to an unused point
    of equal weight and equal sorted distance row whose distances to the
    images so far match.  The search stops after ``MAX_ISOMETRY_NODES``
    partial assignments, so on very symmetric spaces it returns only some
    of the isometries; every one returned is exact, and the identity
    comes first.
    """
    d, w = space.dist, space.weights
    n = space.size
    rows = np.sort(d, axis=1)
    kinds = {}
    kind = np.array([kinds.setdefault((w[i], rows[i].tobytes()), len(kinds))
                     for i in range(n)])
    if len(kinds) == n:
        return [np.arange(n)]
    image = np.full(n, -1)
    free = np.ones(n, dtype=bool)

    def options(i):
        """Images point i may take given image[:i], smallest on top."""
        js = np.flatnonzero((kind == kind[i]) & free)
        js = js[(d[np.ix_(js, image[:i])] == d[i, :i]).all(axis=1)]
        return list(js[::-1])

    found, stack, nodes = [], [options(0)], 0
    while stack and nodes < MAX_ISOMETRY_NODES:
        i = len(stack) - 1
        if image[i] >= 0:
            free[image[i]] = True
            image[i] = -1
        if not stack[i]:
            stack.pop()
            continue
        j = stack[i].pop()
        image[i], free[j] = j, False
        nodes += 1
        if i + 1 == n:
            found.append(image.copy())
        else:
            stack.append(options(i + 1))
    return found or [np.arange(n)]


def load_space(source) -> MetricMeasureSpace:
    """Build a validated space from a dict, a JSON string, or a file path.

    Unknown fields trigger a warning but are otherwise ignored.  Points with
    zero weight are retained; :func:`gwsos.hierarchy.gw_lower_bound` drops
    them before it solves.
    """
    if isinstance(source, dict):
        doc = source
    elif hasattr(source, "read"):
        doc = json.load(source)
    else:
        text = str(source)
        if text.lstrip().startswith("{"):
            doc = json.loads(text)
        else:
            with open(text) as fh:
                doc = json.load(fh)
    unknown = set(doc) - _KNOWN_FIELDS
    if unknown:
        warnings.warn(f"ignoring unknown fields: {sorted(unknown)}",
                      stacklevel=2)
    for field in ("labels", "dist", "weights"):
        if field not in doc:
            raise ValidationError(f"missing required field '{field}'")
    return MetricMeasureSpace(labels=doc["labels"],
                              dist=np.asarray(doc["dist"], dtype=float),
                              weights=np.asarray(doc["weights"], dtype=float),
                              name=str(doc.get("name", "")))


def normalize_diameter(space: MetricMeasureSpace) -> MetricMeasureSpace:
    """Rescale distances so the diameter is one; singletons pass through."""
    diam = space.diameter
    if diam <= 0:
        return space
    # TRIANGLE_TOL is absolute: shrinking keeps a violation within it,
    # enlarging may not
    return MetricMeasureSpace(labels=space.labels,
                              dist=space.dist / diam,
                              weights=space.weights,
                              name=space.name,
                              scale=space.scale * diam,
                              _triangles_checked=diam >= 1)


def merge_coincident_points(space: MetricMeasureSpace,
                            tol: float = 0.0) -> MetricMeasureSpace:
    """Merge points at distance <= tol, summing weights.

    The distortion objective is invariant under this merge, which keeps
    empirical-measure instances small when samples repeat.
    """
    n = space.size
    group = -np.ones(n, dtype=int)
    reps = []
    for i in range(n):
        if group[i] >= 0:
            continue
        group[i] = len(reps)
        for j in range(i + 1, n):
            if group[j] < 0 and space.dist[i, j] <= tol:
                group[j] = len(reps)
        reps.append(i)
    if len(reps) == n:
        return space
    weights = np.zeros(len(reps))
    np.add.at(weights, group, space.weights)
    return restrict_space(space, reps, weights, space.name)


@dataclasses.dataclass(frozen=True)
class CostTensor:
    """Pairwise distortion costs c[i, j, k, l] = |dX(i,k)^q - dY(j,l)^q|^p."""

    m: int
    n: int
    entries: np.ndarray  # shape (m, n, m, n)
    p: float
    q: float

    def __post_init__(self):
        entries = np.ascontiguousarray(np.asarray(self.entries, dtype=float))
        if entries.shape != (self.m, self.n, self.m, self.n):
            raise ValidationError(
                f"cost tensor shape {entries.shape} does not match "
                f"(m, n, m, n) = {(self.m, self.n, self.m, self.n)}")
        object.__setattr__(self, "entries", entries)
        self.entries.setflags(write=False)


def build_cost_tensor(X: MetricMeasureSpace, Y: MetricMeasureSpace,
                      p: float, q: float) -> CostTensor:
    """Distortion costs for the L^{p,q} objective between two spaces.

    Both spaces must have diameter at most one; p, q >= 1 is required so
    the cost is Lipschitz with constant p*q in the summed metric.
    """
    if p < 1 or q < 1:
        raise ValidationError(f"exponents must satisfy p, q >= 1, got "
                              f"p={p}, q={q}")
    for name, space in (("X", X), ("Y", Y)):
        if not space.is_normalized():
            raise ValidationError(
                f"space {name} has diameter {space.diameter} > 1; "
                "normalize before building costs")
    dxq = X.dist ** q
    dyq = Y.dist ** q
    entries = np.abs(dxq[:, None, :, None] - dyq[None, :, None, :]) ** p
    return CostTensor(m=X.size, n=Y.size, entries=entries, p=p, q=q)


def lipschitz_constant(p: float, q: float) -> float:
    """Default Lipschitz bound for the cost on diameter-one spaces."""
    return p * q


@dataclasses.dataclass(frozen=True)
class Coupling:
    """A transportation plan with prescribed marginals."""

    pi: np.ndarray
    mu: np.ndarray
    nu: np.ndarray

    def __post_init__(self):
        pi = np.ascontiguousarray(np.asarray(self.pi, dtype=float))
        mu = np.asarray(self.mu, dtype=float)
        nu = np.asarray(self.nu, dtype=float)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nu", nu)
        if (pi < -1e-12).any():
            raise ValidationError("coupling has a negative entry")
        row_err = np.abs(pi.sum(axis=1) - mu).max()
        col_err = np.abs(pi.sum(axis=0) - nu).max()
        if max(row_err, col_err) > 1e-9:
            raise ValidationError(
                f"marginal mismatch: rows {row_err:.3e}, cols {col_err:.3e}")
        self.pi.setflags(write=False)


def product_coupling(mu, nu) -> Coupling:
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    return Coupling(pi=np.outer(mu, nu), mu=mu, nu=nu)
