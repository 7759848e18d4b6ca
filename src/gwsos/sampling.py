"""Empirical-measure experiments: sampling, dyadic partitions, rate bounds.

The distortion bound between a measure and its empirical approximation is
controlled through a nested partition with cell diameters shrinking by a
fixed ratio delta = 1/3: the transport bound charges each level by the
mass discrepancy of its cells, weighted by the worst pair cost h(eps)
between sets of diameter eps, taken here as h(eps) = eps^(p*q).
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np

from .geometry import (CellPartition, _farthest_point_cover,
                       partition_from_cells)
# gw_lower_bound stays a name here: perfbench's traced run wraps it
from .hierarchy import gw_lower_bound, gw_lower_bounds
from .spaces import (MetricMeasureSpace, ValidationError,
                     merge_coincident_points, normalize_diameter)

DELTA = 1.0 / 3.0
_UNDERFLOW = 1e-12


def cost_profile(eps: float, p: float, q: float) -> float:
    """Worst pair cost between sets of diameter <= eps: h(eps) = eps^(pq)."""
    return float(eps) ** (p * q)


@dataclasses.dataclass(frozen=True)
class GroundDistribution:
    """A samplable distribution over a finite metric ground set.

    ``space`` holds the atoms with their true masses; for the continuous
    kinds it is a fine grid standing in for the underlying measure.
    """

    kind: str
    space: MetricMeasureSpace

    def sample_indices(self, n: int, seed: int) -> np.ndarray:
        if n < 1:
            raise ValidationError(f"sample size must be >= 1, got {n}")
        rng = np.random.default_rng(seed)
        return rng.choice(self.space.size, size=n, p=self.space.weights)


def ground_interval(grid: int = 64) -> GroundDistribution:
    """Uniform measure on [0, 1], discretized to cell midpoints."""
    pts = (np.arange(grid) + 0.5) / grid
    dist = np.abs(pts[:, None] - pts[None, :])
    space = MetricMeasureSpace(labels=[f"t{i}" for i in range(grid)],
                               dist=dist,
                               weights=np.full(grid, 1.0 / grid),
                               name=f"interval{grid}")
    return GroundDistribution(kind="unit_interval_uniform",
                              space=normalize_diameter(space))


def ground_circle(grid: int = 64) -> GroundDistribution:
    """Uniform measure on a circle with geodesic metric, midpoint grid."""
    idx = np.arange(grid)
    steps = np.abs(idx[:, None] - idx[None, :])
    steps = np.minimum(steps, grid - steps)
    space = MetricMeasureSpace(labels=[f"a{i}" for i in range(grid)],
                               dist=steps / grid,
                               weights=np.full(grid, 1.0 / grid),
                               name=f"circle{grid}")
    return GroundDistribution(kind="unit_circle_uniform",
                              space=normalize_diameter(space))


def ground_finite(space: MetricMeasureSpace) -> GroundDistribution:
    return GroundDistribution(kind="finite", space=normalize_diameter(space))


def ground_mixture(components, probs) -> GroundDistribution:
    """Mixture of distributions sharing one ground metric."""
    probs = np.asarray(probs, dtype=float)
    if len(components) != len(probs) or abs(probs.sum() - 1.0) > 1e-9:
        raise ValidationError("mixture probabilities must match components "
                              "and sum to 1")
    base = components[0].space
    for comp in components[1:]:
        if comp.space.dist.shape != base.dist.shape or \
                not np.array_equal(comp.space.dist, base.dist):
            raise ValidationError(
                "mixture components must share one ground metric")
    weights = sum(pr * comp.space.weights
                  for pr, comp in zip(probs, components))
    space = MetricMeasureSpace(labels=base.labels, dist=base.dist,
                               weights=weights, name="mixture")
    return GroundDistribution(kind="mixture", space=space)


def sample_empirical(dist: GroundDistribution, n: int,
                     seed: int) -> MetricMeasureSpace:
    """n i.i.d. draws with weights 1/n; deterministic per seed."""
    return _empirical_space(dist, dist.sample_indices(n, seed))


def empirical_weights(dist: GroundDistribution, n: int,
                      seed: int) -> np.ndarray:
    """Empirical mass per ground atom for the same draw as sample_empirical."""
    return _atom_weights(dist, dist.sample_indices(n, seed))


def _empirical_space(dist, idx):
    """The drawn atoms idx as a space, each with weight 1/len(idx)."""
    n = len(idx)
    return MetricMeasureSpace(labels=[f"s{k}" for k in range(n)],
                              dist=dist.space.dist[np.ix_(idx, idx)],
                              weights=np.full(n, 1.0 / n),
                              name=f"{dist.space.name}^n={n}")


def _atom_weights(dist, idx):
    """The empirical mass of the draw idx on each ground atom."""
    return np.bincount(idx, minlength=dist.space.size) / len(idx)


@dataclasses.dataclass(frozen=True)
class DyadicPartition:
    """Nested partitions with per-level cell diameter at most delta^k."""

    levels: tuple   # CellPartition per level, level k at index k-1
    delta: float
    k_star: int


def build_dyadic_partition(space: MetricMeasureSpace,
                           k_star: int) -> DyadicPartition:
    """Greedy nested covering: each level refines its parent's cells.

    Cells at level k are built by farthest-point covering with radius
    DELTA^k / 2 inside each level-(k-1) cell, which bounds their diameter
    by DELTA^k and forces exact nesting.
    """
    if k_star < 1:
        raise ValidationError(f"k_star must be >= 1, got {k_star}")
    if DELTA ** k_star < _UNDERFLOW:
        k_star = int(np.floor(np.log(_UNDERFLOW) / np.log(DELTA)))
        warnings.warn(f"partition depth capped at {k_star} to avoid "
                      "cell-diameter underflow", stacklevel=2)
    levels = []
    parent_cells = [tuple(range(space.size))]
    for k in range(1, k_star + 1):
        cells, reps = [], []
        for cell in parent_cells:
            cell = list(cell)
            local_reps, assign = _farthest_point_cover(
                space.dist[np.ix_(cell, cell)], DELTA ** k / 2.0)
            for r_local, rep in enumerate(local_reps):
                members = [cell[i] for i in np.flatnonzero(assign == r_local)]
                cells.append(tuple(members))
                reps.append(cell[rep])
        levels.append(partition_from_cells(space, cells, reps))
        parent_cells = cells
    return DyadicPartition(levels=tuple(levels), delta=DELTA, k_star=k_star)


def level_discrepancy(partition: CellPartition, w1, w2) -> float:
    """Sum over cells of the absolute mass difference of two weightings."""
    w1 = np.asarray(w1, float)
    w2 = np.asarray(w2, float)
    return float(sum(abs(w1[list(cell)].sum() - w2[list(cell)].sum())
                     for cell in partition.cells))


def transport_upper_bound(lambda_w, mu_w, partition: DyadicPartition,
                          p: float, q: float) -> float:
    """Distortion bound between two measures on one partitioned ground set.

    gw(lambda, mu) <= 3 lambda(S) sum_k h(delta^(k-1)) sum_Q |lambda(Q)
    - mu(Q)| + h(delta^(k*)) lambda(S)^2, with h(eps) = eps^(pq).
    """
    lambda_w = np.asarray(lambda_w, float)
    mu_w = np.asarray(mu_w, float)
    lam_total = float(lambda_w.sum())
    delta = partition.delta
    acc = 0.0
    for k, level in enumerate(partition.levels, start=1):
        acc += (cost_profile(delta ** (k - 1), p, q)
                * level_discrepancy(level, lambda_w, mu_w))
    return (3.0 * lam_total * acc
            + cost_profile(delta ** partition.k_star, p, q) * lam_total ** 2)


def rate_bound(n: int, p: float, q: float, s: float,
               eps_prime: float = 1.0) -> float:
    """Expected-distortion rate bound C1 n^(-pq/s) + 1.5 n^(-p/s) + C2 n^(-1/2).

    Requires s > 2p (for the exponent alpha) and s > 2pq (so the geometric
    series constant in C1 is positive); outside that region the formula's
    constants are undefined and a domain error is raised.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if not 0 < eps_prime <= 1:
        raise ValidationError(f"eps_prime must lie in (0, 1], got {eps_prime}")
    if s <= 2 * p:
        raise ValidationError(
            f"rate bound undefined: need s > 2p, got s={s}, p={p}")
    if s <= 2 * p * q:
        raise ValidationError(
            f"rate bound undefined: need s > 2pq, got s={s}, pq={p * q}")
    alpha = s * p / (s - 2 * p)
    c1 = (3.0 ** (3 * p * q)
          + 3.0 ** (3 * p * q) / (3.0 ** (s / 2 - p * q) - 1.0)
          + 3.0 ** (3 * alpha + 1))
    c2 = 1.5 * (3.0 / eps_prime) ** (s / 2)
    return (c1 * n ** (-p * q / s)
            + 1.5 * n ** (-p / s)
            + c2 * n ** (-0.5))


@dataclasses.dataclass(frozen=True)
class RateReport:
    sizes: tuple
    means: tuple
    stdevs: tuple
    stderrs: tuple
    transport_means: tuple
    rate_curve: tuple          # () when parameters are out of domain
    fitted_exponent: float
    failures: int
    trials: int
    config: dict


def consistency_experiment(config: dict) -> RateReport:
    """Average the hierarchy bound between a ground measure and samples.

    config keys: ground (GroundDistribution), sizes, trials, seed, p, q,
    level, k_star, rate_s (optional), eps_prime (optional).  Trial t of
    size n draws with seed + t, and every trial is solved in one
    :func:`gw_lower_bounds` call.  A trial whose solve ends other than
    ``optimal`` or ``max_iterations`` counts as a failure.
    """
    ground = config["ground"]
    sizes = list(config["sizes"])
    trials = int(config["trials"])
    seed = int(config.get("seed", 0))
    p = float(config.get("p", 1.0))
    q = float(config.get("q", 1.0))
    level = int(config.get("level", 1))
    k_star = int(config.get("k_star", 3))
    # one partition for every trial
    part = build_dyadic_partition(ground.space, k_star)

    draws = [ground.sample_indices(n, seed + t)
             for n in sizes for t in range(trials)]
    results = gw_lower_bounds(
        ((ground.space, merge_coincident_points(_empirical_space(ground, idx)))
         for idx in draws), p=p, q=q, level=level)
    values = np.full(len(draws), np.nan)
    tbounds = np.full(len(draws), np.nan)
    failures = 0
    for j, (idx, res) in enumerate(zip(draws, results)):
        if res.status not in ("optimal", "max_iterations"):
            failures += 1
            continue
        values[j] = res.value
        tbounds[j] = transport_upper_bound(_atom_weights(ground, idx),
                                           ground.space.weights, part, p, q)
    values = values.reshape(len(sizes), trials)
    tbounds = tbounds.reshape(len(sizes), trials)

    means = np.nanmean(values, axis=1)
    stdevs = np.nanstd(values, axis=1, ddof=1) if trials > 1 \
        else np.zeros(len(sizes))
    counts = np.sum(~np.isnan(values), axis=1)
    stderrs = np.where(counts > 0, stdevs / np.sqrt(np.maximum(counts, 1)),
                       np.nan)

    rate_curve = ()
    rate_s = config.get("rate_s")
    if rate_s is not None:
        try:
            rate_curve = tuple(
                rate_bound(n, p, q, float(rate_s),
                           float(config.get("eps_prime", 1.0)))
                for n in sizes)
        except ValidationError:
            rate_curve = ()

    positive = means > 1e-12
    if positive.sum() >= 2:
        slope = np.polyfit(np.log(np.asarray(sizes)[positive]),
                           np.log(means[positive]), 1)[0]
    else:
        slope = float("nan")

    return RateReport(sizes=tuple(sizes),
                      means=tuple(float(v) for v in means),
                      stdevs=tuple(float(v) for v in stdevs),
                      stderrs=tuple(float(v) for v in stderrs),
                      transport_means=tuple(
                          float(v) for v in np.nanmean(tbounds, axis=1)),
                      rate_curve=rate_curve,
                      fitted_exponent=float(slope),
                      failures=failures,
                      trials=trials,
                      config={k: v for k, v in config.items()
                              if k != "ground"})
