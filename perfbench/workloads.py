"""Seeded inputs, one timed pass, and the output checks of each workload.

A pass is a closed loop with one caller: every call starts after the
previous one returned.  Calls go through module attributes
(``hierarchy.gw_lower_bound``, ``oracle.brute_force_gw``, ...) so that the
traced run's wrappers see them.  Checks run after the pass, outside the
timed region.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
import warnings

import numpy as np

from gwsos import geometry, hierarchy, moments, oracle, sampling, spaces

DEFAULT_SEED = 0
ORACLE_TOL = 1e-5      # bound <= oracle + tol
LEVEL_TOL = 1e-6       # level 1 <= level 2 + tol
REFERENCE_TOL = 1e-6   # the ROADMAP's "same bounds" rule
TENSOR_TOL = 1e-6


def line_space(rng, size):
    """Points on [0, 1] with both ends taken and random positive weights."""
    pts = np.sort(rng.uniform(0.0, 1.0, size=size))
    pts[0], pts[-1] = 0.0, 1.0
    w = rng.uniform(0.2, 1.0, size=size)
    return spaces.MetricMeasureSpace(
        labels=[f"p{i}" for i in range(size)],
        dist=np.abs(pts[:, None] - pts[None, :]), weights=w / w.sum())


@dataclasses.dataclass
class Pair:
    X: spaces.MetricMeasureSpace
    Y: spaces.MetricMeasureSpace
    p: float
    q: float
    levels: tuple
    oracle_in_pass: bool = False
    # objective of a known feasible coupling, where the oracle is out of reach
    upper: float | None = None

    def label(self, level):
        return f"{self.X.size}x{self.Y.size}_l{level}"


@dataclasses.dataclass
class Workload:
    name: str
    pairs: list
    experiment: dict | None = None
    tensor_check: bool = False


@dataclasses.dataclass
class Pass:
    wall: float
    bounds: list           # (pair index, level, GwBound, seconds)
    oracles: dict          # pair index -> OracleResult timed in the pass
    report: object = None  # RateReport
    experiment_s: float = float("nan")

    @property
    def attempted(self) -> int:
        trials = (len(self.report.sizes) * self.report.trials
                  if self.report is not None else 0)
        return len(self.bounds) + len(self.oracles) + trials


def ladder_l2(seed):
    rng = np.random.default_rng(seed)
    pairs = [Pair(line_space(rng, 3), line_space(rng, 3), 1.0, 1.0, (2,))
             for _ in range(7)]
    # The 3x4 pair is drawn from the default seed whatever --seed says: its
    # IPM path depends strongly on the draw (seeded 3x4 solves took 12.4 to
    # 16.7 s over seeds 1-5), so a seeded 3x4 would time the seed.
    fixed = np.random.default_rng(DEFAULT_SEED)
    pairs.append(Pair(line_space(fixed, 3), line_space(fixed, 4), 1.0, 1.0,
                      (2,)))
    return Workload("ladder_l2", pairs)


def concentration_pair():
    """Criterion 8: 16 interval midpoints against their 4-cell coarsening."""
    pts = (np.arange(16) + 0.5) / 16
    fine = spaces.MetricMeasureSpace(
        labels=[f"t{i}" for i in range(16)],
        dist=np.abs(pts[:, None] - pts[None, :]), weights=np.full(16, 1 / 16))
    cells = [tuple(range(4 * k, 4 * k + 4)) for k in range(4)]
    part = geometry.partition_from_cells(fine, cells, [1, 5, 9, 13])
    return fine, geometry.concentrate_space(fine, part), part


def wide_l1(seed):
    # The instance is fixed: relabelling its points (the only seeded change
    # that keeps it) moves the solve from 54 to 35 iterations, so a seeded
    # variant would time the seed rather than the code.
    del seed
    fine, coarse, part = concentration_pair()
    # sending each point to its cell's representative is a feasible coupling
    pi = np.zeros((fine.size, coarse.size))
    for c, cell in enumerate(part.cells):
        pi[list(cell), c] = fine.weights[list(cell)]
    cost = spaces.build_cost_tensor(fine, coarse, 1.0, 1.0)
    upper = oracle.evaluate_objective(cost, pi)
    return Workload("wide_l1", [Pair(fine, coarse, 1.0, 1.0, (1,),
                                     upper=upper)])


def small_batch(seed):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(4):  # 4 x 16 pairs give 112 bounds
        for m, n, p, q in itertools.product([2, 3], [2, 3], [1, 2], [1, 2]):
            levels = (1, 2) if m * n <= 6 else (1,)
            pairs.append(Pair(line_space(rng, m), line_space(rng, n),
                              float(p), float(q), levels,
                              oracle_in_pass=True))
    # criterion 10's ground: four equally spaced points on [0, 1]
    pts = np.array([0.0, 1 / 3, 2 / 3, 1.0])
    ground = sampling.ground_finite(spaces.MetricMeasureSpace(
        labels=list("abcd"), dist=np.abs(pts[:, None] - pts[None, :]),
        weights=np.full(4, 0.25)))
    experiment = {"ground": ground, "sizes": [4, 16, 64], "trials": 20,
                  "seed": int(seed), "p": 1.0, "q": 1.0, "level": 1,
                  "rate_s": 3.0, "jobs": 1}
    return Workload("small_batch", pairs, experiment, tensor_check=True)


WORKLOADS = {"ladder_l2": ladder_l2, "wide_l1": wide_l1,
             "small_batch": small_batch}


def warm_up(wl: Workload):
    """Pay the lazy first-call costs in set-up, not in the timed passes.

    One tiny solve outside the workload, then the monomial basis of every
    size and level the workload solves at (``get_basis`` is cached).
    """
    X = spaces.MetricMeasureSpace(labels=["a", "b"],
                                  dist=np.array([[0.0, 1.0], [1.0, 0.0]]),
                                  weights=np.array([0.5, 0.5]))
    Y = spaces.MetricMeasureSpace(labels=["c", "d"],
                                  dist=np.array([[0.0, 0.5], [0.5, 0.0]]),
                                  weights=np.array([0.5, 0.5]))
    hierarchy.gw_lower_bound(X, Y, p=1.0, q=1.0, level=2)
    for pair in wl.pairs:
        for level in pair.levels:
            moments.get_basis(pair.X.size * pair.Y.size, 2 * level)


def run_pass(wl: Workload) -> Pass:
    bounds, oracles = [], {}
    report, experiment_s = None, float("nan")
    start = time.perf_counter()
    for i, pair in enumerate(wl.pairs):
        for level in pair.levels:
            t0 = time.perf_counter()
            res = hierarchy.gw_lower_bound(pair.X, pair.Y, p=pair.p,
                                           q=pair.q, level=level)
            bounds.append((i, level, res, time.perf_counter() - t0))
        if pair.oracle_in_pass:
            oracles[i] = oracle.brute_force_gw(pair.X, pair.Y, p=pair.p,
                                               q=pair.q)
    if wl.experiment is not None:
        t0 = time.perf_counter()
        report = sampling.consistency_experiment(wl.experiment)
        experiment_s = time.perf_counter() - t0
    return Pass(time.perf_counter() - start, bounds, oracles, report,
                experiment_s)


def check_oracles(wl: Workload) -> dict:
    """Oracle values for pairs whose oracle runs only as a check."""
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # grid thinning on 3x4 is expected
        for i, pair in enumerate(wl.pairs):
            if not pair.oracle_in_pass and pair.upper is None:
                out[i] = oracle.brute_force_gw(pair.X, pair.Y, p=pair.p,
                                               q=pair.q)
    return out


def check_pass(wl: Workload, ps: Pass, check_oracle: dict,
               reference: dict | None, first: Pass | None = None):
    """Failed attempts of one pass, and those among them with a wrong output.

    Returns (attempt key -> list of reasons, set of keys with a wrong
    output).  A solve that ends without status ``optimal`` is a failed
    operation but no wrong answer, so its value is not checked further.
    ``first`` is an earlier pass over the same inputs: at a fixed thread
    count every pass must return the same bits.
    """
    failures: dict = {}
    wrong: set = set()

    def fail(key, reason, wrong_output=True):
        failures.setdefault(key, []).append(reason)
        if wrong_output:
            wrong.add(key)

    optimal: dict = {}
    for k, (i, level, res, _) in enumerate(ps.bounds):
        pair = wl.pairs[i]
        key = ("bound", k)
        if first is not None:
            prev = first.bounds[k][2]
            if (res.value, res.iterations) != (prev.value, prev.iterations):
                fail(key, "bound differs from the first pass")
        if res.status != "optimal":
            fail(key, f"status {res.status}", wrong_output=False)
            continue
        optimal.setdefault(i, {})[level] = (key, res)
        ref = ps.oracles.get(i, check_oracle.get(i))
        limit = ref.value if ref is not None else pair.upper
        if limit is not None and not res.value <= limit + ORACLE_TOL:
            fail(key, f"bound {res.value!r} above {limit!r}")
        if wl.tensor_check and level == 1:
            T = hierarchy.moments_to_tensor_measure(res.moments, res.m,
                                                    res.n, 1)
            if not hierarchy.check_tensor_measure(
                    T, pair.X.weights, pair.Y.weights, tol=TENSOR_TOL).passed:
                fail(key, "tensor measure check failed")
        if reference is not None and k < len(reference["bounds"]) and \
                not abs(reference["bounds"][k] - res.value) <= REFERENCE_TOL:
            fail(key, f"bound {res.value!r} != reference "
                      f"{reference['bounds'][k]!r}")
    for levels in optimal.values():
        if 1 in levels and 2 in levels:
            (_, r1), (key2, r2) = levels[1], levels[2]
            if not r1.value <= r2.value + LEVEL_TOL:
                fail(key2, f"level 1 {r1.value!r} above level 2 {r2.value!r}")
    if ps.report is not None:
        for t in range(ps.report.failures):
            fail(("trial", t), "experiment trial failed", wrong_output=False)
    if reference is not None:
        if len(reference["bounds"]) != len(ps.bounds):
            fail(("reference", 0), "reference has another number of bounds")
        if ps.report is not None:
            for t, (want, have) in enumerate(zip(
                    reference["experiment_means"], ps.report.means)):
                if not abs(want - have) <= REFERENCE_TOL:
                    fail(("mean", t), f"mean {have!r} != reference {want!r}")
    return failures, wrong
