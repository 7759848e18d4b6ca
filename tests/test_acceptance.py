"""Acceptance gate: one test per release criterion, at pinned tolerances.

The random-instance criteria share one batch of solved instances (built
once per module) so the soundness, monotonicity, and roundtrip checks
all see the same spaces.
"""

import itertools
import time

import numpy as np
import pytest

from gwsos import (MetricMeasureSpace, brute_force_gw,
                   build_dyadic_partition, check_tensor_measure,
                   concentrate_space, consistency_experiment, glue,
                   gw_lower_bound, moments_to_tensor_measure, rate_bound,
                   sdp, tensor_measure_to_moments, transport_upper_bound)
from gwsos.geometry import partition_from_cells

from conftest import random_space

SEED = 20260301


@pytest.fixture(scope="module")
def soundness_batch():
    """>= 50 random instances, m, n in {2, 3}, p, q in {1, 2}, both levels."""
    rng = np.random.default_rng(SEED)
    records = []
    start = time.perf_counter()
    combos = list(itertools.product([2, 3], [2, 3], [1, 2], [1, 2]))
    reps = -(-50 // len(combos))  # ceil, >= 50 instances total
    for _ in range(reps):
        for m, n, p, q in combos:
            X = random_space(rng, m)
            Y = random_space(rng, n)
            oracle = brute_force_gw(X, Y, p=p, q=q)
            r1 = gw_lower_bound(X, Y, p=p, q=q, level=1)
            r2 = gw_lower_bound(X, Y, p=p, q=q, level=2)
            records.append({"X": X, "Y": Y, "p": p, "q": q,
                            "oracle": oracle.value, "r1": r1, "r2": r2})
    elapsed = time.perf_counter() - start
    return records, elapsed


def test_criterion_01_lower_bound_soundness(soundness_batch):
    records, elapsed = soundness_batch
    assert len(records) >= 50
    for rec in records:
        for res in (rec["r1"], rec["r2"]):
            assert res.status == "optimal", \
                f"solver status {res.status} on {rec['p'], rec['q']}"
            assert res.value <= rec["oracle"] + 1e-5, \
                (f"bound {res.value} exceeds oracle {rec['oracle']} "
                 f"at level {res.level}")
    assert elapsed < 300.0, f"soundness batch took {elapsed:.1f} s"


def test_criterion_02_exact_2x2_agreement(two_point_pair):
    X, Y = two_point_pair
    oracle = brute_force_gw(X, Y, p=1, q=1)
    assert abs(oracle.value - 0.25) <= 1e-8
    r1 = gw_lower_bound(X, Y, p=1, q=1, level=1)
    r2 = gw_lower_bound(X, Y, p=1, q=1, level=2)
    assert r1.status == "optimal" and r2.status == "optimal"
    assert r1.value <= 0.25 + 1e-6
    assert r1.value - 1e-6 <= r2.value <= 0.25 + 1e-6


def test_criterion_03_hierarchy_monotonicity(soundness_batch):
    records, _ = soundness_batch
    for rec in records:
        assert rec["r1"].value <= rec["r2"].value + 1e-6, \
            (f"level 1 bound {rec['r1'].value} exceeds level 2 bound "
             f"{rec['r2'].value}")


def test_criterion_04_identity_axiom():
    rng = np.random.default_rng(SEED + 4)
    for k in range(20):
        X = random_space(rng, 2 + k % 3)
        res = gw_lower_bound(X, X, p=1, q=1, level=1)
        assert res.status == "optimal"
        assert res.root <= 1e-4, f"nonzero self-distance {res.root}"


def test_criterion_05_triangle_inequality():
    rng = np.random.default_rng(SEED + 5)
    for _ in range(30):
        spaces = [random_space(rng, int(rng.integers(2, 4)))
                  for _ in range(3)]
        d = {}
        for a, b in [(0, 1), (1, 2), (0, 2)]:
            res = gw_lower_bound(spaces[a], spaces[b], p=1, q=1, level=1)
            assert res.status == "optimal"
            d[a, b] = res.root
        assert d[0, 2] <= d[0, 1] + d[1, 2] + 1e-4, \
            f"triangle violated: {d[0, 2]} > {d[0, 1]} + {d[1, 2]}"


def test_criterion_06_moments_measures_roundtrip(soundness_batch):
    records, _ = soundness_batch
    for rec in records[:16]:
        res = rec["r1"]
        m, n = res.m, res.n
        T = moments_to_tensor_measure(res.moments, m, n, level=1)
        back = tensor_measure_to_moments(T)
        assert np.abs(back - res.moments).max() <= 1e-8
        report = check_tensor_measure(T, rec["X"].weights,
                                      rec["Y"].weights, tol=1e-6)
        assert report.passed, \
            (f"tensor checks failed: sym {report.symmetry_error}, "
             f"mar {report.marginal_error}, eig {report.min_eigenvalue}")


def test_criterion_07_gluing():
    rng = np.random.default_rng(SEED + 7)
    for _ in range(5):
        X = random_space(rng, 2)
        Y = random_space(rng, int(rng.integers(2, 4)))
        Z = random_space(rng, 2)
        rp = gw_lower_bound(X, Y, p=1, q=1, level=1)
        rq = gw_lower_bound(Y, Z, p=1, q=1, level=1)
        assert rp.status == "optimal" and rq.status == "optimal"
        P = moments_to_tensor_measure(rp.moments, rp.m, rp.n, 1)
        Q = moments_to_tensor_measure(rq.moments, rq.m, rq.n, 1)
        S, R = glue(P, Q, Y.weights)
        report = check_tensor_measure(R, X.weights, Z.weights, tol=1e-6)
        assert report.passed, \
            (f"glued tensor failed: sym {report.symmetry_error}, "
             f"mar {report.marginal_error}, eig {report.min_eigenvalue}")
        m, n, u = S.m, S.n, S.u
        cube = S.data.reshape((m, n, u) * S.order)
        got_P = cube.sum(axis=tuple(3 * s + 2 for s in range(S.order)))
        got_Q = cube.sum(axis=tuple(3 * s for s in range(S.order)))
        assert np.abs(got_P.reshape(P.data.shape) - P.data).max() <= 1e-9
        assert np.abs(got_Q.reshape(Q.data.shape) - Q.data).max() <= 1e-9


def test_criterion_08_concentration_stability():
    # 16 interval midpoints, concentrated onto 4 cells of radius 0.125
    pts = (np.arange(16) + 0.5) / 16
    dist = np.abs(pts[:, None] - pts[None, :])
    fine = MetricMeasureSpace(labels=[f"t{i}" for i in range(16)],
                              dist=dist, weights=np.full(16, 1 / 16))
    cells = [tuple(range(4 * k, 4 * k + 4)) for k in range(4)]
    part = partition_from_cells(fine, cells, [1, 5, 9, 13])
    assert part.radius == pytest.approx(0.125, abs=1e-15)
    coarse = concentrate_space(fine, part)

    p = q = 1
    cross = gw_lower_bound(fine, coarse, p=p, q=q, level=1)
    self_c = gw_lower_bound(coarse, coarse, p=p, q=q, level=1)
    assert cross.status == "optimal" and self_c.status == "optimal"
    diff = abs(cross.value - self_c.value)
    assert diff <= 4 * p * q * part.radius + 1e-4, \
        f"concentration shift {diff} exceeds the 4pq*eps bound"


def test_criterion_09_transport_upper_bound():
    rng = np.random.default_rng(SEED + 9)
    for p, q in itertools.product([1, 2], [1, 2]):
        for _ in range(3):
            # two measures on one common ground set
            ground = random_space(rng, 4)
            wa = rng.dirichlet(np.ones(4))
            wb = rng.dirichlet(np.ones(4))
            A = MetricMeasureSpace(labels=ground.labels, dist=ground.dist,
                                   weights=wa)
            B = MetricMeasureSpace(labels=ground.labels, dist=ground.dist,
                                   weights=wb)
            oracle = brute_force_gw(A, B, p=p, q=q).value
            part = build_dyadic_partition(ground, k_star=3)
            bound = transport_upper_bound(wa, wb, part, p, q)
            assert bound >= oracle - 1e-8, \
                f"transport bound {bound} below oracle {oracle}"


def test_criterion_10_sampling_consistency_trend():
    pts = np.array([0.0, 1 / 3, 2 / 3, 1.0])
    dist = np.abs(pts[:, None] - pts[None, :])
    from gwsos import ground_finite
    ground = ground_finite(MetricMeasureSpace(
        labels=list("abcd"), dist=dist, weights=np.full(4, 0.25)))
    start = time.perf_counter()
    report = consistency_experiment({
        "ground": ground, "sizes": [4, 16, 64], "trials": 20,
        "seed": SEED, "p": 1.0, "q": 1.0, "level": 1, "rate_s": 3.0})
    elapsed = time.perf_counter() - start
    assert report.failures == 0
    for a in range(len(report.sizes) - 1):
        slack = report.stderrs[a] + report.stderrs[a + 1]
        assert report.means[a + 1] <= report.means[a] + slack, \
            (f"mean increased from n={report.sizes[a]} to "
             f"n={report.sizes[a + 1]}: {report.means}")
    for n, mean in zip(report.sizes, report.means):
        assert mean <= rate_bound(n, 1, 1, 3), \
            f"mean {mean} above rate bound at n={n}"
    assert elapsed < 600.0, f"experiment took {elapsed:.1f} s"


def test_criterion_11_sdp_solver_unit():
    blk = sdp.PsdBlock(const=np.eye(2)[None],
                       var_idx=np.array([0, 0]), cells=np.array([1, 2]),
                       vals=np.array([1.0, 1.0]))
    prob = sdp.SdpProblem(nvars=1, objective=np.array([-1.0]),
                          free=([0.0], [0]), blocks=[blk])
    sols = [sdp.solve(prob) for _ in range(3)]
    assert sols[0].status == "optimal"
    assert abs(sols[0].y[0] - 1.0) <= 1e-6
    for s in sols[1:]:
        assert abs(s.y[0] - sols[0].y[0]) <= 1e-12
        assert abs(s.objective_value - sols[0].objective_value) <= 1e-12
