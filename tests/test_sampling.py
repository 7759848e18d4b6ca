import dataclasses
import warnings

import numpy as np
import pytest

from gwsos import (MetricMeasureSpace, ValidationError, brute_force_gw,
                   build_dyadic_partition, consistency_experiment,
                   ground_circle, ground_finite, ground_interval,
                   ground_mixture, gw_lower_bound, merge_coincident_points,
                   rate_bound, sample_empirical, transport_upper_bound)
from gwsos import sampling
from gwsos.sampling import _atom_weights, cost_profile, level_discrepancy

from conftest import random_space


def four_point_ground():
    pts = np.array([0.0, 1 / 3, 2 / 3, 1.0])
    dist = np.abs(pts[:, None] - pts[None, :])
    space = MetricMeasureSpace(labels=list("abcd"), dist=dist,
                               weights=np.full(4, 0.25))
    return ground_finite(space)


class TestGroundDistributions:
    def test_interval_grid_normalized(self):
        gd = ground_interval(32)
        assert gd.space.size == 32
        assert gd.space.diameter == pytest.approx(1.0)
        assert gd.space.weights.sum() == pytest.approx(1.0)

    def test_circle_metric_is_geodesic(self):
        gd = ground_circle(8)
        d = gd.space.dist
        # antipodal pairs realize the diameter; wrap-around is shorter
        assert d[0, 4] == d.max()
        assert d[0, 7] == d[0, 1]

    def test_mixture_reweights_atoms(self):
        gd = four_point_ground()
        heavy = ground_finite(MetricMeasureSpace(
            labels=gd.space.labels, dist=gd.space.dist,
            weights=np.array([1.0, 0.0, 0.0, 0.0])))
        mix = ground_mixture([gd, heavy], [0.5, 0.5])
        assert mix.space.weights[0] == pytest.approx(0.625)

    def test_mixture_requires_shared_metric(self):
        a = ground_interval(4)
        b = ground_circle(4)
        with pytest.raises(ValidationError, match="ground metric"):
            ground_mixture([a, b], [0.5, 0.5])

    def test_sampling_deterministic_per_seed(self):
        gd = ground_interval(16)
        s1 = sample_empirical(gd, 10, seed=7)
        s2 = sample_empirical(gd, 10, seed=7)
        s3 = sample_empirical(gd, 10, seed=8)
        assert np.array_equal(s1.dist, s2.dist)
        assert not np.array_equal(s1.dist, s3.dist)

    def test_empirical_weights_match_draw(self):
        gd = four_point_ground()
        n, seed = 50, 3
        idx = gd.sample_indices(n, seed)
        w = _atom_weights(gd, idx)
        assert w.sum() == pytest.approx(1.0)
        assert np.array_equal(w, np.bincount(idx, minlength=4) / n)

    def test_sample_size_validated(self):
        with pytest.raises(ValidationError):
            sample_empirical(ground_interval(4), 0, seed=0)


class TestDyadicPartition:
    def test_diameters_and_nesting(self):
        gd = ground_interval(32)
        part = build_dyadic_partition(gd.space, k_star=3)
        for k, level in enumerate(part.levels, start=1):
            for cell in map(list, level.cells):
                diam = gd.space.dist[np.ix_(cell, cell)].max()
                assert diam <= part.delta ** k + 1e-12
        for coarse, fine in zip(part.levels, part.levels[1:]):
            owner = {i: c for c, cell in enumerate(coarse.cells)
                     for i in cell}
            for cell in fine.cells:  # each fine cell lies in one coarse cell
                assert len({owner[i] for i in cell}) == 1
        counts = [len(level.cells) for level in part.levels]
        assert counts == sorted(counts)  # refinement never merges cells

    def test_depth_capped_against_underflow(self):
        gd = ground_interval(8)
        with pytest.warns(UserWarning, match="capped"):
            part = build_dyadic_partition(gd.space, k_star=40)
        assert part.k_star < 40

    def test_invalid_depth_rejected(self):
        with pytest.raises(ValidationError):
            build_dyadic_partition(ground_interval(4).space, k_star=0)


class TestTransportBound:
    def test_zero_discrepancy_leaves_floor_term(self):
        gd = ground_interval(16)
        part = build_dyadic_partition(gd.space, k_star=3)
        w = gd.space.weights
        bound = transport_upper_bound(w, w, part, 1, 1)
        assert bound == pytest.approx(cost_profile((1 / 3) ** 3, 1, 1),
                                      abs=1e-12)

    def test_level_discrepancy_total_variation_like(self):
        gd = four_point_ground()
        part = build_dyadic_partition(gd.space, k_star=1)
        w2 = np.array([0.5, 0.0, 0.25, 0.25])
        disc = level_discrepancy(part.levels[0], gd.space.weights, w2)
        assert 0.0 <= disc <= 1.0

    def test_dominates_true_distortion(self):
        # gw(ground, empirical) <= transport bound, checked via the oracle
        gd = four_point_ground()
        part = build_dyadic_partition(gd.space, k_star=3)
        for seed in range(5):
            n = 8
            emp_w = _atom_weights(gd, gd.sample_indices(n, seed))
            emp = MetricMeasureSpace(labels=gd.space.labels,
                                     dist=gd.space.dist, weights=emp_w)
            true = brute_force_gw(gd.space, emp, p=1, q=1).value
            bound = transport_upper_bound(emp_w, gd.space.weights,
                                          part, 1, 1)
            assert true <= bound + 1e-8


class TestRateBound:
    def test_frozen_reference_value(self):
        # p = q = 1, s = 3, eps' = 1, n = 1:
        # C1 = 27 + 27/(3^0.5 - 1) + 3^10, C2 = 1.5 * 3^1.5
        c1 = 27.0 + 27.0 / (3.0 ** 0.5 - 1.0) + 3.0 ** 10
        c2 = 1.5 * 3.0 ** 1.5
        want = c1 + 1.5 + c2
        assert rate_bound(1, 1, 1, 3) == pytest.approx(want, rel=1e-12)

    def test_monotone_decreasing_in_n(self):
        vals = [rate_bound(n, 1, 1, 3) for n in (4, 16, 64, 256)]
        assert vals == sorted(vals, reverse=True)

    def test_domain_errors(self):
        with pytest.raises(ValidationError, match="s > 2p"):
            rate_bound(10, 2, 1, 3)
        with pytest.raises(ValidationError, match="s > 2pq"):
            rate_bound(10, 1, 2, 3)
        with pytest.raises(ValidationError, match="eps_prime"):
            rate_bound(10, 1, 1, 3, eps_prime=0.0)
        with pytest.raises(ValidationError):
            rate_bound(0, 1, 1, 3)


class TestConsistencyExperiment:
    def test_small_run_structure(self):
        report = consistency_experiment({
            "ground": four_point_ground(),
            "sizes": [4, 16],
            "trials": 3,
            "seed": 1,
            "rate_s": 3.0,
        })
        assert report.sizes == (4, 16)
        assert len(report.means) == 2
        assert report.failures == 0
        assert all(m >= 0 for m in report.means)
        assert len(report.rate_curve) == 2
        assert all(m <= rb for m, rb in zip(report.means,
                                            report.rate_curve))

    def test_deterministic_given_seed(self):
        config = {"ground": four_point_ground(), "sizes": [4],
                  "trials": 2, "seed": 5}
        r1 = consistency_experiment(dict(config))
        r2 = consistency_experiment(dict(config))
        assert r1.means == r2.means
        assert r1.transport_means == r2.transport_means

    def test_means_match_a_per_trial_loop(self):
        # one batched solve gives each trial the bound of its solo solve
        ground = four_point_ground()
        report = consistency_experiment({"ground": ground, "sizes": [4, 8],
                                         "trials": 3, "seed": 9})
        part = build_dyadic_partition(ground.space, 3)
        for n, mean, tmean in zip((4, 8), report.means,
                                  report.transport_means):
            values = [gw_lower_bound(ground.space, merge_coincident_points(
                sample_empirical(ground, n, 9 + t))).value for t in range(3)]
            tbounds = [transport_upper_bound(
                _atom_weights(ground, ground.sample_indices(n, 9 + t)),
                ground.space.weights, part, 1.0, 1.0) for t in range(3)]
            assert mean == pytest.approx(np.mean(values), rel=0, abs=1e-12)
            assert tmean == np.mean(tbounds)

    def test_only_optimal_trials_give_values(self, monkeypatch):
        config = {"ground": four_point_ground(), "sizes": [4], "trials": 3,
                  "seed": 9}
        base = consistency_experiment(dict(config))
        real, solved = sampling.gw_lower_bounds, []

        def first_capped(pairs, **kwargs):
            solved.extend(real(pairs, **kwargs))
            return ([dataclasses.replace(solved[0], status="max_iterations")]
                    + solved[1:])

        monkeypatch.setattr(sampling, "gw_lower_bounds", first_capped)
        report = consistency_experiment(dict(config))
        assert report.failures == base.failures + 1
        assert report.means[0] == pytest.approx(
            np.mean([r.value for r in solved[1:]]), rel=0, abs=1e-15)

    def test_partition_built_once_per_experiment(self):
        # the depth cap warns each time the partition is built
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            consistency_experiment({"ground": four_point_ground(),
                                    "sizes": [4, 8], "trials": 2,
                                    "seed": 0, "k_star": 40})
        assert len(caught) == 1 and "capped" in str(caught[0].message)

    def test_out_of_domain_rate_curve_empty(self):
        report = consistency_experiment({
            "ground": four_point_ground(), "sizes": [4], "trials": 1,
            "seed": 0, "p": 2.0, "rate_s": 3.0})
        assert report.rate_curve == ()
