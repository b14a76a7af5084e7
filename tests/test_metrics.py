"""Distances between laws and paths, histograms, rate fits."""

import numpy as np
import pytest

from chaoslab.metrics import (
    fit_rate,
    histogram_rows,
    mixture_bound_check,
    path_metric,
    w2_1d,
    w2_1d_quantile,
    w2_exact,
    w2_ensembles,
    w2_sliced,
)


class TestW2OneD:
    def test_identity(self):
        assert w2_1d([1.0, 2.0, 3.0], [3.0, 1.0, 2.0]) == 0.0

    def test_two_diracs(self):
        assert w2_1d([0.0], [1.0]) == 1.0

    def test_sorted_matching(self):
        assert w2_1d([0.0, 2.0], [1.0, 3.0]) == pytest.approx(1.0, abs=1e-15)

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            w2_1d([0.0], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            w2_1d([], [])

    def test_quantile_version_agrees_on_equal_counts(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            a, b = rng.standard_normal(n), rng.standard_normal(n)
            assert w2_1d_quantile(a, b) == pytest.approx(w2_1d(a, b), abs=1e-12)

    def test_huge_finite_distance_does_not_overflow(self, recwarn):
        # 2e200 is finite though its square is not; an infinite difference stays infinite
        assert w2_1d([1e200, 1e200], [-1e200, -1e200]) == 2e200
        assert w2_1d_quantile([1e200, 0.0, 1.0], [-1e200, 0.5]) == pytest.approx(1e200 * (5 / 6) ** 0.5)
        assert w2_1d([np.inf], [0.0]) == np.inf
        assert not recwarn.list

    def test_quantile_version_on_unequal_counts(self):
        # {0} vs {-1, 1}: quantile coupling gives W2^2 = 1
        assert w2_1d_quantile([0.0], [-1.0, 1.0]) == pytest.approx(1.0, abs=1e-15)


class TestW2Exact:
    def test_agrees_with_sorted_pairing_in_1d(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(2, 32))
            a, b = rng.standard_normal(n), rng.standard_normal(n)
            assert abs(w2_exact(a, b) - w2_1d(a, b)) <= 1e-10

    def test_translation_invariance_value(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((40, 3))
        c = np.array([1.0, -2.0, 0.5])
        assert w2_exact(a, a + c) == pytest.approx(np.linalg.norm(c), abs=1e-12)

    def test_size_cap(self):
        a = np.zeros((257, 1))
        with pytest.raises(ValueError):
            w2_exact(a, a)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            w2_exact(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_metric_axioms_sampled(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 10))
            a, b, c = (rng.standard_normal((n, 2)) for _ in range(3))
            dab, dba = w2_exact(a, b), w2_exact(b, a)
            assert dab == pytest.approx(dba, abs=1e-12)  # symmetry
            assert w2_exact(a, c) <= dab + w2_exact(b, c) + 1e-10  # triangle

    def test_triangle_inequality_1d(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(2, 30))
            a, b, c = (rng.standard_normal(n) for _ in range(3))
            assert w2_1d(a, c) <= w2_1d(a, b) + w2_1d(b, c) + 1e-12


class TestSlicedW2:
    def test_lower_bounds_exact_within_error(self):
        rng = np.random.default_rng(5)
        for k in range(50):
            a = rng.standard_normal((30, 3))
            b = rng.standard_normal((30, 3)) + rng.uniform(-0.5, 0.5, 3)
            sl = w2_sliced(a, b, n_proj=64, seed=k)
            assert sl.value <= w2_exact(a, b) + 3 * sl.stderr

    def test_exact_in_one_dimension(self):
        rng = np.random.default_rng(6)
        a, b = rng.standard_normal((20, 1)), rng.standard_normal((20, 1))
        sl = w2_sliced(a, b, n_proj=16, seed=0)
        assert sl.value == pytest.approx(w2_1d(a[:, 0], b[:, 0]), abs=1e-12)

    def test_empirical_law_convergence_sanity(self):
        # iid samples approach a large-sample proxy as the count grows
        rng = np.random.default_rng(7)
        proxy = np.sort(rng.standard_normal(10**6))
        dists = []
        for n in (100, 1000, 10000):
            samples = rng.standard_normal(n)
            dists.append(w2_1d_quantile(samples, proxy))
        assert dists[2] < dists[1] < dists[0]


class TestPathMetric:
    def grid(self, n_max):
        return np.linspace(0.0, n_max, 20 * n_max + 1)

    def test_identical_paths(self):
        t = self.grid(3)
        u = np.random.default_rng(0).standard_normal((len(t), 2))
        assert path_metric(u, u, t, 3).value == 0.0

    def test_constant_offset_geometric_sum(self):
        t = self.grid(4)
        u1 = np.zeros((len(t), 1))
        for d in (0.5, 3.0):
            u2 = np.full((len(t), 1), d)
            pm = path_metric(u1, u2, t, 4)
            assert pm.value == pytest.approx(d / (1 + d) * (1 - 2.0**-4), abs=1e-12)

    def test_truncation_error_bound(self):
        for n_max in (1, 4, 10):
            t = self.grid(n_max)
            pm = path_metric(np.zeros((len(t), 1)), np.ones((len(t), 1)), t, n_max)
            assert pm.tail_bound == 2.0**-n_max

    def test_grid_must_cover_window(self):
        t = np.linspace(0, 2, 21)
        with pytest.raises(ValueError):
            path_metric(np.zeros((21, 1)), np.zeros((21, 1)), t, 3)


class TestFitRate:
    def test_exact_slopes(self):
        for target in (0.0, -0.5, -1.0):
            pts = [(n, float(n) ** target) for n in (10, 100, 1000, 10000)]
            fit = fit_rate(pts)
            assert fit.slope == pytest.approx(target, abs=1e-12)
            assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_minimum_points(self):
        with pytest.raises(ValueError):
            fit_rate([(10, 1.0), (100, 0.1)])

    def test_positive_errors_required(self):
        with pytest.raises(ValueError):
            fit_rate([(10, 1.0), (100, 0.0), (1000, 0.1)])


class TestMixtureBound:
    def test_holds_on_random_mixtures(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            comps = []
            for _ in range(int(rng.integers(2, 5))):
                n = int(rng.integers(2, 9))
                comps.append((rng.standard_normal((n, 2)),
                              rng.standard_normal((n, 2)) + rng.uniform(-1, 1, 2)))
            assert mixture_bound_check(comps)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mixture_bound_check([])


class TestHistogramRows:
    def test_density_integrates_to_one(self):
        rng = np.random.default_rng(9)
        rows = histogram_rows(rng.standard_normal(5000), n_bins=30)
        total = sum(r["density"] * (r["bin_right"] - r["bin_left"]) for r in rows)
        assert total == pytest.approx(1.0, abs=1e-12)
        assert sum(r["count"] for r in rows) == 5000


class TestEnsembleRouter:
    def test_one_dimensional_uses_quantile(self):
        rng = np.random.default_rng(10)
        a, b = rng.standard_normal((100, 1)), rng.standard_normal((180, 1))
        assert w2_ensembles(a, b) == pytest.approx(w2_1d_quantile(a[:, 0], b[:, 0]), abs=1e-14)

    def test_small_clouds_use_exact(self):
        rng = np.random.default_rng(11)
        a, b = rng.standard_normal((50, 2)), rng.standard_normal((50, 2))
        assert w2_ensembles(a, b) == pytest.approx(w2_exact(a, b), abs=1e-14)
