"""Stationary fixed-point map on 1-D grid densities."""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from chaoslab import stationary
from chaoslab import dynamics
from chaoslab.dynamics import (
    DOMAIN_REFERENCE,
    EnsembleDiverged,
    InitSpec,
    euler_run,
    meanfield_sigma_scale,
)
from chaoslab.experiments import ChaosRateConfig, ProblemConfig
from chaoslab.io import parse_config
from chaoslab.model import DataAtom, DataDistribution, Hyperparams, make_model, two_point_distribution
from chaoslab.rng import NoisePlan
from chaoslab.stationary import (
    GRID_LAW_BAND_SD,
    GRID_LAW_CELLS,
    GRID_LAW_WINDOW,
    GridDensity1D,
    fixed_point_iterate,
    grid_law_path,
    l1_distance,
    map_H,
    normal_cdf,
    stationarity_check,
)

# zero feature + V = w^2/2 gives the pure drift dW = -w dt; with a constant
# diffusion override s^2 the stationary law is the Gaussian N(0, s^2/2)
OU_MODEL = make_model("zero", "square", 1.0)
OU_PINNED = replace(OU_MODEL, sigma_override=1.0)
OU_PI = DataDistribution([DataAtom([1.0], 0.0, 1.0)])
OU_HYPER = Hyperparams(alpha=0.0, beta=1.0, gamma=1.0, M=1, T=5.0, dt=1e-3)


def ou_start(n_cells=2048):
    return GridDensity1D.gaussian(0.5, 2.0, -6.0, 6.0, n_cells)


class TestGridDensity:
    def test_normalization_invariant(self):
        g = GridDensity1D(-2.0, 2.0, 64, np.ones(64))
        assert g.integral() == pytest.approx(1.0, abs=1e-8)

    def test_grid_must_contain_origin(self):
        with pytest.raises(ValueError):
            GridDensity1D(1.0, 2.0, 64, np.ones(64))

    @pytest.mark.parametrize("n_cells, values, reason", [
        (3, np.ones(3), "at least 4 grid cells"),
        (64, np.ones(63), "one entry per cell"),
        (64, np.zeros(64), "positive mass"),
    ])
    def test_malformed_grid_rejected(self, n_cells, values, reason):
        with pytest.raises(ValueError, match=reason):
            GridDensity1D(-1.0, 1.0, n_cells, values)

    def test_negative_values_rejected(self):
        v = np.ones(64)
        v[3] = -0.1
        with pytest.raises(ValueError):
            GridDensity1D(-1.0, 1.0, 64, v)

    def test_ppf_roundtrip(self):
        g = GridDensity1D.gaussian(0.0, 1.0, -8.0, 8.0, 4096)
        u = np.linspace(0.01, 0.99, 21)
        from scipy.stats import norm

        np.testing.assert_allclose(g.ppf(u), norm.ppf(u), atol=5e-3)


class TestMapH:
    def test_constant_map_gives_analytic_gaussian(self):
        out = map_H(ou_start(), OU_PINNED, OU_PI, OU_HYPER)
        ana = GridDensity1D.gaussian(0.0, 0.5, out.lo, out.hi, out.n_cells)
        assert l1_distance(out, ana) <= 1e-6
        dens0 = float(np.interp(0.0, out.centers, out.values))
        assert dens0 == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-4)  # 0.56419

    def test_output_is_normalized(self):
        out = map_H(ou_start(), OU_PINNED, OU_PI, OU_HYPER)
        assert out.integral() == pytest.approx(1.0, abs=1e-8)

    def test_constant_map_idempotent(self):
        h1 = map_H(ou_start(), OU_PINNED, OU_PI, OU_HYPER)
        h2 = map_H(h1, OU_PINNED, OU_PI, OU_HYPER)
        assert l1_distance(h1, h2) <= 1e-10

    def test_gaussian_tail_domination(self):
        # log density below a fitted quadratic envelope in the tails
        out = map_H(ou_start(), OU_PINNED, OU_PI, OU_HYPER)
        w = out.centers
        inside = out.values > out.values.max() * 1e-10
        logv = np.log(out.values[inside])
        coef = np.polyfit(w[inside], logv, 2)
        assert coef[0] < 0  # concave quadratic: e^{-m w^2} domination
        assert out.moment(2) < np.inf and out.moment(4) < np.inf

    def test_grid_refinement_second_order(self):
        # L1 error against the analytic output shrinks ~ n_cells^-2
        errs = {}
        for n in (256, 512, 1024):
            out = map_H(ou_start(n), OU_PINNED, OU_PI, OU_HYPER)
            ana = GridDensity1D.gaussian(0.0, 0.5, out.lo, out.hi, 4 * out.n_cells)
            errs[n] = l1_distance(out, ana)
        assert errs[512] < errs[256]
        assert errs[1024] < errs[512]
        # at least quadratic-ish decay over the two doublings combined
        assert errs[256] / errs[1024] >= 4.0

    def test_degenerate_diffusion_rejected(self):
        # zero feature makes Sigma identically 0: the map needs ellipticity
        with pytest.raises(ValueError, match="elliptic"):
            map_H(ou_start(), OU_MODEL, OU_PI, OU_HYPER)

    def test_p_must_be_one(self):
        model2 = make_model("tanh-dot", "square", 1.0, p=2)
        with pytest.raises(ValueError, match="p = 1"):
            map_H(ou_start(), replace(model2, sigma_override=1.0), OU_PI, OU_HYPER)

    def test_law_that_never_decays_rejected(self):
        # no drift and no penalty: the pinned diffusion spreads the law over every window
        flat = replace(make_model("zero", "square"), sigma_override=1.0)
        with pytest.raises(ValueError, match="does not decay"):
            map_H(ou_start(), flat, OU_PI, OU_HYPER)


class TestFixedPoint:
    def test_constant_map_converges_in_one_iteration(self):
        res = fixed_point_iterate(ou_start(), OU_PINNED, OU_PI, OU_HYPER,
                                  tol=1e-10, max_iter=10, damping=1.0)
        assert res.converged
        assert res.iterations == 1
        assert res.residual <= 1e-10

    def test_interacting_model_converges_monotonically(self):
        model = make_model("tanh-dot", "square", 1.0)
        pi = two_point_distribution([1.0], 1.0, [-1.0], 1.0)
        hyper = Hyperparams(alpha=0.0, beta=1.0, gamma=1.0, M=1, T=5.0, dt=1e-3, eta=0.05)
        start = GridDensity1D.gaussian(0.0, 1.0, -5.0, 5.0, 1024)
        res = fixed_point_iterate(start, model, pi, hyper, tol=1e-6, max_iter=100, damping=0.5)
        assert res.converged
        assert res.residual <= 1e-6
        assert all(b <= a * (1 + 1e-9) for a, b in zip(res.history, res.history[1:]))

    def test_zero_tolerance_exhausts_iterations(self):
        res = fixed_point_iterate(ou_start(512), OU_PINNED, OU_PI, OU_HYPER,
                                  tol=0.0, max_iter=5, damping=0.7)
        assert res.iterations == 5
        assert res.residual > 0.0
        assert len(res.history) == 6

    def test_invalid_damping(self):
        with pytest.raises(ValueError):
            fixed_point_iterate(ou_start(512), OU_PINNED, OU_PI, OU_HYPER, damping=0.0)

    def test_negative_iteration_cap_rejected(self):
        with pytest.raises(ValueError, match="max_iter must be >= 0, got -1"):
            fixed_point_iterate(ou_start(512), OU_PINNED, OU_PI, OU_HYPER, max_iter=-1)

    def test_image_past_the_ceiling_diverges_at_its_iteration(self, monkeypatch):
        # the ceiling is dynamics.MOMENT_CEILING, read when the iteration runs
        m2 = stationary.map_H(ou_start(512), OU_PINNED, OU_PI, OU_HYPER).moment(2)
        monkeypatch.setattr(dynamics, "MOMENT_CEILING", 0.5 * m2)
        with pytest.raises(EnsembleDiverged, match=r"exceeded ceiling .* at iteration 0$"):
            fixed_point_iterate(ou_start(512), OU_PINNED, OU_PI, OU_HYPER)


class TestStationarityCheck:
    def fixed_point(self):
        return fixed_point_iterate(ou_start(), OU_PINNED, OU_PI, OU_HYPER,
                                   tol=1e-10, max_iter=5, damping=1.0).density

    def test_drift_small_from_the_fixed_point(self):
        mu = self.fixed_point()
        drift = stationarity_check(mu, OU_PINNED, OU_PI, OU_HYPER, 4096, 5.0, NoisePlan(0))
        assert drift <= 0.05

    def test_zero_horizon_gives_sampling_baseline(self):
        mu = self.fixed_point()
        base = stationarity_check(mu, OU_PINNED, OU_PI, OU_HYPER, 4096, 0.0, NoisePlan(0))
        assert 0.0 < base <= 0.05

    def test_p_must_be_one(self):
        model2 = replace(make_model("zero", "square", 1.0, p=2), sigma_override=1.0)
        with pytest.raises(ValueError, match="p = 1"):
            stationarity_check(ou_start(), model2, OU_PI, OU_HYPER, 16, 0.0, NoisePlan(0))

    def test_far_start_drifts_more(self):
        mu = self.fixed_point()
        near = stationarity_check(mu, OU_PINNED, OU_PI, OU_HYPER, 2048, 2.0, NoisePlan(0))
        shifted = GridDensity1D.gaussian(3.0, 0.5, -9.0, 9.0, 2048)
        far = stationarity_check(shifted, OU_PINNED, OU_PI, OU_HYPER, 2048, 2.0, NoisePlan(0))
        assert far > near


class TestGridLaw:
    MODEL, PI, INIT = ProblemConfig(labels="noisy").build()
    HYPER = Hyperparams(alpha=0.0, beta=1.0, gamma=1.0, M=1, T=1.0, dt=0.02)

    def test_normal_cdf_matches_scipy(self):
        from scipy.special import ndtr

        z = np.concatenate([np.linspace(-37.0, 37.0, 148_001), [-8.0, -1.0, 0.0, 1.0, 8.0]])
        got, want = normal_cdf(z), ndtr(z)
        assert np.abs(got - want).max() <= 2.3e-16
        assert np.all(np.abs(got - want) <= 6e-16 * want)  # relative, in the lower tail too

    def test_mass_is_conserved_and_the_edge_mass_reported(self):
        law = grid_law_path(self.MODEL, self.PI, self.HYPER, self.INIT, 1.0)
        assert law.masses.shape == (GRID_LAW_CELLS,)
        assert (law.lo, law.hi) == GRID_LAW_WINDOW
        assert law.residual_d1.shape == (50, 4)  # the rows steps 0..n_steps-1 read
        assert abs(law.masses.sum() - 1.0) <= 1e-12
        assert law.edge_mass <= 1e-30
        # half of the init box lies past the window's edge at 3: that mass, and
        # what the steps carry past it, is folded into the end cell and reported
        edge = grid_law_path(self.MODEL, self.PI, self.HYPER, InitSpec.uniform(2.6, 3.4), 1.0)
        assert abs(edge.masses.sum() - 1.0) <= 1e-12
        assert edge.edge_mass > 0.5

    def test_predictions_match_a_large_stratified_reference(self):
        # an off-center init, strong noise and a fast-decaying time weight, so that
        # the noise and its time weight move the predictions; under the square loss
        # a residual is the prediction minus y, so the residual rows carry them
        model, pi, init = ProblemConfig(labels="noisy", init_low=0.6, init_high=1.4).build()
        h = Hyperparams(alpha=0.75, beta=1.0, gamma=2.0, M=1, T=0.3, dt=0.02, eta=0.05)
        s = meanfield_sigma_scale(h)
        law = grid_law_path(model, pi, h, init, s)
        assert law.edge_mass <= 1e-12
        n_ref = 65536
        W0 = (0.6 + 0.8 * (np.arange(n_ref) + 0.5) / n_ref)[:, None]
        traj = euler_run(model, pi, h, W0, NoisePlan(3), DOMAIN_REFERENCE, s, "meanfield-sde")
        resid = traj.law_path  # the reference's residual row at steps 0..n_steps-1
        assert np.abs(resid - law.residual_d1).max() <= 2 * n_ref**-0.5
        # without the Sigma noise the law misses by more than that
        drift_only = grid_law_path(model, pi, h, init, 0.0)
        assert np.abs(resid - drift_only.residual_d1).max() > 4 * n_ref**-0.5

    def test_dirac_init_sits_on_a_cell_center(self):
        law = grid_law_path(self.MODEL, self.PI, self.HYPER.replace(T=0.02), InitSpec.dirac([0.3]),
                            1.0)
        assert np.abs(law.centers - 0.3).min() <= 1e-15
        np.testing.assert_allclose(law.residual_d1[0],
                                   np.tanh(0.3 * self.PI.xs[:, 0]) - self.PI.ys, rtol=0, atol=1e-15)
        outside = grid_law_path(self.MODEL, self.PI, self.HYPER.replace(T=0.02),
                                InitSpec.dirac([5.0]), 1.0)
        assert outside.edge_mass >= 1.0

    def test_zero_width_box_is_the_point_mass(self):
        hyper = self.HYPER.replace(T=0.1)
        box = grid_law_path(self.MODEL, self.PI, hyper, InitSpec.uniform(0.3, 0.3), 1.0)
        point = grid_law_path(self.MODEL, self.PI, hyper, InitSpec.dirac([0.3]), 1.0)
        np.testing.assert_array_equal(box.masses, point.masses)
        np.testing.assert_array_equal(box.residual_d1, point.residual_d1)

    @pytest.mark.parametrize("init, n_cells, reason", [
        (InitSpec.uniform(), 2, "at least 4 grid cells"),
    ])
    def test_malformed_grid_or_init_rejected(self, init, n_cells, reason):
        with pytest.raises(ValueError, match=reason):
            grid_law_path(self.MODEL, self.PI, self.HYPER, init, 1.0, n_cells)

    def test_noise_free_transitions_are_unresolved(self):
        # one atom: Sigma = 0, so without Langevin noise every Gaussian is a point
        single = DataDistribution([DataAtom([1.0], 1.0, 1.0)])
        law = grid_law_path(self.MODEL, single, self.HYPER, InitSpec.dirac([0.1]), 1.0)
        assert law.unresolved_mass == 1.0
        noisy = grid_law_path(self.MODEL, single, self.HYPER.replace(eta=0.1),
                              InitSpec.dirac([0.1]), 1.0)
        assert noisy.unresolved_mass == 0.0

    def test_needs_p_one(self):
        model, pi, init = ProblemConfig(p=2).build()
        with pytest.raises(ValueError, match="p = 1"):
            grid_law_path(model, pi, self.HYPER, init, 1.0)


def transition_in_blocks_of_8192(masses, means, sd, lo, dx, blocks):
    """The grid law's transition at its former block of 8192 band edges, as an
    oracle: the same bands, grouped three blocks a step on the shipped law;
    appends its block count to ``blocks``."""
    n_cells = masses.shape[0]
    K = np.ceil(GRID_LAW_BAND_SD / dx * sd).astype(np.int64) + 1
    first = np.floor((means - lo) / dx).astype(np.int64) - K
    z0 = (lo + first * dx - means) / sd
    dz = dx / sd
    n_edges = 2 * K + 2
    ends = np.cumsum(n_edges)
    out = np.zeros(n_cells + 2)
    a, n_blocks = 0, 0
    while a < n_cells:
        b = max(a + 1, int(np.searchsorted(ends, ends[a] - n_edges[a] + 8192, "right")))
        counts = n_edges[a:b]
        stops = np.cumsum(counts)
        row = np.repeat(np.arange(a, b), counts)
        j = np.arange(stops[-1]) - np.repeat(stops - counts, counts)
        cdf = normal_cdf(z0[row] + j * dz[row])
        cdf[stops - counts] = 0.0
        cdf[stops - 1] = 1.0
        moved = np.diff(cdf)
        moved[stops[:-1] - 1] = 0.0
        moved *= masses[row[:-1]]
        target = np.clip(first[row[:-1]] + j[:-1], -1, n_cells) + 1
        out += np.bincount(target, weights=moved, minlength=n_cells + 2)
        a, n_blocks = b, n_blocks + 1
    blocks.append(n_blocks)
    new = out[1:-1]
    new[0] += out[0]
    new[-1] += out[-1]
    return new, float(out[0] + out[-1])


def shipped_chaos_rate_law():
    raw = json.loads((Path(__file__).parent.parent / "configs" / "chaos-rate.json").read_text())
    config = parse_config(ChaosRateConfig, raw, "chaos-rate")
    model, pi, init = config.problem.build()
    return model, pi, config.hyper, init, meanfield_sigma_scale(config.hyper)


def wide_band_law():  # one atom, so Sigma = 0 and the Langevin noise sets every band
    model, _, _ = ProblemConfig(labels="noisy").build()
    hyper = Hyperparams(alpha=0.0, beta=1.0, gamma=1.0, M=1, T=1.0, dt=0.02, eta=0.1)
    return model, DataDistribution([DataAtom([1.0], 1.0, 1.0)]), hyper, InitSpec.dirac([0.1]), 1.0


def edge_box_law():  # half of the init box lies past the window's edge at 3
    model, pi, _ = ProblemConfig(labels="noisy").build()
    hyper = Hyperparams(alpha=0.0, beta=1.0, gamma=1.0, M=1, T=1.0, dt=0.02)
    return model, pi, hyper, InitSpec.uniform(2.6, 3.4), 1.0


@pytest.mark.parametrize("law", [shipped_chaos_rate_law, wide_band_law, edge_box_law])
def test_transition_agrees_with_its_8192_edge_blocks(monkeypatch, law):
    # only the grouping of the bincount sums differs, so every cell agrees to rounding
    transition, worst, blocks = stationary._transition, [0.0], []

    def both(masses, means, sd, lo, dx):
        new, folded = transition(masses, means, sd, lo, dx)
        old, old_folded = transition_in_blocks_of_8192(masses, means, sd, lo, dx, blocks)
        worst[0] = max(worst[0], np.abs(new - old).max(), abs(folded - old_folded))
        return new, folded

    monkeypatch.setattr(stationary, "_transition", both)
    path = grid_law_path(*law())
    assert max(blocks) > 1  # the oracle splits a transition that the law takes whole
    assert worst[0] <= 1e-14
    assert abs(path.masses.sum() - 1.0) <= 1e-14
