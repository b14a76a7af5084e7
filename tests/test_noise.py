"""The diffusion noise step: rank-D factor at p > 1, scalar root at p = 1."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from chaoslab.dynamics import (
    DOMAIN_REFERENCE,
    DOMAIN_SYSTEM,
    InitSpec,
    interacting_sde_run,
    msgld_run,
    sgd_run,
)
from chaoslab.experiments import (
    ChaosRateConfig,
    ProblemConfig,
    SweepConfig,
    batch_sweep,
    chaos_rate_study,
    coupled_chaos_error,
    two_term_bound,
)
from chaoslab.meanfield import (
    EmpiricalMeasure,
    covariance_sigma,
    drift_and_noise,
    field_cache,
    mean_field_terms,
    noise_width,
    noise_xi,
)
from chaoslab.model import (
    DataAtom,
    DataDistribution,
    Hyperparams,
    ModelSpec,
    RidgeFeature,
    gamma_scale,
    make_model,
    time_weight,
)
from chaoslab.rng import SLOT_DIFFUSION, NoisePlan
from chaoslab.stationary import GRID_LAW_CELLS, GridDensity1D, grid_law_path, map_H

TANH = make_model("tanh-dot", "square")
NOISY = DataDistribution([
    DataAtom([0.8], 0.9, 0.25), DataAtom([-0.6], -0.4, 0.25),
    DataAtom([1.0], -0.2, 0.25), DataAtom([-0.9], 0.7, 0.25),
])


def scalar_root_increment(sigma, scale, Z):
    """The p = 1 diffusion increment: scale * sqrt(Sigma_00) * z."""
    return scale * np.sqrt(np.clip(sigma[:, 0, 0], 0.0, None))[:, None] * Z


class TestFactorIncrement:
    def test_increment_covariance_p2(self):
        # 20 000 particles at one point w: the increments' empirical
        # covariance matches scale^2 Sigma dt entrywise within 3 standard errors
        rng = np.random.default_rng(12)
        model = make_model("tanh-dot", "square", 0.1, p=2)
        pi = DataDistribution([DataAtom(rng.uniform(-1, 1, 2), float(rng.uniform(-1, 1)),
                                        float(rng.uniform(0.2, 1.0))) for _ in range(4)])
        mu = EmpiricalMeasure(rng.standard_normal((8, 2)))
        w = np.array([0.3, -0.5])
        n, scale, dt = 20_000, 0.7, 0.02
        W = np.tile(w, (n, 1))
        Z = NoisePlan(3).normals(DOMAIN_SYSTEM, SLOT_DIFFUSION, 0, n, noise_width(model, pi))
        assert Z.shape == (n, 4)
        _, noise = drift_and_noise(W, field_cache(mu, model, pi), model, pi, scale, Z)
        inc = math.sqrt(dt) * noise
        want = scale**2 * covariance_sigma(w, mu, model, pi) * dt
        got = inc.T @ inc / n
        se = np.sqrt((np.outer(np.diag(want), np.diag(want)) + want**2) / n)
        assert np.all(np.abs(got - want) <= 3 * se)

    def test_rank_one_covariance_at_p4_runs_without_warnings(self):
        # the "noisy" atoms are collinear, so Sigma has rank 1 at p = 4
        model, pi, init = ProblemConfig(p=4).build()
        w = np.array([0.1, -0.2, 0.3, 0.05])
        assert np.linalg.matrix_rank(covariance_sigma(w, w[None, :], model, pi)) == 1
        h = Hyperparams(alpha=0.0, beta=1.0, gamma=1.0, M=1, T=0.2, dt=0.02)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = interacting_sde_run(model, pi, h, 64, init, NoisePlan(8), snapshot_times="all")
            est = coupled_chaos_error(model, pi, h, Ns=(8,), m=2, N_ref=16, reps=2,
                                      plan=NoisePlan(9), init=init)[8]
        assert np.all(np.isfinite(traj.ensembles))
        assert np.ptp(traj.endpoint()) > 0.0
        assert np.isfinite(est.value) and est.value > 0.0

    def test_batch_sweep_p2_worker_invariant(self):
        config = SweepConfig(
            problem=ProblemConfig(p=2),
            hyper=Hyperparams(alpha=0.0, beta=1.0, gamma=1.0, M=1, T=0.2, dt=0.02),
            batches=(1, 4), N_ref=32, reps=2, seed=5,
        )
        serial = batch_sweep(config, workers=1)
        pooled = batch_sweep(config, workers=2)
        assert serial.tables == pooled.tables

    def test_chaos_rate_p2_worker_invariant(self):
        # p = 2 has no grid law: the particle reference is one euler_run per study
        config = ChaosRateConfig(
            problem=ProblemConfig(p=2),
            hyper=Hyperparams(alpha=0.0, beta=1.0, gamma=1.0, M=1, T=0.2, dt=0.02),
            N_grid=(4, 8, 16, 32), m=2, N_ref=64, reps=3, seed=5,
        )
        serial = chaos_rate_study(config, workers=1)
        pooled = chaos_rate_study(config, workers=2)
        assert serial.config["reference"] == "particle"
        assert serial.tables == pooled.tables


class TestScalarRootAtP1:
    """p = 1 keeps the scalar root sqrt(Sigma_00), bit for bit."""

    def test_interacting_sde_run(self):
        h = Hyperparams(alpha=0.25, beta=1.0, gamma=0.5, M=2, T=0.2, dt=0.02)
        N = 16
        init = InitSpec.uniform(-0.5, 0.5)
        traj = interacting_sde_run(TANH, NOISY, h, N, init, NoisePlan(4), snapshot_times="all")

        scale = math.sqrt(gamma_scale(h.alpha, h.beta, h.gamma, N) / h.M)
        W = init.draw(NoisePlan(4), DOMAIN_SYSTEM, N, 1)
        want = [W]
        for n in range(10):
            hn, _, sig = mean_field_terms(W, field_cache(W, TANH, NOISY), TANH, NOISY,
                                          need_sigma=True)
            Z = NoisePlan(4).normals(DOMAIN_SYSTEM, SLOT_DIFFUSION, n, N, 1)
            incr = hn * h.dt + math.sqrt(h.dt) * scalar_root_increment(sig, scale, Z)
            W = W + time_weight(n * h.dt, h.alpha) * incr
            want.append(W)
        np.testing.assert_array_equal(traj.ensembles, np.stack(want))

    def test_coupled_grid_rep(self):
        # a gaussian init has no stratification: the reference is N_ref particles
        # drawn on the study plan's reference domain and stepped once per study
        h = Hyperparams(alpha=0.0, beta=1.0, gamma=0.7, M=1, T=0.2, dt=0.02)
        Ns, m, N_ref = (4, 8), 2, 16
        init = InitSpec.gaussian(0.0, 0.3)
        plan = NoisePlan(6)
        ests = coupled_chaos_error(TANH, NOISY, h, Ns, m, N_ref, 1, plan, init)

        W_ref = init.draw(plan, DOMAIN_REFERENCE, N_ref, 1)
        laws = particle_reference_laws(h, W_ref, plan)
        sups = hand_rolled_rep(h, Ns, m, init, plan.child("rep", 0), laws)
        for N in Ns:
            assert ests[N].reference == "particle"
            assert ests[N].per_rep[0] == sups[N]

    def test_coupled_grid_rep_on_the_grid_law(self):
        # a uniform init at beta = 1: the companions read the grid law's residual path
        h = Hyperparams(alpha=0.0, beta=1.0, gamma=0.7, M=1, T=0.2, dt=0.02)
        Ns, m, N_ref = (4, 8), 2, 16
        init = InitSpec.uniform()
        plan = NoisePlan(6)
        ests = coupled_chaos_error(TANH, NOISY, h, Ns, m, N_ref, 1, plan, init)

        law = grid_law_path(TANH, NOISY, h, init, math.sqrt(h.gamma / h.M))
        sups = hand_rolled_rep(h, Ns, m, init, plan.child("rep", 0), law.residual_d1)
        half = grid_law_path(TANH, NOISY, h, init, math.sqrt(h.gamma / h.M), GRID_LAW_CELLS // 2)
        gap = float(np.abs(law.residual_d1[:10] - half.residual_d1[:10]).max())
        for N in Ns:
            assert ests[N].reference == "grid"
            assert ests[N].per_rep[0] == sups[N]
            assert ests[N].ref_bias_scale == gap


def companion_scale(h):
    return math.sqrt(h.gamma / h.M) if h.beta == 1.0 else 0.0


def particle_reference_laws(h, W_ref, plan, model=TANH, pi=NOISY):
    """The residual rows of a reference ensemble stepped on its own, with the
    plan's reference-domain draws when it has noise."""
    laws = []
    for n in range(h.euler_steps()):
        cache = field_cache(W_ref, model, pi)
        laws.append(cache.residual_d1)
        drift, _, sig = mean_field_terms(W_ref, cache, model, pi, True)
        incr = drift * h.dt
        if companion_scale(h) > 0:
            Zr = plan.normals(DOMAIN_REFERENCE, SLOT_DIFFUSION, n, len(W_ref), 1)
            incr = incr + math.sqrt(h.dt) * scalar_root_increment(sig, companion_scale(h), Zr)
        W_ref = W_ref + time_weight(n * h.dt, h.alpha) * incr
    return laws


def hand_rolled_rep(h, Ns, m, init, rep, laws, model=TANH, pi=NOISY):
    """Sup over the steps of the companions' squared gaps to each test system's
    first m particles, the companions reading the residual row laws[n] at step n."""
    sq_dt = math.sqrt(h.dt)
    W_sys = init.draw(rep, DOMAIN_SYSTEM, max(Ns), 1)
    tests = {N: W_sys[:N].copy() for N in Ns}
    W_comp = W_sys[:m].copy()
    sups = {N: 0.0 for N in Ns}
    for n in range(h.euler_steps()):
        tw = time_weight(n * h.dt, h.alpha)
        Zs = rep.normals(DOMAIN_SYSTEM, SLOT_DIFFUSION, n, max(Ns), 1)
        h_c, _, s_c = mean_field_terms(W_comp, laws[n], model, pi, True)
        inc_c = h_c * h.dt + sq_dt * scalar_root_increment(s_c, companion_scale(h), Zs[:m])
        for N in Ns:
            Wt = tests[N]
            t_scale = math.sqrt(gamma_scale(h.alpha, h.beta, h.gamma, N) / h.M)
            h_t, _, s_t = mean_field_terms(Wt, field_cache(Wt, model, pi), model, pi, True)
            inc_t = h_t * h.dt + sq_dt * scalar_root_increment(s_t, t_scale, Zs[:N])
            tests[N] = Wt + tw * inc_t
        W_comp = W_comp + tw * inc_c
        for N in Ns:
            sups[N] = max(sups[N], float(np.sum((tests[N][:m] - W_comp) ** 2)))
    return sups


class TestSharedReference:
    """The companions' law is computed once per study, and every rep reads it."""

    def test_deterministic_reference_gives_the_per_rep_tables(self):
        # beta < 1, eta = 0, uniform init: the stratified reference is one
        # deterministic path; the tables equal those of a hand-rolled reference and reps
        config = ChaosRateConfig(
            problem=ProblemConfig(labels="noisy", init_low=-0.5, init_high=0.5),
            hyper=Hyperparams(alpha=0.25, beta=0.5, gamma=0.7, M=1, T=0.2, dt=0.02),
            N_grid=(4, 8, 16, 32), m=2, N_ref=64, reps=3, seed=12)
        model, pi, init = config.problem.build()
        W_ref = (-0.5 + (np.arange(64) + 0.5) / 64)[:, None]
        laws = particle_reference_laws(config.hyper, W_ref, None, model, pi)
        plan = NoisePlan(config.seed)
        per_rep = [hand_rolled_rep(config.hyper, config.N_grid, config.m, init,
                                   plan.child("rep", r), laws, model, pi)
                   for r in range(config.reps)]
        rows = []
        for N in config.N_grid:
            vals = np.array([d[N] for d in per_rep])
            rows.append({"N": N, "error": float(vals.mean()),
                         "stderr": float(vals.std(ddof=1) / math.sqrt(config.reps)),
                         "bound": two_term_bound(N, 0.25, 0.5, 1), "ref_bias_scale": 64**-0.5})
        report = chaos_rate_study(config, workers=2)
        assert report.config["reference"] == "particle"
        assert report.tables == {"errors": rows}

    def test_deterministic_reference_is_stepped_once_per_study(self):
        model = counting_model(1)
        h = Hyperparams(alpha=0.0, beta=0.5, gamma=0.5, M=1, T=0.2, dt=0.02)
        est = coupled_chaos_error(model, NOISY, h, Ns=(4, 8, 16), m=2, N_ref=32, reps=3,
                                  plan=NoisePlan(5))
        assert est[4].reference == "particle"
        # 10 steps of the reference, once, and 10 steps of the one block of all reps
        assert model.feature.calls == {"activation": 10 + 10, "value": 0, "grad": 0}

    def test_grid_law_evaluates_the_feature_once_per_grid(self):
        model = counting_model(1)
        h = Hyperparams(alpha=0.0, beta=1.0, gamma=0.5, M=1, T=0.2, dt=0.02)
        est = coupled_chaos_error(model, NOISY, h, Ns=(4, 8, 16), m=2, N_ref=32, reps=3,
                                  plan=NoisePlan(5))
        assert est[4].reference == "grid"
        # the centers of the grid and of the half grid, and the reps' one block per step
        assert model.feature.calls == {"activation": 2 + 10, "value": 0, "grad": 0}


class CountingFeature(RidgeFeature):
    """Wraps a ridge feature and counts every evaluation, by kind."""

    name = "counting"

    def __init__(self, inner):
        self.inner = inner
        self.calls = {"activation": 0, "value": 0, "grad": 0}

    def activation(self, z):
        self.calls["activation"] += 1
        return self.inner.activation(z)

    def value(self, W, X):
        self.calls["value"] += 1
        return self.inner.value(W, X)

    def grad(self, W, X):
        self.calls["grad"] += 1
        return self.inner.grad(W, X)

    def envelope(self, x):
        return self.inner.envelope(x)


def counting_model(p):
    base = make_model("tanh-dot", "square", 0.1, p=p)
    return ModelSpec(feature=CountingFeature(base.feature), loss=base.loss,
                     penalty=base.penalty, p=p)


class TestOneActivationBlockPerStep:
    @pytest.mark.parametrize("p", [1, 2])
    def test_euler_run_evaluates_the_feature_once_per_step(self, p):
        model = counting_model(p)
        pi = ProblemConfig(p=p).build()[1]
        h = Hyperparams(alpha=0.0, beta=1.0, gamma=0.5, M=1, T=0.2, dt=0.02, eta=0.1)
        interacting_sde_run(model, pi, h, 16, InitSpec.uniform(), NoisePlan(2))
        assert model.feature.calls == {"activation": 10, "value": 0, "grad": 0}

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("run", [sgd_run, msgld_run])
    def test_discrete_run_evaluates_the_feature_once_per_step(self, run, p):
        # the minibatch reaches the drift as residual columns of the same block
        model = counting_model(p)
        pi = ProblemConfig(p=p).build()[1]
        h = Hyperparams(alpha=0.0, beta=1.0, gamma=0.5, M=2, T=2.5, eta=0.1)
        n_steps = run(model, pi, h, 16, InitSpec.uniform(), NoisePlan(2)).meta["n_steps"]
        assert n_steps == 5
        assert model.feature.calls == {"activation": n_steps, "value": 0, "grad": 0}

    def test_coupling_step_evaluates_two_blocks(self):
        # the reference on its own (a particle ensemble, as a gaussian init has no
        # grid law), stepped once per study, then every rep's companions and
        # whole N grid stacked in one block
        model = counting_model(1)
        h = Hyperparams(alpha=0.0, beta=1.0, gamma=0.5, M=1, T=0.2, dt=0.02)
        coupled_chaos_error(model, NOISY, h, Ns=(4, 8, 16), m=2, N_ref=32, reps=3, plan=NoisePlan(5),
                            init=InitSpec.gaussian(0.0, 0.3))
        assert model.feature.calls == {"activation": 10 + 10, "value": 0, "grad": 0}

    def test_p2_increment_is_the_factor_applied_to_z(self):
        model, pi, init = ProblemConfig(p=2, penalty=0.1).build()
        N, h = 32, Hyperparams(alpha=0.0, beta=1.0, gamma=0.5, M=1, T=0.02, dt=0.02)
        plan = NoisePlan(14)
        traj = interacting_sde_run(model, pi, h, N, InitSpec.uniform(-0.5, 0.5), plan,
                                   snapshot_times="all")
        W0 = traj.ensembles[0]
        Z = plan.normals(DOMAIN_SYSTEM, SLOT_DIFFUSION, 0, N, len(pi))
        scale = math.sqrt(gamma_scale(h.alpha, h.beta, h.gamma, N) / h.M)
        drift, noise = drift_and_noise(W0, field_cache(W0, model, pi), model, pi, scale, Z)
        np.testing.assert_array_equal(traj.ensembles[1],
                                      W0 + (drift * h.dt + math.sqrt(h.dt) * noise))
        # the factor's row j is sqrt(pi_j) xi_j, built here atom by atom
        F = np.array([[math.sqrt(a.weight) * noise_xi(w, W0, model, pi, a) for a in pi.atoms]
                      for w in W0])
        np.testing.assert_allclose(noise, scale * np.einsum("ndp,nd->np", F, Z), rtol=0.0,
                                   atol=1e-12)


class TestNoiseModel:
    """sigma_override is a field of the model, read by every kernel and engine."""

    # zero feature + V = w^2/2: drift -w, and Sigma pinned to s = 0.5
    PINNED = replace(make_model("zero", "square", 1.0), sigma_override=0.5)
    PI = DataDistribution([DataAtom([1.0], 0.0, 1.0)])
    HYPER = Hyperparams(alpha=0.0, beta=1.0, gamma=0.8, M=2, T=0.01, dt=0.01, eta=0.05)
    # effective diffusion variance: scale * s + 2 eta, scale = gamma / M at alpha = 0, beta = 1
    SIGMA_BAR = 0.8 / 2 * 0.5 + 2 * 0.05

    @pytest.mark.parametrize("s", [-1.0, math.nan, math.inf])
    def test_invalid_override_rejected(self, s):
        base = make_model("tanh-dot", "square")
        with pytest.raises(ValueError, match="sigma_override"):
            ModelSpec(base.feature, base.loss, base.penalty, 1, sigma_override=s)

    @pytest.mark.parametrize("run", [sgd_run, msgld_run])
    def test_discrete_recursions_refuse_an_override(self, run):
        with pytest.raises(ValueError, match="sigma_override"):
            run(self.PINNED, self.PI, self.HYPER, 4, InitSpec.uniform(), NoisePlan(1))

    @pytest.mark.parametrize("p", [1, 3])
    def test_the_pinned_root_is_shared_by_every_particle(self, p):
        # every particle's factor is sqrt(s) I, wherever it sits: each increment is
        # scale sqrt(s) z, with the rounding of that factor applied to z
        model = replace(make_model("tanh-dot", "square", p=p), sigma_override=0.5)
        pi = DataDistribution([DataAtom(np.linspace(-1, 1, p), 0.3, 1.0)])
        rng = np.random.default_rng(p)
        W, Z = rng.standard_normal((6, p)), rng.standard_normal((6, p))
        assert noise_width(model, pi) == p
        law = field_cache(W, model, pi)
        for scale in (0.7, np.linspace(0.1, 1.0, 6)[:, None]):
            _, noise = drift_and_noise(W, law, model, pi, scale, Z)
            want = (scale * math.sqrt(0.5)) * Z if p == 1 else scale * (math.sqrt(0.5) * Z)
            np.testing.assert_array_equal(noise, want)
            for i in range(6):
                s_i = scale if np.ndim(scale) == 0 else scale[i:i + 1]
                _, alone = drift_and_noise(W[i:i + 1], law, model, pi, s_i, Z[i:i + 1])
                np.testing.assert_array_equal(alone, noise[i:i + 1])

    def test_one_model_pins_every_kernel(self):
        mu = EmpiricalMeasure(np.array([[0.3], [-0.2]]))
        np.testing.assert_array_equal(covariance_sigma([0.7], mu, self.PINNED, self.PI), [[0.5]])

        # the stationary density of dW = -w dt + sqrt(sigma_bar) dB is N(0, sigma_bar / 2)
        start = GridDensity1D.gaussian(0.0, 1.0, -6.0, 6.0, 2048)
        out = map_H(start, self.PINNED, self.PI, self.HYPER)
        assert out.moment(2) == pytest.approx(self.SIGMA_BAR / 2, rel=1e-4)

        # one Euler step from the origin: W_1 ~ N(0, dt sigma_bar), over 20 000 particles
        N = 20_000
        traj = interacting_sde_run(self.PINNED, self.PI, self.HYPER, N, InitSpec.dirac([0.0]),
                                   NoisePlan(8))
        assert traj.meta["sigma_override"] == 0.5
        want = self.HYPER.dt * self.SIGMA_BAR
        se = want * math.sqrt(2.0 / (N - 1))
        assert abs(traj.endpoint()[:, 0].var() - want) <= 3 * se
