"""The diffusion noise step: rank-D factor at p > 1, scalar root at p = 1."""

import math
import warnings

import numpy as np

from chaoslab.dynamics import (
    DOMAIN_REFERENCE,
    DOMAIN_SYSTEM,
    InitSpec,
    diffusion_increment,
    drift_and_noise_root,
    interacting_sde_run,
    noise_width,
)
from chaoslab.experiments import (
    ProblemConfig,
    SweepConfig,
    batch_sweep,
    coupled_chaos_error,
)
from chaoslab.meanfield import EmpiricalMeasure, covariance_sigma, field_cache, mean_field_terms
from chaoslab.model import DataAtom, DataDistribution, Hyperparams, gamma_scale, make_model, time_weight
from chaoslab.rng import SLOT_DIFFUSION, NoisePlan

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
        _, root = drift_and_noise_root(W, field_cache(mu, model, pi), model, pi, True)
        Z = NoisePlan(3).normals(DOMAIN_SYSTEM, SLOT_DIFFUSION, 0, n, noise_width(model, pi))
        assert Z.shape == (n, 4)
        inc = math.sqrt(dt) * diffusion_increment(root, scale, Z)
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


class TestScalarRootAtP1:
    """p = 1 keeps the scalar root sqrt(Sigma_00), bit for bit."""

    def test_interacting_sde_run(self):
        h = Hyperparams(alpha=0.25, beta=1.0, gamma=0.5, M=2, T=0.2, dt=0.02)
        N = 16
        init = InitSpec.uniform(-0.5, 0.5)
        traj = interacting_sde_run(TANH, NOISY, h, N, init, NoisePlan(4), snapshot_times="all")

        scale = math.sqrt(gamma_scale(h.alpha, h.beta, h.gamma, N) / h.M)
        W = init.draw(NoisePlan(4), DOMAIN_SYSTEM, np.arange(N), 1)
        want = [W]
        for n in range(10):
            hn, _, sig = mean_field_terms(W, W, TANH, NOISY, need_sigma=True)
            Z = NoisePlan(4).normals(DOMAIN_SYSTEM, SLOT_DIFFUSION, n, N, 1)
            incr = hn * h.dt + math.sqrt(h.dt) * scalar_root_increment(sig, scale, Z)
            W = W + time_weight(n * h.dt, h.alpha) * incr
            want.append(W)
        np.testing.assert_array_equal(traj.ensembles, np.stack(want))

    def test_coupled_grid_rep(self):
        h = Hyperparams(alpha=0.0, beta=1.0, gamma=0.7, M=1, T=0.2, dt=0.02)
        Ns, m, N_ref = (4, 8), 2, 16
        init = InitSpec.uniform()
        plan = NoisePlan(6)
        ests = coupled_chaos_error(TANH, NOISY, h, Ns, m, N_ref, 1, plan, init)

        rep = plan.child("rep", 0)
        sq_dt = math.sqrt(h.dt)
        mf_scale = math.sqrt(h.gamma / h.M)
        W_ref = (init.low + (init.high - init.low) * (np.arange(N_ref) + 0.5) / N_ref)[:, None]
        W_sys = init.draw(rep, DOMAIN_SYSTEM, np.arange(max(Ns)), 1)
        tests = {N: W_sys[:N].copy() for N in Ns}
        W_comp = W_sys[:m].copy()
        sups = {N: 0.0 for N in Ns}
        for n in range(10):  # alpha = 0: every time weight is 1
            cache = field_cache(W_ref, TANH, NOISY)
            Zs = rep.normals(DOMAIN_SYSTEM, SLOT_DIFFUSION, n, max(Ns), 1)
            Zr = rep.normals(DOMAIN_REFERENCE, SLOT_DIFFUSION, n, N_ref, 1)
            h_ref, _, s_ref = mean_field_terms(W_ref, W_ref, TANH, NOISY, True, cache=cache)
            h_c, _, s_c = mean_field_terms(W_comp, W_ref, TANH, NOISY, True, cache=cache)
            inc_ref = h_ref * h.dt + sq_dt * scalar_root_increment(s_ref, mf_scale, Zr)
            inc_c = h_c * h.dt + sq_dt * scalar_root_increment(s_c, mf_scale, Zs[:m])
            for N in Ns:
                Wt = tests[N]
                t_scale = math.sqrt(gamma_scale(h.alpha, h.beta, h.gamma, N) / h.M)
                h_t, _, s_t = mean_field_terms(Wt, Wt, TANH, NOISY, True)
                tests[N] = Wt + (h_t * h.dt + sq_dt * scalar_root_increment(s_t, t_scale, Zs[:N]))
            W_ref = W_ref + inc_ref
            W_comp = W_comp + inc_c
            for N in Ns:
                sups[N] = max(sups[N], float(np.sum((tests[N][:m] - W_comp) ** 2)))
        for N in Ns:
            assert ests[N].per_rep[0] == sups[N]
