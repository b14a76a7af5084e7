"""Time-evolution engines, their couplings, and reproducibility contracts."""

import math

import numpy as np
import pytest

from chaoslab.dynamics import (
    EnsembleDiverged,
    InitSpec,
    TestFunction,
    interacting_sde_run,
    meanfield_ode_run,
    meanfield_sde_run,
    msgld_run,
    sgd_run,
    sgd_sde_gap,
    weak_form_residual,
)
from chaoslab.experiments import coupled_chaos_error
from chaoslab.model import (
    DataAtom,
    DataDistribution,
    Hyperparams,
    gamma_scale,
    make_model,
)
from chaoslab.rng import NoisePlan

TANH = make_model("tanh-dot", "square")
ZERO_FEAT = make_model("zero", "square")
QUAD_ONLY = make_model("zero", "square", 1.0)  # pure dW = -w dt dynamics
SINGLE_ATOM = DataDistribution([DataAtom([1.0], 1.0, 1.0)])
NOISY = DataDistribution([
    DataAtom([0.8], 0.9, 0.25), DataAtom([-0.6], -0.4, 0.25),
    DataAtom([1.0], -0.2, 0.25), DataAtom([-0.9], 0.7, 0.25),
])


class TestInitSpec:
    def test_inverted_uniform_box_rejected(self):
        with pytest.raises(ValueError, match="low.*high"):
            InitSpec.uniform(1.0, -1.0)

    def test_degenerate_uniform_box_allowed(self):
        assert InitSpec.uniform(0.5, 0.5).low == 0.5


class TestSgdRun:
    def test_single_particle_single_step(self):
        # unit residual, unit input: one step of size gamma moves w by 0.1
        h = Hyperparams(alpha=0.0, beta=1.0, gamma=0.1, M=1, T=0.1)
        traj = sgd_run(TANH, SINGLE_ATOM, h, 1, InitSpec.dirac([0.0]), NoisePlan(0),
                       snapshot_times="all")
        assert traj.ensembles[1][0, 0] == pytest.approx(0.1, abs=1e-15)
        np.testing.assert_allclose(traj.times, [0.0, 0.1])

    def test_first_step_displacement_ratio_is_n(self):
        N = 8
        init = InitSpec.uniform(-0.5, 0.5)
        h1 = Hyperparams(alpha=0.0, beta=1.0, gamma=0.1, M=1, T=0.1)
        h0 = Hyperparams(alpha=0.0, beta=0.0, gamma=0.1, M=1, T=0.1)
        t1 = sgd_run(TANH, SINGLE_ATOM, h1, N, init, NoisePlan(1), snapshot_times="all")
        t0 = sgd_run(TANH, SINGLE_ATOM, h0, N, init, NoisePlan(1), snapshot_times="all")
        d1 = t1.ensembles[1] - t1.ensembles[0]
        d0 = t0.ensembles[1] - t0.ensembles[0]
        np.testing.assert_allclose(d1 / d0, N, rtol=1e-12)

    def test_single_atom_is_seed_independent(self):
        h = Hyperparams(alpha=0.0, beta=1.0, gamma=0.2, M=3, T=1.0)
        runs = [sgd_run(TANH, SINGLE_ATOM, h, 4, InitSpec.dirac([0.3]), NoisePlan(s),
                        snapshot_times="all").ensembles for s in (1, 2, 3)]
        np.testing.assert_array_equal(runs[0], runs[1])
        np.testing.assert_array_equal(runs[1], runs[2])

    def test_times_are_iteration_times(self):
        h = Hyperparams(alpha=0.25, beta=0.5, gamma=0.4, M=1, T=1.0)
        N = 8
        g = gamma_scale(h.alpha, h.beta, h.gamma, N)
        traj = sgd_run(TANH, NOISY, h, N, InitSpec.uniform(), NoisePlan(2), snapshot_times="all")
        n_t = math.floor(h.T / g)
        np.testing.assert_allclose(traj.times, np.arange(n_t + 1) * g, atol=1e-14)

    def test_horizon_shorter_than_one_step_reported(self):
        h = Hyperparams(alpha=0.0, beta=1.0, gamma=0.5, M=1, T=0.1)
        with pytest.raises(ValueError, match="shorter than one"):
            sgd_run(TANH, SINGLE_ATOM, h, 1, InitSpec.dirac([0.0]), NoisePlan(0))

    def test_divergence_guard_triggers(self):
        h = Hyperparams(alpha=0.0, beta=1.0, gamma=0.5, M=1, T=5.0)
        with pytest.raises(EnsembleDiverged):
            sgd_run(TANH, SINGLE_ATOM, h, 2, InitSpec.dirac([0.0]), NoisePlan(0),
                    moment_ceiling=1e-6)


class TestMsgldRun:
    def test_zero_temperature_reduces_to_sgd_bitwise(self):
        h = Hyperparams(alpha=0.3, beta=0.5, gamma=0.2, M=2, T=1.0, eta=0.0)
        a = sgd_run(TANH, NOISY, h, 6, InitSpec.uniform(), NoisePlan(7), snapshot_times="all")
        b = msgld_run(TANH, NOISY, h, 6, InitSpec.uniform(), NoisePlan(7), snapshot_times="all")
        np.testing.assert_array_equal(a.ensembles, b.ensembles)

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError, match="eta"):
            Hyperparams(eta=-1)

    def test_pure_langevin_increment_variance(self):
        # zero drift: increments are iid N(0, 2 eta gamma N^(beta-1)) per coordinate
        eta, gamma, N, beta = 0.7, 0.3, 4, 0.5
        n_steps = 25000
        g = gamma * N ** (beta - 1.0)
        h = Hyperparams(alpha=0.0, beta=beta, gamma=gamma, M=1, T=g * n_steps, eta=eta)
        traj = msgld_run(ZERO_FEAT, SINGLE_ATOM, h, N, InitSpec.dirac([0.0]), NoisePlan(3),
                         snapshot_times="all")
        inc = np.diff(traj.ensembles[:, :, 0], axis=0).ravel()
        want = 2 * eta * gamma * N ** (beta - 1.0)
        se = want * math.sqrt(2.0 / (inc.size - 1))
        assert abs(inc.var() - want) <= 3 * se

    def test_one_hand_computed_step(self):
        # single atom kills the noise field; the Langevin draw is replayed
        eta, gamma = 0.5, 0.2
        h = Hyperparams(alpha=0.0, beta=1.0, gamma=gamma, M=1, T=gamma, eta=eta)
        plan = NoisePlan(9)
        traj = msgld_run(TANH, SINGLE_ATOM, h, 1, InitSpec.dirac([0.0]), plan,
                         snapshot_times="all")
        z = plan.normals(0, 1, 0, 1, 1)[0, 0]  # DOMAIN_SYSTEM, SLOT_LANGEVIN, step 0
        want = 0.0 + gamma * 1.0 + math.sqrt(2 * eta * gamma) * z
        assert traj.ensembles[1][0, 0] == pytest.approx(want, abs=1e-15)


class TestInteractingSde:
    def test_single_atom_deterministic_euler(self):
        h = Hyperparams(alpha=0.0, beta=1.0, gamma=0.5, M=1, T=1.0, dt=0.01)
        traj = interacting_sde_run(TANH, SINGLE_ATOM, h, 5, InitSpec.dirac([0.2]), NoisePlan(1),
                                   snapshot_times="all")
        assert np.ptp(traj.endpoint()) == 0.0
        # matches a hand-rolled Euler recursion for the one-particle ODE
        w = 0.2
        for n in range(100):
            r = math.tanh(w) - 1.0
            w = w + 0.01 * (-r / math.cosh(w) ** 2)
        assert traj.endpoint()[0, 0] == pytest.approx(w, abs=1e-12)

    def test_override_increment_covariance(self):
        # zero drift + constant covariance: increments iid N(0, g/M s^2 dt),
        # checked on 1e5 increments
        s2, gamma, M, N = 2.0, 0.8, 2, 128
        h = Hyperparams(alpha=0.0, beta=1.0, gamma=gamma, M=M, T=8.0, dt=0.01)
        traj = interacting_sde_run(ZERO_FEAT, SINGLE_ATOM, h, N, InitSpec.dirac([0.0]),
                                   NoisePlan(5), snapshot_times="all", sigma_override=s2)
        inc = np.diff(traj.ensembles[:, :, 0], axis=0).ravel()
        assert inc.size >= 10**5
        want = gamma / M * s2 * h.dt
        se = want * math.sqrt(2.0 / (inc.size - 1))
        assert abs(inc.var() - want) <= 3 * se

    def test_self_convergence_first_order(self):
        # smooth deterministic run: error vs a dt/8 reference scales ~ dt
        h8 = Hyperparams(alpha=0.0, beta=1.0, gamma=0.5, M=1, T=1.0, dt=0.04 / 8)
        ref = interacting_sde_run(TANH, SINGLE_ATOM, h8, 1, InitSpec.dirac([0.1]), NoisePlan(0),
                                  snapshot_times=[1.0]).endpoint()[0, 0]
        errs = {}
        for dt in (0.04, 0.02):
            h = Hyperparams(alpha=0.0, beta=1.0, gamma=0.5, M=1, T=1.0, dt=dt)
            end = interacting_sde_run(TANH, SINGLE_ATOM, h, 1, InitSpec.dirac([0.1]), NoisePlan(0),
                                      snapshot_times=[1.0]).endpoint()[0, 0]
            errs[dt] = abs(end - ref)
        ratio = errs[0.04] / errs[0.02]
        assert 1.5 <= ratio <= 2.5


class TestMeanFieldEngines:
    def test_pinned_zero_diffusion_recovers_ode(self):
        h = Hyperparams(alpha=0.25, beta=1.0, gamma=1.0, M=1, T=0.5, dt=0.01)
        a = meanfield_ode_run(TANH, NOISY, h, 16, InitSpec.uniform(), NoisePlan(6),
                              snapshot_times="all")
        b = meanfield_sde_run(TANH, NOISY, h, 16, InitSpec.uniform(), NoisePlan(6),
                              snapshot_times="all", sigma_override=0.0)
        np.testing.assert_array_equal(a.ensembles, b.ensembles)

    def test_dirac_init_ode_stays_collapsed(self):
        h = Hyperparams(alpha=0.0, beta=0.5, gamma=1.0, M=1, T=1.0, dt=0.01)
        traj = meanfield_ode_run(TANH, NOISY, h, 32, InitSpec.dirac([0.1]), NoisePlan(2),
                                 snapshot_times="all")
        assert max(np.ptp(e) for e in traj.ensembles) == 0.0

    def test_linear_model_matches_closed_form(self):
        # dW = -w dt has solution w0 e^-t; Euler endpoint within O(dt)
        dt = 0.01
        h = Hyperparams(alpha=0.0, beta=0.5, gamma=1.0, M=1, T=1.0, dt=dt)
        traj = meanfield_ode_run(QUAD_ONLY, SINGLE_ATOM, h, 4, InitSpec.dirac([1.0]), NoisePlan(0),
                                 snapshot_times=[1.0])
        assert abs(traj.endpoint()[0, 0] - math.exp(-1.0)) <= 2 * dt


class TestCoupledChaosError:
    def test_degenerate_coupling_is_solver_exact(self):
        h = Hyperparams(alpha=0.0, beta=1.0, gamma=0.5, M=1, T=1.0, dt=0.01)
        est = coupled_chaos_error(TANH, SINGLE_ATOM, h, Ns=(8,), m=4, N_ref=16, reps=2,
                                  plan=NoisePlan(9), init=InitSpec.dirac([0.1]))[8]
        assert est.value <= 10 * h.dt**2

    def test_error_decreases_with_n_on_average(self):
        h = Hyperparams(alpha=0.0, beta=1.0, gamma=1.0, M=1, T=2.0, dt=0.04)
        e_small = coupled_chaos_error(TANH, NOISY, h, Ns=(16,), m=4, N_ref=512, reps=8,
                                      plan=NoisePlan(3).child("s"))[16]
        e_big = coupled_chaos_error(TANH, NOISY, h, Ns=(256,), m=4, N_ref=512, reps=8,
                                    plan=NoisePlan(3).child("b"))[256]
        assert e_big.value < e_small.value

    def test_reference_must_dominate(self):
        h = Hyperparams(T=1.0)
        with pytest.raises(ValueError):
            coupled_chaos_error(TANH, NOISY, h, Ns=(32,), m=2, N_ref=16, reps=1, plan=NoisePlan(0))
        with pytest.raises(ValueError):
            coupled_chaos_error(TANH, NOISY, h, Ns=(8,), m=16, N_ref=32, reps=1, plan=NoisePlan(0))

    def test_one_n_equals_its_grid_entry(self):
        # a one-N call is the grid harness at Ns=(N,): test particle rows,
        # companions and the stratified p = 1 reference do not depend on the grid
        h = Hyperparams(alpha=0.25, beta=1.0, gamma=0.7, M=2, T=0.4, dt=0.02, eta=0.1)
        init = InitSpec.uniform(-0.5, 0.5)
        one = coupled_chaos_error(TANH, NOISY, h, Ns=(16,), m=4, N_ref=64, reps=3,
                                  plan=NoisePlan(21), init=init)
        grid = coupled_chaos_error(TANH, NOISY, h, Ns=(16, 32), m=4, N_ref=64, reps=3,
                                   plan=NoisePlan(21), init=init)
        assert np.array_equal(one[16].per_rep, grid[16].per_rep)
        assert one[16].value > 0.0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_diverging_ensemble_reported_at_step_zero(self, workers):
        h = Hyperparams(alpha=0.0, beta=1.0, gamma=0.5, M=1, T=0.2, dt=0.02)
        with pytest.raises(EnsembleDiverged) as info:
            coupled_chaos_error(TANH, NOISY, h, Ns=(8,), m=2, N_ref=16, reps=2,
                                plan=NoisePlan(0), init=InitSpec.dirac([2e4]), workers=workers)
        assert info.value.step == 0

    def test_reps_must_be_positive(self):
        with pytest.raises(ValueError, match="reps"):
            coupled_chaos_error(TANH, NOISY, Hyperparams(T=1.0), Ns=(8,), m=2, N_ref=16,
                                reps=0, plan=NoisePlan(0))


class TestWeakFormResidual:
    def test_constant_test_function_exact_zero(self):
        h = Hyperparams(alpha=0.0, beta=1.0, gamma=1.0, M=1, T=0.5, dt=0.01, eta=0.3)
        traj = meanfield_sde_run(TANH, NOISY, h, 32, InitSpec.uniform(), NoisePlan(4),
                                 snapshot_times="all")
        res = weak_form_residual(traj, TestFunction.constant(3.0))
        assert res.max() == 0.0

    def test_linear_model_residual_halves_with_dt(self):
        maxima = {}
        for dt in (0.02, 0.01):
            h = Hyperparams(alpha=0.0, beta=0.5, gamma=1.0, M=1, T=1.0, dt=dt)
            traj = meanfield_ode_run(QUAD_ONLY, SINGLE_ATOM, h, 8, InitSpec.dirac([1.0]),
                                     NoisePlan(0), snapshot_times="all")
            maxima[dt] = weak_form_residual(traj, TestFunction.linear([1.0])).max()
        ratio = maxima[0.02] / maxima[0.01]
        assert maxima[0.01] < 0.01  # O(dt)
        assert 1.5 <= ratio <= 2.5  # halves within +-25%

    def test_joint_refinement_shrinks_sde_residual(self):
        # average the max residual over seeds; halve (dt, 1/N_ref) jointly
        def mean_residual(dt, n_ref):
            h = Hyperparams(alpha=0.0, beta=1.0, gamma=0.5, M=1, T=1.0, dt=dt)
            vals = []
            for s in range(6):
                traj = meanfield_sde_run(TANH, NOISY, h, n_ref, InitSpec.uniform(),
                                         NoisePlan(100 + s), snapshot_times="all")
                vals.append(weak_form_residual(traj, TestFunction.quadratic()).max())
            return float(np.mean(vals))

        coarse = mean_residual(0.02, 128)
        fine = mean_residual(0.01, 256)
        assert fine < coarse

    def test_wrong_trajectory_kind_rejected(self):
        h = Hyperparams(alpha=0.0, beta=1.0, gamma=0.5, M=1, T=0.2, dt=0.01)
        traj = interacting_sde_run(TANH, NOISY, h, 4, InitSpec.uniform(), NoisePlan(0))
        with pytest.raises(ValueError, match="mean-field"):
            weak_form_residual(traj, TestFunction.linear([1.0]))

    def test_diffusive_case_needs_hessian(self):
        h = Hyperparams(alpha=0.0, beta=1.0, gamma=0.5, M=1, T=0.2, dt=0.01)
        traj = meanfield_sde_run(TANH, NOISY, h, 8, InitSpec.uniform(), NoisePlan(0),
                                 snapshot_times="all")
        f = TestFunction(value=lambda W: W[:, 0], grad=lambda W: np.ones_like(W))
        with pytest.raises(ValueError, match="Hessian"):
            weak_form_residual(traj, f)


class TestSgdSdeGap:
    def test_degenerate_gap_within_solver_tolerance(self):
        h = Hyperparams(alpha=0.0, beta=1.0, gamma=0.05, M=1, T=1.0, dt=0.05)
        gap = sgd_sde_gap(TANH, SINGLE_ATOM, h, 8, NoisePlan(0), InitSpec.dirac([0.1]))
        g = gamma_scale(h.alpha, h.beta, h.gamma, 8)
        assert gap <= 10 * (g + h.dt)

    def test_gap_decreases_with_gamma_at_fixed_n(self):
        gaps = []
        for gamma in (1.0, 0.5, 0.25):
            h = Hyperparams(alpha=0.0, beta=1.0, gamma=gamma, M=1, T=2.0, dt=gamma / 4)
            vals = [sgd_sde_gap(TANH, NOISY, h, 512, NoisePlan(40 + s), InitSpec.uniform())
                    for s in range(4)]
            gaps.append(float(np.mean(vals)))
        assert gaps[2] < gaps[0]

    def test_gap_decreases_with_n_below_one(self):
        # beta < 1: the shared-minibatch dispersion dies with N
        gaps = []
        h = Hyperparams(alpha=0.0, beta=0.0, gamma=2.0, M=1, T=2.0, dt=0.05)
        for N in (64, 1024):
            vals = [sgd_sde_gap(TANH, NOISY, h, N, NoisePlan(50 + s), InitSpec.uniform())
                    for s in range(4)]
            gaps.append(float(np.mean(vals)))
        assert gaps[1] < gaps[0]


class TestReproducibility:
    def test_identical_seed_bitwise_identical(self):
        h = Hyperparams(alpha=0.0, beta=1.0, gamma=0.5, M=2, T=1.0, dt=0.02, eta=0.1)
        runs = [interacting_sde_run(TANH, NOISY, h, 16, InitSpec.uniform(), NoisePlan(123),
                                    snapshot_times="all").ensembles for _ in range(2)]
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_relabeling_equivariance(self):
        # permuting particles together with their noise-stream ids permutes
        # trajectories and leaves empirical statistics unchanged
        h = Hyperparams(alpha=0.0, beta=1.0, gamma=0.5, M=1, T=1.0, dt=0.02)
        N = 8
        perm = np.array([3, 1, 7, 0, 2, 6, 4, 5])
        base = interacting_sde_run(TANH, NOISY, h, N, InitSpec.uniform(), NoisePlan(11),
                                   snapshot_times="all")
        relabeled = interacting_sde_run(TANH, NOISY, h, N, InitSpec.uniform(), NoisePlan(11),
                                        snapshot_times="all", particle_ids=perm)
        # equality up to reduction-order roundoff: the empirical-measure sums
        # run in permuted order, so the shared predictions differ by ulps
        np.testing.assert_allclose(relabeled.ensembles, base.ensembles[:, perm, :],
                                   rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(np.sort(relabeled.endpoint()[:, 0]),
                                   np.sort(base.endpoint()[:, 0]), rtol=1e-10)

    def test_exchangeability_across_index_blocks(self):
        # iid init: endpoint statistics of the first and second half match
        from scipy.stats import ks_2samp

        h = Hyperparams(alpha=0.0, beta=1.0, gamma=0.5, M=1, T=2.0, dt=0.02)
        traj = interacting_sde_run(TANH, NOISY, h, 512, InitSpec.uniform(-0.5, 0.5),
                                   NoisePlan(21), snapshot_times=[h.T])
        w = traj.endpoint()[:, 0]
        stat = ks_2samp(w[:256], w[256:])
        assert stat.pvalue > 0.01

    def test_moment_guard_in_euler_engines(self):
        h = Hyperparams(alpha=0.0, beta=1.0, gamma=0.5, M=1, T=1.0, dt=0.01)
        with pytest.raises(EnsembleDiverged):
            interacting_sde_run(TANH, NOISY, h, 4, InitSpec.dirac([50.0]), NoisePlan(0),
                                moment_ceiling=100.0)
