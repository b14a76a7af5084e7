"""Time-evolution engines, their couplings, and reproducibility contracts."""

import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import chaoslab
from chaoslab import dynamics
from chaoslab.dynamics import (
    EnsembleDiverged,
    InitSpec,
    TestFunction,
    guard_moment,
    guard_segments,
    interacting_sde_run,
    interacting_sigma_scale,
    meanfield_ode_run,
    meanfield_sde_run,
    msgld_run,
    sgd_run,
    sgd_sde_endpoints,
    weak_form_residual,
)
from chaoslab.experiments import ProblemConfig, coupled_chaos_error
from chaoslab.meanfield import field_cache
from chaoslab.metrics import w2_ensembles
from chaoslab.model import (
    DataAtom,
    DataDistribution,
    Hyperparams,
    gamma_scale,
    make_model,
)
from chaoslab.rng import SLOT_DATA, NoisePlan

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

    # checked when built, not as a divergence at step 0
    @pytest.mark.parametrize("make, reason", [
        (lambda: InitSpec.dirac(math.nan), "init needs finite ends"),
        (lambda: InitSpec.uniform(-math.inf, 0.0), "init needs finite ends"),
        (lambda: InitSpec.uniform(0.0, math.nan), "init needs finite ends"),
    ], ids=["dirac-nan", "box-inf", "box-nan"])
    def test_malformed_init_rejected(self, make, reason):
        with pytest.raises(ValueError, match=reason):
            make()

    def test_dirac_point_of_the_wrong_dimension_rejected(self):
        # a point mass is one number, the same in every coordinate
        with pytest.raises(ValueError, match=r"a point mass takes one number, got \[0\.1, 0\.2\]"):
            InitSpec.dirac([0.1, 0.2])

    def test_a_one_element_point_is_its_number(self):
        assert InitSpec.dirac([0.1]) == InitSpec.dirac(0.1) == InitSpec(0.1, 0.1)

    @pytest.mark.parametrize("p", [1, 3])
    @pytest.mark.parametrize("c", [0.0, 0.3, -2.5])
    def test_point_mass_draw_is_the_point(self, c, p):
        # the box formula low + (high - low) u at width zero: c + 0.0 u, bit for bit
        W = InitSpec.dirac(c).draw(NoisePlan(4), 0, 7, p)
        want = np.full((7, p), c)
        assert W.shape == want.shape and W.tobytes() == want.tobytes()


# gamma_scale rejects N = 0 for the engines that read it, the draw for the mean-field ones
@pytest.mark.parametrize("run", [sgd_run, interacting_sde_run, meanfield_ode_run])
def test_an_ensemble_of_no_particles_rejected(run):
    h = Hyperparams(alpha=0.0, beta=1.0, gamma=0.5, M=1, T=0.1, dt=0.05)
    with pytest.raises(ValueError, match="N must be >= 1, got 0"):
        run(TANH, NOISY, h, 0, InitSpec.uniform(), NoisePlan(0))


class TestHorizon:
    def test_whole_number_of_steps(self):
        assert Hyperparams(T=5.0, dt=0.02).euler_steps() == 250
        assert Hyperparams(T=5.0, dt=1e-3).euler_steps() == 5000
        assert Hyperparams(T=0.0, dt=0.1).euler_steps() == 0

    def test_partial_final_step_rejected(self):
        # T = 1, dt = 0.3 used to stop at t = 0.9 without a word
        h = Hyperparams(alpha=0.0, beta=1.0, gamma=0.5, M=1, T=1.0, dt=0.3)
        with pytest.raises(ValueError, match=r"T=1\.0 .*dt=0\.3"):
            interacting_sde_run(TANH, NOISY, h, 4, InitSpec.uniform(), NoisePlan(0))
        with pytest.raises(ValueError, match=r"T=1\.0 .*dt=0\.3"):
            coupled_chaos_error(TANH, NOISY, h, Ns=(8,), m=2, N_ref=16, reps=1, plan=NoisePlan(0))


class TestSnapshotTimes:
    H = Hyperparams(alpha=0.0, beta=1.0, gamma=0.5, M=1, T=1.0, dt=0.1)

    @pytest.mark.parametrize("times", [[5.0], [-0.1], [0.5, 1.5], [math.nan]])
    def test_outside_horizon_rejected(self, times):
        with pytest.raises(ValueError, match="snapshot_times"):
            interacting_sde_run(TANH, NOISY, self.H, 4, InitSpec.uniform(), NoisePlan(0),
                                snapshot_times=times)
        with pytest.raises(ValueError, match="snapshot_times"):
            sgd_run(TANH, NOISY, self.H, 4, InitSpec.uniform(), NoisePlan(0), snapshot_times=times)

    def test_horizon_itself_accepted(self):
        traj = interacting_sde_run(TANH, NOISY, self.H, 4, InitSpec.uniform(), NoisePlan(0),
                                   snapshot_times=[0.0, 0.5, 1.0])
        np.testing.assert_allclose(traj.times, [0.0, 0.5, 1.0])
        # the SGD grid (steps of gamma_scale = 0.3 here) ends at its last step within T
        sgd = sgd_run(TANH, NOISY, self.H.replace(gamma=0.3), 4, InitSpec.uniform(), NoisePlan(0),
                      snapshot_times=[1.0])
        assert sgd.times[-1] <= 1.0


class TestLawPath:
    """``euler_run`` keeps the residual column each step read: the companions' particle law."""

    @pytest.mark.parametrize("p", [1, 2])
    def test_each_row_is_the_field_cache_of_that_steps_ensemble(self, p):
        model, pi, init = ProblemConfig(p=p).build()
        h = Hyperparams(alpha=0.25, beta=1.0, gamma=0.5, M=1, T=0.2, dt=0.02, eta=0.05)
        traj = meanfield_sde_run(model, pi, h, 32, InitSpec.uniform(-0.5, 0.5), NoisePlan(3),
                                 snapshot_times="all")
        assert traj.law_path.shape == (10, len(pi))
        for n in range(10):
            want = field_cache(traj.ensembles[n], model, pi)
            np.testing.assert_array_equal(traj.law_path[n], want)


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

    def test_step_is_the_minibatch_mean_gradient(self):
        # one step: -(1/M) sum_b d1l(a(x_b), y_b) f'(<w, x_b>) x_b - V'(w), times the stepsize
        model = make_model("tanh-dot", "square", 0.1, p=2)
        pi = DataDistribution([DataAtom([0.8, -0.3], 0.9, 0.1), DataAtom([-0.6, 0.5], -0.4, 0.3),
                               DataAtom([1.0, 0.2], -0.2, 0.6)])
        h = Hyperparams(alpha=0.3, beta=0.5, gamma=0.4, M=5, T=1.0)
        N, plan = 6, NoisePlan(8)
        traj = sgd_run(model, pi, h, N, InitSpec.uniform(-1.0, 1.0), plan, snapshot_times="all")
        W = traj.ensembles[0]
        u = plan.uniforms(0, SLOT_DATA, 0, h.M)  # DOMAIN_SYSTEM, step 0
        batch = np.searchsorted(np.cumsum(pi.weights), u, side="right")
        r = field_cache(W, model, pi)[batch]
        gF = model.feature.grad(W, pi.xs[batch])  # (N, M, p)
        drift = -(gF * r[None, :, None]).mean(axis=1) - model.penalty.grad(W)
        g = gamma_scale(h.alpha, h.beta, h.gamma, N)
        stepsize = h.gamma * N ** (h.beta - 1.0) * (1.0 / g) ** (-h.alpha)
        np.testing.assert_allclose(traj.ensembles[1], W + stepsize * drift, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("where", [0, 2, 4])
    @pytest.mark.parametrize("run", [sgd_run, msgld_run])
    def test_zero_weight_atom_changes_nothing(self, run, where):
        # the minibatch reweighting c_j / pi_j must not form 0/0 at the new atom
        atoms = list(NOISY.atoms)
        atoms.insert(where, DataAtom([0.3], 5.0, 0.0))
        # sgd_run refuses a temperature; msgld_run carries it
        h = Hyperparams(alpha=0.2, beta=0.5, gamma=0.2, M=3, T=1.0,
                        eta=0.3 if run is msgld_run else 0.0)
        init = InitSpec.uniform(-0.5, 0.5)
        base = run(TANH, NOISY, h, 8, init, NoisePlan(4), snapshot_times="all")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            padded = run(TANH, DataDistribution(atoms), h, 8, init, NoisePlan(4),
                         snapshot_times="all")
        np.testing.assert_allclose(padded.ensembles, base.ensembles, rtol=0, atol=1e-12)

    def test_dirac_start_keeps_every_particle_equal(self):
        # a shared minibatch and a common start: the ensemble is one trajectory
        h = Hyperparams(alpha=0.0, beta=0.75, gamma=0.5, M=2, T=2.0)
        traj = sgd_run(TANH, NOISY, h, 64, InitSpec.dirac([0.1]), NoisePlan(3),
                       snapshot_times="all")
        assert traj.ensembles[-1, 0, 0] != 0.1
        np.testing.assert_array_equal(traj.ensembles, np.broadcast_to(
            traj.ensembles[:, :1], traj.ensembles.shape))

    def test_horizon_shorter_than_one_step_reported(self):
        h = Hyperparams(alpha=0.0, beta=1.0, gamma=0.5, M=1, T=0.1)
        with pytest.raises(ValueError, match="shorter than one"):
            sgd_run(TANH, SINGLE_ATOM, h, 1, InitSpec.dirac([0.0]), NoisePlan(0))

    def test_temperature_rejected(self):
        # sgd has no Langevin term to carry eta; msgld_run carries it
        h = Hyperparams(T=0.5, gamma=0.5, eta=0.5)
        with pytest.raises(ValueError, match=r"hyper\.eta=0\.5.*msgld_run"):
            sgd_run(TANH, NOISY, h, 8, InitSpec.uniform(), NoisePlan(0))
        assert msgld_run(TANH, NOISY, h, 8, InitSpec.uniform(), NoisePlan(0)).kind == "msgld"

    def test_divergence_guard_triggers(self):
        # a start past the ceiling's root, 1e4
        h = Hyperparams(alpha=0.0, beta=1.0, gamma=0.5, M=1, T=5.0)
        with pytest.raises(EnsembleDiverged):
            sgd_run(TANH, SINGLE_ATOM, h, 2, InitSpec.dirac([1e5]), NoisePlan(0))


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


class TestStackedSystems:
    """k independent systems of the discrete recursion stepped as one block."""

    PLANS = [NoisePlan(40).child("system", s) for s in range(4)]

    @pytest.mark.parametrize("run, eta", [(sgd_run, 0.0), (msgld_run, 0.3)])
    @pytest.mark.parametrize("N", [1, 3])
    def test_each_system_equals_its_lone_run(self, run, eta, N):
        h = Hyperparams(alpha=0.2, beta=0.75, gamma=0.4, M=3, T=1.0, eta=eta)
        stacked = run(TANH, NOISY, h, N, InitSpec.uniform(-1.0, 1.0), self.PLANS,
                      snapshot_times="all")
        assert stacked.ensembles.shape[1] == len(self.PLANS) * N
        for s, plan in enumerate(self.PLANS):
            lone = run(TANH, NOISY, h, N, InitSpec.uniform(-1.0, 1.0), plan, snapshot_times="all")
            np.testing.assert_array_equal(stacked.ensembles[:, s * N:(s + 1) * N], lone.ensembles)

    def test_guard_raises_exactly_when_a_lone_run_would(self, monkeypatch):
        # the weights grow from near 0, so the systems cross a ceiling at different steps
        h = Hyperparams(alpha=0.0, beta=1.0, gamma=0.5, M=1, T=10.0)
        init = InitSpec.uniform(-0.2, 0.2)
        path = sgd_run(TANH, NOISY, h, 1, init, self.PLANS, snapshot_times="all").ensembles
        squares = np.sort(path[:-1].ravel() ** 2)  # the guard reads the state before each step
        for ceiling in (*np.quantile(squares, [0.1, 0.5, 0.75, 0.9, 0.99]), squares[-1]):
            monkeypatch.setattr(dynamics, "MOMENT_CEILING", ceiling)
            lone = []
            for plan in self.PLANS:
                try:
                    sgd_run(TANH, NOISY, h, 1, init, plan)
                except EnsembleDiverged as e:
                    lone.append(e)
            if not lone:
                sgd_run(TANH, NOISY, h, 1, init, self.PLANS)
                continue
            first = min(lone, key=lambda e: e.step)  # min keeps the first system on a tie
            with pytest.raises(EnsembleDiverged) as got:
                sgd_run(TANH, NOISY, h, 1, init, self.PLANS)
            assert (got.value.step, got.value.value) == (first.step, first.value)


class TestFinalStateGuard:
    """A state that crosses the ceiling on the last step is reported, not returned."""

    # one step from a point mass just under the ceiling's root, 1e4
    ONE_STEP = Hyperparams(alpha=0.0, beta=1.0, gamma=1.0, M=1, T=0.02, dt=0.02)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_euler_run(self, seed):
        model = replace(ProblemConfig().build()[0], sigma_override=1e8)
        with pytest.raises(EnsembleDiverged) as info:
            interacting_sde_run(model, NOISY, self.ONE_STEP, 64, InitSpec.dirac(9990.0),
                                NoisePlan(seed))
        assert (info.value.step, info.value.t) == (1, 0.02)

    @pytest.mark.parametrize("stacked", [False, True])
    def test_discrete_run(self, stacked):
        h = self.ONE_STEP.replace(gamma=0.02, eta=1e9)
        plans = [NoisePlan(s) for s in range(3)] if stacked else NoisePlan(0)
        with pytest.raises(EnsembleDiverged) as info:
            msgld_run(TANH, NOISY, h, 64, InitSpec.dirac(9990.0), plans)
        assert (info.value.step, info.value.t) == (1, 0.02)

    def test_coupling(self):
        model = replace(ProblemConfig().build()[0], sigma_override=1e8)
        with pytest.raises(EnsembleDiverged) as info:
            coupled_chaos_error(model, NOISY, self.ONE_STEP.replace(beta=0.5), Ns=(4, 8, 16),
                                m=2, N_ref=16, reps=3, plan=NoisePlan(1),
                                init=InitSpec.dirac(9990.0))
        assert (info.value.step, info.value.t) == (1, 0.02)


class TestGuardSegments:
    """One pass over stacked segments decides as guard_moment on each, in order."""

    CEILING = 1e8

    @pytest.fixture(autouse=True)
    def ceiling(self, monkeypatch):
        monkeypatch.setattr(dynamics, "MOMENT_CEILING", self.CEILING)

    @staticmethod
    def lone(W, sizes, names=None):
        """guard_moment on each guarded segment in turn: the first raise, or None."""
        edges = np.cumsum((0, *sizes))
        for i, (a, b) in enumerate(zip(edges, edges[1:])):
            if names is not None and names[i] is None:
                continue
            try:
                guard_moment(W[a:b], 3, 0.5)
            except EnsembleDiverged as exc:
                return i, exc.value
        return None

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("case", ["calm", "at", "ulp-over", "two-over", "nan", "inf",
                                      "overflow"])
    def test_decides_as_guard_moment_on_each_segment(self, p, case):
        rng = np.random.default_rng(11)
        sizes = (3, 1, 5, 2)
        W = rng.standard_normal((sum(sizes), p))
        root = math.sqrt(self.CEILING / p)  # a segment at root has moment CEILING
        if case == "at":
            W[3:4] = root
        elif case == "ulp-over":
            W[3:4] = np.nextafter(root, np.inf)
        elif case == "two-over":
            W[4:9], W[9:] = 2 * root, 3 * root
        elif case == "nan":
            W[5, 0] = np.nan
        elif case == "inf":
            W[10, -1] = -np.inf
        elif case == "overflow":
            # finite, but its squares are not: reported as inf, with no floating-point
            # warning first (an error under this suite's filterwarnings)
            W[4:9] = 1e200
        want = self.lone(W, sizes)
        if want is None:
            guard_segments(W, sizes, 3, 0.5)
            return
        with pytest.raises(EnsembleDiverged) as info:
            guard_segments(W, sizes, 3, 0.5)
        assert (info.value.step, info.value.t) == (3, 0.5)
        np.testing.assert_array_equal(info.value.value, want[1])

    def test_unnamed_segments_are_skipped_and_the_raised_one_is_named(self):
        sizes = (2, 2, 2)
        W = np.ones((6, 1))
        W[:4] = 1e5  # over the ceiling: the first, unguarded, and the second
        names = [None, "second", "third"]
        with pytest.raises(EnsembleDiverged) as info:
            guard_segments(W, sizes, 0, 0.0, names)
        assert info.value.__notes__ == ["in second"]
        guard_segments(W[[0, 1, 4, 5]], (2, 2), 0, 0.0, [None, "third"])

    def test_the_coupling_reads_the_ceiling_when_called(self, monkeypatch):
        # a ceiling set after import binds the coupling's test systems as it binds an
        # engine: both raise at step 0, before any step is taken
        monkeypatch.setattr(dynamics, "MOMENT_CEILING", 1e-12)
        h = Hyperparams(alpha=0.0, beta=1.0, gamma=0.5, M=1, T=0.04, dt=0.02)
        init = InitSpec.uniform(-0.5, 0.5)
        with pytest.raises(EnsembleDiverged) as info:
            interacting_sde_run(TANH, NOISY, h, 4, init, NoisePlan(1))
        assert (info.value.step, info.value.ceiling) == (0, 1e-12)
        with pytest.raises(EnsembleDiverged) as info:
            coupled_chaos_error(TANH, NOISY, h, Ns=(4, 8), m=2, N_ref=8, reps=1,
                                plan=NoisePlan(1), init=init)
        assert (info.value.step, info.value.ceiling) == (0, 1e-12)
        assert info.value.__notes__[0] == "in rep 0 (N=4)"

    def test_notes_survive_pickling(self):
        # a pool worker sends the exception back by pickling; its notes come too
        import pickle

        exc = EnsembleDiverged(1, 0.02, 2e8, 1e8)
        exc.add_note("in rep 0 (N=4)")
        back = pickle.loads(pickle.dumps(exc))
        assert (back.step, back.t, back.value, back.ceiling) == (1, 0.02, 2e8, 1e8)
        assert back.__notes__ == ["in rep 0 (N=4)"]


def test_run_and_w2_leave_numpy_ma_out():
    # np.unique imports numpy.ma, about 20 ms in every process that calls it
    code = ("import sys\n"
            "from chaoslab.dynamics import InitSpec, interacting_sde_run\n"
            "from chaoslab.metrics import w2_1d_quantile\n"
            "from chaoslab.model import Hyperparams, make_model, two_point_distribution\n"
            "from chaoslab.rng import NoisePlan\n"
            "pi = two_point_distribution([1.0], 1.0, [-1.0], -0.5)\n"
            "h = Hyperparams(T=0.5, dt=0.05)\n"
            "t = interacting_sde_run(make_model(), pi, h, 8, InitSpec.uniform(), NoisePlan(1),\n"
            "                        snapshot_times=[0.1, 0.1, 0.5])\n"
            "assert len(t.times) == 3\n"
            "w2_1d_quantile(t.ensembles[0], t.endpoint()[:5])\n"
            "print('numpy.ma' in sys.modules)")
    src = str(Path(chaoslab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"


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
        traj = interacting_sde_run(replace(ZERO_FEAT, sigma_override=s2), SINGLE_ATOM, h, N,
                                   InitSpec.dirac([0.0]), NoisePlan(5), snapshot_times="all")
        inc = np.diff(traj.ensembles[:, :, 0], axis=0).ravel()
        assert inc.size >= 10**5
        want = gamma / M * s2 * h.dt
        se = want * math.sqrt(2.0 / (inc.size - 1))
        assert abs(inc.var() - want) <= 3 * se

    def test_diffusion_factor_is_the_shared_one(self):
        # the coupling harness steps its test systems with the same factor
        h = Hyperparams(alpha=0.25, beta=0.75, gamma=0.5, M=3, T=0.1, dt=0.05)
        traj = interacting_sde_run(TANH, NOISY, h, 16, InitSpec.uniform(), NoisePlan(0))
        g = gamma_scale(h.alpha, h.beta, h.gamma, 16)
        assert traj.meta["sigma_scale"] == interacting_sigma_scale(h, 16) == math.sqrt(g / h.M)
        assert traj.meta["gamma_scale"] == g

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
        b = meanfield_sde_run(replace(TANH, sigma_override=0.0), NOISY, h, 16, InitSpec.uniform(),
                              NoisePlan(6), snapshot_times="all")
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

    @pytest.mark.parametrize("beta, reference", [(1.0, "grid"), (0.5, "particle")])
    def test_zero_horizon_has_zero_error(self, beta, reference):
        est = coupled_chaos_error(TANH, NOISY, Hyperparams(beta=beta, T=0.0), Ns=(8,), m=2,
                                  N_ref=16, reps=2, plan=NoisePlan(1))[8]
        assert est.reference == reference
        assert est.value == 0.0

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

    def test_langevin_term_of_a_drift_only_law(self):
        # dW = -W dt + sqrt(2 eta) dB from 0: E[|W|^2 / 2] grows by eta dt - E|W|^2 dt,
        # and the eta part alone adds eta * T = 0.5 to the integral by T
        h = Hyperparams(alpha=0.0, beta=0.5, gamma=1.0, M=1, T=1.0, dt=0.01, eta=0.5)
        traj = meanfield_ode_run(QUAD_ONLY, SINGLE_ATOM, h, 4096, InitSpec.dirac([0.0]),
                                 NoisePlan(0), snapshot_times="all")
        assert traj.meta["sigma_scale"] == 0.0
        assert weak_form_residual(traj, TestFunction.quadratic()).max() < 0.02

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


def law_gap(pi, hyper, N, plan, init):
    """W2 between the endpoint laws of the discrete recursion and of its diffusion."""
    return w2_ensembles(*sgd_sde_endpoints(TANH, pi, hyper, N, init, plan), seed=plan.run_seed)


class TestSgdSdeGap:
    def test_degenerate_gap_within_solver_tolerance(self):
        h = Hyperparams(alpha=0.0, beta=1.0, gamma=0.05, M=1, T=1.0, dt=0.05)
        gap = law_gap(SINGLE_ATOM, h, 8, NoisePlan(0), InitSpec.dirac([0.1]))
        g = gamma_scale(h.alpha, h.beta, h.gamma, 8)
        assert gap <= 10 * (g + h.dt)

    def test_gap_decreases_with_gamma_at_fixed_n(self):
        gaps = []
        for gamma in (1.0, 0.5, 0.25):
            h = Hyperparams(alpha=0.0, beta=1.0, gamma=gamma, M=1, T=2.0, dt=gamma / 4)
            vals = [law_gap(NOISY, h, 512, NoisePlan(40 + s), InitSpec.uniform())
                    for s in range(4)]
            gaps.append(float(np.mean(vals)))
        assert gaps[2] < gaps[0]

    def test_gap_decreases_with_n_below_one(self):
        # beta < 1: the shared-minibatch dispersion dies with N
        gaps = []
        h = Hyperparams(alpha=0.0, beta=0.0, gamma=2.0, M=1, T=2.0, dt=0.05)
        for N in (64, 1024):
            vals = [law_gap(NOISY, h, N, NoisePlan(50 + s), InitSpec.uniform())
                    for s in range(4)]
            gaps.append(float(np.mean(vals)))
        assert gaps[1] < gaps[0]


class TestReproducibility:
    def test_identical_seed_bitwise_identical(self):
        h = Hyperparams(alpha=0.0, beta=1.0, gamma=0.5, M=2, T=1.0, dt=0.02, eta=0.1)
        runs = [interacting_sde_run(TANH, NOISY, h, 16, InitSpec.uniform(), NoisePlan(123),
                                    snapshot_times="all").ensembles for _ in range(2)]
        np.testing.assert_array_equal(runs[0], runs[1])

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
            interacting_sde_run(TANH, NOISY, h, 4, InitSpec.dirac([1e5]), NoisePlan(0))
