"""Acceptance suite: one test per criterion, printed as pass/fail lines.

Each criterion runs at its stated tolerance against pinned configurations;
run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.
"""

from dataclasses import replace

import numpy as np
import pytest

from chaoslab.dynamics import (
    InitSpec,
    TestFunction,
    meanfield_ode_run,
    msgld_run,
    sgd_run,
    weak_form_residual,
)
from chaoslab.experiments import (
    ChaosRateConfig,
    ConsistencyConfig,
    ProblemConfig,
    SweepConfig,
    TwoRegimeConfig,
    batch_sweep,
    chaos_rate_study,
    coupled_chaos_error,
    gamma_sweep,
    sgd_sde_consistency_study,
    two_regime_study,
)
from chaoslab.meanfield import (
    covariance_sigma,
    mean_field_h,
    noise_xi,
    risk_gradient,
    sqrt_psd,
    structural_risk,
    tilde_h,
)
from chaoslab.metrics import fit_rate, mixture_bound_check, w2_1d, w2_exact
from chaoslab.model import (
    DataAtom,
    DataDistribution,
    Hyperparams,
    make_model,
)
from chaoslab.rng import NoisePlan
from chaoslab.stationary import (
    GridDensity1D,
    fixed_point_iterate,
    l1_distance,
    stationarity_check,
)

WORKERS = 2


def _report(num: int, name: str, passed: bool, detail: str):
    print(f"criterion {num:2d} [{name}]: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {num} ({name}) failed: {detail}"


def random_problem(rng, p, loss="square"):
    model = make_model("tanh-dot", loss, float(rng.uniform(0, 1)), p=p)
    atoms = [
        DataAtom(rng.uniform(-1, 1, p),
                 float(rng.choice([-1.0, 1.0])) if loss == "logistic" else float(rng.uniform(-1, 1)),
                 float(rng.uniform(0.2, 1.0)))
        for _ in range(int(rng.integers(2, 6)))
    ]
    return model, DataDistribution(atoms)


class TestCriterion1KernelExactness:
    def test_kernel_exactness(self):
        rng = np.random.default_rng(101)
        worst = {"mean_xi": 0.0, "sym": 0.0, "eig": 0.0, "root": 0.0, "grad_id": 0.0, "fd": 0.0}
        for trial in range(100):
            p = int(rng.integers(1, 4))
            model, pi = random_problem(rng, p, loss="square" if trial % 2 else "logistic")
            w = rng.standard_normal(p)
            n = int(rng.integers(1, 7))
            locs = rng.standard_normal((n, p))
            mu = locs

            xis = np.stack([noise_xi(w, mu, model, pi, j) for j in range(len(pi))])
            worst["mean_xi"] = max(worst["mean_xi"], float(np.linalg.norm(pi.weights @ xis)))

            sig = covariance_sigma(w, mu, model, pi)
            worst["sym"] = max(worst["sym"], float(np.abs(sig - sig.T).max()))
            worst["eig"] = max(worst["eig"], float(max(0.0, -np.linalg.eigvalsh(sig).min())))
            S = sqrt_psd(sig)
            scale = max(1.0, float(np.linalg.norm(sig)))
            worst["root"] = max(worst["root"], float(np.linalg.norm(S @ S - sig)) / scale)

            nu = locs
            grads = risk_gradient(locs, model, pi)
            for k in range(n):
                err = np.linalg.norm(mean_field_h(locs[k], nu, model, pi) + n * grads[k])
                worst["grad_id"] = max(worst["grad_id"], float(err))

            # analytic ensemble gradient vs central finite differences
            h_fd = 1e-6
            fd = np.zeros_like(grads)
            for k in range(n):
                for j in range(p):
                    up, dn = locs.copy(), locs.copy()
                    up[k, j] += h_fd
                    dn[k, j] -= h_fd
                    fd[k, j] = (structural_risk(up, model, pi)
                                - structural_risk(dn, model, pi)) / (2 * h_fd)
            rel = np.abs(grads - fd).max() / max(1.0, np.abs(grads).max())
            worst["fd"] = max(worst["fd"], float(rel))

        ok = (worst["mean_xi"] <= 1e-10 and worst["sym"] <= 1e-10 and worst["eig"] <= 1e-10
              and worst["root"] <= 1e-8 and worst["grad_id"] <= 1e-10 and worst["fd"] <= 1e-6)
        _report(1, "kernel exactness", ok,
                f"mean_xi={worst['mean_xi']:.1e} sym={worst['sym']:.1e} "
                f"root={worst['root']:.1e} grad_id={worst['grad_id']:.1e} fd={worst['fd']:.1e}")


class TestCriterion2ExplicitBounds:
    def test_explicit_bounds(self):
        rng = np.random.default_rng(202)
        violations = 0
        checks = 0
        for trial in range(100):
            p = int(rng.integers(1, 3))
            model, pi = random_problem(rng, p)
            l2 = 2 * sum(wt * model.psi(a.y) * model.phi(a.x) ** 2
                         for wt, a in zip(pi.weights, pi.atoms))
            tr_bound = 2 * sum(wt * (l2**2 + 2 * model.psi(a.y) ** 2 * model.phi(a.x) ** 4)
                               for wt, a in zip(pi.weights, pi.atoms))
            w = rng.standard_normal(p) * rng.uniform(0.2, 3)
            mu = rng.standard_normal((int(rng.integers(1, 7)), p))
            checks += 2
            if np.linalg.norm(tilde_h(w, mu, model, pi)) > l2 * (1 + 1e-12):
                violations += 1
            if np.trace(covariance_sigma(w, mu, model, pi)) > tr_bound * (1 + 1e-12):
                violations += 1
        _report(2, "explicit drift/trace bounds", violations == 0,
                f"{violations} violations in {checks} checks")


class TestCriterion3RateBetaOne:
    def test_rate_at_beta_one(self):
        cfg = ChaosRateConfig(
            problem=ProblemConfig(labels="noisy"),
            hyper=Hyperparams(alpha=0.0, beta=1.0, gamma=1.0, M=1, T=5.0, dt=0.02),
            N_grid=(32, 64, 128, 256, 512),
            m=4, N_ref=4096, reps=24, seed=123,
        )
        rep = chaos_rate_study(cfg, workers=WORKERS)
        slope = rep.verdict("slope")
        ratio = rep.verdict("endpoint_ratio")
        assert (slope.threshold, ratio.threshold) == (-0.7, 8.0)
        ok = bool(slope.passed and ratio.passed)
        _report(3, "N^-1 rate at beta=1", ok,
                f"slope={slope.measured:.3f} (<= -0.7), "
                f"error(32)/error(512)={ratio.measured:.1f} (>= 8)")


class TestCriterion4UpperBoundCompliance:
    # per-combo studies: the bound's slow term must be matched by an error
    # component of at least that weight, which fixes labels/init/gamma
    COMBOS = {
        (0.0, 0.0): ChaosRateConfig(
            problem=ProblemConfig(labels="realizable", init_kind="dirac", init_w0=0.0),
            hyper=Hyperparams(alpha=0.0, beta=0.0, gamma=8.0, M=1, T=10.0, dt=0.02),
            N_grid=(4, 16, 64, 256), m=4, N_ref=2048, reps=48, seed=11),
        (0.0, 0.25): ChaosRateConfig(
            problem=ProblemConfig(labels="noisy"),
            hyper=Hyperparams(alpha=0.25, beta=0.0, gamma=1.0, M=1, T=5.0, dt=0.02),
            N_grid=(8, 32, 128, 512), m=4, N_ref=4096, reps=32, seed=11),
        (0.5, 0.0): ChaosRateConfig(
            problem=ProblemConfig(labels="realizable", init_low=-1.0, init_high=1.0),
            hyper=Hyperparams(alpha=0.0, beta=0.5, gamma=0.1, M=1, T=5.0, dt=0.02),
            N_grid=(8, 32, 128, 512), m=4, N_ref=4096, reps=32, seed=11),
        (0.5, 0.25): ChaosRateConfig(
            problem=ProblemConfig(labels="realizable", init_low=-1.0, init_high=1.0),
            hyper=Hyperparams(alpha=0.25, beta=0.5, gamma=0.1, M=1, T=5.0, dt=0.02),
            N_grid=(8, 32, 128, 512), m=4, N_ref=4096, reps=64, seed=11),
    }

    @pytest.mark.parametrize("combo", sorted(COMBOS))
    def test_bound_compliance(self, combo):
        beta, alpha = combo
        rep = chaos_rate_study(self.COMBOS[combo], workers=WORKERS)
        v = rep.verdict("upper_bound_compliance")
        _report(4, f"bound compliance beta={beta} alpha={alpha}", bool(v.passed),
                f"error(N) <= C*bound(N) for all grid N; {v.note.split('; ')[1]}")

    def test_degenerate_case_solver_exact(self):
        model = make_model("tanh-dot", "square")
        pi = DataDistribution([DataAtom([1.0], 1.0, 1.0)])
        hyper = Hyperparams(alpha=0.0, beta=0.5, gamma=1.0, M=1, T=5.0, dt=0.02)
        est = coupled_chaos_error(model, pi, hyper, Ns=(16,), m=4, N_ref=64, reps=2,
                                  plan=NoisePlan(404), init=InitSpec.dirac([0.1]))[16]
        ok = est.value <= 10 * hyper.dt**2
        _report(4, "degenerate coupling", ok,
                f"error={est.value:.2e} <= 10*dt^2={10 * hyper.dt ** 2:.1e}")


class TestCriterion5TwoRegimes:
    def test_two_regime_separation(self):
        cfg = TwoRegimeConfig(
            problem=ProblemConfig(labels="noisy", init_kind="dirac", init_w0=0.0),
            hyper=Hyperparams(alpha=0.0, beta=1.0, gamma=0.5, M=1, T=5.0, dt=0.02),
            betas=(0.75, 1.0),
            N_grid=(4096, 65536, 1048576),
            seeds=16, seed=7,
        )
        rep = two_regime_study(cfg, workers=WORKERS)
        ratio = rep.verdict("deviation_ratio")
        floor = rep.verdict("floor_beta_1")
        assert (ratio.threshold, floor.threshold) == (0.3, 0.5)
        ok = bool(ratio.passed and floor.passed)
        _report(5, "two-regime separation", ok,
                f"dev ratio={ratio.measured:.3f} (<= 0.3), "
                f"beta=1 floor jitter={floor.measured:.3f} (<= 0.5)")


class TestCriterion6Regularization:
    def test_gamma_and_batch_sweeps(self):
        cfg = SweepConfig(
            problem=ProblemConfig(labels="noisy"),
            hyper=Hyperparams(alpha=0.0, beta=1.0, gamma=1.0, M=1, T=5.0, dt=0.02),
            gammas=(1.0, 0.5, 0.25, 0.125),
            batches=(1, 4, 16, 64),
            N_ref=4096, reps=4, seed=29,
        )
        g = gamma_sweep(cfg, workers=WORKERS)
        b = batch_sweep(cfg, workers=WORKERS)
        ok = g.passed and b.passed
        g_rows = g.tables["distances"]
        b_rows = b.tables["distances"]
        _report(6, "gamma->0 / M->inf regularization", ok,
                f"gamma: {g_rows[0]['w2_to_ode_limit']:.3f}->{g_rows[-1]['w2_to_ode_limit']:.3f}, "
                f"batch: {b_rows[0]['w2_to_ode_limit']:.3f}->{b_rows[-1]['w2_to_ode_limit']:.3f}, "
                f"nonincreasing within 2se and final <= first/2")


class TestCriterion7Stationary:
    def test_fixed_point_and_drift(self):
        # V = w^2/2, drift -w
        model = replace(make_model("zero", "square", 1.0), sigma_override=1.0)
        pi = DataDistribution([DataAtom([1.0], 0.0, 1.0)])
        hyper = Hyperparams(alpha=0.0, beta=1.0, gamma=1.0, M=1, T=5.0, dt=1e-3)
        start = GridDensity1D.gaussian(0.5, 2.0, -6.0, 6.0, 2048)
        res = fixed_point_iterate(start, model, pi, hyper, tol=1e-10, max_iter=10,
                                  damping=1.0)
        analytic = GridDensity1D.gaussian(0.0, 0.5, res.density.lo, res.density.hi,
                                          res.density.n_cells)
        l1 = l1_distance(res.density, analytic)
        drift = stationarity_check(res.density, model, pi, hyper, 4096, 5.0,
                                   NoisePlan(707))
        ok = res.converged and l1 <= 1e-3 and drift <= 0.05
        _report(7, "stationary fixed point", ok,
                f"L1 to analytic={l1:.2e} (<= 1e-3), W2 drift={drift:.4f} (<= 0.05)")


class TestCriterion8Metrics:
    def test_metric_suite(self):
        rng = np.random.default_rng(808)
        agree = all(
            abs(w2_exact(a := rng.standard_normal(int(rng.integers(2, 40))),
                         b := rng.standard_normal(a.size)) - w2_1d(a, b)) <= 1e-10
            for _ in range(100)
        )
        mixtures = all(
            mixture_bound_check([
                ((rng.standard_normal((k := int(rng.integers(2, 8)), 2))),
                 rng.standard_normal((k, 2)) + rng.uniform(-1, 1, 2))
                for _ in range(int(rng.integers(2, 5)))
            ])
            for _ in range(200)
        )
        triangle = True
        for _ in range(200):
            n = int(rng.integers(2, 12))
            a, b, c = (rng.standard_normal((n, 2)) for _ in range(3))
            if w2_exact(a, c) > w2_exact(a, b) + w2_exact(b, c) + 1e-10:
                triangle = False
        slopes = all(
            abs(fit_rate([(n, float(n) ** s) for n in (8, 32, 128, 512)]).slope - s) <= 1e-12
            for s in (0.0, -0.5, -1.0)
        )
        ok = agree and mixtures and triangle and slopes
        _report(8, "metrics", ok,
                f"1d-vs-exact agree={agree}, mixture bound={mixtures}, "
                f"triangle={triangle}, slopes exact={slopes}")


class TestCriterion9DynamicsContracts:
    def test_contracts(self):
        model = make_model("tanh-dot", "square", 0.01)
        pi = DataDistribution([
            DataAtom([0.8], 0.9, 0.25), DataAtom([-0.6], -0.4, 0.25),
            DataAtom([1.0], -0.2, 0.25), DataAtom([-0.9], 0.7, 0.25),
        ])
        h = Hyperparams(alpha=0.2, beta=0.5, gamma=0.4, M=2, T=2.0, dt=0.02, eta=0.0)
        a = sgd_run(model, pi, h, 8, InitSpec.uniform(), NoisePlan(9), snapshot_times="all")
        b = msgld_run(model, pi, h, 8, InitSpec.uniform(), NoisePlan(9), snapshot_times="all")
        bitwise = bool(np.array_equal(a.ensembles, b.ensembles))

        cfg = ChaosRateConfig(
            problem=ProblemConfig(labels="noisy"),
            hyper=Hyperparams(alpha=0.0, beta=1.0, gamma=1.0, M=1, T=1.0, dt=0.05),
            N_grid=(8, 16, 32, 64), m=2, N_ref=128, reps=4, seed=31)
        workers_same = (chaos_rate_study(cfg, workers=1).tables
                        == chaos_rate_study(cfg, workers=3).tables)

        quad = make_model("zero", "square", 1.0)
        single = DataDistribution([DataAtom([1.0], 1.0, 1.0)])
        maxima = {}
        for dt in (0.02, 0.01):
            hh = Hyperparams(alpha=0.0, beta=0.5, gamma=1.0, M=1, T=1.0, dt=dt)
            traj = meanfield_ode_run(quad, single, hh, 8, InitSpec.dirac([1.0]),
                                     NoisePlan(0), snapshot_times="all")
            maxima[dt] = float(weak_form_residual(traj, TestFunction.linear([1.0])).max())
        halving = maxima[0.02] / maxima[0.01]
        weak_ok = maxima[0.01] < 0.01 and 1.5 <= halving <= 2.5

        ok = bitwise and workers_same and weak_ok
        _report(9, "dynamics contracts", ok,
                f"eta=0 bitwise={bitwise}, worker-count invariant={workers_same}, "
                f"weak-form halving ratio={halving:.2f} in [1.5, 2.5]")


class TestCriterion10SgdSdeDiagnostic:
    def test_gap_decreases_with_n(self):
        cfg = ConsistencyConfig(
            problem=ProblemConfig(labels="realizable", init_low=-2.0, init_high=2.0),
            hyper=Hyperparams(alpha=0.0, beta=1.0, gamma=0.05, M=1, T=5.0, dt=0.05),
            N_grid=(256, 1024, 4096),
            reps=6, seed=37,
        )
        rep = sgd_sde_consistency_study(cfg, workers=WORKERS)
        rows = rep.tables["gaps"]
        v = rep.verdict("gap_decreasing")
        assert "<= 0.7*gap(N)" in v.note
        _report(10, "SGD<->SDE law gap", bool(v.passed),
                "gaps " + " -> ".join(f"{r['gap']:.4f}" for r in rows)
                + " (each <= 0.7*prev + 2se)")
