"""Study orchestration: determinism, verdict wiring, degenerate grids."""

import os
import subprocess
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import chaoslab
import chaoslab.experiments as xp
from chaoslab.dynamics import (
    EnsembleDiverged,
    InitSpec,
    interacting_sde_run,
    meanfield_ode_run,
    meanfield_sde_run,
    msgld_run,
    sgd_run,
)
from chaoslab.experiments import (
    ChaosRateConfig,
    ConsistencyConfig,
    HistogramConfig,
    ProblemConfig,
    StudyReport,
    SweepConfig,
    TwoRegimeConfig,
    Verdict,
    batch_sweep,
    chaos_rate_study,
    gamma_sweep,
    histogram_convergence_study,
    sgd_sde_consistency_study,
    two_term_bound,
    two_regime_study,
)
from chaoslab.io import parse_config, write_csv
from chaoslab.metrics import w2_1d_quantile, w2_ensembles
from chaoslab.model import Hyperparams
from chaoslab.rng import NoisePlan

FAST_HYPER = Hyperparams(alpha=0.0, beta=1.0, gamma=1.0, M=1, T=1.0, dt=0.05)


def fast_chaos_config(**kw):
    base = dict(
        problem=ProblemConfig(labels="noisy"),
        hyper=FAST_HYPER,
        N_grid=(8, 16, 32, 64),
        m=2,
        N_ref=128,
        reps=3,
        seed=5,
    )
    base.update(kw)
    return ChaosRateConfig(**base)


class TestConfigRanges:
    @pytest.mark.parametrize("cls, kw, field", [
        (ChaosRateConfig, {"m": 0}, "m"),
        (ChaosRateConfig, {"reps": 0}, "reps"),
        (ChaosRateConfig, {"N_ref": -3}, "N_ref"),
        (HistogramConfig, {"betas": (0.5, 1.5)}, "betas"),
        (TwoRegimeConfig, {"betas": (1.0, 1.5)}, "betas"),
        (SweepConfig, {"reps": 0}, "reps"),
        (HistogramConfig, {"N_grid": (64, 32, 16)}, "N_grid"),
        (ProblemConfig, {"penalty": -0.5}, "penalty"),
        (ProblemConfig, {"sigma_override": -1.0}, "sigma_override"),
        # the histogram study runs the diffusion alone, on 3 sizes at least
        (HistogramConfig, {"N_grid": (8, 16)}, "N_grid"),
    ])
    def test_out_of_range_value_names_the_field(self, cls, kw, field):
        with pytest.raises(ValueError, match=rf"^{field} must "):
            cls(**kw)


class TestVerdict:
    def test_report_passed_counts_applicable_verdicts_only(self):
        na = Verdict.not_applicable("n", "why")
        ok, bad = Verdict.le("a", 1.0, 2.0), Verdict.le("b", 3.0, 2.0)

        def report(*verdicts):
            return StudyReport("s", {}, list(verdicts))

        assert report(na, ok).passed is True
        assert report(na, ok, bad).passed is False
        assert report(na).passed is None
        assert report().passed is None

    def test_verdict_looks_up_by_name(self):
        report = StudyReport("s", {}, [Verdict.le("a", 1.0, 2.0)])
        assert report.verdict("a").measured == 1.0
        with pytest.raises(KeyError, match="nope"):
            report.verdict("nope")

    def test_le_ge(self):
        assert Verdict.le("a", 1.0, 2.0).passed
        assert not Verdict.le("a", 3.0, 2.0).passed
        assert Verdict.ge("b", 3.0, 2.0).passed
        assert Verdict.not_applicable("c", "why").passed is None


    @pytest.mark.parametrize("study, config, names", [
        pytest.param(two_regime_study, TwoRegimeConfig(
            hyper=FAST_HYPER.replace(gamma=0.5), betas=(0.5, 0.75), N_grid=(16, 64), seeds=2),
            ("floor_beta_1", "deviation_ratio"), id="regime-no-beta-1"),
        pytest.param(two_regime_study, TwoRegimeConfig(
            hyper=FAST_HYPER.replace(gamma=0.5), betas=(1.0,), N_grid=(16,), seeds=2),
            ("floor_beta_1", "deviation_ratio"), id="regime-beta-1-one-size"),
        pytest.param(histogram_convergence_study, HistogramConfig(
            hyper=FAST_HYPER, betas=(0.25, 0.5, 1.0), N_grid=(16, 32, 64)),
            ("two_regime_separation",), id="histograms-no-beta-0.75"),
        pytest.param(gamma_sweep, SweepConfig(hyper=FAST_HYPER, gammas=(0.5,), N_ref=32, reps=2),
                     ("nonincreasing", "final_vs_first"), id="gamma-sweep-one-gamma"),
        pytest.param(batch_sweep, SweepConfig(hyper=FAST_HYPER, batches=(4,), N_ref=32, reps=2),
                     ("nonincreasing", "final_vs_first"), id="batch-sweep-one-batch"),
    ])
    def test_a_verdict_the_study_cannot_judge_is_reported_not_applicable(self, study, config,
                                                                         names):
        rep = study(config)
        for name in names:
            v = rep.verdict(name)
            assert (v.op, v.passed) == ("na", None) and v.note


class TestChaosRateStudy:
    def test_deterministic_given_config_and_seed(self):
        a = chaos_rate_study(fast_chaos_config())
        b = chaos_rate_study(fast_chaos_config())
        assert a.tables == b.tables
        assert [v.measured for v in a.verdicts] == [v.measured for v in b.verdicts]

    def test_worker_count_does_not_change_results(self):
        a = chaos_rate_study(fast_chaos_config(), workers=1)
        b = chaos_rate_study(fast_chaos_config(), workers=3)
        assert a.tables == b.tables

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            fast_chaos_config(N_grid=(8, 16, 32))  # too few
        with pytest.raises(ValueError):
            fast_chaos_config(N_grid=(8, 16, 32, 40))  # not geometric

    def test_verdicts_present(self):
        rep = chaos_rate_study(fast_chaos_config())
        names = {v.name for v in rep.verdicts}
        assert names == {"slope", "upper_bound_compliance", "endpoint_ratio"}

    def test_bound_shape(self):
        assert two_term_bound(16, 0.0, 0.0, 1) == pytest.approx(2 / 16)
        assert two_term_bound(16, 0.0, 0.5, 2) == pytest.approx(0.25 / 2 + 1 / 16)
        assert two_term_bound(16, 0.25, 0.0, 1) == pytest.approx(16.0 ** (-4 / 3) + 1 / 16)

    def test_names_its_reference(self):
        rep = chaos_rate_study(fast_chaos_config())
        assert "companions' law: grid law" in rep.verdict("slope").note
        assert rep.warnings == []
        assert all(r["ref_bias_scale"] < 1e-3 for r in rep.tables["errors"])

    def test_grid_law_past_its_window_falls_back_and_says_so(self):
        # a point mass at w0 = 3.5 starts outside the grid's window [-3, 3]
        rep = chaos_rate_study(fast_chaos_config(
            problem=ProblemConfig(labels="noisy", init_kind="dirac", init_w0=3.5)))
        assert "companions' law: particle reference" in rep.verdict("slope").note
        assert len(rep.warnings) == 1 and "grid law not used (edge mass 1" in rep.warnings[0]
        assert all(r["ref_bias_scale"] == 128**-0.5 for r in rep.tables["errors"])

    def test_study_loads_no_scipy(self):
        # the grid law's CDF is numpy's own: scipy would add ~20 MiB to the run
        code = ("import sys\n"
                "from chaoslab.experiments import ChaosRateConfig, ProblemConfig, chaos_rate_study\n"
                "from chaoslab.model import Hyperparams\n"
                "rep = chaos_rate_study(ChaosRateConfig(hyper=Hyperparams(T=0.2, dt=0.02), "
                "N_grid=(8, 16, 32, 64), m=2, N_ref=64, reps=2))\n"
                "assert \"companions' law: grid law\" in rep.verdict('slope').note\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        src = str(Path(chaoslab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=env)
        assert out.stdout.strip() == "[]"

    def test_beta_zero_slope(self):
        # both bound terms are 1/N at beta=0: the fitted slope clears -0.7
        cfg = ChaosRateConfig(
            problem=ProblemConfig(labels="noisy"),
            hyper=Hyperparams(alpha=0.0, beta=0.0, gamma=1.0, M=1, T=5.0, dt=0.02),
            N_grid=(16, 32, 64, 128), m=4, N_ref=1024, reps=12, seed=99)
        rep = chaos_rate_study(cfg, workers=2)
        assert rep.verdict("slope").measured <= -0.7


class TestTwoRegimeStudy:
    def fast_config(self, **kw):
        base = dict(
            problem=ProblemConfig(labels="noisy", init_kind="dirac", init_w0=0.0),
            hyper=Hyperparams(alpha=0.0, beta=1.0, gamma=0.5, M=1, T=2.0, dt=0.05),
            betas=(0.75, 1.0),
            N_grid=(64, 256, 1024),
            seeds=8,
            seed=3,
        )
        base.update(kw)
        return TwoRegimeConfig(**base)

    def test_single_atom_deviation_is_zero(self):
        # no sampling variability: every seed produces the same trajectory
        rep = two_regime_study(self.fast_config(
            problem=ProblemConfig(labels="single", init_kind="dirac", init_w0=0.0)))
        assert all(r["deviation"] == 0.0 for r in rep.tables["deviations"])

    def test_single_particle_shortcut_matches_the_n_run(self):
        # sgd from a dirac init simulates one particle; the recursion of all N
        # particles, which stay equal, gives the same deviations
        cfg = self.fast_config(N_grid=(64, 4096), seeds=3)
        short = two_regime_study(cfg).tables["deviations"]
        model, pi, init = cfg.problem.build()
        full = []
        for beta in cfg.betas:
            for N in cfg.N_grid:
                stats = np.array([
                    sgd_run(model, pi, cfg.hyper.replace(beta=beta), N, init,
                            NoisePlan(cfg.seed).child("regime", int(beta * 1000), N, s),
                            snapshot_times=[cfg.hyper.T]).endpoint()[:, 0].mean()
                    for s in range(cfg.seeds)])
                full.append((stats.mean(), stats.std(ddof=1)))
        np.testing.assert_allclose([(r["mean_stat"], r["deviation"]) for r in short], full,
                                   rtol=1e-12, atol=0)

    def test_stacked_seeds_equal_their_lone_runs(self):
        # the shortcut steps a (beta, N) pair's seeds as one block; each must be its lone run
        cfg = self.fast_config(N_grid=(64, 4096), seeds=5)
        rows = two_regime_study(cfg).tables["deviations"]
        model, pi, init = cfg.problem.build()
        want = []
        for beta in cfg.betas:
            for N in cfg.N_grid:
                hyper1 = cfg.hyper.replace(beta=1.0, gamma=cfg.hyper.gamma * float(N) ** (beta - 1.0))
                stats = np.array([
                    sgd_run(model, pi, hyper1, 1, init,
                            NoisePlan(cfg.seed).child("regime", int(beta * 1000), N, s),
                            snapshot_times=[cfg.hyper.T]).endpoint()[0, 0]
                    for s in range(cfg.seeds)])
                want.append((float(stats.mean()), float(stats.std(ddof=1))))
        assert [(r["mean_stat"], r["deviation"]) for r in rows] == want

    def test_one_pool_for_the_whole_study(self, monkeypatch):
        cfg = self.fast_config(N_grid=(16, 64), seeds=3)
        serial = two_regime_study(cfg, workers=1)
        starts = []

        class CountingPool(xp.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                starts.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(xp, "ProcessPoolExecutor", CountingPool)
        pooled = two_regime_study(cfg, workers=2)
        assert len(starts) == 1
        assert pooled.tables == serial.tables

    def test_seed_floor(self):
        with pytest.raises(ValueError):
            two_regime_study(self.fast_config(seeds=1))

    def test_no_applicable_verdict_is_not_a_pass(self):
        # one beta and one N leave nothing to compare: no verdict applies
        rep = two_regime_study(self.fast_config(betas=(1.0,), N_grid=(64,)))
        assert all(v.passed is None for v in rep.verdicts)
        assert rep.passed is None

    def test_langevin_restores_noise_below_one(self):
        # zero feature freezes SGD entirely; the Langevin channel alone
        # keeps the beta<1 deviation alive
        base = dict(
            problem=ProblemConfig(feature="zero", penalty=0.0, labels="noisy",
                                  init_kind="dirac", init_w0=0.0),
            betas=(0.75,),
            N_grid=(64, 256),
            seeds=8,
            seed=3,
        )
        frozen = two_regime_study(TwoRegimeConfig(
            **base,
            hyper=Hyperparams(alpha=0.0, beta=1.0, gamma=0.5, M=1, T=2.0, dt=0.05)))
        hot = two_regime_study(TwoRegimeConfig(
            **base,
            hyper=Hyperparams(alpha=0.0, beta=1.0, gamma=0.5, M=1, T=2.0, dt=0.05, eta=0.5)))
        dev_frozen = max(r["deviation"] for r in frozen.tables["deviations"])
        dev_hot = min(r["deviation"] for r in hot.tables["deviations"])
        assert dev_frozen == 0.0
        assert dev_hot > 0.0


class TestSweeps:
    def fast_config(self, **kw):
        base = dict(
            problem=ProblemConfig(labels="noisy"),
            hyper=Hyperparams(alpha=0.0, beta=1.0, gamma=1.0, M=1, T=1.0, dt=0.05),
            gammas=(1.0, 0.25),
            batches=(1, 16),
            N_ref=256,
            reps=2,
            seed=1,
        )
        base.update(kw)
        return SweepConfig(**base)

    def test_gamma_sweep_shrinks_distance(self):
        rep = gamma_sweep(self.fast_config())
        rows = rep.tables["distances"]
        assert rows[-1]["w2_to_ode_limit"] < rows[0]["w2_to_ode_limit"]

    def test_batch_sweep_shrinks_distance(self):
        rep = batch_sweep(self.fast_config())
        rows = rep.tables["distances"]
        assert rows[-1]["w2_to_ode_limit"] < rows[0]["w2_to_ode_limit"]

    def test_degenerate_single_point_grid_not_applicable(self):
        rep = gamma_sweep(self.fast_config(gammas=(0.5,)))
        v = rep.verdict("nonincreasing")
        assert v.passed is None
        assert "not applicable" in v.note

    def test_a_dataset_is_read_at_parse_and_never_in_a_task(self, tmp_path):
        # the pool's tasks build the problem from the atoms the parsed config carries
        data = tmp_path / "d.csv"
        cfg = {"problem": {"dataset": str(data)}, "hyper": {"T": 1.0, "dt": 0.05},
               "gammas": [1.0, 0.25], "N_ref": 64, "reps": 2, "seed": 1}

        def tables(workers, keep):
            data.write_text("x_1,y\n0.5,0.9\n-0.6,-0.4\n1.0,-0.2\n")
            config = parse_config(SweepConfig, cfg, "gamma-sweep")
            if not keep:
                data.unlink()
            assert config.problem.build()[1].ys.tolist() == [0.9, -0.4, -0.2]
            out = {}
            for name, rows in gamma_sweep(config, workers=workers).tables.items():
                write_csv(tmp_path / f"{name}-{workers}.csv", rows)
                out[name] = (tmp_path / f"{name}-{workers}.csv").read_bytes()
            return out

        present = tables(1, keep=True)
        assert present and tables(2, keep=False) == present

    def test_report_deterministic(self):
        a = gamma_sweep(self.fast_config())
        b = gamma_sweep(self.fast_config())
        assert a.tables == b.tables

    @pytest.mark.parametrize("sweep", [gamma_sweep, batch_sweep])
    def test_one_ode_limit_per_rep(self, monkeypatch, sweep):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return meanfield_ode_run(*args, **kwargs)

        monkeypatch.setattr(xp, "meanfield_ode_run", counting)
        cfg = self.fast_config(N_ref=16, reps=3, hyper=FAST_HYPER.replace(T=0.2))
        sweep(cfg, workers=1)
        assert len(calls) == cfg.reps

    @pytest.mark.parametrize("key, p", [("gamma", 1), ("batch", 2)])
    def test_each_value_is_measured_against_its_reps_ode_limit(self, key, p):
        cfg = self.fast_config(problem=ProblemConfig(labels="noisy", p=p), N_ref=32, reps=2,
                               hyper=FAST_HYPER.replace(T=0.3))
        values = cfg.gammas if key == "gamma" else cfg.batches
        model, pi, init = cfg.problem.build()
        T = cfg.hyper.T
        per_rep = []
        for r in range(cfg.reps):
            plan = NoisePlan(cfg.seed).child("sweep", key, "ode", r)
            ode = meanfield_ode_run(model, pi, cfg.hyper, cfg.N_ref, init, plan,
                                    snapshot_times=[T]).endpoint()
            want = []
            for v in values:
                hyper = cfg.hyper.replace(gamma=v) if key == "gamma" else cfg.hyper.replace(M=v)
                plan = NoisePlan(cfg.seed).child("sweep", key, int(v * 1000), r)
                sde = meanfield_sde_run(model, pi, hyper, cfg.N_ref, init, plan,
                                        snapshot_times=[T]).endpoint()
                want.append(w2_1d_quantile(sde[:, 0], ode[:, 0]) if p == 1
                            else w2_ensembles(sde, ode, seed=cfg.seed))
            assert xp._sweep_task(cfg, key, values, r) == want
            per_rep.append(want)
        rows = (gamma_sweep if key == "gamma" else batch_sweep)(cfg).tables["distances"]
        assert [row["w2_to_ode_limit"] for row in rows] == \
            [float(np.mean(ws)) for ws in zip(*per_rep)]

    def test_diverged_sde_run_is_named_with_its_value_and_rep(self, monkeypatch):
        def diverging(model, pi, hyper, *args, **kwargs):
            if hyper.gamma == 0.25:
                raise EnsembleDiverged(3, 0.15, 2e8, 1e8)
            return meanfield_sde_run(model, pi, hyper, *args, **kwargs)

        monkeypatch.setattr(xp, "meanfield_sde_run", diverging)
        cfg = self.fast_config(N_ref=16, hyper=FAST_HYPER.replace(T=0.2))
        assert gamma_sweep(cfg).verdict("diverged").note == (
            "ensemble second moment over its ceiling in the gamma sweep's run at gamma=0.25, "
            "rep 0; in task 0 of _sweep_task at step 3 (t=0.15)")


class TestHistogramStudy:
    def test_tables_and_verdicts(self):
        cfg = HistogramConfig(
            problem=ProblemConfig(labels="noisy"),
            hyper=Hyperparams(alpha=0.0, beta=1.0, gamma=0.5, M=1, T=1.0, dt=0.05),
            betas=(0.5, 0.75, 1.0),
            N_grid=(32, 64, 128),
            seed=2,
        )
        rep = histogram_convergence_study(cfg)
        assert "consecutive_w2" in rep.tables
        assert "hist_beta1.0_N128" in rep.tables
        assert {v.name for v in rep.verdicts} >= {"two_regime_separation"}

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            histogram_convergence_study(HistogramConfig(N_grid=(32, 64)))


class TestConsistencyStudy:
    def test_runs_and_reports(self):
        cfg = ConsistencyConfig(
            problem=ProblemConfig(labels="realizable", init_low=-2.0, init_high=2.0),
            hyper=Hyperparams(alpha=0.0, beta=1.0, gamma=0.1, M=1, T=1.0, dt=0.1),
            N_grid=(32, 128),
            reps=4,
            seed=3,
        )
        rep = sgd_sde_consistency_study(cfg)
        assert len(rep.tables["gaps"]) == 2
        assert rep.verdict("gap_decreasing") is not None

    def test_langevin_pairs_msgld_with_the_diffusion(self):
        # at eta > 0 the discrete side of each pair is MSGLD, at the diffusion's temperature
        cfg = ConsistencyConfig(
            problem=ProblemConfig(labels="realizable", init_low=-2.0, init_high=2.0),
            hyper=Hyperparams(alpha=0.0, beta=1.0, gamma=0.1, M=1, T=1.0, dt=0.1, eta=0.2),
            N_grid=(16, 32),
            reps=2,
            seed=3,
        )
        rows = sgd_sde_consistency_study(cfg).tables["gaps"]
        model, pi, init = cfg.problem.build()
        T = cfg.hyper.T
        for row in rows:
            plans = [NoisePlan(cfg.seed).child("gap", row["N"], r) for r in range(cfg.reps)]
            sgd = [msgld_run(model, pi, cfg.hyper, row["N"], init, plan.child("sgd"),
                             snapshot_times=[T]).endpoint() for plan in plans]
            sde = [interacting_sde_run(model, pi, cfg.hyper, row["N"], init, plan.child("sde"),
                                       snapshot_times=[T]).endpoint() for plan in plans]
            assert row["gap"] == w2_ensembles(np.concatenate(sgd), np.concatenate(sde),
                                              seed=cfg.seed)

    def test_needs_two_reps(self):
        with pytest.raises(ValueError):
            sgd_sde_consistency_study(ConsistencyConfig(reps=1))


TINY = Hyperparams(alpha=0.0, beta=1.0, gamma=0.5, M=1, T=0.2, dt=0.05)
TINY_SGD = TINY.replace(T=1.0, dt=0.1)  # a few SGD steps at N = 8
TINY_STUDIES = {
    "chaos_rate_study": ChaosRateConfig(hyper=TINY, N_grid=(4, 8, 16, 32), m=2, N_ref=32,
                                        reps=2, seed=1),
    "two_regime_study": TwoRegimeConfig(hyper=TINY_SGD, N_grid=(8, 16), seeds=2, seed=1),
    "gamma_sweep": SweepConfig(hyper=TINY, gammas=(1.0, 0.5), N_ref=16, reps=2, seed=1),
    "batch_sweep": SweepConfig(hyper=TINY, batches=(1, 4), N_ref=16, reps=2, seed=1),
    "histogram_convergence_study": HistogramConfig(hyper=TINY, N_grid=(8, 16, 32), seed=1),
    "sgd_sde_consistency_study": ConsistencyConfig(hyper=TINY_SGD, N_grid=(8, 16), reps=2,
                                                   seed=1),
}


def _diverges_at_step_2(task):
    raise EnsembleDiverged(2, 0.1, np.inf, 1e8)


class TestStudyRunner:
    @pytest.mark.parametrize("workers", [0, -3])
    def test_pool_needs_a_worker(self, workers):
        with pytest.raises(ValueError, match="at least one worker"):
            with xp._pool_map(workers):
                pass

    @pytest.mark.parametrize("study", sorted(TINY_STUDIES))
    def test_one_pool_per_study_call_and_none_when_serial(self, monkeypatch, study):
        starts = []

        class CountingPool(xp.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                starts.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(xp, "ProcessPoolExecutor", CountingPool)
        serial = getattr(xp, study)(TINY_STUDIES[study], workers=1)
        assert starts == []
        pooled = getattr(xp, study)(TINY_STUDIES[study], workers=2)
        assert starts == [1]
        assert pooled.tables == serial.tables
        assert [(v.measured, v.note) for v in pooled.verdicts] == \
            [(v.measured, v.note) for v in serial.verdicts]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_diverged_task_is_a_failing_verdict_naming_it(self, workers):
        cfg = TINY_STUDIES["gamma_sweep"]
        rep = xp.run_study("s", cfg, workers, (_diverges_at_step_2, [("gamma", 0.5, 1)]), None)
        assert rep.tables == {}
        [v] = rep.verdicts
        assert (v.name, v.op, v.passed, v.threshold) == ("diverged", "<=", False, 1e8)
        assert v.note == ("ensemble second moment over its ceiling in task ('gamma', 0.5, 1) "
                          "of _diverges_at_step_2 at step 2 (t=0.1)")
        assert rep.passed is False

    def test_divergence_outside_the_tasks_is_reported_too(self):
        def collect(pmap):
            raise EnsembleDiverged(0, 0.0, 4e8, 1e8)

        rep = xp.run_study("s", TINY_STUDIES["gamma_sweep"], 1, collect, None)
        assert rep.verdict("diverged").note == (
            "ensemble second moment over its ceiling outside the mapped tasks at step 0 (t=0)")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_diverged_particle_reference_is_named(self, workers):
        # a point mass far outside the grid law's window falls back to the particle
        # reference, which crosses the ceiling at its first step
        cfg = replace(TINY_STUDIES["chaos_rate_study"],
                      problem=ProblemConfig(init_kind="dirac", init_w0=20000.0))
        rep = chaos_rate_study(cfg, workers=workers)
        assert rep.tables == {} and rep.warnings == []
        assert [v.name for v in rep.verdicts] == ["diverged"]
        assert rep.verdicts[0].measured == 4e8
        assert "in the companions' particle reference (N_ref=32) at step 0 (t=0)" in \
            rep.verdicts[0].note

    @pytest.mark.parametrize("workers", [1, 2])
    def test_diverged_rep_is_named_with_its_N(self, workers):
        # every test system crosses the ceiling at step 1; the first in order is named
        model, pi, _ = ProblemConfig().build()
        collect = partial(xp._coupling_estimates, replace(model, sigma_override=1e12), pi,
                          Hyperparams(beta=0.5, T=0.2, dt=0.02), (4, 8, 16), 2, 16, 3, NoisePlan(1),
                          InitSpec.dirac(0.0))
        rep = xp.run_study("chaos-rate", TINY_STUDIES["chaos_rate_study"], workers, collect, None)
        assert rep.verdict("diverged").note == (
            "ensemble second moment over its ceiling in rep 0 (N=4); in task (0, 1, 2) of "
            "_coupled_grid_reps at step 1 (t=0.02)")
