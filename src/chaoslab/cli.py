"""Command-line front end.

One subcommand per study plus ``simulate`` (single engine run),
``stationary`` (fixed-point map), ``check-assumptions`` (hypothesis audit)
and ``metrics`` (distances between stored sample sets).  Every run writes
its outputs plus a replayable manifest under the output directory; with
``--strict`` a failed verdict, or a study with no applicable verdict, turns
into exit code 1; config errors exit 2.  A diverged study reports a failing
``diverged`` verdict; a diverged ``simulate`` or ``stationary`` exits 1.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import experiments as xp
from .dynamics import (
    EnsembleDiverged,
    interacting_sde_run,
    meanfield_ode_run,
    meanfield_sde_run,
    msgld_run,
    sgd_run,
)
from .io import (
    ConfigError,
    RunManifest,
    load_config,
    load_dataset,
    output_root,
    parse_config,
    save_trajectory,
    trajectory_to_csv,
    write_csv,
    write_json,
)
from .metrics import w2_1d, w2_ensembles, w2_sliced
from .model import Hyperparams, check_assumptions, gamma_scale, make_model, require
from .rng import NoisePlan
from .stationary import GridDensity1D, NonEllipticNoise, fixed_point_iterate, stationarity_check

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_CONFIG = 2

_ENGINES = {
    "sgd": sgd_run,
    "msgld": msgld_run,
    "interacting-sde": interacting_sde_run,
    "meanfield-ode": meanfield_ode_run,
    "meanfield-sde": meanfield_sde_run,
}


def _resolve_problem(config):
    """Model/data/init of a simulate, stationary or check-assumptions config; a dataset
    path overrides the synthetic atoms and ``sigma_override`` sets the model's noise model."""
    model, pi, init = config.problem.build()
    if config.dataset is not None:
        pi = load_dataset(config.dataset)
        problem = config.problem
        model = make_model(problem.feature, problem.loss, problem.penalty, p=pi.d)
    if getattr(config, "sigma_override", None) is not None:
        model = replace(model, sigma_override=config.sigma_override)
    return model, pi, init


def _report_outputs(report: xp.StudyReport, out_dir: Path, manifest: RunManifest) -> list[Path]:
    files = []
    for name, rows in report.tables.items():
        path = out_dir / f"{name}.csv"
        write_csv(path, rows)
        files.append(path)
    verdict_path = out_dir / "verdicts.json"
    write_json(verdict_path, {
        "study_id": report.study_id,
        "passed": report.passed,
        "verdicts": [asdict(v) for v in report.verdicts],
        "warnings": report.warnings,
        "elapsed_s": report.elapsed_s,
    })
    files.append(verdict_path)
    manifest.finish(out_dir, files)
    return files


def _finish_study(report: xp.StudyReport, args, cfg: dict, seed: int) -> int:
    out_dir = output_root(args.out) / f"{report.study_id}-seed{seed}"
    manifest = RunManifest.start(report.study_id, cfg, seed, workers=args.workers)
    _report_outputs(report, out_dir, manifest)
    for v in report.verdicts:
        status = "PASS" if v.passed else ("n/a" if v.passed is None else "FAIL")
        print(f"[{report.study_id}] {v.name}: {status} (measured {v.measured:.6g}, "
              f"threshold {v.op} {v.threshold:.6g})")
    if report.passed is None:
        print(f"[{report.study_id}] no applicable verdict: n/a")
    for w in report.warnings:
        print(f"[{report.study_id}] warning: {w}", file=sys.stderr)
    if args.strict and report.passed is not True:
        return EXIT_VERDICT
    return EXIT_OK


# ----------------------------- configs -----------------------------
# each subcommand's keys, defaults and ranges (the studies' are in experiments)


@dataclass(frozen=True)
class SimulateConfig:
    problem: xp.ProblemConfig = xp.ProblemConfig()
    hyper: Hyperparams = Hyperparams()
    dataset: str | None = None
    sigma_override: float | None = None
    seed: int = 0
    engine: str = "sgd"
    N: int = 64
    snapshot_times: tuple[float, ...] | None = None

    def __post_init__(self):
        require(self.engine in _ENGINES, "engine", f"be one of {', '.join(_ENGINES)}", self.engine)
        require(self.N >= 1, "N", "be >= 1", self.N)
        require(self.snapshot_times is None
                or all(0.0 <= t <= self.hyper.T for t in self.snapshot_times),
                "snapshot_times", f"lie in [0, T={self.hyper.T:g}]", self.snapshot_times)
        require(self.sigma_override is None or 0 <= self.sigma_override < math.inf,
                "sigma_override", "be finite and >= 0", self.sigma_override)
        if self.engine in ("sgd", "msgld"):  # the discrete recursions never read dt
            require(self.sigma_override is None, "sigma_override", f"be unset: engine "
                    f"{self.engine} has no diffusion term to pin", self.sigma_override)
            self.hyper.sgd_steps(self.N)
        else:
            self.hyper.euler_steps()


@dataclass(frozen=True)
class StationaryConfig:
    problem: xp.ProblemConfig = xp.ProblemConfig()
    hyper: Hyperparams = Hyperparams()
    dataset: str | None = None
    sigma_override: float | None = None
    seed: int = 0
    horizon: float = 5.0
    grid_lo: float = -4.0
    grid_hi: float = 4.0
    n_cells: int = 512
    tol: float = 1e-8
    max_iter: int = 200
    damping: float = 0.5
    N_ref: int = 4096

    def __post_init__(self):
        require(self.horizon >= 0, "horizon", "be >= 0", self.horizon)
        require(self.n_cells >= 4, "n_cells", "be >= 4", self.n_cells)
        require(self.tol >= 0, "tol", "be >= 0", self.tol)
        require(self.max_iter >= 1, "max_iter", "be >= 1", self.max_iter)
        require(0 < self.damping <= 1, "damping", "lie in (0, 1]", self.damping)
        require(self.N_ref >= 1, "N_ref", "be >= 1", self.N_ref)
        require(self.sigma_override is None or 0 <= self.sigma_override < math.inf,
                "sigma_override", "be finite and >= 0", self.sigma_override)
        try:
            self.hyper.replace(T=self.horizon).euler_steps()
        except ConfigError as exc:
            raise ConfigError(str(exc), "horizon") from exc


@dataclass(frozen=True)
class CheckAssumptionsConfig:
    problem: xp.ProblemConfig = xp.ProblemConfig()
    dataset: str | None = None
    seed: int = 0
    probes: tuple[tuple[float, ...], ...] | None = None  # each of length p, checked on the model


@dataclass(frozen=True)
class MetricsConfig:
    samples_a: str | None = None
    samples_b: str | None = None
    seed: int = 0
    reps: int = 64  # projections of the sliced distance

    def __post_init__(self):
        if self.samples_a is None or self.samples_b is None:
            raise ConfigError("metrics needs samples_a and samples_b paths", "samples_a")
        require(self.reps >= 1, "reps", "be >= 1", self.reps)


# ----------------------------- subcommands -----------------------------


def _cmd_simulate(args, cfg: dict, config: SimulateConfig) -> int:
    if args.snapshot_times:
        config = replace(config, snapshot_times=tuple(args.snapshot_times))
    model, pi, init = _resolve_problem(config)
    hyper, engine, N, seed = config.hyper, config.engine, config.N, config.seed
    plan = NoisePlan(seed)
    traj = _ENGINES[engine](model, pi, hyper, N, init, plan, snapshot_times=config.snapshot_times)

    out_dir = output_root(args.out) / f"simulate-seed{seed}"
    g = gamma_scale(hyper.alpha, hyper.beta, hyper.gamma, N)
    manifest = RunManifest.start("simulate", cfg, seed, derived={
        "gamma_scale": g,
        "n_steps": traj.meta.get("n_steps"),
        "dt": hyper.dt,
        "x_max": pi.x_max,
    }, workers=args.workers)
    bin_path = out_dir / "trajectory.bin"
    csv_path = out_dir / "trajectory.csv"
    save_trajectory(traj, bin_path)
    trajectory_to_csv(traj, csv_path)
    manifest.finish(out_dir, [bin_path, csv_path])
    print(f"[simulate] {engine} N={N} steps={traj.meta.get('n_steps')} -> {out_dir}")
    return EXIT_OK


def _cmd_study(study: str, args, cfg: dict, config) -> int:
    # looked up at call time, so a wrapper installed on experiments is the one called
    return _finish_study(getattr(xp, study)(config, workers=args.workers), args, cfg, config.seed)


def _cmd_stationary(args, cfg: dict, config: StationaryConfig) -> int:
    model, pi, _ = _resolve_problem(config)
    if model.p != 1:
        # with a dataset the dimension is its number of x_ columns
        field_name = "dataset" if config.dataset is not None else "problem.p"
        raise ConfigError(f"config field {field_name}: the stationary map is defined for p = 1, "
                          f"got p={model.p}", field_name)
    hyper, seed, horizon = config.hyper, config.seed, config.horizon
    try:
        mu0 = GridDensity1D.gaussian(0.0, 1.0, config.grid_lo, config.grid_hi, config.n_cells)
    except ValueError as exc:
        raise ConfigError(f"config fields grid_lo/grid_hi: {exc}", "grid_lo") from exc
    try:
        result = fixed_point_iterate(
            mu0, model, pi, hyper,
            tol=config.tol,
            max_iter=config.max_iter,
            damping=config.damping,
        )
    except NonEllipticNoise as exc:
        raise ConfigError(f"config fields sigma_override/hyper.eta: {exc}", "sigma_override") from exc
    drift = stationarity_check(
        result.density, model, pi, hyper,
        N_ref=config.N_ref,
        horizon=horizon,
        plan=NoisePlan(seed),
    )
    out_dir = output_root(args.out) / f"stationary-seed{seed}"
    manifest = RunManifest.start("stationary", cfg, seed, derived={
        "iterations": result.iterations,
        "residual": result.residual,
        "converged": result.converged,
        "w2_drift": drift,
    }, workers=args.workers)
    dens_path = out_dir / "density.csv"
    write_csv(dens_path, [
        {"w": repr(float(w)), "density": repr(float(v))}
        for w, v in zip(result.density.centers, result.density.values)
    ])
    report_path = out_dir / "report.json"
    write_json(report_path, {
        "converged": result.converged,
        "iterations": result.iterations,
        "residual": result.residual,
        "residual_history": result.history,
        "w2_drift": drift,
    })
    manifest.finish(out_dir, [dens_path, report_path])
    print(f"[stationary] converged={result.converged} iterations={result.iterations} "
          f"residual={result.residual:.3e} w2_drift={drift:.4f}")
    if args.strict and not result.converged:
        return EXIT_VERDICT
    return EXIT_OK


def _cmd_check_assumptions(args, cfg: dict, config: CheckAssumptionsConfig) -> int:
    model, pi, _ = _resolve_problem(config)
    seed, probes = config.seed, config.probes
    if probes is None:
        rng = np.random.default_rng(seed)
        probes = list(rng.uniform(-2, 2, size=(16, model.p)))
    else:
        if not probes or any(len(q) != model.p for q in probes):
            raise ConfigError(f"config field probes: needs one or more points of length "
                              f"p={model.p}, got {probes}", "probes")
        probes = [np.asarray(q, dtype=np.float64) for q in probes]
    report = check_assumptions(model, pi, probes, seed=seed)
    out_dir = output_root(args.out) / f"check-assumptions-seed{seed}"
    manifest = RunManifest.start("check-assumptions", cfg, seed, workers=args.workers)
    report_path = out_dir / "report.json"
    write_json(report_path, {
        "ok": report.ok,
        "n_checks": report.n_checks,
        "moment_value": report.moment_value,
        "violations": [str(v) for v in report.violations],
    })
    manifest.finish(out_dir, [report_path])
    print(f"[check-assumptions] ok={report.ok} checks={report.n_checks} "
          f"violations={len(report.violations)}")
    for v in report.violations:
        print(f"  {v}")
    if args.strict and not report.ok:
        return EXIT_VERDICT
    return EXIT_OK


def _load_samples(path: str) -> np.ndarray:
    """The w_1..w_p columns of a sample CSV; bad rows are reported with their line number."""
    rows = []
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().strip().split(",")
        w_cols = [i for i, h in enumerate(header) if h.startswith("w_")]
        if not w_cols:
            raise ConfigError(f"sample file {path} needs w_1..w_p columns")
        for lineno, line in enumerate(f, start=2):
            if not line.strip():
                continue
            parts = line.strip().split(",")
            where = f"sample file {path} line {lineno}"
            if len(parts) < len(header):
                raise ConfigError(f"{where}: {len(parts)} cells, header has {len(header)}")
            try:
                row = [float(parts[i]) for i in w_cols]
            except ValueError as exc:
                raise ConfigError(f"{where}: malformed cell ({exc})") from exc
            if not np.all(np.isfinite(row)):
                raise ConfigError(f"{where}: non-finite cell")
            rows.append(row)
    if not rows:
        raise ConfigError(f"sample file {path} has no rows")
    return np.asarray(rows)


def _cmd_metrics(args, cfg: dict, config: MetricsConfig) -> int:
    a = _load_samples(config.samples_a)
    b = _load_samples(config.samples_b)
    if b.shape[1] != a.shape[1]:
        raise ConfigError(f"samples_b has {b.shape[1]} w_ columns, samples_a has {a.shape[1]}",
                          "samples_b")
    seed = config.seed
    out = {"n_a": len(a), "n_b": len(b), "p": a.shape[1]}
    out["w2"] = w2_ensembles(a, b, seed=seed)
    if a.shape == b.shape and a.shape[1] == 1:
        out["w2_1d"] = w2_1d(a[:, 0], b[:, 0])
    if a.shape == b.shape and a.shape[1] > 1:
        sl = w2_sliced(a, b, n_proj=config.reps, seed=seed)
        out["w2_sliced"] = sl.value
        out["w2_sliced_stderr"] = sl.stderr
    out_dir = output_root(args.out) / f"metrics-seed{seed}"
    manifest = RunManifest.start("metrics", cfg, seed, workers=args.workers)
    path = out_dir / "distances.json"
    write_json(path, out)
    manifest.finish(out_dir, [path])
    print(f"[metrics] w2={out['w2']:.6g} -> {path}")
    return EXIT_OK


# subcommand -> (config dataclass, handler)
_COMMANDS = {
    "simulate": (SimulateConfig, _cmd_simulate),
    "chaos-rate": (xp.ChaosRateConfig, partial(_cmd_study, "chaos_rate_study")),
    "regime": (xp.TwoRegimeConfig, partial(_cmd_study, "two_regime_study")),
    "gamma-sweep": (xp.SweepConfig, partial(_cmd_study, "gamma_sweep")),
    "batch-sweep": (xp.SweepConfig, partial(_cmd_study, "batch_sweep")),
    "histograms": (xp.HistogramConfig, partial(_cmd_study, "histogram_convergence_study")),
    "consistency": (xp.ConsistencyConfig, partial(_cmd_study, "sgd_sde_consistency_study")),
    "stationary": (StationaryConfig, _cmd_stationary),
    "check-assumptions": (CheckAssumptionsConfig, _cmd_check_assumptions),
    "metrics": (MetricsConfig, _cmd_metrics),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaoslab",
        description="Interacting-particle training dynamics and their mean-field limits",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=str, default=None, help="JSON config file")
        sp.add_argument("--seed", type=int, default=None, help="overrides the config seed")
        sp.add_argument("--out", type=str, default=None,
                        help="output root (default: $CHAOSLAB_OUT or ./chaoslab-out)")
        sp.add_argument("--workers", type=int, default=1, help="process-pool width")
        sp.add_argument("--strict", action="store_true",
                        help="exit 1 when a verdict fails or none applies")
    sub.choices["simulate"].add_argument("--snapshot-times", type=float, nargs="+", default=None)
    return parser


def cli_dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = load_config(args.config) if args.config else {}
        if args.seed is not None:
            cfg["seed"] = args.seed
        cls, run = _COMMANDS[args.command]
        # the manifest echoes the raw dict; the command runs on its dataclass
        return run(args, cfg, parse_config(cls, cfg, args.command))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EnsembleDiverged as exc:  # a study reports it as a verdict; a single run has no report
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_VERDICT


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
