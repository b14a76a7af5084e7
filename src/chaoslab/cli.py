"""Command-line front end.

One subcommand per study plus ``simulate`` (single engine run),
``stationary`` (fixed-point map), ``check-assumptions`` (hypothesis audit)
and ``metrics`` (distances between stored sample sets).  Every run writes
its outputs plus a replayable manifest under the output directory; with
``--strict`` a failed verdict, or a study with no applicable verdict, turns
into exit code 1; config errors exit 2.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import experiments as xp
from .dynamics import (
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
    save_trajectory,
    trajectory_to_csv,
    write_csv,
    write_json,
)
from .metrics import w2_1d, w2_ensembles, w2_sliced
from .model import Hyperparams, check_assumptions, gamma_scale, make_model
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


# the discrete recursions step by their stepsize schedule and never read dt
_DISCRETE_ENGINES = ("sgd", "msgld")


def _hyper_from(cfg: dict) -> Hyperparams:
    return Hyperparams(**cfg.get("hyper", {}))


def _check_horizon(hyper: Hyperparams, field_name: str = "T", N: int | None = None) -> None:
    """A horizon that is not a whole number of Euler steps dt, or with N particles
    shorter than one step of the discrete recursion, is a config error."""
    try:
        hyper.euler_steps() if N is None else hyper.sgd_steps(N)
    except ValueError as exc:
        raise ConfigError(f"config field {field_name}: {exc}", field_name) from exc


def _problem_from(cfg: dict) -> xp.ProblemConfig:
    """The config's problem; building it up front turns bad atoms or init boxes into config errors."""
    problem = xp.ProblemConfig(**cfg.get("problem", {}))
    try:
        problem.build()
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"config field problem: {exc}", "problem") from exc
    return problem


def _resolve_problem(cfg: dict):
    """Model/data/init from the config; a dataset path overrides the synthetic atoms
    and ``sigma_override`` sets the model's noise model."""
    problem = _problem_from(cfg)
    model, pi, init = problem.build()
    if "dataset" in cfg:
        pi = load_dataset(cfg["dataset"])
        model = make_model(problem.feature, problem.loss, problem.penalty, p=pi.d)
    if "sigma_override" in cfg:
        try:
            model = replace(model, sigma_override=cfg["sigma_override"])
        except ValueError as exc:
            raise ConfigError(f"config field sigma_override: {exc}", "sigma_override") from exc
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


def _finish_study(report: xp.StudyReport, args, cfg: dict) -> int:
    out_dir = output_root(args.out) / f"{report.study_id}-seed{cfg.get('seed', 0)}"
    manifest = RunManifest.start(report.study_id, cfg, cfg.get("seed", 0))
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


def _reject_unread(cfg: dict, reads, what: str) -> None:
    """A config key outside ``reads`` is a config error naming every such key."""
    unread = sorted(set(cfg) - set(reads))
    if unread:
        raise ConfigError(f"config fields {', '.join(unread)}: {what} does not read them",
                          unread[0])


# the keys each subcommand that is not a study reads
_READS = {
    "simulate": ("problem", "dataset", "sigma_override", "seed", "hyper", "engine", "N",
                 "snapshot_times"),
    "stationary": ("problem", "dataset", "sigma_override", "seed", "hyper", "horizon", "grid_lo",
                   "grid_hi", "n_cells", "tol", "max_iter", "damping", "N_ref"),
    "check-assumptions": ("problem", "dataset", "seed", "probes"),
    "metrics": ("samples_a", "samples_b", "seed", "reps"),
}


def _study_config(cfg: dict, cls):
    """Assemble a study config dataclass from the JSON dict (the seed flag is already in it)."""
    _reject_unread(cfg, cls.__dataclass_fields__, "this study")
    kw = {key: tuple(v) if isinstance(v, list) else v for key, v in cfg.items()}
    if "problem" in cfg:
        kw["problem"] = _problem_from(cfg)
    if "hyper" in cfg:
        kw["hyper"] = _hyper_from(cfg)
    try:
        config = cls(**kw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    # every study takes Euler steps unless its engine is a discrete recursion
    if getattr(config, "engine", None) not in _DISCRETE_ENGINES:
        _check_horizon(config.hyper)
    return config


# ----------------------------- subcommands -----------------------------


def _cmd_simulate(args, cfg: dict) -> int:
    model, pi, init = _resolve_problem(cfg)
    hyper = _hyper_from(cfg)
    engine = cfg.get("engine", "sgd")
    N = cfg.get("N", 64)
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    plan = NoisePlan(seed)
    snaps = args.snapshot_times if args.snapshot_times else cfg.get("snapshot_times")
    if engine in _DISCRETE_ENGINES:
        if model.sigma_override is not None:
            raise ConfigError(f"sigma_override pins the diffusion covariance; engine {engine} has "
                              "no diffusion term", "sigma_override")
        _check_horizon(hyper, N=N)
    else:
        _check_horizon(hyper)
    if snaps is not None and not all(0.0 <= t <= hyper.T for t in snaps):
        raise ConfigError(f"config field snapshot_times: every time must lie in [0, T={hyper.T:g}], "
                          f"got {list(snaps)}", "snapshot_times")
    traj = _ENGINES[engine](model, pi, hyper, N, init, plan, snapshot_times=snaps)

    out_dir = output_root(args.out) / f"simulate-seed{seed}"
    g = gamma_scale(hyper.alpha, hyper.beta, hyper.gamma, N)
    manifest = RunManifest.start("simulate", cfg, seed, derived={
        "gamma_scale": g,
        "n_steps": traj.meta.get("n_steps"),
        "dt": hyper.dt,
        "x_max": pi.x_max,
    })
    bin_path = out_dir / "trajectory.bin"
    csv_path = out_dir / "trajectory.csv"
    save_trajectory(traj, bin_path)
    trajectory_to_csv(traj, csv_path)
    manifest.finish(out_dir, [bin_path, csv_path])
    print(f"[simulate] {engine} N={N} steps={traj.meta.get('n_steps')} -> {out_dir}")
    return EXIT_OK


# subcommand -> (config dataclass, name of its study in experiments)
_STUDIES = {
    "chaos-rate": (xp.ChaosRateConfig, "chaos_rate_study"),
    "regime": (xp.TwoRegimeConfig, "two_regime_study"),
    "gamma-sweep": (xp.SweepConfig, "gamma_sweep"),
    "batch-sweep": (xp.SweepConfig, "batch_sweep"),
    "histograms": (xp.HistogramConfig, "histogram_convergence_study"),
    "consistency": (xp.ConsistencyConfig, "sgd_sde_consistency_study"),
}


def _cmd_study(args, cfg: dict) -> int:
    cls, study = _STUDIES[args.command]
    config = _study_config(cfg, cls)
    # looked up at call time, so a wrapper installed on experiments is the one called
    return _finish_study(getattr(xp, study)(config, workers=args.workers), args, cfg)


def _cmd_stationary(args, cfg: dict) -> int:
    model, pi, _ = _resolve_problem(cfg)
    if model.p != 1:
        # with a dataset the dimension is its number of x_ columns
        field_name = "dataset" if "dataset" in cfg else "problem.p"
        raise ConfigError(f"config field {field_name}: the stationary map is defined for p = 1, "
                          f"got p={model.p}", field_name)
    hyper = _hyper_from(cfg)
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    horizon = cfg.get("horizon", 5.0)
    _check_horizon(hyper.replace(T=horizon), "horizon")
    try:
        mu0 = GridDensity1D.gaussian(0.0, 1.0, cfg.get("grid_lo", -4.0), cfg.get("grid_hi", 4.0),
                                     cfg.get("n_cells", 512))
    except ValueError as exc:
        raise ConfigError(f"config fields grid_lo/grid_hi: {exc}", "grid_lo") from exc
    try:
        result = fixed_point_iterate(
            mu0, model, pi, hyper,
            tol=cfg.get("tol", 1e-8),
            max_iter=cfg.get("max_iter", 200),
            damping=cfg.get("damping", 0.5),
        )
    except NonEllipticNoise as exc:
        raise ConfigError(f"config fields sigma_override/hyper.eta: {exc}", "sigma_override") from exc
    drift = stationarity_check(
        result.density, model, pi, hyper,
        N_ref=cfg.get("N_ref", 4096),
        horizon=horizon,
        plan=NoisePlan(seed),
    )
    out_dir = output_root(args.out) / f"stationary-seed{seed}"
    manifest = RunManifest.start("stationary", cfg, seed, derived={
        "iterations": result.iterations,
        "residual": result.residual,
        "converged": result.converged,
        "w2_drift": drift,
    })
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


def _cmd_check_assumptions(args, cfg: dict) -> int:
    model, pi, _ = _resolve_problem(cfg)
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    probes = cfg.get("probes")
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
    manifest = RunManifest.start("check-assumptions", cfg, seed)
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


def _cmd_metrics(args, cfg: dict) -> int:
    if "samples_a" not in cfg or "samples_b" not in cfg:
        raise ConfigError("metrics needs samples_a and samples_b paths", "samples_a")
    a = _load_samples(cfg["samples_a"])
    b = _load_samples(cfg["samples_b"])
    if b.shape[1] != a.shape[1]:
        raise ConfigError(f"samples_b has {b.shape[1]} w_ columns, samples_a has {a.shape[1]}",
                          "samples_b")
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    out = {"n_a": len(a), "n_b": len(b), "p": a.shape[1]}
    out["w2"] = w2_ensembles(a, b, seed=seed)
    if a.shape == b.shape and a.shape[1] == 1:
        out["w2_1d"] = w2_1d(a[:, 0], b[:, 0])
    if a.shape == b.shape and a.shape[1] > 1:
        sl = w2_sliced(a, b, n_proj=cfg.get("reps", 64), seed=seed)
        out["w2_sliced"] = sl.value
        out["w2_sliced_stderr"] = sl.stderr
    out_dir = output_root(args.out) / f"metrics-seed{seed}"
    manifest = RunManifest.start("metrics", cfg, seed)
    path = out_dir / "distances.json"
    write_json(path, out)
    manifest.finish(out_dir, [path])
    print(f"[metrics] w2={out['w2']:.6g} -> {path}")
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    **dict.fromkeys(_STUDIES, _cmd_study),
    "stationary": _cmd_stationary,
    "check-assumptions": _cmd_check_assumptions,
    "metrics": _cmd_metrics,
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
        sp.add_argument("--snapshot-times", type=float, nargs="+", default=None)
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
        if args.command in _READS:
            _reject_unread(cfg, _READS[args.command], args.command)
        return _COMMANDS[args.command](args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
