"""Command-line front end.

One subcommand per study plus ``simulate`` (single engine run),
``stationary`` (fixed-point map), ``check-assumptions`` (hypothesis audit)
and ``metrics`` (distances between stored sample sets).  Each subcommand's
handler runs its config and returns an ``Outcome``; ``cli_dispatch`` alone
stamps the run's replayable manifest (before the run), writes the
outcome's files and the manifest under the output directory, and maps the
outcome to the exit code: with ``--strict`` a failed verdict, or a study
with no applicable verdict, turns into exit code 1; config errors exit 2.
A diverged study reports a failing ``diverged`` verdict; a diverged
``simulate`` or ``stationary`` exits 1 and writes nothing.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from functools import partial
from operator import attrgetter
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
    cannot_read,
    load_config,
    output_root,
    parse_config,
    read_csv_columns,
    save_trajectory,
    sha256_file,
    steady_heap,
    trajectory_to_csv,
    unread_fields,
    write_csv,
    write_json,
)
from .metrics import w2_1d, w2_ensembles, w2_sliced
from .model import Hyperparams, check_assumptions, gamma_scale, require
from .rng import NoisePlan
from .stationary import (GridDensity1D, NonEllipticNoise, UndecayedTails, fixed_point_iterate,
                         stationarity_check)

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
# stationary's iteration cap (fixed_point_iterate's own default is 100), and
# how many seeded probe weights in [-2, 2]^p check-assumptions audits
_FIXED_POINT_MAX_ITER = 200
_PROBES = 16
MAX_WORKERS = 32  # the widest --workers: a pool started under fork starts every worker at once


@dataclass(frozen=True)
class Outcome:
    """What a subcommand's run leaves for ``cli_dispatch`` to write and report."""

    name: str  # the manifest's command; the run directory is <name>-seed<seed>
    files: dict[str, Callable[[Path], object]]  # file name -> the writer of that file
    echo: Callable[[Path], object]  # prints the run's summary, given its directory
    derived: dict = field(default_factory=dict)  # the manifest's derived quantities
    ok: bool = True  # False: --strict exits 1


# ----------------------------- configs -----------------------------
# each subcommand's keys, defaults and ranges (the studies' are in experiments)


@dataclass(frozen=True)
class SimulateConfig:
    problem: xp.ProblemConfig = xp.ProblemConfig()
    hyper: Hyperparams = Hyperparams()
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
        if self.engine in ("sgd", "msgld"):
            self.hyper.sgd_steps(self.N)
        else:
            self.hyper.euler_steps()


@dataclass(frozen=True)
class StationaryConfig:
    problem: xp.ProblemConfig = xp.ProblemConfig()
    hyper: Hyperparams = Hyperparams()
    seed: int = 0
    horizon: float = 5.0
    grid_lo: float = -4.0
    grid_hi: float = 4.0
    n_cells: int = 512
    damping: float = 0.5
    N_ref: int = 4096

    def __post_init__(self):
        require(self.horizon >= 0, "horizon", "be >= 0", self.horizon)
        require(self.n_cells >= 4, "n_cells", "be >= 4", self.n_cells)
        require(0 < self.damping <= 1, "damping", "lie in (0, 1]", self.damping)
        require(self.N_ref >= 1, "N_ref", "be >= 1", self.N_ref)
        try:
            self.hyper.replace(T=self.horizon).euler_steps()
        except ConfigError as exc:
            if exc.field_name != "hyper.T":
                raise
            raise ConfigError(str(exc), "horizon") from exc


@dataclass(frozen=True)
class CheckAssumptionsConfig:
    problem: xp.ProblemConfig = xp.ProblemConfig()
    seed: int = 0


@dataclass(frozen=True)
class MetricsConfig:
    samples_a: str | None = None
    samples_b: str | None = None
    seed: int = 0

    def __post_init__(self):
        for name in ("samples_a", "samples_b"):
            require(getattr(self, name) is not None, name, "be the path of a sample file", None)


# ----------------------------- subcommands -----------------------------
# each handler takes (config, workers) and returns its Outcome


def _cmd_simulate(config: SimulateConfig, workers: int) -> Outcome:
    model, pi, init = config.problem.build()
    hyper, engine, N = config.hyper, config.engine, config.N
    traj = _ENGINES[engine](model, pi, hyper, N, init, NoisePlan(config.seed),
                            snapshot_times=config.snapshot_times)
    n_steps = traj.meta.get("n_steps")
    return Outcome(
        "simulate",
        {"trajectory.bin": partial(save_trajectory, traj),
         "trajectory.csv": partial(trajectory_to_csv, traj)},
        lambda out_dir: print(f"[simulate] {engine} N={N} steps={n_steps} -> {out_dir}"),
        derived={"gamma_scale": gamma_scale(hyper.alpha, hyper.beta, hyper.gamma, N),
                 "n_steps": n_steps, "dt": hyper.dt, "x_max": pi.x_max},
    )


def _print_verdicts(report: xp.StudyReport, out_dir: Path):
    for v in report.verdicts:
        status = "PASS" if v.passed else ("n/a" if v.passed is None else "FAIL")
        print(f"[{report.study_id}] {v.name}: {status} (measured {v.measured:.6g}, "
              f"threshold {v.op} {v.threshold:.6g})")
    if report.passed is None:
        print(f"[{report.study_id}] no applicable verdict: n/a")
    for w in report.warnings:
        print(f"[{report.study_id}] warning: {w}", file=sys.stderr)


def _cmd_study(study: str, config, workers: int) -> Outcome:
    # looked up at call time, so a wrapper installed on experiments is the one called
    report = getattr(xp, study)(config, workers=workers)
    files = {f"{name}.csv": partial(write_csv, rows=rows) for name, rows in report.tables.items()}
    files["verdicts.json"] = partial(write_json, obj={
        "study_id": report.study_id,
        "passed": report.passed,
        "verdicts": [asdict(v) for v in report.verdicts],
        "warnings": report.warnings,
        "elapsed_s": report.elapsed_s,
    })
    return Outcome(report.study_id, files, partial(_print_verdicts, report),
                   ok=report.passed is True)


def _cmd_stationary(config: StationaryConfig, workers: int) -> Outcome:
    model, pi, _ = config.problem.build()
    if model.p != 1:
        # with a dataset the dimension is its number of x_ columns
        field_name = "problem.p" if config.problem.dataset is None else "problem.dataset"
        raise ConfigError(f"config field {field_name}: the stationary map is defined for p = 1, "
                          f"got p={model.p}", field_name)
    try:
        mu0 = GridDensity1D.gaussian(0.0, 1.0, config.grid_lo, config.grid_hi, config.n_cells)
    except ValueError as exc:
        raise ConfigError(f"config fields grid_lo/grid_hi: {exc}", "grid_lo") from exc
    try:
        result = fixed_point_iterate(mu0, model, pi, config.hyper,
                                     max_iter=_FIXED_POINT_MAX_ITER, damping=config.damping)
    except NonEllipticNoise as exc:
        raise ConfigError(f"config fields problem.sigma_override/hyper.eta: {exc}",
                          "problem.sigma_override") from exc
    except UndecayedTails as exc:  # a window too narrow for the expansions to reach the tails
        raise ConfigError(f"config fields grid_lo/grid_hi: {exc}", "grid_lo") from exc
    # the check runs for its own horizon; hyper.T is not read
    drift = stationarity_check(result.density, model, pi, config.hyper, N_ref=config.N_ref,
                               horizon=config.horizon, plan=NoisePlan(config.seed))
    derived = {"converged": result.converged, "iterations": result.iterations,
               "residual": result.residual, "w2_drift": drift}
    density = [{"w": repr(float(w)), "density": repr(float(v))}
               for w, v in zip(result.density.centers, result.density.values)]
    return Outcome(
        "stationary",
        {"density.csv": partial(write_csv, rows=density),
         "report.json": partial(write_json, obj={**derived, "residual_history": result.history})},
        lambda out_dir: print(f"[stationary] converged={result.converged} iterations="
                              f"{result.iterations} residual={result.residual:.3e} "
                              f"w2_drift={drift:.4f}"),
        derived, ok=result.converged,
    )


def _print_check(report, out_dir: Path):
    print(f"[check-assumptions] ok={report.ok} checks={report.n_checks} "
          f"violations={len(report.violations)}")
    for v in report.violations:
        print(f"  {v}")


def _cmd_check_assumptions(config: CheckAssumptionsConfig, workers: int) -> Outcome:
    model, pi, _ = config.problem.build()
    probes = np.random.default_rng(config.seed).uniform(-2, 2, size=(_PROBES, model.p))
    report = check_assumptions(model, pi, probes)
    return Outcome(
        "check-assumptions",
        {"report.json": partial(write_json, obj={
            "ok": report.ok,
            "n_checks": report.n_checks,
            "moment_value": report.moment_value,
            "violations": [str(v) for v in report.violations],
        })},
        partial(_print_check, report),
        ok=report.ok,
    )


def _read_input(what: str, path: str, read):
    """``read(path)``; a file it cannot read (missing, a directory, not UTF-8 text)
    is a ConfigError naming ``what``, the flag or config field that gave the path."""
    try:
        return read(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{what}: {cannot_read(path, exc)}") from exc


def _load_samples(path: str) -> np.ndarray:
    """The w_1..w_p columns of a sample CSV, each cell finite."""
    _, samples, lines = read_csv_columns(path, "sample file", "w_")
    finite = np.isfinite(samples).all(axis=1)
    if not finite.all():
        raise ConfigError(f"sample file {path} line {lines[np.argmin(finite)]}: non-finite cell")
    return samples


def _cmd_metrics(config: MetricsConfig, workers: int) -> Outcome:
    a = _read_input("config field samples_a", config.samples_a, _load_samples)
    b = _read_input("config field samples_b", config.samples_b, _load_samples)
    if b.shape[1] != a.shape[1]:
        raise ConfigError(f"samples_b has {b.shape[1]} w_ columns, samples_a has {a.shape[1]}",
                          "samples_b")
    if a.shape[1] > 1 and len(b) != len(a):
        raise ConfigError(f"samples_b has {len(b)} rows, samples_a has {len(a)}: above p = 1 "
                          "the distances need equal sample counts", "samples_b")
    seed = config.seed
    out = {"n_a": len(a), "n_b": len(b), "p": a.shape[1]}
    out["w2"] = w2_ensembles(a, b, seed=seed)
    if a.shape == b.shape and a.shape[1] == 1:
        out["w2_1d"] = w2_1d(a[:, 0], b[:, 0])
    if a.shape[1] > 1:
        sl = w2_sliced(a, b, seed=seed)
        out["w2_sliced"] = sl.value
        out["w2_sliced_stderr"] = sl.stderr
    return Outcome(
        "metrics",
        {"distances.json": partial(write_json, obj=out)},
        lambda out_dir: print(f"[metrics] w2={out['w2']:.6g} -> {out_dir / 'distances.json'}"),
    )


def _input_files(config) -> list[tuple[str, str]]:
    """The files a config's run reads, each as (its config field, its path)."""
    if isinstance(config, MetricsConfig):
        return [("config field samples_a", config.samples_a),
                ("config field samples_b", config.samples_b)]
    dataset = config.problem.dataset
    return [] if dataset is None else [("config field problem.dataset", dataset)]


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


# the leaves each run never reads, simulate's by engine: _parse refuses one that a
# config sets to other than its config class's default
_UNREAD = {
    "regime": ("hyper.beta", "hyper.dt", "problem.sigma_override"),  # an SGD recursion per beta
    "gamma-sweep": ("hyper.beta", "hyper.gamma", "batches"),  # each run's gamma is from gammas
    "batch-sweep": ("hyper.beta", "hyper.M", "gammas"),  # and its M from batches
    "histograms": ("hyper.beta",),
    "consistency": ("problem.sigma_override",),
    # not yet hyper.T (the run reads horizon): perfbench reads horizon from stationary.json
    "stationary": ("hyper.beta", "problem.init_kind", "problem.init_low", "problem.init_high",
                   "problem.init_w0"),
    "check-assumptions": ("problem.penalty", "problem.sigma_override", "problem.init_kind",
                          "problem.init_low", "problem.init_high", "problem.init_w0"),
    "simulate": {"sgd": ("hyper.dt", "hyper.eta", "problem.sigma_override"),
                 "msgld": ("hyper.dt", "problem.sigma_override"),
                 "meanfield-ode": ("hyper.beta", "hyper.gamma", "hyper.M",
                                   "problem.sigma_override"),
                 "meanfield-sde": ("hyper.beta",)},
}


def _parse(command: str, raw: dict):
    """``command``'s config from the JSON object ``raw`` (``parse_config``); a leaf of
    ``_UNREAD`` that ``raw`` sets to other than its default is a ConfigError naming it."""
    cls = _COMMANDS[command][0]
    config = parse_config(cls, raw, command)
    unread, reader = _UNREAD.get(command, ()), command
    if command == "simulate":
        unread, reader = unread.get(config.engine, ()), f"simulate with engine {config.engine}"
    given = {*raw, *(f"{key}.{leaf}" for key, value in raw.items() if isinstance(value, dict)
                     for leaf in value)}
    changed = [path for path in unread
               if path in given and attrgetter(path)(config) != attrgetter(path)(cls)]
    if changed:
        raise unread_fields(changed, reader)
    return config


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
    return parser


def cli_dispatch(argv: list[str]) -> int:
    steady_heap()  # every step's temporaries reuse the pages the last step faulted in
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        require(1 <= args.workers <= MAX_WORKERS, "--workers", f"lie in [1, {MAX_WORKERS}]",
                args.workers)
        cfg = _read_input("--config", args.config, load_config) if args.config else {}
        if args.seed is not None:
            cfg["seed"] = args.seed
        config = _parse(args.command, cfg)
        require(config.seed >= 0, "seed", "be >= 0", config.seed)  # as numpy's default_rng needs
        root = output_root(args.out)
        # checked before the run, which would otherwise end in an OSError at the first write
        nearest = next(d for d in (root, *root.parents) if d.exists())
        if not (nearest.is_dir() and os.access(nearest, os.W_OK)):
            raise ConfigError(f"--out {root}: {nearest} is not a writable directory", "--out")
        # the manifest echoes the raw dict and is stamped before the run; the
        # command runs on its dataclass
        manifest = RunManifest.start(args.command, cfg, config.seed, workers=args.workers)
        manifest.inputs = {str(Path(path).resolve()): _read_input(what, path, sha256_file)
                           for what, path in _input_files(config)}
        outcome = _COMMANDS[args.command][1](config, args.workers)
        out_dir = root / f"{outcome.name}-seed{config.seed}"
        try:
            for name, write in outcome.files.items():
                write(out_dir / name)
            manifest.command, manifest.derived = outcome.name, outcome.derived
            manifest.finish(out_dir, [out_dir / name for name in outcome.files])
        except OSError as exc:  # such as a file where the run directory goes
            raise ConfigError(f"--out {root}: cannot write {exc.filename or out_dir}: "
                              f"{exc.strerror or exc}", "--out") from exc
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # sizes that pass every check yet do not fit in this machine
        print(f"config error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EnsembleDiverged as exc:  # a study reports it as a verdict; a single run has no report
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    outcome.echo(out_dir)
    return EXIT_VERDICT if args.strict and not outcome.ok else EXIT_OK


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
