"""The benchmark's workloads: which CLI calls they make, on which configs.

Every workload is a closed loop of ``chaoslab`` CLI calls on configs
generated from the shipped ``configs/*.json``.  Why each workload was chosen
is in ``WORKLOADS.md``.  The particle-step counts below are the work the
generated configs request, counted from the configs with the engines' step
rules, not measured from the program.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

STUDY_COMMANDS = {"chaos-rate", "regime", "gamma-sweep", "batch-sweep", "histograms", "consistency"}


@dataclass(frozen=True)
class Call:
    """One CLI call: a subcommand on a shipped config with some fields replaced."""

    command: str
    config: str  # file name under configs/
    overrides: dict = field(default_factory=dict)

    def build_config(self, configs_dir: Path) -> dict:
        cfg = json.loads((configs_dir / self.config).read_text(encoding="utf-8"))
        return _merge(cfg, self.overrides)


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple[Call, ...]


@dataclass(frozen=True)
class Launch:
    """A call with its generated config written to disk."""

    index: int
    command: str
    config_path: Path
    config: dict

    def cli_args(self, seed: int | None, workers: int, out: Path) -> list[str]:
        args = [self.command, "--config", str(self.config_path), "--workers", str(workers),
                "--strict", "--out", str(out)]
        if seed is not None:
            args += ["--seed", str(seed)]
        return args


WORKLOADS = {
    w.name: w
    for w in (
        Workload("coupling", (Call("chaos-rate", "chaos-rate.json"),)),
        Workload("noise-p4", (
            Call("batch-sweep", "sweep.json", {"problem": {"p": 4}, "N_ref": 512}),
        )),
        Workload("cli-short", (
            Call("simulate", "simulate.json", {"N": 4096}),
            Call("stationary", "stationary.json"),
            Call("regime", "regime.json"),
            Call("consistency", "consistency.json"),
            Call("check-assumptions", "check-assumptions.json"),
        )),
    )
}


def _merge(base: dict, overrides: dict) -> dict:
    out = dict(base)
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def write_launches(workload: Workload, configs_dir: Path, dest: Path) -> list[Launch]:
    """Write the workload's generated configs under ``dest``; one launch per call."""
    dest.mkdir(parents=True, exist_ok=True)
    launches = []
    for i, call in enumerate(workload.calls):
        cfg = call.build_config(configs_dir)
        path = dest / f"{i}-{call.command}.json"
        path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        launches.append(Launch(i, call.command, path, cfg))
    return launches


# ----------------------------- particle-step counts -----------------------------


def _euler_steps(T: float, dt: float) -> int:
    return int(round(T / dt))


def _sgd_steps(hyper: dict, N: int) -> int:
    """Iterations of the discrete recursion: floor(T / gamma_scale(N))."""
    alpha = hyper.get("alpha", 0.0)
    g = hyper["gamma"] ** (1.0 / (1.0 - alpha)) * float(N) ** ((hyper["beta"] - 1.0) / (1.0 - alpha))
    return int(math.floor(hyper["T"] / g + 1e-12))


def particle_steps(command: str, cfg: dict) -> int:
    """Particle-steps one CLI call requests; a particle advanced by one step counts 1."""
    hyper = cfg.get("hyper", {})
    if command == "chaos-rate":
        per_step = sum(cfg["N_grid"]) + cfg["m"] + cfg["N_ref"]
        return cfg["reps"] * _euler_steps(hyper["T"], hyper["dt"]) * per_step
    if command == "batch-sweep":
        # one SDE run and one ODE run of N_ref particles per batch size and rep
        return len(cfg["batches"]) * cfg["reps"] * 2 * cfg["N_ref"] * _euler_steps(hyper["T"], hyper["dt"])
    if command == "simulate" and cfg["engine"] == "interacting-sde":
        return cfg["N"] * _euler_steps(hyper["T"], hyper["dt"])
    if command == "stationary":
        return cfg["N_ref"] * _euler_steps(cfg["horizon"], hyper["dt"])
    if command == "regime" and cfg.get("engine", "sgd") == "sgd" \
            and cfg.get("problem", {}).get("init_kind") == "dirac":
        # the shared-minibatch Dirac ensemble is simulated as one particle with
        # stepsize gamma * N^(beta-1) at beta = 1
        return sum(cfg["seeds"] * _sgd_steps({**hyper, "beta": 1.0,
                                              "gamma": hyper["gamma"] * float(N) ** (beta - 1.0)}, 1)
                   for beta in cfg["betas"] for N in cfg["N_grid"])
    if command == "consistency":
        # one SGD run and one interacting-SDE run per grid size and rep
        return sum(cfg["reps"] * N * (_sgd_steps(hyper, N) + _euler_steps(hyper["T"], hyper["dt"]))
                   for N in cfg["N_grid"])
    if command == "check-assumptions":
        return 0
    raise ValueError(f"no particle-step rule for this {command!r} config")


def workload_particle_steps(launches: list[Launch]) -> int:
    return sum(particle_steps(l.command, l.config) for l in launches)
