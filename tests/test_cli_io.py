"""Configs, dataset ingestion, trajectory persistence, CLI surface."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import chaoslab
from chaoslab.cli import _COMMANDS, EXIT_CONFIG, EXIT_OK, EXIT_VERDICT, SimulateConfig, cli_dispatch
from chaoslab.dynamics import InitSpec, Trajectory, interacting_sde_run
from chaoslab.io import (
    _CSV_BLOCK_ROWS,
    ConfigError,
    load_config,
    load_dataset,
    load_trajectory,
    parse_config,
    save_dataset,
    save_trajectory,
    sha256_file,
    trajectory_to_csv,
    write_csv,
)
from chaoslab.model import Hyperparams, make_model, two_point_distribution
from chaoslab.rng import NoisePlan


def small_trajectory():
    model = make_model("tanh-dot", "square")
    pi = two_point_distribution([1.0], 1.0, [-1.0], -0.5)
    h = Hyperparams(alpha=0.0, beta=1.0, gamma=0.5, M=1, T=0.1, dt=0.05, eta=0.1)
    return interacting_sde_run(model, pi, h, 3, InitSpec.uniform(), NoisePlan(7),
                               snapshot_times="all")


class TestConfigSchema:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(SimulateConfig, {"hyperr": {}}, "simulate")

    def test_alpha_one_rejected_with_field_name(self):
        with pytest.raises(ConfigError) as err:
            parse_config(SimulateConfig, {"hyper": {"alpha": 1.0}}, "simulate")
        assert "alpha" in str(err.value)

    def test_valid_config_roundtrip(self, tmp_path):
        cfg = {"hyper": {"alpha": 0.0, "gamma": 0.5}, "N": 16, "seed": 3}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert load_config(path) == cfg

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)


CONFIGS = Path(__file__).parent.parent / "configs"


class TestShippedConfigs:
    def test_all_example_configs_validate(self):
        configs = sorted((Path(__file__).parent.parent / "configs").glob("*.json"))
        assert len(configs) >= 8
        for path in configs:
            # each subcommand that reads the config; sweep.json feeds both sweeps
            for command in ("gamma-sweep", "batch-sweep") if path.stem == "sweep" else (path.stem,):
                parse_config(_COMMANDS[command][0], load_config(path), command)

    @pytest.mark.parametrize("command, name", [
        ("chaos-rate", "chaos-rate.json"), ("regime", "regime.json"),
        ("gamma-sweep", "sweep.json"), ("batch-sweep", "sweep.json"),
        ("histograms", "histograms.json"), ("consistency", "consistency.json"),
    ])
    def test_study_configs_hold_only_keys_their_study_reads(self, command, name):
        parse_config(_COMMANDS[command][0], load_config(CONFIGS / name), command)

    # simulate with N = 4096 is the benchmark's override of the shipped config
    @pytest.mark.parametrize("command, name, overrides", [
        ("simulate", "simulate.json", {}), ("simulate", "simulate.json", {"N": 4096}),
        ("stationary", "stationary.json", {}), ("check-assumptions", "check-assumptions.json", {}),
    ])
    def test_the_other_subcommands_run_their_shipped_configs(self, tmp_path, command, name,
                                                             overrides):
        cfg_path = tmp_path / name
        cfg_path.write_text(json.dumps({**load_config(CONFIGS / name), **overrides}))
        assert cli_dispatch([command, "--config", str(cfg_path), "--out", str(tmp_path)]) == EXIT_OK


class TestDatasetIO:
    def test_weights_normalized(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x_1,y,weight\n0.5,1.0,0.25\n-0.5,-1.0,0.75\n")
        pi = load_dataset(path)
        np.testing.assert_allclose(pi.weights, [0.25, 0.75])
        assert pi.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_uniform_weights_by_default(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x_1,x_2,y\n0.5,1.0,1.0\n-0.5,0.0,-1.0\n1.0,1.0,0.0\n")
        pi = load_dataset(path)
        assert pi.d == 2
        np.testing.assert_allclose(pi.weights, 1 / 3)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x_1,y\n0.5,1.0\nbogus,2.0\n")
        with pytest.raises(ConfigError, match="line 3"):
            load_dataset(path)

    def test_nan_feature_rejected_with_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x_1,y\n0.5,1.0\nnan,2.0\n")
        with pytest.raises(ConfigError, match="line 3.*atom x"):
            load_dataset(path)

    def test_inf_weight_rejected_with_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x_1,y,weight\n0.5,1.0,inf\n-0.5,-1.0,1.0\n")
        with pytest.raises(ConfigError, match="line 2.*atom weight"):
            load_dataset(path)

    def test_missing_columns(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ConfigError):
            load_dataset(path)

    def test_save_load_roundtrip(self, tmp_path):
        pi = two_point_distribution([0.123456789012345], 1.0, [-1.0], -0.5, w0=0.3)
        path = tmp_path / "d.csv"
        save_dataset(pi, path)
        back = load_dataset(path)
        np.testing.assert_array_equal(back.xs, pi.xs)
        np.testing.assert_array_equal(back.weights, pi.weights)


class TestTrajectoryIO:
    def test_bitwise_roundtrip(self, tmp_path):
        traj = small_trajectory()
        path = tmp_path / "t.bin"
        save_trajectory(traj, path)
        back = load_trajectory(path)
        np.testing.assert_array_equal(back.times, traj.times)
        np.testing.assert_array_equal(back.ensembles, traj.ensembles)
        assert back.kind == traj.kind
        assert back.hyper == traj.hyper
        assert traj.law_path.shape == (2, 2) and back.law_path is None  # not saved

    def test_truncated_file_rejected(self, tmp_path):
        traj = small_trajectory()
        path = tmp_path / "t.bin"
        save_trajectory(traj, path)
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(ValueError, match="checksum|trajectory"):
            load_trajectory(path)

    def test_corrupted_payload_rejected(self, tmp_path):
        traj = small_trajectory()
        path = tmp_path / "t.bin"
        save_trajectory(traj, path)
        data = bytearray(path.read_bytes())
        data[60] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="checksum"):
            load_trajectory(path)

    def test_csv_export_full_precision(self, tmp_path):
        traj = small_trajectory()
        path = tmp_path / "t.csv"
        trajectory_to_csv(traj, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "time,particle,w_1"
        # re-parse reproduces the coordinates bitwise
        vals = [float(line.split(",")[2]) for line in lines[1:1 + traj.n_particles]]
        np.testing.assert_array_equal(vals, traj.ensembles[0][:, 0])


    def test_csv_export_matches_dict_per_row_reference(self, tmp_path):
        # awkward floats: short and long reprs, signed zero, exponent forms
        times = np.array([0.0, 1e-05, 123456789.0])
        ens = np.array([
            [[1e-05, -0.0], [1e16, 123456789.0], [5e-324, 1.7976931348623157e308]],
            [[-1e-300, 0.1], [1 / 3, -2.5e-17], [1e22, -1e16]],
            [[0.0, -123456789.0], [2.0 ** -1074, 9.999999999999999e15], [-0.0, 1e-05]],
        ])
        traj = Trajectory("test", times, ens, Hyperparams())
        path = tmp_path / "t.csv"
        trajectory_to_csv(traj, path)
        # the dict-per-row formula the export replaced
        rows = []
        for t, snap in zip(times, ens):
            for k in range(snap.shape[0]):
                row = {"time": repr(float(t)), "particle": k}
                for j in range(snap.shape[1]):
                    row[f"w_{j+1}"] = repr(float(snap[k, j]))
                rows.append(row)
        ref = tmp_path / "ref.csv"
        write_csv(ref, rows)
        assert path.read_bytes() == ref.read_bytes()
        assert path.read_text().split("\n")[0] == "time,particle,w_1,w_2"


class TestCsvWriter:
    def test_preformatted_rows_match_dict_rows(self, tmp_path):
        dict_rows = [{"a": 0.5, "b": 3, "c": "x"}, {"a": -0.0, "b": 4, "c": "y"}]
        cells = [("0.5", "3", "x"), ("-0.0", "4", "y")]
        write_csv(tmp_path / "d.csv", dict_rows)
        write_csv(tmp_path / "c.csv", iter(cells), columns=["a", "b", "c"])
        assert (tmp_path / "d.csv").read_bytes() == (tmp_path / "c.csv").read_bytes()
        assert (tmp_path / "c.csv").read_text() == "a,b,c\n0.5,3,x\n-0.0,4,y\n"

    def test_no_rows_writes_empty_file(self, tmp_path):
        write_csv(tmp_path / "d.csv", [])
        write_csv(tmp_path / "c.csv", iter(()), columns=["a"])
        assert (tmp_path / "d.csv").read_bytes() == b""
        assert (tmp_path / "c.csv").read_bytes() == b""

    def test_floats_roundtrip_bitwise(self, tmp_path):
        rows = [{"a": 1 / 3, "b": 1e-17}, {"a": 2 / 7, "b": 123.456e300}]
        path = tmp_path / "x.csv"
        write_csv(path, rows)
        lines = path.read_text().strip().split("\n")
        got = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert got[0][0] == 1 / 3 and got[1][1] == 123.456e300


class TestStreamedIO:
    def test_failing_rows_leave_the_earlier_file_and_no_tmp(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, [{"a": 1}])

        def rows():
            yield from ((str(k),) for k in range(_CSV_BLOCK_ROWS))  # the first block
            raise RuntimeError("row source failed")

        with pytest.raises(RuntimeError, match="row source failed"):
            write_csv(path, rows(), columns=["a"])
        assert path.read_bytes() == b"a\n1\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]

    @staticmethod
    def traced_peak(fn, *args) -> int:
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_outputs_are_written_and_hashed_in_bounded_memory(self, tmp_path):
        # the simulate benchmark's shape: 65 snapshots of 4096 particles
        ens = np.random.default_rng(0).standard_normal((65, 4096, 1))
        traj = Trajectory("interacting-sde", np.linspace(0.0, 1.0, 65), ens, Hyperparams())
        csv_path, bin_path = tmp_path / "t.csv", tmp_path / "t.bin"
        csv_peak = self.traced_peak(trajectory_to_csv, traj, csv_path)
        bin_peak = self.traced_peak(save_trajectory, traj, bin_path)
        for path, peak in [(csv_path, csv_peak), (bin_path, bin_peak)]:
            size = path.stat().st_size
            assert peak < size / 4, (path.name, peak, size)
            assert self.traced_peak(sha256_file, path) < size / 4
        # reading holds the file and the copied ensemble, nothing more
        load_peak = self.traced_peak(load_trajectory, bin_path)
        assert load_peak < 2.2 * bin_path.stat().st_size


# scipy is imported only inside w2_exact, and the config dataclasses are the
# only config schema; a fresh interpreter shows both
@pytest.mark.parametrize("module", ["scipy", "jsonschema"])
def test_cli_import_leaves_scipy_out(module):
    code = f"import sys, chaoslab.cli; print({module!r} in sys.modules)"
    src = str(Path(chaoslab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"


def test_code_version_without_git_is_the_package_version(tmp_path):
    # no git on PATH: the version comes from chaoslab.__version__, not importlib.metadata
    code = ("import sys; from chaoslab.io import RunManifest; "
            "print(RunManifest.start('simulate', {}, 0).code_version, "
            "'importlib.metadata' in sys.modules)")
    src = str(Path(chaoslab.__file__).resolve().parents[1])
    env = {**os.environ, "PATH": str(tmp_path), "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env, cwd=tmp_path)
    assert out.stdout.split() == ["chaoslab-0.1.0", "False"]


# an init box this far out crosses the moment ceiling at the first step
DIVERGING_BOX = {"init_low": 19000.0, "init_high": 20000.0}


def _reject_constant(constant):
    """A ``json.loads`` hook that refuses the bare NaN and Infinity strict JSON has not."""
    raise ValueError(f"{constant} is not JSON")


class TestCliDispatch:
    def run(self, tmp_path, command, cfg, *extra):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        return cli_dispatch([command, "--config", str(cfg_path),
                             "--out", str(tmp_path / "out"), *extra])

    def test_unknown_subcommand_exits_config(self):
        assert cli_dispatch(["frobnicate"]) == EXIT_CONFIG

    def test_invalid_alpha_exits_config(self, tmp_path, capsys):
        rc = self.run(tmp_path, "simulate", {"hyper": {"alpha": 1.0}})
        assert rc == EXIT_CONFIG
        assert "alpha" in capsys.readouterr().err

    def test_inverted_init_box_exits_config(self, tmp_path, capsys):
        cfg = {"problem": {"init_low": 1.0, "init_high": -1.0}, "N_grid": [4, 8], "seed": 1}
        assert self.run(tmp_path, "chaos-rate", cfg) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "problem" in err and "low" in err and "high" in err

    def test_non_finite_dataset_exits_config(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("x_1,y\n0.5,nan\n")
        rc = self.run(tmp_path, "check-assumptions", {"dataset": str(data)})
        assert rc == EXIT_CONFIG
        assert "atom y" in capsys.readouterr().err

    def test_no_applicable_verdict_fails_strict(self, tmp_path, capsys):
        cfg = {"hyper": {"T": 1.0, "dt": 0.1, "gamma": 0.5}, "betas": [1.0], "N_grid": [64],
               "seeds": 4, "seed": 1, "problem": {"init_kind": "dirac", "init_w0": 0.0}}
        assert self.run(tmp_path, "regime", cfg, "--strict") == 1
        assert "no applicable verdict: n/a" in capsys.readouterr().out
        assert self.run(tmp_path, "regime", cfg) == EXIT_OK  # non-strict
        verdicts = json.loads((tmp_path / "out" / "two-regime-seed1" / "verdicts.json").read_text())
        assert verdicts["passed"] is None

    @pytest.mark.parametrize("command, cfg", [
        ("simulate", {"engine": "interacting-sde", "N": 4}),
        ("chaos-rate", {"N_grid": [4, 8, 16, 32], "m": 2, "N_ref": 64, "reps": 2}),
    ])
    def test_fractional_horizon_exits_config(self, tmp_path, capsys, command, cfg):
        cfg = {**cfg, "hyper": {"T": 1.0, "dt": 0.3}, "seed": 1}
        assert self.run(tmp_path, command, cfg) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config field T" in err and "dt=0.3" in err

    def test_stationary_fractional_horizon_exits_config(self, tmp_path, capsys):
        cfg = {"problem": {"feature": "zero", "penalty": 1.0}, "hyper": {"dt": 0.3},
               "sigma_override": 1.0, "horizon": 1.0, "seed": 1}
        assert self.run(tmp_path, "stationary", cfg) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config field horizon" in err and "dt=0.3" in err

    def test_regime_floor_threshold_is_read_from_the_config(self, tmp_path):
        cfg = {"hyper": {"T": 1.0, "dt": 0.1, "gamma": 0.5}, "betas": [1.0], "N_grid": [16, 64],
               "seeds": 2, "seed": 1, "floor_jitter": 0.4,
               "problem": {"init_kind": "dirac", "init_w0": 0.0}}
        assert self.run(tmp_path, "regime", cfg) == EXIT_OK
        verdicts = json.loads((tmp_path / "out" / "two-regime-seed1" / "verdicts.json").read_text())
        floor = next(v for v in verdicts["verdicts"] if v["name"] == "floor_beta_1")
        assert floor["threshold"] == 0.4

    def test_regime_tables_equal_at_one_and_two_workers(self, tmp_path):
        cfg = {"hyper": {"T": 1.0, "dt": 0.1, "gamma": 0.5}, "betas": [0.75, 1.0],
               "N_grid": [16, 64, 256], "seeds": 4, "seed": 1,
               "problem": {"init_kind": "dirac", "init_w0": 0.0}}
        tables = []
        for workers in ("1", "2"):
            (tmp_path / workers).mkdir()
            assert self.run(tmp_path / workers, "regime", cfg, "--workers", workers) == EXIT_OK
            tables.append((tmp_path / workers / "out" / "two-regime-seed1" / "deviations.csv")
                          .read_bytes())
        assert tables[0] == tables[1]

    def test_sgd_regime_ignores_dt(self, tmp_path):
        # the discrete recursions never take an Euler step
        cfg = {"hyper": {"T": 1.0, "dt": 0.3, "gamma": 0.5}, "betas": [0.75, 1.0],
               "N_grid": [16, 64], "seeds": 2, "seed": 1,
               "problem": {"init_kind": "dirac", "init_w0": 0.0}}
        assert self.run(tmp_path, "regime", cfg) == EXIT_OK

    def test_study_rejects_keys_it_does_not_read(self, tmp_path, capsys):
        cfg = {"dataset": "d.csv", "sigma_override": 1.0, "engine": "sgd", "N": 8,
               "N_grid": [16, 64], "reps": 2, "seed": 1}
        assert self.run(tmp_path, "consistency", cfg) == EXIT_CONFIG
        assert "config fields N, dataset, engine, sigma_override:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, cfg, unread", [
        ("check-assumptions", {"N_grid": [4, 8], "engine": "sgd", "sigma_override": 1.0},
         "N_grid, engine, sigma_override"),
        ("simulate", {"N_ref": 99, "reps": 3, "N": 4}, "N_ref, reps"),
        ("stationary", {"engine": "sgd", "snapshot_times": [0.1], "sigma_override": 1.0},
         "engine, snapshot_times"),
        ("metrics", {"samples_a": "a.csv", "samples_b": "b.csv", "N": 4}, "N"),
    ])
    def test_subcommand_rejects_keys_it_does_not_read(self, tmp_path, capsys, command, cfg,
                                                      unread):
        assert self.run(tmp_path, command, cfg) == EXIT_CONFIG
        assert f"config fields {unread}: {command} does not read them" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_stationary_names_the_dataset_whose_dimension_is_not_one(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("x_1,x_2,y\n0.5,1.0,1.0\n-0.5,0.0,-1.0\n")
        cfg = {"dataset": str(data), "sigma_override": 1.0}
        assert self.run(tmp_path, "stationary", cfg) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config field dataset: the stationary map is defined for p = 1, got p=2" in err
        assert "problem.p" not in err

    @pytest.mark.parametrize("command, cfg, field", [
        ("stationary", {"problem": {"p": 2}, "sigma_override": 1.0}, "field problem.p"),
        ("stationary", {"grid_lo": 1.0, "sigma_override": 1.0}, "fields grid_lo/grid_hi"),
        ("stationary", {"problem": {"feature": "zero", "penalty": 1.0}},
         "fields sigma_override/hyper.eta"),
        ("check-assumptions", {"probes": [[1.0, 2.0]]}, "field probes"),
        ("check-assumptions", {"probes": []}, "field probes"),
        ("simulate", {"engine": "sgd", "N": 4, "hyper": {"T": 0.01, "gamma": 0.5}}, "field T"),
        ("simulate", {"engine": "interacting-sde", "N": 4, "hyper": {"T": 0.2, "dt": 0.05},
                      "snapshot_times": [9]}, "field snapshot_times"),
        # engines the study does not run
        ("regime", {"engine": "meanfield-ode", "hyper": {"T": 1.0, "dt": 0.1, "gamma": 0.5},
                    "betas": [1.0], "N_grid": [16], "seeds": 2}, "field engine"),
        ("histograms", {"engine": "msgld", "hyper": {"T": 1.0, "dt": 0.1, "gamma": 0.5},
                        "betas": [1.0], "N_grid": [16, 32, 64], "reps": 1}, "field engine"),
        # sizes the coupling harness refuses: more companions than the smallest
        # system has particles, a reference smaller than the largest system
        ("chaos-rate", {"N_grid": [4, 8, 16, 32], "m": 8}, "field m"),
        ("chaos-rate", {"N_ref": 16}, "field N_ref"),
    ])
    def test_bad_input_exits_config_naming_the_field(self, tmp_path, capsys, command, cfg, field):
        assert self.run(tmp_path, command, {**cfg, "seed": 1}) == EXIT_CONFIG
        assert f"config {field}:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # one row per config key: a value that breaks the key's type, range or enum,
    # given to a subcommand that reads the key
    @pytest.mark.parametrize("command, cfg, key", [
        ("simulate", {"hyper": {"alpha": 1.0}}, "alpha"),
        ("simulate", {"hyper": {"beta": 1.5}}, "beta"),
        ("simulate", {"hyper": {"gamma": 0}}, "gamma"),
        ("simulate", {"hyper": {"M": 0.5}}, "M"),
        ("simulate", {"hyper": {"eta": -0.1}}, "eta"),
        ("simulate", {"hyper": {"T": -1.0}}, "T"),
        ("simulate", {"hyper": {"dt": 0}}, "dt"),
        ("simulate", {"problem": {"feature": 3}}, "feature"),
        ("check-assumptions", {"problem": {"loss": ["square"]}}, "loss"),
        ("simulate", {"problem": {"penalty": -0.5}}, "penalty"),
        ("check-assumptions", {"problem": {"p": 0}}, "p"),
        ("chaos-rate", {"problem": {"labels": "bogus"}}, "labels"),
        ("regime", {"problem": {"teacher": "high"}}, "teacher"),
        ("histograms", {"problem": {"init_kind": "gauss"}}, "init_kind"),
        ("consistency", {"problem": {"init_low": "a"}}, "init_low"),
        ("gamma-sweep", {"problem": {"init_high": None}}, "init_high"),
        ("batch-sweep", {"problem": {"init_w0": True}}, "init_w0"),
        ("simulate", {"dataset": 3}, "dataset"),
        ("simulate", {"engine": "euler"}, "engine"),
        ("regime", {"statistic": "median"}, "statistic"),
        ("simulate", {"N": 0}, "N"),
        ("regime", {"N_grid": [0]}, "N_grid"),
        ("gamma-sweep", {"N_ref": 0}, "N_ref"),
        ("chaos-rate", {"m": 0}, "m"),
        ("histograms", {"reps": 0}, "reps"),
        ("simulate", {"seed": "7"}, "seed"),
        ("regime", {"seeds": 1}, "seeds"),
        ("histograms", {"betas": [1.5]}, "betas"),
        ("gamma-sweep", {"gammas": [0]}, "gammas"),
        ("batch-sweep", {"batches": [0]}, "batches"),
        ("simulate", {"snapshot_times": [-1.0]}, "snapshot_times"),
        ("stationary", {"sigma_override": -1.0}, "sigma_override"),
        ("histograms", {"n_bins": 1}, "n_bins"),
        ("stationary", {"n_cells": 3}, "n_cells"),
        ("stationary", {"grid_lo": "a"}, "grid_lo"),
        ("stationary", {"grid_hi": None}, "grid_hi"),
        ("stationary", {"tol": -1.0}, "tol"),
        ("stationary", {"max_iter": 0}, "max_iter"),
        ("stationary", {"damping": 1.5}, "damping"),
        ("stationary", {"horizon": -1.0}, "horizon"),
        ("chaos-rate", {"slope_threshold": "steep"}, "slope_threshold"),
        ("chaos-rate", {"endpoint_ratio": 0}, "endpoint_ratio"),
        ("regime", {"ratio_threshold": 0}, "ratio_threshold"),
        ("consistency", {"decrease_factor": 0}, "decrease_factor"),
        ("consistency", {"budget_s": 0}, "budget_s"),
        ("check-assumptions", {"probes": [[1.0, "a"]]}, "probes"),
        ("metrics", {"samples_a": 3, "samples_b": "b.csv"}, "samples_a"),
        ("metrics", {"samples_a": "a.csv", "samples_b": ["b.csv"]}, "samples_b"),
    ])
    def test_config_key_boundary(self, tmp_path, capsys, command, cfg, key):
        assert self.run(tmp_path, command, cfg) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert re.search(rf"config fields? \S*\b{key}\b", err), err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("engine", ["sgd", "msgld"])
    def test_sigma_override_on_discrete_engine_exits_config(self, tmp_path, capsys, engine):
        cfg = {"engine": engine, "N": 4, "sigma_override": 1.0, "seed": 1,
               "hyper": {"T": 0.2, "gamma": 0.1}}
        assert self.run(tmp_path, "simulate", cfg) == EXIT_CONFIG
        assert "sigma_override" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_simulate_writes_outputs_and_manifest(self, tmp_path):
        cfg = {"hyper": {"T": 0.2, "dt": 0.05, "gamma": 0.5}, "N": 4,
               "engine": "interacting-sde", "seed": 1}
        rc = self.run(tmp_path, "simulate", cfg, "--workers", "2")
        assert rc == EXIT_OK
        out = tmp_path / "out" / "simulate-seed1"
        assert (out / "trajectory.bin").exists()
        assert (out / "trajectory.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 1
        env = manifest["environment"]
        assert env["workers"] == 2 and env["numpy"] == np.__version__
        assert env["python"] == ".".join(map(str, sys.version_info[:3]))
        assert env["cpu_count"] == os.cpu_count() and env["platform"]
        assert set(manifest["outputs"]) == {"trajectory.bin", "trajectory.csv"}
        traj = load_trajectory(out / "trajectory.bin")
        assert traj.n_particles == 4

    def test_diverged_simulate_exits_one_with_one_line(self, tmp_path, capsys):
        cfg = {"hyper": {"T": 0.2, "dt": 0.05, "gamma": 0.5}, "N": 4,
               "engine": "interacting-sde", "seed": 1, "problem": DIVERGING_BOX}
        assert self.run(tmp_path, "simulate", cfg) == EXIT_VERDICT
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("diverged: ensemble second moment")
        assert "exceeded ceiling" in err and "at step 0 (t=0)" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_diverged_study_writes_a_failing_verdict(self, tmp_path, capsys, workers):
        cfg = {"hyper": {"T": 0.2, "dt": 0.05}, "gammas": [1.0, 0.5], "N_ref": 16, "reps": 2,
               "seed": 1, "problem": DIVERGING_BOX}
        assert self.run(tmp_path, "gamma-sweep", cfg, "--workers", workers, "--strict") == 1
        assert self.run(tmp_path, "gamma-sweep", cfg, "--workers", workers) == EXIT_OK
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert "[gamma-sweep] diverged: FAIL" in captured.out
        out = tmp_path / "out" / "gamma-sweep-seed1"
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "verdicts.json"]
        verdicts = json.loads((out / "verdicts.json").read_text())
        assert verdicts["passed"] is False
        [v] = verdicts["verdicts"]
        assert v["name"] == "diverged" and v["passed"] is False and v["threshold"] == 1e8
        # the ODE limit runs first in each rep, so it is the run named
        assert v["note"] == ("ensemble second moment over its ceiling in the gamma sweep's ODE "
                             "limit, rep 0; in task 0 of _sweep_task at step 0 (t=0)")

    @pytest.mark.parametrize("command, cfg, seed", [
        # an exact coupling: all three verdicts are n/a
        ("chaos-rate", {"problem": {"labels": "single", "init_kind": "dirac"},
                        "hyper": {"T": 0.2, "dt": 0.02}, "N_grid": [4, 8, 16, 32], "m": 2,
                        "N_ref": 64, "reps": 2}, 123),
        # a single-gamma grid: monotonicity is n/a
        ("gamma-sweep", {"hyper": {"T": 0.2, "dt": 0.05}, "gammas": [0.5], "N_ref": 16,
                         "reps": 2, "seed": 1}, 1),
    ])
    def test_na_verdicts_are_strict_json(self, tmp_path, command, cfg, seed):
        assert self.run(tmp_path, command, cfg) == EXIT_OK
        out = tmp_path / "out" / f"{command}-seed{seed}"
        verdicts = json.loads((out / "verdicts.json").read_text(), parse_constant=_reject_constant)
        na = [v for v in verdicts["verdicts"] if v["op"] == "na"]
        assert na and all(v["measured"] is None and v["threshold"] is None for v in na)
        json.loads((out / "manifest.json").read_text(), parse_constant=_reject_constant)

    def test_overflowed_moment_is_written_as_null(self, tmp_path, capsys):
        # a finite atom whose psi^4 overflows: the moment sum is inf, and a violation
        data = tmp_path / "d.csv"
        data.write_text("x_1,y\n0.5,1e80\n-0.3,0.2\n")
        cfg = {"dataset": str(data), "problem": {"feature": "tanh-dot", "loss": "square"}}
        assert self.run(tmp_path, "check-assumptions", cfg, "--strict") == 1
        assert "Traceback" not in capsys.readouterr().err
        out = tmp_path / "out" / "check-assumptions-seed0"
        report = json.loads((out / "report.json").read_text(), parse_constant=_reject_constant)
        assert report["ok"] is False and report["moment_value"] is None
        assert any("moment sum finite" in v for v in report["violations"])
        json.loads((out / "manifest.json").read_text(), parse_constant=_reject_constant)

    def test_overflowed_distance_is_written_as_null(self, tmp_path):
        (tmp_path / "a.csv").write_text("w_1\n1e308\n1e308\n")
        (tmp_path / "b.csv").write_text("w_1\n-1e308\n-1e308\n")
        cfg = {"samples_a": str(tmp_path / "a.csv"), "samples_b": str(tmp_path / "b.csv")}
        # the distance, 2e308, is not a float: numpy warns and W2 reads inf
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert self.run(tmp_path, "metrics", cfg) == EXIT_OK
        out = json.loads((tmp_path / "out" / "metrics-seed0" / "distances.json").read_text(),
                         parse_constant=_reject_constant)
        assert out["w2"] is None and out["w2_1d"] is None

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_config_number_names_its_field(self, tmp_path, capsys, constant):
        # json.load reads these constants; a manifest could not echo them as JSON
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"slope_threshold": %s}' % constant)
        assert cli_dispatch(["chaos-rate", "--config", str(cfg_path),
                             "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert f"config field slope_threshold: {float(constant)!r} is not a finite number" in \
            capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_check_assumptions_clean_model_exit_zero(self, tmp_path):
        cfg = {"problem": {"feature": "tanh-dot", "loss": "square"}, "seed": 2}
        rc = self.run(tmp_path, "check-assumptions", cfg, "--strict")
        assert rc == EXIT_OK
        report = json.loads(
            (tmp_path / "out" / "check-assumptions-seed2" / "report.json").read_text())
        assert report["ok"] is True
        assert report["violations"] == []

    def test_chaos_rate_determinism_byte_identical_tables(self, tmp_path):
        cfg = {
            "problem": {"labels": "noisy"},
            "hyper": {"T": 1.0, "dt": 0.1, "gamma": 1.0},
            "N_grid": [4, 8, 16, 32], "m": 2, "N_ref": 64, "reps": 2, "seed": 7,
        }
        assert self.run(tmp_path, "chaos-rate", cfg) == EXIT_OK
        table = tmp_path / "out" / "chaos-rate-seed7" / "errors.csv"
        first = table.read_bytes()
        assert self.run(tmp_path, "chaos-rate", cfg) == EXIT_OK
        assert table.read_bytes() == first

    def test_study_without_seed_writes_the_seed_it_ran(self, tmp_path):
        # ChaosRateConfig's default seed is 123
        cfg = {"hyper": {"T": 0.2, "dt": 0.1, "gamma": 1.0},
               "N_grid": [4, 8, 16, 32], "m": 2, "N_ref": 64, "reps": 2}
        assert self.run(tmp_path, "chaos-rate", cfg) == EXIT_OK
        assert [d.name for d in (tmp_path / "out").iterdir()] == ["chaos-rate-seed123"]
        manifest = json.loads((tmp_path / "out" / "chaos-rate-seed123" / "manifest.json").read_text())
        assert manifest["seed"] == 123

    @pytest.mark.parametrize("command", ["check-assumptions", "chaos-rate", "stationary", "metrics"])
    def test_snapshot_times_flag_is_simulate_only(self, tmp_path, capsys, command):
        assert self.run(tmp_path, command, {}, "--snapshot-times", "99") == EXIT_CONFIG
        assert "unrecognized arguments: --snapshot-times" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_snapshot_times_flag_reaches_simulate(self, tmp_path):
        cfg = {"hyper": {"T": 0.2, "dt": 0.05, "gamma": 0.5}, "N": 4,
               "engine": "interacting-sde", "seed": 1}
        assert self.run(tmp_path, "simulate", cfg, "--snapshot-times", "0.1") == EXIT_OK
        traj = load_trajectory(tmp_path / "out" / "simulate-seed1" / "trajectory.bin")
        assert traj.times.tolist() == [0.0, 0.1, 0.2]

    def test_overflowing_run_reports_its_divergence(self, tmp_path, capsys):
        # a pinned noise of 1e308 overflows the second moment after one step
        cfg = {"engine": "interacting-sde", "N": 64, "seed": 1, "sigma_override": 1e308,
               "hyper": {"T": 1.0, "dt": 1.0}, "problem": {"feature": "zero", "penalty": 1.0}}
        assert self.run(tmp_path, "simulate", cfg) == EXIT_VERDICT
        assert "diverged: ensemble second moment inf" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("case", [
        {"hyper": {"T": 0.0, "dt": 0.02}},  # no steps
        {"hyper": {"T": 0.2, "dt": 0.02},  # one atom from a point mass: an exact coupling
         "problem": {"labels": "single", "init_kind": "dirac"}},
    ])
    def test_zero_coupling_error_has_no_applicable_verdict(self, tmp_path, capsys, case,
                                                           workers):
        cfg = {**case, "N_grid": [4, 8, 16, 32], "m": 2, "N_ref": 64, "reps": 2, "seed": 3}
        assert self.run(tmp_path, "chaos-rate", cfg, "--workers", workers) == EXIT_OK
        assert "no applicable verdict: n/a" in capsys.readouterr().out
        out = tmp_path / "out" / "chaos-rate-seed3"
        rows = (out / "errors.csv").read_text().splitlines()
        assert rows[0].startswith("N,error,") and [r.split(",")[:2] for r in rows[1:]] == [
            [N, "0.0"] for N in ("4", "8", "16", "32")]
        verdicts = json.loads((out / "verdicts.json").read_text())
        assert verdicts["passed"] is None
        assert [(v["name"], v["op"]) for v in verdicts["verdicts"]] == [
            ("slope", "na"), ("upper_bound_compliance", "na"), ("endpoint_ratio", "na")]
        assert all("coupling error 0 at N=[4, 8, 16, 32]" in v["note"]
                   for v in verdicts["verdicts"])
        assert self.run(tmp_path, "chaos-rate", cfg, "--workers", workers, "--strict") == 1

    def test_strict_verdict_failure_exit_one(self, tmp_path):
        # an impossible slope threshold forces a verdict failure
        cfg = {
            "problem": {"labels": "noisy"},
            "hyper": {"T": 1.0, "dt": 0.1, "gamma": 1.0},
            "N_grid": [4, 8, 16, 32], "m": 2, "N_ref": 64, "reps": 2, "seed": 7,
            "slope_threshold": -99.0,
        }
        assert self.run(tmp_path, "chaos-rate", cfg, "--strict") == 1
        assert self.run(tmp_path, "chaos-rate", cfg) == EXIT_OK  # non-strict

    def test_metrics_subcommand(self, tmp_path):
        rng = np.random.default_rng(0)
        for name, arr in (("a.csv", rng.standard_normal(50)),
                          ("b.csv", rng.standard_normal(50) + 1)):
            write_csv(tmp_path / name, [{"w_1": repr(float(v))} for v in arr])
        cfg = {"samples_a": str(tmp_path / "a.csv"), "samples_b": str(tmp_path / "b.csv"),
               "seed": 0}
        assert self.run(tmp_path, "metrics", cfg) == EXIT_OK
        out = json.loads((tmp_path / "out" / "metrics-seed0" / "distances.json").read_text())
        assert 0.5 < out["w2"] < 2.0

    @pytest.mark.parametrize("bad_row, reason", [
        ("0.3", "1 cells, header has 2"),
        ("0.3,zero", "malformed cell"),
        ("0.3,nan", "non-finite cell"),
        ("inf,0.3", "non-finite cell"),
    ])
    def test_metrics_bad_sample_row_exits_config(self, tmp_path, capsys, bad_row, reason):
        good = tmp_path / "a.csv"
        good.write_text("w_1,w_2\n0.1,0.2\n0.4,0.5\n")
        bad = tmp_path / "b.csv"
        bad.write_text(f"w_1,w_2\n0.1,0.2\n{bad_row}\n")
        cfg = {"samples_a": str(good), "samples_b": str(bad), "seed": 0}
        assert self.run(tmp_path, "metrics", cfg) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{bad} line 3: {reason}" in err

    def test_metrics_empty_sample_file_exits_config(self, tmp_path, capsys):
        empty = tmp_path / "a.csv"
        empty.write_text("w_1\n")
        cfg = {"samples_a": str(empty), "samples_b": str(empty), "seed": 0}
        assert self.run(tmp_path, "metrics", cfg) == EXIT_CONFIG
        assert "has no rows" in capsys.readouterr().err

    def test_metrics_column_mismatch_exits_config(self, tmp_path, capsys):
        one = tmp_path / "a.csv"
        one.write_text("w_1\n0.1\n0.4\n")
        two = tmp_path / "b.csv"
        two.write_text("w_1,w_2\n0.1,0.2\n0.4,0.5\n")
        cfg = {"samples_a": str(one), "samples_b": str(two), "seed": 0}
        assert self.run(tmp_path, "metrics", cfg) == EXIT_CONFIG
        assert "samples_b has 2 w_ columns, samples_a has 1" in capsys.readouterr().err

    def test_stationary_subcommand(self, tmp_path):
        cfg = {
            "problem": {"feature": "zero", "loss": "square", "penalty": 1.0},
            "hyper": {"gamma": 1.0, "dt": 0.01, "T": 1.0},
            "sigma_override": 1.0, "n_cells": 256, "grid_lo": -6.0, "grid_hi": 6.0,
            "damping": 1.0, "N_ref": 512, "horizon": 0.5, "seed": 4,
        }
        rc = self.run(tmp_path, "stationary", cfg, "--strict")
        assert rc == EXIT_OK
        report = json.loads((tmp_path / "out" / "stationary-seed4" / "report.json").read_text())
        assert report["converged"] is True

    def test_env_var_output_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CHAOSLAB_OUT", str(tmp_path / "envout"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"hyper": {"T": 0.1, "dt": 0.05}, "N": 2, "engine": "interacting-sde", "seed": 9}))
        rc = cli_dispatch(["simulate", "--config", str(cfg_path)])
        assert rc == EXIT_OK
        assert (tmp_path / "envout" / "simulate-seed9" / "trajectory.bin").exists()

    def test_remaining_studies_dispatch(self, tmp_path):
        fast_hyper = {"T": 1.0, "dt": 0.1, "gamma": 0.5}
        runs = [
            ("regime", {"hyper": fast_hyper, "betas": [0.75, 1.0], "N_grid": [16, 64, 256],
                        "seeds": 4, "seed": 1,
                        "problem": {"init_kind": "dirac", "init_w0": 0.0}}),
            ("gamma-sweep", {"hyper": fast_hyper, "gammas": [0.5, 0.25], "N_ref": 64,
                             "reps": 2, "seed": 1}),
            ("batch-sweep", {"hyper": fast_hyper, "batches": [1, 8], "N_ref": 64,
                             "reps": 2, "seed": 1}),
            ("histograms", {"hyper": fast_hyper, "betas": [0.5, 0.75, 1.0],
                            "N_grid": [16, 32, 64], "seed": 1}),
            ("consistency", {"hyper": {"T": 1.0, "dt": 0.1, "gamma": 0.1},
                             "N_grid": [16, 64], "reps": 2, "seed": 1,
                             "problem": {"labels": "realizable",
                                         "init_low": -2.0, "init_high": 2.0}}),
        ]
        dir_prefix = {"regime": "two-regime"}
        for command, cfg in runs:
            rc = self.run(tmp_path, command, cfg)
            assert rc == EXIT_OK, command
            study_dir = next((tmp_path / "out").glob(dir_prefix.get(command, command) + "*"))
            assert (study_dir / "verdicts.json").exists(), command
            assert (study_dir / "manifest.json").exists(), command

    def test_replay_from_manifest_config(self, tmp_path):
        # the manifest's config echo + seed reproduce the run byte-for-byte
        cfg = {"hyper": {"T": 0.2, "dt": 0.05, "gamma": 0.5}, "N": 4,
               "engine": "interacting-sde", "seed": 5}
        assert self.run(tmp_path, "simulate", cfg) == EXIT_OK
        out = tmp_path / "out" / "simulate-seed5"
        manifest = json.loads((out / "manifest.json").read_text())
        first = (out / "trajectory.bin").read_bytes()
        cfg_path = tmp_path / "replay.json"
        cfg_path.write_text(json.dumps(manifest["config"]))
        assert cli_dispatch(["simulate", "--config", str(cfg_path),
                             "--out", str(tmp_path / "out2")]) == EXIT_OK
        second = (tmp_path / "out2" / "simulate-seed5" / "trajectory.bin").read_bytes()
        assert first == second
