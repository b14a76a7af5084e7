"""Configs, dataset ingestion, trajectory persistence, CLI surface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chaoslab
from chaoslab.cli import EXIT_CONFIG, EXIT_OK, cli_dispatch
from chaoslab.dynamics import InitSpec, Trajectory, interacting_sde_run
from chaoslab.io import (
    ConfigError,
    load_config,
    load_dataset,
    load_trajectory,
    save_dataset,
    save_trajectory,
    trajectory_to_csv,
    validate_config,
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
            validate_config({"hyperr": {}})

    def test_alpha_one_rejected_with_field_name(self):
        with pytest.raises(ConfigError) as err:
            validate_config({"hyper": {"alpha": 1.0}})
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


class TestShippedConfigs:
    def test_all_example_configs_validate(self):
        configs = sorted((Path(__file__).parent.parent / "configs").glob("*.json"))
        assert len(configs) >= 8
        for path in configs:
            load_config(path)


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


def test_cli_import_leaves_scipy_out():
    # scipy is imported only inside w2_exact; a fresh interpreter shows it
    code = "import sys, chaoslab.cli; print('scipy' in sys.modules)"
    src = str(Path(chaoslab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"


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

    def test_simulate_writes_outputs_and_manifest(self, tmp_path):
        cfg = {"hyper": {"T": 0.2, "dt": 0.05, "gamma": 0.5}, "N": 4,
               "engine": "interacting-sde", "seed": 1}
        rc = self.run(tmp_path, "simulate", cfg)
        assert rc == EXIT_OK
        out = tmp_path / "out" / "simulate-seed1"
        assert (out / "trajectory.bin").exists()
        assert (out / "trajectory.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 1
        assert set(manifest["outputs"]) == {"trajectory.bin", "trajectory.csv"}
        traj = load_trajectory(out / "trajectory.bin")
        assert traj.n_particles == 4

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
