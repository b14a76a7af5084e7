"""Hand-checked arithmetic of the harness: self time, particle-steps, parsing."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
from workloads import WORKLOADS, particle_steps, workload_particle_steps, write_launches

ROOT = Path(__file__).resolve().parents[2]


def test_self_time_with_nested_and_sibling_spans():
    recorded = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 3.0, 0),   # sibling of b
        ("b", 4.0, 8.0, 0),
        ("c", 5.0, 6.0, 2),   # nested in b
    ]
    assert spans.self_times(recorded) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    recorded = [("root", 0.0, 10.0, -1), ("x", 1.0, 5.0, 0), ("y", 3.0, 7.0, 0)]
    assert spans.self_times(recorded)[0] == pytest.approx(4.0)


def test_aggregate_sums_per_name():
    recorded = [("s", 0.0, 4.0, -1), ("k", 1.0, 2.0, 0), ("k", 2.5, 3.0, 0), ("s", 5.0, 6.0, -1)]
    agg = spans.aggregate(recorded)
    assert agg["s"] == pytest.approx({"calls": 2, "busy_s": 5.0, "self_s": 3.5})
    assert agg["k"] == pytest.approx({"calls": 2, "busy_s": 1.5, "self_s": 1.5})


def test_tracer_records_parents_and_counts():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda n: n * 2, "inner", counter=lambda a, k, r: {"items": a[0]})
    outer = tracer.wrap(lambda n: inner(n) + inner(1), "outer")
    assert outer(5) == 12
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [("outer", -1), ("inner", 0), ("inner", 0)]
    assert tracer.counts == {"inner.items": 6}


def test_round_medians_sum_each_round_then_take_the_median():
    def call(wall, setup, cpu, rss):
        return run.CallResult("c", 0, wall, setup, cpu, rss, 0)

    rounds = [
        [call(2.0, 1.0, 3.0, 100), call(1.0, 0.5, 1.0, 300)],
        [call(4.0, 2.0, 6.0, 200), call(0.5, 0.5, 0.5, 100)],
        [call(3.0, 1.0, 3.0, 100), call(0.5, None, 0.5, 100)],  # set-up never finished
    ]
    out = run.round_medians(rounds)
    # rounds: wall 3.0, 4.5, 3.5; setup 1.5, 2.5, 1.0; cpu 4.0, 6.5, 3.5; peak 300, 200, 100 KiB
    assert out == pytest.approx({"wall_s": 3.5, "setup_s": 1.5, "cpu_s": 4.0, "peak_rss_mb": 200 / 1024})


def test_particle_steps_of_the_generated_configs(tmp_path):
    def launches(name):
        return write_launches(WORKLOADS[name], ROOT / "configs", tmp_path / name)

    # 24 reps x 250 steps x (32+64+128+256+512 test + 4 companions + 4096 reference)
    assert workload_particle_steps(launches("coupling")) == 24 * 250 * (992 + 4 + 4096) == 30_552_000
    # 4 batch sizes x 4 reps x (SDE + ODE) x 512 particles x 250 steps
    assert workload_particle_steps(launches("noise-p4")) == 4 * 4 * 2 * 512 * 250 == 4_096_000
    per_call = {l.command: particle_steps(l.command, l.config) for l in launches("cli-short")}
    assert per_call == {
        "simulate": 4096 * 250,
        "stationary": 4096 * 5000,
        # one particle per Dirac run: 16 seeds x (10+10+10 at beta 1, 80+160+320 at beta 0.75)
        "regime": 16 * (3 * 10 + 80 + 160 + 320),
        # 6 reps x N x (100 SGD iterations at gamma 0.05 + 100 Euler steps at dt 0.05)
        "consistency": 6 * (256 + 1024 + 4096) * 200,
        "check-assumptions": 0,
    }
    assert sum(per_call.values()) == 27_964_640


def test_particle_steps_match_the_engines_step_counts():
    from chaoslab.dynamics import InitSpec, interacting_sde_run, sgd_run
    from chaoslab.model import Hyperparams, make_model, two_point_distribution
    from chaoslab.rng import NoisePlan

    model = make_model("tanh-dot", "square", 0.01)
    pi = two_point_distribution(1.0, 0.5, -1.0, -0.5)
    hyper = {"alpha": 0.0, "beta": 0.75, "gamma": 0.5, "M": 1, "T": 1.0, "dt": 0.05}
    steps = sum(run_fn(model, pi, Hyperparams(**hyper), 16, InitSpec.uniform(), NoisePlan(1)).meta["n_steps"]
                for run_fn in (sgd_run, interacting_sde_run))
    assert particle_steps("consistency", {"N_grid": [16], "reps": 1, "hyper": hyper}) == 16 * steps


def test_parse_importtime():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       120 |        120 |   _io",
        "import time:      2000 |     612345 | scipy.optimize",
        "import time:       900 |      41000 |     jsonschema",
    ])
    found = run.parse_importtime(stderr)
    assert found["scipy.optimize"] == pytest.approx(0.612345)
    assert found["jsonschema"] == pytest.approx(0.041)


def test_every_listed_layer_metric_has_a_source():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    traced = {t[2] for t in spans.TARGETS} | {m[1] for m in spans.METHODS}
    traced |= {"meanfield.mean_field_terms.sigma", "meanfield.mean_field_terms.nosigma"}
    measured = {"cli.import_s", "cli.launches", "experiments.pool_starts", "io.bytes_written",
                "trace.overhead_ratio", "trace.spans", *run.IMPORT_PARTS}
    for metric in spec["per_layer"]:
        name = metric["name"]
        assert name in measured or name.rsplit(".", 1)[0] in traced, name


def test_traced_pass_sees_every_layer_it_wraps(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"N": 8, "engine": "interacting-sde",
                               "hyper": {"T": 0.2, "dt": 0.02, "gamma": 0.5}}))
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"trace": True, "calls": [
        ["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")],
        ["check-assumptions", "--config", str(ROOT / "configs" / "check-assumptions.json"),
         "--out", str(tmp_path / "out")],
    ]}))
    record_path = tmp_path / "record.json"
    env = run.child_env()
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "inproc.py"), str(plan), str(record_path)],
                   env=env, cwd=tmp_path, check=True, capture_output=True)
    record = json.loads(record_path.read_text())
    assert record["missing"] == []
    assert [c["returncode"] for c in record["calls"]] == [0, 0]
    names = {s[0] for s in record["spans"]}
    assert {"cli.simulate", "io.load_config", "dynamics.interacting_sde_run",
            "meanfield.mean_field_terms.sigma", "meanfield.field_cache", "rng.normals",
            "io.save_trajectory", "io.trajectory_to_csv", "io.write_csv",
            "model.check_assumptions"} <= names
    assert record["counts"]["dynamics.interacting_sde_run.particle_steps"] == 8 * 10
    assert record["counts"]["io.trajectory_to_csv.rows"] == 8 * 11
    # the CSV export writes through write_csv, so its span nests inside
    by_index = record["spans"]
    csv_spans = [i for i, s in enumerate(by_index) if s[0] == "io.trajectory_to_csv"]
    assert any(s[0] == "io.write_csv" and s[3] in csv_spans for s in by_index)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "coupling", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "not a chaoslab checkout" in proc.stderr


def test_peak_rss_is_the_calls_own_not_its_launchers(tmp_path):
    # a launcher holding 150 MiB spawns the call; ru_maxrss of the child keeps that
    # peak across exec, the recorded peak must not
    record = tmp_path / "record.json"
    launcher = (
        "import os, subprocess, sys\n"
        "ballast = bytearray(150 * 1024 * 1024)\n"
        "ballast[::4096] = b'x' * len(ballast[::4096])\n"
        "proc = subprocess.Popen(sys.argv[1:])\n"
        "_, status, usage = os.wait4(proc.pid, 0)\n"
        "print(usage.ru_maxrss)\n"
    )
    out = subprocess.run([sys.executable, "-c", launcher, sys.executable, str(ROOT / "perfbench" / "driver.py"),
                          str(record), "check-assumptions", "--config",
                          str(ROOT / "configs" / "check-assumptions.json"), "--out", str(tmp_path / "out")],
                         env=run.child_env(), cwd=tmp_path, check=True, capture_output=True, text=True)
    recorded = json.loads(record.read_text())["peak_rss_kib"]
    assert int(out.stdout.split()[-1]) > 150 * 1024
    assert 0 < recorded < 150 * 1024
