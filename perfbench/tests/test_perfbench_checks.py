"""Each output check fails on a broken output and passes on a good one."""

import json

import pytest

import checks
from chaoslab.cli import cli_dispatch


def _simulate(out, seed=3):
    cfg = out.parent / "sim.json"
    cfg.write_text(json.dumps({
        "N": 8, "engine": "interacting-sde",
        "hyper": {"T": 0.2, "dt": 0.02, "gamma": 0.5},
    }))
    return cli_dispatch(["simulate", "--config", str(cfg), "--seed", str(seed), "--out", str(out)])


def _write_verdicts(out, verdicts):
    out.mkdir(parents=True, exist_ok=True)
    (out / "verdicts.json").write_text(json.dumps({"passed": True, "verdicts": verdicts}))


def test_exit_code_zero_passes_and_others_fail():
    assert checks.check_exit(0) == []
    [verdict] = checks.check_exit(checks.EXIT_VERDICT)
    assert not verdict.wrong_output
    for code in (2, checks.EXIT_CRASH, -9):
        [problem] = checks.check_exit(code)
        assert problem.wrong_output


def test_verdicts_pass_only_when_every_verdict_passes(tmp_path):
    _write_verdicts(tmp_path, [{"name": "slope", "passed": True}])
    assert checks.check_verdicts(tmp_path, "chaos-rate") == []
    _write_verdicts(tmp_path, [{"name": "slope", "passed": True},
                               {"name": "endpoint_ratio", "passed": False, "measured": 7.8,
                                "op": ">=", "threshold": 8.0}])
    [problem] = checks.check_verdicts(tmp_path, "chaos-rate")
    assert "endpoint_ratio" in problem.message and not problem.wrong_output


@pytest.mark.parametrize("verdicts", [[], [{"name": "nonincreasing", "passed": None}]])
def test_empty_or_not_applicable_verdicts_fail(tmp_path, verdicts):
    _write_verdicts(tmp_path, verdicts)
    assert checks.check_verdicts(tmp_path, "batch-sweep")


def test_missing_or_unreadable_verdicts_are_wrong_output(tmp_path):
    [missing] = checks.check_verdicts(tmp_path, "regime")
    assert missing.wrong_output
    assert checks.check_verdicts(tmp_path, "simulate") == []
    (tmp_path / "verdicts.json").write_text("{not json")
    [broken] = checks.check_verdicts(tmp_path, "regime")
    assert broken.wrong_output


def test_trajectory_must_round_trip(tmp_path):
    out = tmp_path / "out"
    assert _simulate(out) == 0
    assert checks.check_trajectories(out, "simulate") == []
    [path] = out.rglob("trajectory.bin")
    path.write_bytes(path.read_bytes()[:-100])
    [problem] = checks.check_trajectories(out, "simulate")
    assert "does not load" in problem.message and problem.wrong_output


def test_simulate_without_trajectory_fails(tmp_path):
    [problem] = checks.check_trajectories(tmp_path, "simulate")
    assert problem.wrong_output


def test_repeat_run_is_byte_identical_and_a_changed_byte_is_caught(tmp_path):
    first, second = tmp_path / "a" / "out", tmp_path / "b" / "out"
    for out in (first, second):
        out.parent.mkdir()
        assert _simulate(out) == 0
    reference = checks.compared_files(first)
    assert {p.rsplit("/", 1)[-1] for p in reference} == {"trajectory.bin", "trajectory.csv"}
    assert checks.check_identical(second, reference) == []
    assert checks.check_call("simulate", 0, second, reference) == []

    [csv] = second.rglob("trajectory.csv")
    data = bytearray(csv.read_bytes())
    data[-3] = ord("0") if data[-3] != ord("0") else ord("1")
    csv.write_bytes(bytes(data))
    [problem] = checks.check_identical(second, reference)
    assert "trajectory.csv differs" in problem.message and problem.wrong_output


def test_missing_and_extra_files_are_caught(tmp_path):
    (tmp_path / "t.csv").write_text("a\n1\n")
    reference = {"t.csv": b"a\n1\n", "u.csv": b"b\n"}
    messages = [p.message for p in checks.check_identical(tmp_path, reference)]
    assert messages == ["u.csv missing"]
    (tmp_path / "v.csv").write_text("x\n")
    messages = [p.message for p in checks.check_identical(tmp_path, reference)]
    assert messages == ["u.csv missing", "v.csv not in the reference run"]


def test_another_seed_gives_different_bytes(tmp_path):
    first, second = tmp_path / "a" / "out", tmp_path / "b" / "out"
    first.parent.mkdir()
    second.parent.mkdir()
    assert _simulate(first, seed=3) == 0
    assert _simulate(second, seed=4) == 0
    problems = checks.check_identical(second, checks.compared_files(first))
    assert problems  # different seed directory names and different draws
