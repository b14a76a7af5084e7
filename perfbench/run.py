"""chaoslab benchmark: runs ``chaoslab`` subcommands as a user does and reports
end-to-end metrics (``--trace 0``) or per-layer metrics (``--trace 1``).

    python3 perfbench/run.py --workload coupling --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --save perfbench/baseline.json

Run from the root of a chaoslab checkout; the program is imported from its
``src/``.  With ``--trace 0`` the run compiles the program and imports it
once untimed, then one client runs the workload's CLI calls in a closed loop
of rounds for as long as another round fits in ``--seconds``, each call in a
fresh interpreter at ``--workers 2 --strict``.  The metrics are medians over
the loop's rounds.  With ``--trace 1`` the run measures the import, makes one
round at ``--workers 2`` to count process pools, then runs the calls twice in
one process each at ``--workers 1``, untraced and traced, and reports
per-layer metrics from the traced pass; ``--seconds`` does not apply to it.
``--workload all`` does both for every workload and prints every metric with
its unit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# Two pool workers on two cores: more BLAS threads per process would
# oversubscribe them.  Set before anything here imports numpy.
THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_VARS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from importlib.metadata import PackageNotFoundError, version  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKERS = 2
IMPORT_REPEATS = 5
IMPORTTIME_REPEATS = 3
IMPORT_PARTS = {"cli.import.scipy_optimize_s": "scipy.optimize", "cli.import.jsonschema_s": "jsonschema"}

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Launch, write_launches, workload_particle_steps  # noqa: E402


# ----------------------------- one CLI call -----------------------------


@dataclass
class CallResult:
    command: str
    returncode: int
    wall_s: float
    setup_s: float | None
    cpu_s: float
    maxrss_kib: int
    pool_starts: int
    problems: list = field(default_factory=list)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CHAOSLAB_OUT"}
    env.update(THREAD_VARS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def stop_group(pgid: int):
    """Kill what is left of a call's process group, such as pool workers a
    crashed call did not join."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_call(launch: Launch, seed, out: Path, log: Path, env: dict, refs: dict) -> CallResult:
    """One CLI call in a fresh interpreter, with its CPU time, peak RSS and checks.

    ``os.wait4`` reports the CPU time of the call and of the pool workers it
    joined; ``driver.py`` records the largest resident set among them (the
    ``ru_maxrss`` of ``wait4`` would also count this process's own).
    """
    record = out.with_suffix(".record.json")
    args = launch.cli_args(seed, WORKERS, out)
    with open(log, "ab") as logf:
        spawn = time.monotonic()
        # its own process group, so that its pool workers can be stopped with it
        proc = subprocess.Popen([sys.executable, str(HERE / "driver.py"), str(record), *args],
                                stdout=logf, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
                                start_new_session=True)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            stop_group(proc.pid)
            proc.wait()
            raise
        end = time.monotonic()
        stop_group(proc.pid)
    proc.returncode = os.waitstatus_to_exitcode(status)
    rec = json.loads(record.read_text(encoding="utf-8")) if record.exists() else {}
    done = rec.get("setup_done")
    result = CallResult(launch.command, proc.returncode, end - spawn,
                        done - spawn if done is not None else None,
                        usage.ru_utime + usage.ru_stime, rec.get("peak_rss_kib") or 0,
                        rec.get("pool_starts", 0))
    result.problems = checks.check_call(launch.command, proc.returncode, out, refs.get(launch.index))
    if done is None:
        result.problems.append(checks.Problem("set-up never finished (no load_config return)"))
    refs.setdefault(launch.index, checks.compared_files(out))
    return result


def run_round(launches: list[Launch], seed, out: Path, env: dict, refs: dict) -> list[CallResult]:
    """The workload's calls in sequence: each starts after the previous exits."""
    out.mkdir(parents=True, exist_ok=True)
    return [run_call(l, seed, out / f"{l.index}-{l.command}", out / "log.txt", env, refs)
            for l in launches]


# ----------------------------- end-to-end run -----------------------------


def warm_up(env: dict):
    """Compile the program's bytecode and load its imports into the page cache,
    so the first timed round does not pay for what later rounds get for free."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
                   env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    subprocess.run([sys.executable, "-c", "import chaoslab.cli"], env=env, cwd=ROOT, check=True)


TIMES = ("wall_s", "setup_s", "cpu_s")


def round_medians(rounds: list[list[CallResult]]) -> dict[str, float]:
    """Medians over rounds of each round's summed times and of its peak RSS."""
    out = {name: statistics.median(sum(getattr(c, name) or 0.0 for c in r) for r in rounds)
           for name in TIMES}
    out["peak_rss_mb"] = statistics.median(max(c.maxrss_kib for c in r) for r in rounds) / 1024.0
    return out


def end_to_end(launches: list[Launch], seed, seconds: float, work: Path, env: dict):
    """Closed loop of rounds within ``seconds``; medians over rounds.

    A round starts only if a round of median length still ends before the
    deadline, so a run takes about ``seconds`` whatever the round length.
    """
    refs: dict = {}
    rounds, lengths = [], []
    deadline = time.monotonic() + seconds
    warm_up(env)
    while not rounds or time.monotonic() + statistics.median(lengths) <= deadline:
        out = work / f"round{len(rounds)}"
        start = time.monotonic()
        rounds.append(run_round(launches, seed, out, env, refs))
        lengths.append(time.monotonic() - start)
        if len(rounds) > 1:
            shutil.rmtree(out)  # later rounds are compared with the first round's outputs

    metrics = round_medians(rounds)
    metrics["particle_steps_per_s"] = workload_particle_steps(launches) / metrics["wall_s"]
    print(f"# rounds: {len(rounds)}; per round and call: " + json.dumps({
        name: [[getattr(c, name) for c in r] for r in rounds] for name in TIMES}))
    return metrics, [c for r in rounds for c in r]


# ----------------------------- traced run -----------------------------


def _timed(cmd: list[str], env: dict) -> float:
    start = time.perf_counter()
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from ``python -X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            out[parts[2].strip()] = int(parts[1]) / 1e6
    return out


def measure_import(env: dict) -> dict[str, float]:
    """``import chaoslab.cli`` in a fresh interpreter minus a bare start, and
    the cumulative import time of its heaviest dependencies."""
    bare, full = [], []
    for _ in range(IMPORT_REPEATS):
        bare.append(_timed([sys.executable, "-c", "pass"], env))
        full.append(_timed([sys.executable, "-c", "import chaoslab.cli"], env))
    out = {"cli.import_s": statistics.median(full) - statistics.median(bare)}
    parts = {name: [] for name in IMPORT_PARTS}
    for _ in range(IMPORTTIME_REPEATS):
        run = subprocess.run([sys.executable, "-X", "importtime", "-c", "import chaoslab.cli"],
                             env=env, cwd=ROOT, check=True, capture_output=True, text=True)
        found = parse_importtime(run.stderr)
        for name, module in IMPORT_PARTS.items():
            parts[name].append(found.get(module, 0.0))
    out.update({name: statistics.median(v) for name, v in parts.items()})
    return out


def run_inproc(launches: list[Launch], seed, out: Path, env: dict, trace: bool) -> dict:
    """All calls in one fresh process at ``--workers 1``; returns its record."""
    out.mkdir(parents=True, exist_ok=True)
    plan = {"trace": trace,
            "calls": [l.cli_args(seed, 1, out / f"{l.index}-{l.command}") for l in launches]}
    (out / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    with open(out / "log.txt", "wb") as log:
        subprocess.run([sys.executable, str(HERE / "inproc.py"), str(out / "plan.json"),
                        str(out / "record.json")], env=env, cwd=ROOT, check=True,
                       stdout=log, stderr=subprocess.STDOUT)
    return json.loads((out / "record.json").read_text(encoding="utf-8"))


def layer_metrics(record: dict, wall_s: float) -> dict[str, float]:
    """Every per-span metric the traced pass gives: calls, busy, self and share
    of traced wall time, each count, and each count per busy second."""
    out = {}
    agg = spans.aggregate([tuple(s) for s in record["spans"]])
    for name, row in agg.items():
        out.update({f"{name}.calls": row["calls"], f"{name}.busy_s": row["busy_s"],
                    f"{name}.self_s": row["self_s"], f"{name}.share": row["busy_s"] / wall_s})
    for key, count in record["counts"].items():
        name = key.rsplit(".", 1)[0]
        out[key] = count
        out[f"{key}_per_s"] = count / agg[name]["busy_s"] if agg[name]["busy_s"] > 0 else 0.0
    return out


def traced(launches: list[Launch], seed, work: Path, env: dict):
    metrics = measure_import(env)
    metrics["cli.launches"] = len(launches)
    refs: dict = {}
    calls = run_round(launches, seed, work / "workers2", env, refs)
    metrics["experiments.pool_starts"] = sum(c.pool_starts for c in calls)
    passes = {}
    for name, trace in (("untraced", False), ("traced", True)):
        out = work / name
        passes[name] = run_inproc(launches, seed, out, env, trace)
        for launch, call in zip(launches, passes[name]["calls"]):
            call_out = out / f"{launch.index}-{launch.command}"
            calls.append(CallResult(launch.command, call["returncode"], call["wall_s"], None, 0.0, 0, 0,
                                    checks.check_call(launch.command, call["returncode"], call_out,
                                                      refs[launch.index])))
    walls = {name: sum(c["wall_s"] for c in p["calls"]) for name, p in passes.items()}
    record = passes["traced"]
    if record["missing"]:
        print(f"# not traced (absent in this version): {record['missing']}")
    metrics.update(layer_metrics(record, walls["traced"]))
    metrics["trace.overhead_ratio"] = walls["traced"] / walls["untraced"]
    metrics["trace.spans"] = len(record["spans"])
    metrics["io.bytes_written"] = sum(p.stat().st_size for p in (work / "traced").rglob("*")
                                      if p.is_file() and p.parent != work / "traced")
    print(f"# traced wall {walls['traced']:.4f} s, untraced wall {walls['untraced']:.4f} s")
    return metrics, calls


# ----------------------------- results -----------------------------


def environment(seed) -> dict:
    def pkg(name):
        try:
            return version(name)
        except PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {**THREAD_VARS, "nproc": os.cpu_count(), "workers": WORKERS,
            "python": platform.python_version(), "numpy": pkg("numpy"), "scipy": pkg("scipy"),
            "platform": platform.platform(), "commit": commit, "seed": seed}


def run_workload(name: str, seed, seconds: float, trace: bool, spec: dict) -> dict:
    work = ROOT / ".perfbench-work" / name
    shutil.rmtree(work, ignore_errors=True)
    launches = write_launches(WORKLOADS[name], ROOT / "configs", work / "configs")
    env = child_env()
    if trace:
        values, calls = traced(launches, seed, work / "trace", env)
    else:
        values, calls = end_to_end(launches, seed, seconds, work / "loop", env)
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted}
    for call in calls:
        for problem in call.problems:
            kind = "failed" if problem.wrong_output else "finding"
            print(f"# {kind}: {name} {call.command} at seed {seed}: {problem.message}")
    failed = sum(1 for c in calls if any(p.wrong_output for p in c.problems))
    return {"correct": failed == 0, "attempted": len(calls), "failed": failed, "metrics": metrics}


def print_metrics(workload: str, result: dict):
    for name, m in result["metrics"].items():
        print(f"{workload:10s} {name:55s} {m['value']:16.6g} {m['unit']}")


def layer_checks(results: dict) -> list[str]:
    """The traced run confirms each workload loads the layers it was chosen for."""
    def value(workload, name):
        return results[workload]["per_layer"]["metrics"][name]["value"]

    mft_share = (value("coupling", "meanfield.mean_field_terms.sigma.share")
                 + value("coupling", "meanfield.mean_field_terms.nosigma.share"))
    import_share = (value("cli-short", "cli.launches") * value("cli-short", "cli.import_s")
                    / results["cli-short"]["end_to_end"]["metrics"]["wall_s"]["value"])
    root_calls = value("coupling", "meanfield.sqrt_psd_batch.calls")
    root_share = value("noise-p4", "meanfield.sqrt_psd_batch.share")
    rows = [
        ("coupling: meanfield.sqrt_psd_batch.calls == 0", root_calls, root_calls == 0),
        ("noise-p4: meanfield.sqrt_psd_batch.share >= 0.5", root_share, root_share >= 0.5),
        ("coupling: meanfield.mean_field_terms.*.share >= 0.4", mft_share, mft_share >= 0.4),
        ("cli-short: launches * cli.import_s / wall_s >= 0.3", import_share, import_share >= 0.3),
    ]
    return [f"{'ok  ' if ok else 'MISS'} {label}: measured {measured:.4g}" for label, measured, ok in rows]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="passed to every call as --seed (default: each config's own seed)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the closed loop (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, default=None,
                        help="with --workload all: write every result and the environment here")
    args = parser.parse_args(argv)
    # a terminated run unwinds, so every call's process group is stopped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    bench = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "chaoslab" / "cli.py").is_file() or not (ROOT / "configs").is_dir() \
            or not bench.is_file():
        print(f"error: {ROOT} is not a chaoslab checkout (needs src/chaoslab, configs/ and "
              "BENCHMARK.json); run from its root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads(bench.read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    env_info = environment(args.seed)
    print(f"# environment: {json.dumps(env_info, sort_keys=True)}")

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)
        print_metrics(args.workload, result)
        print(json.dumps(result))
        return 0

    results = {}
    for name in WORKLOADS:
        results[name] = {kind: run_workload(name, args.seed, args.seconds, kind == "per_layer", spec)
                         for kind in ("end_to_end", "per_layer")}
    for name, by_kind in results.items():
        for result in by_kind.values():
            print_metrics(name, result)
    check_lines = layer_checks(results)
    print("\n".join(check_lines))
    if args.save:
        args.save.write_text(json.dumps({"environment": env_info, "seconds": args.seconds,
                                         "layer_checks": check_lines, "workloads": results},
                                        indent=2, sort_keys=True) + "\n", encoding="utf-8")
    total = {"correct": all(r["correct"] for w in results.values() for r in w.values()),
             "attempted": sum(r["attempted"] for w in results.values() for r in w.values()),
             "failed": sum(r["failed"] for w in results.values() for r in w.values()),
             "metrics": {}}
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
