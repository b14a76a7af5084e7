"""Output checks behind the benchmark's failure count.

Each check returns a list of problems; an empty list means the check passed.
A problem is either wrong output or a finding.

- Wrong output fails the call: an exit code other than 0 and ``--strict``'s
  1, a missing or unreadable ``verdicts.json``, a ``trajectory.bin`` that
  does not load through ``chaoslab.io.load_trajectory``, or table CSVs and
  trajectory files that differ in any byte from the first run of the same
  seed.
- A finding is a verdict that did not pass on a well-formed run (``--strict``
  reports it as exit code 1).  The studies' verdicts are statistical tests of
  the paper's claims, and some seeds fail them whatever the program's speed;
  the benchmark prints each finding with its seed but does not count it as a
  failed call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from workloads import STUDY_COMMANDS

EXIT_VERDICT = 1  # chaoslab's --strict exit code for a failed verdict
EXIT_CRASH = 70  # the benchmark's drivers exit with this when the call raised

_COMPARED_SUFFIXES = {".csv", ".bin"}


@dataclass(frozen=True)
class Problem:
    message: str
    wrong_output: bool = True


def check_exit(returncode: int) -> list[Problem]:
    if returncode == 0:
        return []
    return [Problem(f"exit code {returncode}", wrong_output=returncode != EXIT_VERDICT)]


def check_verdicts(out_dir: Path, command: str) -> list[Problem]:
    """Every verdict of every ``verdicts.json`` passes; studies must write one."""
    paths = sorted(Path(out_dir).rglob("verdicts.json"))
    if command in STUDY_COMMANDS and not paths:
        return [Problem(f"{command} wrote no verdicts.json")]
    problems = []
    for path in paths:
        try:
            verdicts = json.loads(path.read_text(encoding="utf-8"))["verdicts"]
        except (ValueError, KeyError) as exc:
            problems.append(Problem(f"{path.name} is unreadable: {exc!r}"))
            continue
        if not verdicts:
            problems.append(Problem(f"{path.name} has no verdicts"))
        for v in verdicts:
            if v.get("passed") is not True:
                problems.append(Problem(
                    f"verdict {v.get('name')} did not pass (measured {v.get('measured')}, "
                    f"threshold {v.get('op')} {v.get('threshold')})", wrong_output=False))
    return problems


def check_trajectories(out_dir: Path, command: str) -> list[Problem]:
    """Every ``trajectory.bin`` loads; ``simulate`` must write one."""
    from chaoslab.io import load_trajectory

    paths = sorted(Path(out_dir).rglob("trajectory.bin"))
    if command == "simulate" and not paths:
        return [Problem("simulate wrote no trajectory.bin")]
    problems = []
    for path in paths:
        try:
            traj = load_trajectory(path)
        except (OSError, ValueError, KeyError) as exc:
            problems.append(Problem(f"{path.name} does not load: {exc}"))
            continue
        if traj.ensembles.shape[0] != len(traj.times):
            problems.append(Problem(f"{path.name} holds {traj.ensembles.shape[0]} snapshots "
                                    f"for {len(traj.times)} times"))
    return problems


def compared_files(out_dir: Path) -> dict[str, bytes]:
    """Table CSVs and trajectory files, keyed by path relative to ``out_dir``."""
    out_dir = Path(out_dir)
    return {str(p.relative_to(out_dir)): p.read_bytes()
            for p in sorted(out_dir.rglob("*"))
            if p.is_file() and p.suffix in _COMPARED_SUFFIXES}


def check_identical(out_dir: Path, reference: dict[str, bytes]) -> list[Problem]:
    """Tables and trajectories are byte-identical to the reference run's."""
    current = compared_files(out_dir)
    messages = [f"{name} missing" for name in sorted(reference.keys() - current.keys())]
    messages += [f"{name} not in the reference run" for name in sorted(current.keys() - reference.keys())]
    messages += [f"{name} differs from the reference run"
                 for name in sorted(reference.keys() & current.keys())
                 if current[name] != reference[name]]
    return [Problem(m) for m in messages]


def check_call(command: str, returncode: int, out_dir: Path,
               reference: dict[str, bytes] | None) -> list[Problem]:
    """All checks of one call; ``reference`` is None for the first run of a seed."""
    problems = check_exit(returncode)
    problems += check_verdicts(out_dir, command)
    problems += check_trajectories(out_dir, command)
    if reference is not None:
        problems += check_identical(out_dir, reference)
    return problems
