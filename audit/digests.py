"""Digest every file the shipped CLI runs write, at one and at two workers.

Run from anywhere:

    python audit/digests.py                  # this checkout
    python audit/digests.py --root OTHER     # the src/ and configs/ of another checkout

It runs each shipped ``configs/*.json`` through its subcommand (``sweep.json``
through both sweeps), ``simulate`` at N = 4096 and the ``noise-p4`` batch
sweep (``problem.p`` 4, ``N_ref`` 512), each at ``--workers`` 1 and 2, and
prints one line per output file:

    <call> <workers> <file> <sha256>

Two checkouts that print the same lines wrote the same bytes.  The
manifests are skipped (they record times, paths and versions), and
``elapsed_s`` is left out of ``verdicts.json`` before it is hashed.  A call
that exits with a code other than 0 stops the audit with exit 1.  The whole
audit takes about 20 s on 2 vCPUs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

# (label, subcommand, config file under configs/, overrides merged into it)
CALLS = (
    ("chaos-rate", "chaos-rate", "chaos-rate.json", {}),
    ("check-assumptions", "check-assumptions", "check-assumptions.json", {}),
    ("consistency", "consistency", "consistency.json", {}),
    ("histograms", "histograms", "histograms.json", {}),
    ("regime", "regime", "regime.json", {}),
    ("simulate", "simulate", "simulate.json", {}),
    ("simulate-N4096", "simulate", "simulate.json", {"N": 4096}),
    ("stationary", "stationary", "stationary.json", {}),
    ("gamma-sweep", "gamma-sweep", "sweep.json", {}),
    ("batch-sweep", "batch-sweep", "sweep.json", {}),
    ("noise-p4", "batch-sweep", "sweep.json", {"problem": {"p": 4}, "N_ref": 512}),
)

_ELAPSED = re.compile(rb'^\s*"elapsed_s": [^\n]*\n', re.MULTILINE)


def merged(base: dict, overrides: dict) -> dict:
    out = dict(base)
    for key, value in overrides.items():
        out[key] = merged(out.get(key, {}), value) if isinstance(value, dict) else value
    return out


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "verdicts.json":
        data = _ELAPSED.sub(b"", data, count=1)
    return hashlib.sha256(data).hexdigest()


def run(root: Path, label: str, command: str, config: str, overrides: dict, workers: int,
        scratch: Path) -> list[str]:
    """The digest lines of one call's outputs, in file-name order."""
    cfg = merged(json.loads((root / "configs" / config).read_text(encoding="utf-8")), overrides)
    cfg_path = scratch / f"{label}.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = scratch / f"{label}-w{workers}"
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run([sys.executable, "-m", "chaoslab.cli", command, "--config",
                           str(cfg_path), "--workers", str(workers), "--out", str(out)],
                          env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{label} at --workers {workers} exited {done.returncode}:\n{done.stderr}")
    (run_dir,) = out.iterdir()
    return [f"{label} {workers} {path.name} {digest(path)}"
            for path in sorted(run_dir.iterdir()) if path.name != "manifest.json"]


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="the checkout whose src/ and configs/ run (default: this one)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="chaoslab-digests-") as scratch:
        for call in CALLS:
            for workers in (1, 2):
                for line in run(args.root.resolve(), *call, workers, Path(scratch)):
                    print(line, flush=True)


if __name__ == "__main__":
    main()
