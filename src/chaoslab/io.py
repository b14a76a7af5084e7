"""Config loading, dataset ingestion, persistence, and run manifests.

Formats: JSON for configs and verdicts (human-diffable), CSV for tables
(plot-ready, full-precision reprs that re-parse bitwise), and a checksummed
little-endian binary layout for trajectories.  Manifests are written
atomically at run end and record everything needed to replay the run:
config echo, seed, derived quantities, and an inventory of output files
with SHA-256 checksums.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import struct
import time
import types
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .dynamics import Trajectory
from .model import ConfigError, DataAtom, DataDistribution, Hyperparams

__all__ = [
    "ConfigError",
    "RunManifest",
    "load_config",
    "parse_config",
    "load_dataset",
    "save_dataset",
    "save_trajectory",
    "load_trajectory",
    "trajectory_to_csv",
    "write_csv",
    "write_json",
    "output_root",
]

_MAGIC = b"CHAOSTRJ"
_VERSION = 1


# ----------------------------- configs -----------------------------

# each scalar annotation: the JSON type it takes, and the Python types json.load gives it
_SCALARS = {int: ("integer", int), float: ("number", (int, float)), str: ("string", str)}


def parse_config(cls, raw: dict, command: str, where: str = ""):
    """The config dataclass ``cls``, its schema, built from the JSON object ``raw``.

    An unknown key, a JSON type that does not fit the field's annotation, or
    a value ``__post_init__`` rejects is a ConfigError naming the field (nested
    ones as ``hyper.alpha``).  An ``int`` takes a whole number (never a bool), a
    ``tuple`` a JSON array; values are passed on as JSON gives them."""
    hints = typing.get_type_hints(cls)
    unread = sorted(where + key for key in set(raw) - {f.name for f in fields(cls)})
    if unread:
        raise ConfigError(f"config fields {', '.join(unread)}: {command} does not read them",
                          unread[0])
    kw = {key: _json_value(hints[key], value, where + key, command) for key, value in raw.items()}
    try:
        return cls(**kw)
    except ConfigError as exc:
        name = where + exc.field_name
        raise ConfigError(f"config field {name}: {exc}", name) from exc


def _json_value(tp, value, name: str, command: str):
    """``value`` checked against the annotation ``tp`` of the field ``name``."""
    if isinstance(tp, types.UnionType):  # X | None
        if value is None:
            return None
        tp = typing.get_args(tp)[0]
    if is_dataclass(tp) and isinstance(value, dict):
        return parse_config(tp, value, command, f"{name}.")
    if typing.get_origin(tp) is tuple and isinstance(value, list):
        item = typing.get_args(tp)[0]
        return tuple(_json_value(item, v, f"{name}.{i}", command) for i, v in enumerate(value))
    kind, accepted = _SCALARS.get(tp, ("array" if typing.get_origin(tp) is tuple else "object", ()))
    whole = isinstance(value, float) and value.is_integer()
    if not isinstance(value, bool) and (isinstance(value, accepted) or tp is int and whole):
        return value
    raise ConfigError(f"config field {name}: {value!r} is not of type '{kind}'", name)


def load_config(path: str | Path) -> dict:
    """The JSON object of a config file; ``parse_config`` checks it against a subcommand's class."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            cfg = json.load(f)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


# ----------------------------- datasets -----------------------------


def load_dataset(path: str | Path) -> DataDistribution:
    """Read a CSV dataset with columns x_1..x_d, y and optional weight.

    Weights default to uniform and are normalized; malformed rows are
    reported with their line number.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"dataset {path} is empty") from None
        header = [h.strip() for h in header]
        x_cols = [i for i, h in enumerate(header) if h.startswith("x_")]
        if not x_cols or "y" not in header:
            raise ConfigError(f"dataset {path} must have columns x_1..x_d and y")
        y_col = header.index("y")
        w_col = header.index("weight") if "weight" in header else None
        atoms = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                x = np.array([float(row[i]) for i in x_cols])
                y = float(row[y_col])
                w = float(row[w_col]) if w_col is not None else 1.0
                atoms.append(DataAtom(x, y, w))
            except (ValueError, IndexError) as exc:
                raise ConfigError(f"dataset {path} line {lineno}: malformed row ({exc})") from exc
    if not atoms:
        raise ConfigError(f"dataset {path} has no data rows")
    try:
        return DataDistribution(atoms)
    except ValueError as exc:
        raise ConfigError(f"dataset {path}: {exc}") from exc


def save_dataset(pi: DataDistribution, path: str | Path):
    rows = [
        {**{f"x_{i+1}": repr(float(v)) for i, v in enumerate(a.x)},
         "y": repr(float(a.y)), "weight": repr(float(a.weight))}
        for a in pi.atoms
    ]
    write_csv(path, rows)


# ----------------------------- trajectory binary format -----------------------------
#
# Layout (little-endian):
#   magic (8 bytes) | version u32 | header_len u64 | header JSON (utf-8)
#   | times float64[n_times] | ensembles float64[n_times * N * p]
#   | sha256 of everything above (32 bytes)


def save_trajectory(traj: Trajectory, path: str | Path):
    header = {
        "kind": traj.kind,
        "n_times": int(len(traj.times)),
        "N": int(traj.n_particles),
        "p": int(traj.p),
        "hyper": asdict(traj.hyper),
        "meta": {k: v for k, v in traj.meta.items()
                 if isinstance(v, (int, float, str, bool, type(None)))},
    }
    hdr = json.dumps(header, sort_keys=True).encode("utf-8")
    body = b"".join([
        _MAGIC,
        struct.pack("<I", _VERSION),
        struct.pack("<Q", len(hdr)),
        hdr,
        np.ascontiguousarray(traj.times, dtype="<f8").tobytes(),
        np.ascontiguousarray(traj.ensembles, dtype="<f8").tobytes(),
    ])
    payload = body + hashlib.sha256(body).digest()
    _atomic_write_bytes(Path(path), payload)


def load_trajectory(path: str | Path) -> Trajectory:
    raw = Path(path).read_bytes()
    if len(raw) < 52 or raw[:8] != _MAGIC:
        raise ValueError(f"{path} is not a trajectory file")
    body, digest = raw[:-32], raw[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise ValueError(f"{path}: checksum mismatch (truncated or corrupted file)")
    version = struct.unpack("<I", body[8:12])[0]
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported trajectory version {version}")
    hdr_len = struct.unpack("<Q", body[12:20])[0]
    header = json.loads(body[20:20 + hdr_len].decode("utf-8"))
    off = 20 + hdr_len
    n_times, N, p = header["n_times"], header["N"], header["p"]
    times = np.frombuffer(body, dtype="<f8", count=n_times, offset=off).copy()
    off += 8 * n_times
    ens = np.frombuffer(body, dtype="<f8", count=n_times * N * p, offset=off)
    return Trajectory(
        kind=header["kind"],
        times=times,
        ensembles=ens.reshape(n_times, N, p).copy(),
        hyper=Hyperparams(**header["hyper"]),
        meta=header.get("meta", {}),
    )


def trajectory_to_csv(traj: Trajectory, path: str | Path):
    """Flat CSV export: one row per (time, particle), full-precision reprs.

    Rows are streamed to ``write_csv`` as tuples of formatted cells: each
    snapshot's time is formatted once, and every other cell is a particle
    index or the ``repr`` of a coordinate.
    """
    n_particles, p = traj.n_particles, traj.p
    indices = [str(k) for k in range(n_particles)]
    rows = chain.from_iterable(
        zip(repeat(repr(t), n_particles), indices,
            *(map(repr, snap[:, j].tolist()) for j in range(p)))
        for t, snap in zip(traj.times.tolist(), traj.ensembles)
    )
    write_csv(path, rows, columns=["time", "particle", *(f"w_{j+1}" for j in range(p))])


# ----------------------------- generic writers -----------------------------


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (np.floating,)):
        return repr(float(v))
    return str(v)


def write_csv(path: str | Path, rows, columns: list[str] | None = None):
    """Write a CSV table; a table without rows is an empty file.

    ``rows`` are dicts keyed by column, with cells formatted by ``_fmt`` and
    columns in the first row's key order.  With ``columns`` given, ``rows``
    is any iterable of already formatted cell sequences in that order.
    """
    path = Path(path)
    if columns is None:
        columns = list(rows[0].keys()) if rows else []
        rows = ([_fmt(r[c]) for c in columns] for r in rows)
    lines = [",".join(columns), *map(",".join, rows)]
    data = "\n".join(lines) + "\n" if len(lines) > 1 else ""
    _atomic_write_bytes(path, data.encode("utf-8"))


def write_json(path: str | Path, obj):
    _atomic_write_bytes(Path(path), (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def _atomic_write_bytes(path: Path, data: bytes):
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def sha256_file(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ----------------------------- manifests -----------------------------


@dataclass
class RunManifest:
    """Replayable record of one run: config + seed suffice to reproduce it."""

    command: str
    config: dict
    seed: int
    derived: dict = field(default_factory=dict)
    code_version: str = ""
    started_at: str = ""
    finished_at: str = ""
    outputs: dict[str, str] = field(default_factory=dict)  # path -> sha256

    @staticmethod
    def start(command: str, config: dict, seed: int, derived: dict | None = None) -> "RunManifest":
        return RunManifest(
            command=command,
            config=config,
            seed=seed,
            derived=derived or {},
            code_version=_code_version(),
            started_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        )

    def finish(self, out_dir: str | Path, files: list[str | Path]) -> Path:
        self.finished_at = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        out_dir = Path(out_dir)
        for f in files:
            f = Path(f)
            self.outputs[str(f.relative_to(out_dir) if f.is_relative_to(out_dir) else f)] = sha256_file(f)
        path = out_dir / "manifest.json"
        write_json(path, asdict(self))
        return path


def _code_version() -> str:
    import subprocess

    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5,
            cwd=Path(__file__).resolve().parent,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    from . import __version__

    return "chaoslab-" + __version__


def output_root(cli_out: str | None) -> Path:
    """Output directory: --out flag, else CHAOSLAB_OUT env var, else ./chaoslab-out."""
    if cli_out:
        return Path(cli_out)
    env = os.environ.get("CHAOSLAB_OUT")
    return Path(env) if env else Path("chaoslab-out")
