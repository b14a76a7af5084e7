"""Config loading, dataset ingestion, persistence, run manifests, and the heap.

Formats: JSON for configs and verdicts (human-diffable), CSV for tables
(plot-ready, full-precision reprs that re-parse bitwise), and a checksummed
little-endian binary layout for trajectories.  Manifests are written
atomically at run end and record everything needed to replay the run:
config echo, seed, derived quantities, and the SHA-256 of every input and
output file.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import struct
import time
import types
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from itertools import chain, islice, repeat
from pathlib import Path

import numpy as np

from .dynamics import Trajectory
from .model import ConfigError, DataAtom, DataDistribution, Hyperparams

__all__ = [
    "ConfigError",
    "RunManifest",
    "load_config",
    "parse_config",
    "unread_fields",
    "cannot_read",
    "load_dataset",
    "read_csv_columns",
    "save_trajectory",
    "load_trajectory",
    "trajectory_to_csv",
    "write_csv",
    "write_json",
    "output_root",
    "steady_heap",
]

_MAGIC = b"CHAOSTRJ"
_VERSION = 1
# rows formatted and written per block by write_csv: one snapshot of a
# 4096-particle trajectory, about 150 KiB of text at p = 1
_CSV_BLOCK_ROWS = 4096
_HASH_CHUNK = 1 << 18  # bytes sha256_file reads per update


# ----------------------------- configs -----------------------------

# each scalar annotation: the JSON type it takes, and the Python types json.load gives it
_SCALARS = {int: ("integer", int), float: ("number", (int, float)), str: ("string", str)}


def parse_config(cls, raw: dict, command: str, where: str = ""):
    """The config dataclass ``cls``, its schema, built from the JSON object ``raw``.

    An unknown key, a JSON type that does not fit the field's annotation, or
    a value ``__post_init__`` rejects is a ConfigError naming the field (nested
    ones as ``hyper.alpha``).  An ``int`` takes a whole number, never a bool,
    and gets it as an int (``64.0`` as 64); a ``tuple`` takes a JSON array."""
    hints = typing.get_type_hints(cls)
    unread = [where + key for key in set(raw) - {f.name for f in fields(cls)}]
    if unread:
        raise unread_fields(unread, command)
    kw = {key: _json_value(hints[key], value, where + key, command) for key, value in raw.items()}
    try:
        return cls(**kw)
    except ConfigError as exc:
        name = where + exc.field_name
        raise ConfigError(f"config field {name}: {exc}", name) from exc


def unread_fields(paths, reader: str) -> ConfigError:
    """The ConfigError for the config fields ``paths`` (dotted, as ``hyper.dt``) that
    ``reader``, a subcommand or one of its runs, never reads; it names the first."""
    paths = sorted(paths)
    return ConfigError(f"config fields {', '.join(paths)}: {reader} does not read them", paths[0])


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
        if isinstance(value, float) and not math.isfinite(value):
            # json.load reads NaN and Infinity, which are not JSON: a manifest would echo null
            raise ConfigError(f"config field {name}: {value!r} is not a finite number", name)
        return int(value) if tp is int else value
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


def cannot_read(path: str | Path, exc: OSError | UnicodeDecodeError) -> str:
    """"cannot read <path>: <reason>", the message for an input file that ``exc``, an
    OSError (a missing file, a directory) or a UnicodeDecodeError, kept from being read."""
    return f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}"


# ----------------------------- datasets -----------------------------


def read_csv_columns(path: str | Path, what: str, prefix: str, names: tuple[str, ...] = ()):
    """The numbers in the columns whose header starts with ``prefix`` (one at
    least), then in those of ``names`` the header has, of the CSV file at ``path``.

    Returns the chosen column names, their cells as a ``(rows, columns)`` float
    array and each row's line number; blank lines are skipped.  A row with fewer
    cells than the header, a cell that is not a number, or a file without rows
    is a ConfigError naming the ``what`` (a dataset, a sample file), the path
    and the line.  Non-finite cells are passed on for the caller to judge."""
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = [h.strip() for h in next(reader, [])]
        cols = [i for i, h in enumerate(header) if h.startswith(prefix)]
        if not cols:
            raise ConfigError(f"{what} {path} needs columns {prefix}1, {prefix}2, ...")
        cols += [header.index(name) for name in names if name in header]
        rows, lines = [], []
        for cells in reader:
            if not any(c.strip() for c in cells):
                continue
            where = f"{what} {path} line {reader.line_num}"
            if len(cells) < len(header):
                raise ConfigError(f"{where}: {len(cells)} cells, header has {len(header)}")
            try:
                rows.append([float(cells[i]) for i in cols])
            except ValueError as exc:
                raise ConfigError(f"{where}: malformed cell ({exc})") from exc
            lines.append(reader.line_num)
    if not rows:
        raise ConfigError(f"{what} {path} has no rows")
    return [header[i] for i in cols], np.array(rows), lines


def load_dataset(path: str | Path) -> DataDistribution:
    """Read a CSV dataset with columns x_1..x_d, y and optional weight.

    Weights default to uniform and are normalized; malformed rows are
    reported with their line number.
    """
    names, values, lines = read_csv_columns(path, "dataset", "x_", ("y", "weight"))
    if "y" not in names:
        raise ConfigError(f"dataset {path} must have columns x_1..x_d and y")
    d = names.index("y")  # the x_ columns come first, then y and weight
    atoms = []
    for lineno, row in zip(lines, values):
        try:
            atoms.append(DataAtom(row[:d], row[d], row[d + 1] if "weight" in names else 1.0))
        except ValueError as exc:
            raise ConfigError(f"dataset {path} line {lineno}: {exc}") from exc
    try:
        return DataDistribution(atoms)
    except ValueError as exc:
        raise ConfigError(f"dataset {path}: {exc}") from exc


# ----------------------------- trajectory binary format -----------------------------
#
# Layout (little-endian):
#   magic (8 bytes) | version u32 | header_len u64 | header JSON (utf-8)
#   | times float64[n_times] | ensembles float64[n_times * N * p]
#   | sha256 of everything above (32 bytes)


def save_trajectory(traj: Trajectory, path: str | Path):
    """Write ``traj`` in the binary layout above, one snapshot at a time.

    The SHA-256 trailer is updated as each piece is written, so no joined copy
    of the file is ever held."""
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
    head = [_MAGIC, struct.pack("<I", _VERSION), struct.pack("<Q", len(hdr)), hdr,
            np.ascontiguousarray(traj.times, dtype="<f8")]
    snapshots = (np.ascontiguousarray(snap, dtype="<f8") for snap in traj.ensembles)
    _atomic_write(Path(path), _with_sha256(chain(head, snapshots)))


def _with_sha256(chunks):
    """The byte chunks ``chunks``, then the SHA-256 digest of all of them."""
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
        yield chunk
    yield digest.digest()


def load_trajectory(path: str | Path) -> Trajectory:
    raw = Path(path).read_bytes()
    if len(raw) < 52 or raw[:8] != _MAGIC:
        raise ValueError(f"{path} is not a trajectory file")
    # a memoryview slice hashes the body without copying it out of raw
    if hashlib.sha256(memoryview(raw)[:-32]).digest() != raw[-32:]:
        raise ValueError(f"{path}: checksum mismatch (truncated or corrupted file)")
    version = struct.unpack_from("<I", raw, 8)[0]
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported trajectory version {version}")
    hdr_len = struct.unpack_from("<Q", raw, 12)[0]
    header = json.loads(raw[20:20 + hdr_len].decode("utf-8"))
    off = 20 + hdr_len
    n_times, N, p = header["n_times"], header["N"], header["p"]
    times = np.frombuffer(raw, dtype="<f8", count=n_times, offset=off).copy()
    off += 8 * n_times
    ens = np.frombuffer(raw, dtype="<f8", count=n_times * N * p, offset=off)
    return Trajectory(
        kind=header["kind"],
        times=times,
        ensembles=ens.reshape(n_times, N, p).copy(),
        hyper=Hyperparams(**header["hyper"]),
        meta=header.get("meta", {}),
    )


def trajectory_to_csv(traj: Trajectory, path: str | Path):
    """Flat CSV export: one row per (time, particle), full-precision reprs.

    Rows are streamed to ``write_csv`` as tuples of formatted cells, one
    snapshot's at a time: each snapshot's time is formatted once, and every
    other cell is a particle index or the ``repr`` of a coordinate.
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
    is any iterable of already formatted cell sequences in that order.  Rows
    are formatted and written ``_CSV_BLOCK_ROWS`` at a time, so a table given
    as an iterator is never held whole.
    """
    if columns is None:
        columns = list(rows[0].keys()) if rows else []
        rows = ([_fmt(r[c]) for c in columns] for r in rows)
    _atomic_write(Path(path), _csv_blocks(columns, iter(rows)))


def _csv_blocks(columns: list[str], rows):
    """The encoded CSV text of ``rows`` under the header ``columns``, a block of
    rows at a time; nothing, not even the header, when there is no row."""
    first = next(rows, None)
    if first is None:
        return
    block = [columns, first, *islice(rows, _CSV_BLOCK_ROWS - 1)]
    while block:
        yield ("\n".join(map(",".join, block)) + "\n").encode("utf-8")
        block = list(islice(rows, _CSV_BLOCK_ROWS))


def _finite_json(obj):
    """``obj`` with every non-finite float, which JSON cannot express, replaced by None."""
    if isinstance(obj, float):  # numpy's float64 included
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_json(v) for v in obj]
    return obj


def write_json(path: str | Path, obj):
    """Write ``obj`` as strict JSON: a NaN or infinity (an n/a verdict, a moment or a
    distance that overflowed) is written as null, never as a bare constant."""
    text = json.dumps(_finite_json(obj), indent=2, sort_keys=True, allow_nan=False)
    _atomic_write(Path(path), ((text + "\n").encode("utf-8"),))


def _atomic_write(path: Path, chunks):
    """Write the byte chunks ``chunks`` to ``path`` as one atomic replacement.

    They go to a ``.tmp`` file beside ``path``, which is flushed, fsynced and
    then renamed over ``path``.  If ``chunks`` raises, the ``.tmp`` file is
    removed, an earlier file at ``path`` is left as it was, and the error
    propagates."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
            f.flush()
            os.fsync(f.fileno())
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def sha256_file(path: str | Path) -> str:
    """The SHA-256 of the file at ``path``, read ``_HASH_CHUNK`` bytes at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        while chunk := f.read(_HASH_CHUNK):
            digest.update(chunk)
    return digest.hexdigest()


# ----------------------------- manifests -----------------------------


@dataclass
class RunManifest:
    """Replayable record of one run: config, seed and the input files hashed in
    ``inputs`` suffice to reproduce it."""

    command: str
    config: dict
    seed: int
    derived: dict = field(default_factory=dict)
    code_version: str = ""
    started_at: str = ""
    finished_at: str = ""
    outputs: dict[str, str] = field(default_factory=dict)  # path -> sha256
    inputs: dict[str, str] = field(default_factory=dict)  # resolved path -> sha256
    environment: dict = field(default_factory=dict)  # where it ran: see finish

    @staticmethod
    def start(command: str, config: dict, seed: int, workers: int = 1) -> "RunManifest":
        return RunManifest(
            command=command,
            config=config,
            seed=seed,
            code_version=_code_version(),
            started_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            environment={"workers": workers},
        )

    def finish(self, out_dir: str | Path, files: list[str | Path]) -> Path:
        """Checksum ``files``, record the interpreter, numpy, CPU count, platform,
        whether ``steady_heap`` took and the minor page faults so far beside the
        worker count, and write ``manifest.json`` into ``out_dir``."""
        import platform  # here, so that a CLI call's start-up does not pay for it
        import resource

        self.finished_at = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        # the faults of this process and of its waited-for children: the joined
        # pool workers, and the git describe of _code_version
        faults = sum(resource.getrusage(who).ru_minflt
                     for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        self.environment.update(python=platform.python_version(), numpy=np.__version__,
                                cpu_count=os.cpu_count(), platform=platform.platform(),
                                steady_heap=_heap_steady, minor_page_faults=faults)
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


# steady_heap's mallopt calls: glibc's M_TRIM_THRESHOLD and M_MMAP_THRESHOLD, in bytes
# (32 MiB is glibc's largest mmap threshold on 64-bit)
_HEAP_THRESHOLDS = ((-1, 128 << 20), (-3, 32 << 20))
# what steady_heap last returned in this process: malloc's settings are per process too
_heap_steady = False


def steady_heap() -> bool:
    """Let this process reuse the heap pages it has faulted in; True if glibc took it.

    glibc's malloc serves a large block by a fresh ``mmap`` and unmaps it on
    free, and gives the free memory at its heap's top back to the system
    past a trim threshold.  Both thresholds start at 128 KiB, small beside a
    step's temporaries, so a loop that allocates and frees them every step
    faults their pages in again every step.  This sets the trim threshold to
    128 MiB and the mmap threshold to 32 MiB through ``mallopt``; freed heap
    memory then stays with the process, up to the trim threshold.  Without
    glibc's ``mallopt`` it changes nothing and returns False.  The CLI calls
    it at start-up and every pool worker as its initializer; a library
    caller keeps malloc's defaults.
    """
    global _heap_steady
    import ctypes  # numpy has imported it already

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # not glibc
        _heap_steady = False
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    _heap_steady = all([mallopt(param, value) == 1 for param, value in _HEAP_THRESHOLDS])
    return _heap_steady


def output_root(cli_out: str | None) -> Path:
    """Output directory: --out flag, else CHAOSLAB_OUT env var, else ./chaoslab-out."""
    if cli_out:
        return Path(cli_out)
    env = os.environ.get("CHAOSLAB_OUT")
    return Path(env) if env else Path("chaoslab-out")
