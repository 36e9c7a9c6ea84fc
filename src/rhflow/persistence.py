"""Deterministic on-disk format for runs and reports.

A run directory (format version 2) holds

    meta.json        grid/variant/schedule echo, times, per-snapshot
                     constants, halt reason, scenario echo
    u.npy            the heat field of every snapshot, shape (S, *grid.shape)
    g.npy            the metric, shape (S, *grid.shape, d, d)
    phi.npy          the map, shape (S, *grid.shape, m)
    manifest.json    sha256 of every other file; written last, so its
                     presence marks a complete directory

Each array file is the version-1.0 ``.npy`` header that ``np.save`` writes
for the stacked float64 field, then the field's C-order bytes, written
from the array itself; its digest is taken over those same bytes.  So the
files are the ones ``np.save`` writes, without pickling, and round-trip
every double exactly.  A directory whose meta.json lists only u in
``fields_saved`` (a u-only save) is refused on reload.  An ``.npy`` header
holds only the dtype, the order and the shape, so the same trajectory
always produces byte-identical files.  A format-1 directory (one
``snap_NNNNN.json`` per snapshot) is refused too; its meta.json echoes the
scenario, which can be run again.

JSON text (meta.json, manifests, reports, the CLI's output) is written by
``dumps`` in one pass: floats with 17 significant digits ("%.17g"), which
round-trips IEEE doubles exactly, and dict keys emitted sorted.
``load_run`` reads each file once, checks it against the manifest digest
before parsing it, and views a stored field in the bytes read.  It reads
only the layout saves write: any other ``.npy`` layout (another header
version, Fortran order, pickled objects, another dtype or shape, a size
other than the header implies) is refused naming the file, and the CLI
exits 2.  It
validates the metric stack once and forms g^{ij} and sqrt(det g) in one
pass over it; each snapshot's `MetricFields` holds views of those stacks.
It checks the structure of the manifest
(its ``files`` table, a format version equal to meta.json's, and the
``wall_time_s`` that older manifests carry) and of meta.json (`META`:
every key, each value's type by the readers of `scenarios`, the snapshot
times, one alpha and constants object per snapshot, ``completed`` exactly
when ``halt_reason`` is null); an error names the file and the key.
Reports (margin checks, Harnack pair tables) are saved as a JSON summary
plus a CSV of per-snapshot or per-pair rows with the same float format.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
from functools import partial
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path

import numpy as np
from numpy.lib import format as npy

from . import geometry
from .flow import BlowUpError, Snapshot, Trajectory, snapshot_count
from .scenarios import (check_keys, choice, integer, json_list, json_object, number,
                        parse_grid, parse_schedule, parse_variant)

FORMAT_VERSION = 2
FIELDS = ("u", "g", "phi")


class HashMismatchError(ValueError):
    """A stored file does not match its manifest digest."""


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    s = "%.17g" % x
    # keep the token a float on reload (json would parse "2" as an int)
    if "." not in s and "e" not in s and "n" not in s:
        s += ".0"
    return s


# the JSON token of a value of exactly one of these types; other types,
# subclasses of these among them, take the dispatch of `_emit`
_TOKEN = {str: _encode_str, float: _format_float, int: int.__repr__,
          bool: lambda b: "true" if b else "false", type(None): lambda _: "null"}


def dumps(obj) -> str:
    """JSON text with %.17g floats and sorted keys; bitwise reproducible."""
    parts = []
    _emit(obj, parts.append)
    return "".join(parts)


def _emit(obj, emit) -> None:
    """Pass the JSON text of ``obj`` to ``emit`` in pieces, in order (`dumps`)."""
    token = _TOKEN.get(type(obj))
    if token is not None:
        emit(token(obj))
    elif isinstance(obj, dict):
        emit("{")
        sep = ""
        for k, v in sorted(obj.items(), key=lambda kv: str(kv[0])):
            emit(sep + _encode_str(str(k)) + ":")
            _emit(v, emit)
            sep = ","
        emit("}")
    elif isinstance(obj, (list, tuple)):
        emit("[")
        sep = ""
        for v in obj:
            emit(sep)
            _emit(v, emit)
            sep = ","
        emit("]")
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), emit)
    elif isinstance(obj, (bool, np.bool_)):
        emit("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        emit(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        emit(_format_float(float(obj)))
    elif isinstance(obj, str):
        emit(_encode_str(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _field_parts(traj: Trajectory, name: str) -> tuple[bytes, memoryview]:
    """One field stacked over the snapshots, as the two parts of a .npy
    file: the version-1.0 header `np.save` writes, and the array's C-order
    bytes (a view, not a copy)."""
    stacked = np.stack([getattr(s, name) for s in traj.snapshots])
    stacked = stacked.astype(np.float64, copy=False)
    finite = np.isfinite(stacked).reshape(len(stacked), -1).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(
            f"cannot save non-finite {name} at snapshot {i} (t={traj.snapshots[i].t!r})"
        )
    header = io.BytesIO()
    npy.write_array_header_1_0(header, npy.header_data_from_array_1_0(stacked))
    return header.getvalue(), memoryview(stacked).cast("B")


def _write(path: Path, parts) -> str:
    """Write the byte strings ``parts`` one after another as the file
    ``path``, and return the sha256 of what was written."""
    digest = hashlib.sha256()
    with open(path, "wb") as f:
        for part in parts:
            f.write(part)
            digest.update(part)
    return digest.hexdigest()


def save_run(traj: Trajectory, out_dir, overwrite: bool = False) -> Path:
    """Write a trajectory to a run directory and return its path.

    Every file is serialised (and checked finite) before the directory is
    touched.  On overwrite the old manifest goes first, so a save that is
    cut short leaves a directory that reads as incomplete.
    """
    out = Path(out_dir)
    if (out / "manifest.json").exists() and not overwrite:
        raise FileExistsError(f"{out} already holds a run (pass overwrite=True)")

    grid = traj.grid
    meta = {
        "format_version": FORMAT_VERSION,
        "grid": {
            "dim": grid.dim,
            "n_points": list(grid.n_points),
            "lengths": list(grid.lengths),
        },
        "variant": {
            "kind": traj.variant.kind,
            "m": traj.variant.m,
            "mu": traj.variant.mu,
        },
        "schedule": {
            "alpha0": traj.schedule.alpha0,
            "alpha_bar": traj.schedule.alpha_bar,
            "form": traj.schedule.form,
            "rate": traj.schedule.rate,
        },
        "dt_snapshot": traj.dt,
        "dt_sub": traj.dt_sub,
        "n_snapshots": len(traj.snapshots),
        "times": [s.t for s in traj.snapshots],
        "alphas": list(traj.alphas),
        "constants": traj.constants,
        "halt_reason": traj.halt_reason,
        "completed": traj.completed,
        "fields_saved": list(FIELDS),
        "phi_components": int(traj.snapshots[0].phi.shape[-1]),
        "scenario": traj.scenario,
    }
    blobs = {"meta.json": (dumps(meta).encode(),)}
    for name in FIELDS:
        blobs[f"{name}.npy"] = _field_parts(traj, name)

    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").unlink(missing_ok=True)
    files = {name: _write(out / name, parts) for name, parts in blobs.items()}
    manifest = {"format_version": FORMAT_VERSION, "files": files}
    _write(out / "manifest.json", (dumps(manifest).encode(),))
    return out


def _read(out: Path, name: str, digests: dict) -> bytearray:
    """The bytes of one file, read once into a writable buffer and checked
    against its manifest digest."""
    if name not in digests:
        raise HashMismatchError(f"{name}: not listed in the manifest")
    with open(out / name, "rb") as f:
        data = bytearray(os.fstat(f.fileno()).st_size)
        del data[f.readinto(data):]
    actual = hashlib.sha256(data).hexdigest()
    if actual != digests[name]:
        raise HashMismatchError(
            f"{name}: manifest says {digests[name][:12]}..., file is {actual[:12]}..."
        )
    return data


def _npy_header(data: bytearray) -> tuple[tuple, np.dtype, int]:
    """(shape, dtype, data offset) of the .npy file ``data``, if it has
    the layout `save_run` writes: a version-1.0 header for a C-order array
    of plain values, and every byte that header implies; else ValueError."""
    start = len(npy.MAGIC_PREFIX) + 2
    if data[:len(npy.MAGIC_PREFIX)] != npy.MAGIC_PREFIX or len(data) < start:
        raise ValueError("no .npy magic")
    if data[start - 2:start] != b"\x01\x00":
        raise ValueError(f"version {data[start - 2]}.{data[start - 1]} header; only 1.0 is read")
    offset = start + 2 + int.from_bytes(data[start:start + 2], "little")
    shape, fortran, dtype = npy.read_array_header_1_0(io.BytesIO(data[start:offset]))
    if fortran or dtype.hasobject:
        raise ValueError("Fortran-order array" if fortran else f"pickled {dtype} array")
    size = offset + math.prod(shape) * dtype.itemsize
    if len(data) != size:
        raise ValueError(f"{len(data)} bytes, the header implies {size}")
    return shape, dtype, offset


def _load_npy(out: Path, name: str, digests: dict, shape: tuple) -> np.ndarray:
    """A stored field, as a view of the file's verified bytes.  Any file
    but a float64 array of ``shape`` in the layout `_npy_header` reads is
    refused, naming the file."""
    data = _read(out, name, digests)
    try:
        stored, dtype, offset = _npy_header(data)
    except ValueError as exc:
        raise ValueError(f"{name}: not a readable .npy file ({exc})") from None
    if dtype != np.float64 or stored != shape:
        raise ValueError(f"{name}: holds {dtype} {stored}, meta.json implies float64 {shape}")
    return np.frombuffer(data, np.float64, math.prod(shape), offset).reshape(shape)


def _snapshot(t, g, phi, u, i: int) -> Snapshot:
    """A stored snapshot; a field it rejects is a ValueError naming the
    file that holds it and the index."""
    try:
        return Snapshot(t, g, phi, u)
    except (BlowUpError, ValueError) as exc:
        # Snapshot checks the metric, then the map, then u
        if not isinstance(exc, BlowUpError):
            field = "g"
        else:
            field = "phi" if not np.isfinite(phi).all() else "u"
        raise ValueError(f"{field}.npy: snapshot {i}: {exc}") from exc


def _snapshots(times, g, phi, u) -> list[Snapshot]:
    """The stored snapshots.  The checks `Snapshot` makes run once over
    each stack, and g^{ij} and sqrt(det g) are formed in one pass over the
    metric stack, each snapshot's `MetricFields` holding views of them.  If
    any field is refused, the snapshots are built one by one by `_snapshot`,
    so that the error names the first refused field and its index."""
    try:
        lam = geometry.check_metric(g)
    except ValueError:
        lam = None
    if lam is None or not (np.isfinite(phi).all() and u.min() > 0 and u.max() < np.inf):
        return [_snapshot(times[i], g[i], phi[i], u[i], i) for i in range(len(times))]
    d, shape = g.shape[-1], g.shape[:-2]
    comp = geometry._components(g)
    inv = geometry._sym(d, lambda i, j: np.empty(shape))
    sqrt_det = np.empty(shape)
    scratch = (np.empty(shape), np.empty(shape)) if d == 2 else ()
    geometry._run(geometry._inverse_calls(comp, inv, sqrt_det, *scratch))
    lam_min = lam.reshape(len(times), -1).min(axis=1)
    snaps = []
    for s, t in enumerate(times):
        gs = g[s]
        metric = geometry.MetricFields._assembled(
            gs, geometry._components(gs), geometry._sym(d, lambda i, j: inv[i][j][s]),
            sqrt_det[s], float(lam_min[s]))
        snaps.append(Snapshot._unchecked(t, gs, phi[s], u[s], metric))
    return snaps


# every key of meta.json, and the reader (value, key) -> value that checks it;
# `completed` is checked against halt_reason in `_header`
META = {
    "format_version": integer,
    "grid": parse_grid,
    "variant": parse_variant,
    "schedule": parse_schedule,
    "dt_snapshot": number,
    "dt_sub": number,
    "n_snapshots": integer,
    "times": partial(json_list, read=number),
    "alphas": partial(json_list, read=number),
    "constants": partial(json_list, read=json_object),
    "halt_reason": lambda raw, key: raw if raw is None else choice(raw, key),
    "completed": lambda raw, key: raw,
    "fields_saved": partial(json_list, read=partial(choice, options=FIELDS)),
    "phi_components": integer,
    "scenario": lambda raw, key: raw if raw is None else json_object(raw, key),
}


def _file_object(data: bytes, name: str) -> dict:
    """The JSON object a run file holds, else a ValueError naming the file."""
    try:
        obj = json.loads(data)
    except ValueError as exc:
        raise ValueError(f"{name}: not valid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{name}: must hold a JSON object, got a {type(obj).__name__}")
    return obj


def _in_file(name: str, parse, *args):
    """parse(*args), with a ValueError it raises prefixed by the file name."""
    try:
        return parse(*args)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _digests(manifest: dict) -> tuple[dict, int]:
    """The manifest's file -> sha256 table and its format version.  Its
    only other key is the save's wall time, ``wall_time_s``, which
    manifests written before two saves were byte-identical carry."""
    check_keys(manifest, {"files": True, "format_version": True, "wall_time_s": False}, "")
    digests = json_object(manifest["files"], "files")
    for name, digest in digests.items():
        choice(digest, f"files.{name}")
    if "wall_time_s" in manifest:
        number(manifest["wall_time_s"], "wall_time_s")
    return digests, integer(manifest["format_version"], "format_version")


def _header(meta: dict) -> dict:
    """meta.json's values, each checked by its `META` reader, the counts
    and steps positive.  Its times must increase and step by dt_snapshot
    from the first, to within the tolerance of `flow.snapshot_count`."""
    check_keys(meta, dict.fromkeys(META, True), "")
    head = {key: read(meta[key], key) for key, read in META.items()}
    for key in ("dt_snapshot", "dt_sub", "n_snapshots", "phi_components"):
        if not head[key] > 0:
            raise ValueError(f"{key} must be positive, got {meta[key]!r}")
    if head["completed"] is not (head["halt_reason"] is None):
        raise ValueError(f"completed must be true exactly when halt_reason is null, "
                         f"got {meta['completed']!r}")
    times, dt = head["times"], head["dt_snapshot"]
    for key in ("times", "alphas", "constants"):
        if len(head[key]) != head["n_snapshots"]:
            raise ValueError(f"{len(head[key])} {key} for {head['n_snapshots']} snapshots")
    for i in range(1, len(times)):
        if not times[i] > times[i - 1]:
            raise ValueError(f"times must increase, but times[{i}]={times[i]!r} "
                             f"follows {times[i - 1]!r}")
        try:
            steps = snapshot_count(times[i] - times[0], dt, 1)
        except ValueError:
            steps = None
        if steps != i:
            raise ValueError(f"times[{i}]={times[i]!r} is not times[0] + {i} dt_snapshot "
                             f"to within 1e-9 (dt_snapshot={dt!r})")
    return head


def load_run(run_dir) -> Trajectory:
    """Rebuild a trajectory from a run directory.

    Every file read must be listed in the manifest and match its digest.
    Only the file names of the format are read.  A manifest or meta.json of
    the wrong structure, a format version other than `FORMAT_VERSION`, and
    snapshot times that do not step by dt_snapshot, are a ValueError naming
    the file and the key.
    """
    out = Path(run_dir)
    manifest_path = out / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"{out} has no manifest.json (incomplete run?)")
    manifest = _file_object(manifest_path.read_bytes(), "manifest.json")
    digests, version = _in_file("manifest.json", _digests, manifest)
    meta = _file_object(_read(out, "meta.json", digests), "meta.json")
    head = _in_file("meta.json", _header, meta)
    if head["format_version"] != FORMAT_VERSION:
        raise ValueError(f"meta.json: format_version {head['format_version']} is not read "
                         f"(only {FORMAT_VERSION}); run the scenario it echoes again")
    if version != head["format_version"]:
        raise ValueError(f"manifest.json: format_version {version}, but meta.json has "
                         f"{head['format_version']}")
    if "g" not in head["fields_saved"]:
        raise ValueError(
            f"{out} was saved u-only and holds no metric; run its scenario again"
        )
    grid, times, n = head["grid"], head["times"], head["n_snapshots"]
    shapes = {"u": grid.shape, "g": grid.shape + (grid.dim, grid.dim),
              "phi": grid.shape + (head["phi_components"],)}
    u, g, phi = (_load_npy(out, f"{f}.npy", digests, (n,) + shapes[f]) for f in FIELDS)
    return Trajectory(
        grid=grid,
        variant=head["variant"],
        schedule=head["schedule"],
        snapshots=_snapshots(times, g, phi, u),
        dt=head["dt_snapshot"],
        dt_sub=head["dt_sub"],
        halt_reason=head["halt_reason"],
        constants=head["constants"],
        alphas=head["alphas"],
        scenario=head["scenario"],
    )


# ---------------------------------------------------------------------------
# report files


def _fmt_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return _format_float(float(v))
    if isinstance(v, (tuple, list)):
        return ";".join(_fmt_cell(x) for x in v)
    return str(v)


def _write_csv(path: Path, rows: list[dict]) -> Path:
    """One header line of the first row's keys, then one line per row."""
    header = list(rows[0].keys())
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt_cell(row[k]) for k in header))
    path.write_text("\n".join(lines) + "\n")
    return path


def save_report(report, out_dir, name: str) -> dict:
    """Write <name>.json (summary) and, when rows exist, <name>.csv.

    Accepts the report objects of the estimate/Harnack modules (anything
    with summary()/rows()) or a plain dict.  Returns {"json": path, ...}.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = report.summary() if hasattr(report, "summary") else dict(report)
    rows = report.rows() if hasattr(report, "rows") else summary.pop("rows", None)
    paths = {}
    json_path = out / f"{name}.json"
    json_path.write_text(dumps(summary))
    paths["json"] = json_path
    if rows:
        paths["csv"] = _write_csv(out / f"{name}.csv", rows)
    return paths


def save_plotdata(report, out_dir, name: str) -> dict:
    """Plot-ready CSVs for an estimate report: the margin timeline and the
    LHS/RHS series at the worst gated node."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"margin_timeline": _write_csv(out / f"{name}_margin_timeline.csv",
                                           report.rows())}
    if hasattr(report, "worst"):
        node = report.worst["node"]
        S = report.lhs.shape[0]
        series = {"t": report.times, "lhs": report.lhs.reshape(S, -1)[:, node],
                  "rhs": report.rhs.reshape(S, -1)[:, node]}
        if report.alt is not None:
            series["rhs_alt"] = report.alt["rhs"].reshape(S, -1)[:, node]
        rows = [{k: float(v[i]) for k, v in series.items()} for i in range(S)]
        paths["worst_node"] = _write_csv(out / f"{name}_worst_node.csv", rows)
    return paths
