"""Deterministic on-disk format for runs and reports.

A run directory (format version 2) holds

    meta.json        grid/variant/schedule echo, times, per-snapshot
                     constants, halt reason, scenario echo
    u.npy            the heat field of every snapshot, shape (S, *grid.shape)
    g.npy            the metric, shape (S, *grid.shape, d, d)
    phi.npy          the map, shape (S, *grid.shape, m)
    manifest.json    sha256 of every other file plus wall time; written
                     last, so its presence marks a complete directory

The arrays are C-order float64 written by ``np.save`` without pickling, so
they round-trip every double exactly.  A directory whose meta.json lists
only u in ``fields_saved`` (a u-only save) is refused on reload.  An
``.npy`` header holds only the dtype, the order and the shape, so the
same trajectory always produces byte-identical files.  Version 1
directories, one ``snap_NNNNN.json`` per snapshot, are still read.

JSON text (meta.json, manifests, reports) is written by ``dumps``: floats
with 17 significant digits ("%.17g"), which round-trips IEEE doubles
exactly, and dict keys emitted sorted.  ``load_run`` checks every file it
parses against the manifest digest.  Reports (margin checks, Harnack pair
tables) are saved as a JSON summary plus a CSV of per-snapshot or per-pair
rows with the same float format.
"""

from __future__ import annotations

import hashlib
import io
import json
import time
from pathlib import Path

import numpy as np

from .flow import AlphaSchedule, BlowUpError, FlowVariant, Snapshot, Trajectory
from .grid import Grid

FORMAT_VERSION = 2
FIELDS = ("u", "g", "phi")


class HashMismatchError(ValueError):
    """A stored file does not match its manifest digest."""


def _format_float(x: float) -> str:
    if not np.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    s = "%.17g" % x
    # keep the token a float on reload (json would parse "2" as an int)
    if "." not in s and "e" not in s and "n" not in s:
        s += ".0"
    return s


def dumps(obj) -> str:
    """JSON text with %.17g floats and sorted keys; bitwise reproducible."""
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        body = ",".join(f"{json.dumps(str(k))}:{dumps(v)}" for k, v in items)
        return "{" + body + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return dumps(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _snap_name(i: int) -> str:
    return f"snap_{i:05d}.json"


def _field_bytes(traj: Trajectory, name: str) -> bytes:
    """One field stacked over the snapshots, as the bytes of a .npy file."""
    stacked = np.stack([getattr(s, name) for s in traj.snapshots])
    stacked = stacked.astype(np.float64, copy=False)
    finite = np.isfinite(stacked).reshape(len(stacked), -1).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(
            f"cannot save non-finite {name} at snapshot {i} (t={traj.snapshots[i].t!r})"
        )
    buf = io.BytesIO()
    np.save(buf, stacked, allow_pickle=False)
    return buf.getvalue()


def save_run(traj: Trajectory, out_dir, overwrite: bool = False) -> Path:
    """Write a trajectory to a run directory and return its path.

    Every file is serialised (and checked finite) before the directory is
    touched.  On overwrite the old manifest goes first, so a save that is
    cut short leaves a directory that reads as incomplete.
    """
    t0 = time.perf_counter()
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
    blobs = {"meta.json": dumps(meta).encode()}
    for name in FIELDS:
        blobs[f"{name}.npy"] = _field_bytes(traj, name)

    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").unlink(missing_ok=True)
    for stale in out.glob("snap_*.json"):
        stale.unlink()
    files = {}
    for name, data in blobs.items():
        (out / name).write_bytes(data)
        files[name] = hashlib.sha256(data).hexdigest()
    manifest = {
        "format_version": FORMAT_VERSION,
        "files": files,
        "wall_time_s": time.perf_counter() - t0,
    }
    (out / "manifest.json").write_text(dumps(manifest))
    return out


def _read(out: Path, name: str, digests: dict) -> bytes:
    """The bytes of one file, checked against its manifest digest."""
    if name not in digests:
        raise HashMismatchError(f"{name}: not listed in the manifest")
    data = (out / name).read_bytes()
    actual = hashlib.sha256(data).hexdigest()
    if actual != digests[name]:
        raise HashMismatchError(
            f"{name}: manifest says {digests[name][:12]}..., file is {actual[:12]}..."
        )
    return data


def _load_npy(out: Path, name: str, digests: dict, shape: tuple) -> np.ndarray:
    data = _read(out, name, digests)
    try:
        arr = np.load(io.BytesIO(data), allow_pickle=False)
    except ValueError as exc:
        raise ValueError(f"{name}: not a readable .npy file ({exc})") from exc
    if arr.dtype != np.float64 or arr.shape != shape:
        raise ValueError(
            f"{name}: holds {arr.dtype} {arr.shape}, meta.json implies float64 {shape}"
        )
    return arr


def _snapshot(t, g, phi, u, names: dict, i: int) -> Snapshot:
    """A stored snapshot; a field it rejects is a ValueError naming the
    file that holds it (``names`` maps field to file) and the index."""
    try:
        return Snapshot(t, g, phi, u)
    except (BlowUpError, ValueError) as exc:
        # Snapshot checks the metric, then the map, then u
        if not isinstance(exc, BlowUpError):
            field = "g"
        else:
            field = "phi" if not np.isfinite(phi).all() else "u"
        raise ValueError(f"{names[field]}: snapshot {i}: {exc}") from exc


def load_run(run_dir) -> Trajectory:
    """Rebuild a trajectory from a run directory.

    Every file read must be listed in the manifest and match its digest.
    Only the file names of the directory's format are read.
    """
    out = Path(run_dir)
    manifest_path = out / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"{out} has no manifest.json (incomplete run?)")
    digests = json.loads(manifest_path.read_text())["files"]
    meta = json.loads(_read(out, "meta.json", digests))
    if "g" not in meta["fields_saved"]:
        raise ValueError(
            f"{out} was saved u-only and holds no metric; run its scenario again"
        )
    grid = Grid(
        dim=meta["grid"]["dim"],
        n_points=tuple(meta["grid"]["n_points"]),
        lengths=tuple(meta["grid"]["lengths"]),
    )
    variant = FlowVariant(**meta["variant"])
    schedule = AlphaSchedule(**meta["schedule"])
    d = meta["phi_components"]
    n = meta["n_snapshots"]
    version = meta.get("format_version")
    snaps = []
    if version == 2:
        times = meta["times"]
        if len(times) != n:
            raise ValueError(f"meta.json: {len(times)} times for {n} snapshots")
        shapes = {
            "u": (n,) + grid.shape,
            "g": (n,) + grid.shape + (grid.dim, grid.dim),
            "phi": (n,) + grid.shape + (d,),
        }
        names = {f: f"{f}.npy" for f in FIELDS}
        u, g, phi = (_load_npy(out, names[f], digests, shapes[f]) for f in FIELDS)
        for i in range(n):
            snaps.append(_snapshot(times[i], g[i], phi[i], u[i], names, i))
    elif version == 1:
        for i in range(n):
            name = _snap_name(i)
            payload = json.loads(_read(out, name, digests))
            g = np.array(payload["g"]).reshape(grid.shape + (grid.dim, grid.dim))
            phi = np.array(payload["phi"]).reshape(grid.shape + (d,))
            u = np.array(payload["u"]).reshape(grid.shape)
            snaps.append(_snapshot(payload["t"], g, phi, u, dict.fromkeys(FIELDS, name), i))
    else:
        raise ValueError(f"meta.json: unsupported format_version {version!r}")
    return Trajectory(
        grid=grid,
        variant=variant,
        schedule=schedule,
        snapshots=snaps,
        dt=meta["dt_snapshot"],
        dt_sub=meta["dt_sub"],
        halt_reason=meta["halt_reason"],
        constants=meta["constants"],
        alphas=meta["alphas"],
        scenario=meta["scenario"],
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
