"""Scenario configs: validated JSON descriptions of complete runs.

A scenario pins everything a run needs: grid, flow variant, coupling
schedule, initial data profiles, time window, substep, snapshot stride and
integrator.  Loading is strict: unknown fields are rejected by dotted path,
and the substep is checked against the explicit stability bound of the
initial metric at load time, not step time.

Initial data comes from a small typed catalog.  Scalar fields (u, map
components, conformal exponents) are built from:

    constant        {"type": "constant", "value": v}
    sine_sum        {"type": "sine_sum", "offset": o, "amplitude": a,
                     "terms": [{"coeff": c, "factors": [
                        {"axis": 0, "fn": "cos", "k": 1}, ...]}, ...]}
                    -> o + a * sum_i c_i * prod_j fn(2 pi k x_axis / L_axis)
    heat_kernel     {"type": "heat_kernel", "t0": s, "center": [...],
                     "floor": f, "images": 4}
                    periodized Gaussian at diffusion time t0 plus a floor
    random_fourier  {"type": "random_fourier", "offset": o, "amplitude": a,
                     "n_modes": m}   coefficients ~ N(0,1)/k^2 from the
                    scenario seed

Metrics are "flat" or "conformal" (g = exp(2 w) * identity with w a
sine_sum body).  Bundled scenarios live as package data; `bundled_names`
lists them and `load_scenario` accepts a name, a path, or a dict.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .flow import (
    AlphaSchedule,
    C_STAB_DEFAULT,
    FlowVariant,
    Snapshot,
    Trajectory,
    run,
    stability_limit,
)
from .geometry import MetricDegenerateError
from .grid import Grid

_FN = {"cos": np.cos, "sin": np.sin}


def _check_keys(d: dict, allowed: dict, path: str) -> None:
    """allowed maps key -> required(bool); rejects unknown keys by path."""
    for key in d:
        if key not in allowed:
            raise ValueError(f"unknown field '{path}.{key}'" if path else f"unknown field '{key}'")
    for key, required in allowed.items():
        if required and key not in d:
            raise ValueError(f"missing required field '{path + '.' if path else ''}{key}'")


def _finite(spec: dict, key: str, path: str, default=None) -> float:
    """spec[key] (or the default) as a finite float, else a ValueError
    naming the field's dotted path."""
    raw = spec.get(key, default)
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ValueError(f"{path}.{key} must be a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{path}.{key} must be finite, got {raw!r}")
    return value


def _per_axis(spec: dict, key: str, path: str, kind) -> tuple:
    """spec[key] as a tuple with one entry per axis, each converted by kind."""
    raw = spec[key]
    if not isinstance(raw, (list, tuple)):
        raise ValueError(f"{path}.{key} must be a list with one entry per axis, got {raw!r}")
    try:
        return tuple(kind(v) for v in raw)
    except (TypeError, ValueError):
        raise ValueError(f"{path}.{key} entries must be numbers, got {raw!r}") from None


def _eval_terms(grid: Grid, terms: list, path: str) -> np.ndarray:
    coords = grid.coords()
    total = np.zeros(grid.shape)
    for i, term in enumerate(terms):
        tpath = f"{path}.terms[{i}]"
        _check_keys(term, {"coeff": False, "factors": True}, tpath)
        prod = np.full(grid.shape, float(term.get("coeff", 1.0)))
        for j, fac in enumerate(term["factors"]):
            fpath = f"{tpath}.factors[{j}]"
            _check_keys(fac, {"axis": True, "fn": True, "k": True}, fpath)
            axis = int(fac["axis"])
            if not 0 <= axis < grid.dim:
                raise ValueError(f"{fpath}.axis out of range for dim {grid.dim}")
            fn = fac["fn"]
            if fn not in _FN:
                raise ValueError(f"{fpath}.fn must be 'cos' or 'sin'")
            k = int(fac["k"])
            if k < 1:
                raise ValueError(f"{fpath}.k must be >= 1")
            theta = 2.0 * np.pi * k * coords[axis] / grid.lengths[axis]
            prod = prod * _FN[fn](theta)
        total += prod
    return total


def _eval_scalar(grid: Grid, spec: dict, path: str, rng=None) -> np.ndarray:
    kind = spec.get("type")
    if kind == "constant":
        _check_keys(spec, {"type": True, "value": True}, path)
        return np.full(grid.shape, float(spec["value"]))
    if kind == "sine_sum":
        _check_keys(
            spec,
            {"type": True, "offset": False, "amplitude": False, "terms": True},
            path,
        )
        body = _eval_terms(grid, spec["terms"], path)
        return float(spec.get("offset", 0.0)) + float(spec.get("amplitude", 1.0)) * body
    if kind == "heat_kernel":
        _check_keys(
            spec,
            {"type": True, "t0": True, "center": False, "floor": False, "images": False},
            path,
        )
        t0 = float(spec["t0"])
        if t0 <= 0:
            raise ValueError(f"{path}.t0 must be positive")
        center = spec.get("center", [L / 2.0 for L in grid.lengths])
        if len(center) != grid.dim:
            raise ValueError(f"{path}.center must have {grid.dim} coordinates")
        images = int(spec.get("images", 4))
        coords = grid.coords()
        kernel = np.zeros(grid.shape)
        # periodize by summing lattice translates; 4 images per side is
        # far past double precision for the bundled sizes
        shifts = range(-images, images + 1)
        if grid.dim == 1:
            for j in shifts:
                d2 = (coords[0] - center[0] - j * grid.lengths[0]) ** 2
                kernel += np.exp(-d2 / (4.0 * t0))
        else:
            for jx in shifts:
                dx2 = (coords[0] - center[0] - jx * grid.lengths[0]) ** 2
                for jy in shifts:
                    dy2 = (coords[1] - center[1] - jy * grid.lengths[1]) ** 2
                    kernel += np.exp(-(dx2 + dy2) / (4.0 * t0))
        kernel *= (4.0 * np.pi * t0) ** (-grid.dim / 2.0)
        return float(spec.get("floor", 0.0)) + kernel
    if kind == "random_fourier":
        _check_keys(
            spec,
            {"type": True, "offset": False, "amplitude": False, "n_modes": True},
            path,
        )
        if rng is None:
            raise ValueError(f"{path}: random_fourier needs a scenario seed")
        coords = grid.coords()
        out = np.zeros(grid.shape)
        for axis in range(grid.dim):
            for k in range(1, int(spec["n_modes"]) + 1):
                theta = 2.0 * np.pi * k * coords[axis] / grid.lengths[axis]
                c, s = rng.standard_normal(2) / k**2
                out += c * np.cos(theta) + s * np.sin(theta)
        return float(spec.get("offset", 0.0)) + float(spec.get("amplitude", 1.0)) * out
    raise ValueError(
        f"{path}.type must be one of 'constant', 'sine_sum', 'heat_kernel', "
        f"'random_fourier'; got {kind!r}"
    )


def _eval_metric(grid: Grid, spec: dict, path: str, rng=None) -> np.ndarray:
    kind = spec.get("type")
    eye = np.broadcast_to(np.eye(grid.dim), grid.shape + (grid.dim, grid.dim)).copy()
    if kind == "flat":
        _check_keys(spec, {"type": True}, path)
        return eye
    if kind == "conformal":
        _check_keys(
            spec,
            {"type": True, "offset": False, "amplitude": False, "terms": True},
            path,
        )
        w = _eval_scalar(grid, {**spec, "type": "sine_sum"}, path, rng)
        return np.exp(2.0 * w)[..., None, None] * eye
    raise ValueError(f"{path}.type must be 'flat' or 'conformal'; got {kind!r}")


_TOP_KEYS = {
    "name": True,
    "description": False,
    "grid": True,
    "variant": False,
    "alpha": False,
    "initial": True,
    "time": True,
    "method": False,
    "seed": False,
}


@dataclass
class Scenario:
    """Parsed, validated scenario.  `raw` is the exact dict it came from and
    is echoed into run metadata."""

    raw: dict
    name: str
    grid: Grid
    variant: FlowVariant
    schedule: AlphaSchedule
    t_start: float
    t_end: float
    dt_sub: float
    snapshot_stride: int
    method: str
    seed: int | None

    def initial_snapshot(self) -> Snapshot:
        rng = np.random.default_rng(self.seed) if self.seed is not None else None
        init = self.raw["initial"]
        g = _eval_metric(self.grid, init["metric"], "initial.metric", rng)
        phi_spec = init.get("phi", {"components": [{"type": "constant", "value": 0.0}]})
        comps = [
            _eval_scalar(self.grid, c, f"initial.phi.components[{i}]", rng)
            for i, c in enumerate(phi_spec["components"])
        ]
        phi = np.stack(comps, axis=-1)
        u = _eval_scalar(self.grid, init["u"], "initial.u", rng)
        if not np.all(np.isfinite(phi)):
            raise ValueError("initial.phi has non-finite values")
        ok = np.isfinite(u) & (u > 0)
        if not np.all(ok):
            node = np.unravel_index(int(np.argmin(ok)), ok.shape)
            raise ValueError(
                f"initial.u must be finite and positive at every node; "
                f"got {u[node]!r} at node {tuple(int(i) for i in node)}"
            )
        try:
            return Snapshot(self.t_start, g, phi, u)
        except MetricDegenerateError as exc:
            raise ValueError(f"initial.metric: {exc}") from exc


def parse_scenario(cfg: dict) -> Scenario:
    """Validate a scenario dict (strict keys, stability, timing) and parse it."""
    _check_keys(cfg, _TOP_KEYS, "")
    gspec = cfg["grid"]
    _check_keys(gspec, {"dim": True, "n_points": True, "lengths": True}, "grid")
    grid = Grid(
        dim=int(gspec["dim"]),
        n_points=_per_axis(gspec, "n_points", "grid", int),
        lengths=_per_axis(gspec, "lengths", "grid", float),
    )

    vspec = dict(cfg.get("variant", {"kind": "rh_alpha"}))
    _check_keys(vspec, {"kind": True, "m": False, "mu": False}, "variant")
    variant = FlowVariant(
        kind=vspec["kind"], m=int(vspec.get("m", 1)), mu=_finite(vspec, "mu", "variant", 0.0)
    )

    aspec = dict(cfg.get("alpha", {"alpha0": 0.0}))
    _check_keys(
        aspec, {"alpha0": True, "alpha_bar": False, "form": False, "rate": False}, "alpha"
    )
    schedule = AlphaSchedule(
        alpha0=_finite(aspec, "alpha0", "alpha"),
        alpha_bar=_finite(aspec, "alpha_bar", "alpha", 0.0),
        form=aspec.get("form", "constant"),
        rate=_finite(aspec, "rate", "alpha", 0.0),
    )

    tspec = cfg["time"]
    _check_keys(
        tspec,
        {"t_start": False, "t_end": True, "dt_sub": True, "snapshot_stride": False},
        "time",
    )
    t_start = _finite(tspec, "t_start", "time", 0.0)
    t_end = _finite(tspec, "t_end", "time")
    dt_sub = _finite(tspec, "dt_sub", "time")
    stride = int(tspec.get("snapshot_stride", 1))
    if t_start < 0:
        raise ValueError("time.t_start must be >= 0")
    if t_end <= t_start:
        raise ValueError("time.t_end must exceed time.t_start")
    if dt_sub <= 0:
        raise ValueError("time.dt_sub must be positive")
    if stride < 1:
        raise ValueError("time.snapshot_stride must be a positive integer")
    span = t_end - t_start
    dt_snap = dt_sub * stride
    n_snaps = round(span / dt_snap)
    if abs(n_snaps * dt_snap - span) > 1e-9 * max(span, dt_snap):
        raise ValueError(
            f"(t_end - t_start)={span:g} is not an integer multiple of "
            f"dt_sub*snapshot_stride={dt_snap:g}"
        )

    method = cfg.get("method", "euler")
    if method not in ("euler", "rk2"):
        raise ValueError("method must be 'euler' or 'rk2'")

    init = cfg["initial"]
    _check_keys(init, {"metric": True, "phi": False, "u": True}, "initial")
    if "phi" in init:
        _check_keys(init["phi"], {"components": True}, "initial.phi")
        if not init["phi"]["components"]:
            raise ValueError("initial.phi.components must not be empty")

    sc = Scenario(
        raw=cfg,
        name=str(cfg["name"]),
        grid=grid,
        variant=variant,
        schedule=schedule,
        t_start=t_start,
        t_end=t_end,
        dt_sub=dt_sub,
        snapshot_stride=stride,
        method=method,
        seed=int(cfg["seed"]) if "seed" in cfg else None,
    )

    # reject unstable configs at load time, citing the bound
    snap0 = sc.initial_snapshot()
    limit = stability_limit(grid, snap0.metric)
    if dt_sub > limit:
        raise ValueError(
            f"time.dt_sub={dt_sub:g} exceeds the stability bound "
            f"c_stab*h_min^2*min_eig(g) = {limit:g} for the initial metric"
        )
    if variant.kind == "warped_product" and snap0.phi.shape[-1] != 1:
        raise ValueError("warped_product scenarios need a single-component map")
    return sc


def bundled_names() -> list[str]:
    root = resources.files(__package__) / "scenarios"
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def load_scenario(source) -> Scenario:
    """Load from a dict, a path to a JSON file, or a bundled scenario name."""
    if isinstance(source, dict):
        return parse_scenario(source)
    path = Path(source)
    if path.suffix == ".json" and path.exists():
        return parse_scenario(json.loads(path.read_text()))
    name = str(source)
    if name in bundled_names():
        text = (resources.files(__package__) / "scenarios" / f"{name}.json").read_text()
        return parse_scenario(json.loads(text))
    raise FileNotFoundError(
        f"no scenario file {source!r} and no bundled scenario of that name "
        f"(bundled: {', '.join(bundled_names())})"
    )


def run_scenario(
    sc: Scenario,
    method: str | None = None,
    c_stab: float = C_STAB_DEFAULT,
) -> Trajectory:
    return run(
        sc.grid,
        sc.variant,
        sc.schedule,
        sc.initial_snapshot(),
        T=sc.t_end,
        dt_sub=sc.dt_sub,
        substride=sc.snapshot_stride,
        method=method or sc.method,
        c_stab=c_stab,
        scenario=sc.raw,
    )


def refine_scenario(cfg: dict, factor: int = 2) -> dict:
    """Refined twin of a scenario dict: n_points x factor, dt_sub / factor^2,
    stride x factor.  Snapshot times of the original all survive, so matched
    comparisons and convergence-rate measurements line up exactly."""
    if factor < 2:
        raise ValueError("refinement factor must be >= 2")
    out = json.loads(json.dumps(cfg))
    out["name"] = f"{cfg['name']}_refined{factor}"
    out["grid"]["n_points"] = [n * factor for n in cfg["grid"]["n_points"]]
    out["time"]["dt_sub"] = cfg["time"]["dt_sub"] / factor**2
    out["time"]["snapshot_stride"] = cfg["time"].get("snapshot_stride", 1) * factor
    return out
