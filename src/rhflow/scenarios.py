"""Scenario configs: validated JSON descriptions of complete runs.

A scenario pins everything a run needs: grid, flow variant, coupling
schedule, initial data profiles, time window, substep, snapshot stride and
integrator.  Loading is strict: unknown fields are rejected by dotted
path, specs, terms and factors must be objects and ``terms``, ``factors``
and ``components`` lists, numbers must be finite and never booleans,
integer fields (dim, n_points, snapshot_stride, axis, k, images, n_modes,
m, seed) must hold integral values, the grid may have at most
``grid.MAX_NODES`` nodes, and the substep is checked against the explicit
stability bound of the initial metric at load time, not step time.  Each
of these errors names the field's dotted path.

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
    FlowVariant,
    Snapshot,
    Trajectory,
    run,
    snapshot_count,
    stability_limit,
)
from .geometry import MetricDegenerateError
from .grid import Grid

_FN = {"cos": np.cos, "sin": np.sin}


def _object(d, path: str) -> dict:
    """d itself if it is a JSON object, else a ValueError naming the path."""
    if not isinstance(d, dict):
        raise ValueError(f"{path or 'scenario'} must be an object, got {d!r}")
    return d


def _list(raw, path: str) -> list:
    """raw itself if it is a list (or tuple), else a ValueError naming the
    path."""
    if not isinstance(raw, (list, tuple)):
        raise ValueError(f"{path} must be a list, got {raw!r}")
    return raw


def _check_keys(d: dict, allowed: dict, path: str) -> None:
    """allowed maps key -> required(bool); rejects a non-object and unknown
    keys by path."""
    _object(d, path)
    for key in d:
        if key not in allowed:
            raise ValueError(f"unknown field '{path}.{key}'" if path else f"unknown field '{key}'")
    for key, required in allowed.items():
        if required and key not in d:
            raise ValueError(f"missing required field '{path + '.' if path else ''}{key}'")


def _number(raw, path: str) -> float:
    """raw as a finite float, else a ValueError naming the dotted path.
    Booleans are refused, not read as 0 and 1."""
    try:
        if isinstance(raw, bool):
            raise TypeError("a boolean is not a number")
        value = float(raw)
    except (TypeError, ValueError):
        raise ValueError(f"{path} must be a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{path} must be finite, got {raw!r}")
    return value


def _integer(raw, path: str) -> int:
    """raw as an int, else a ValueError naming the dotted path.  Integral
    floats (64.0) are accepted; booleans, strings and fractions are not
    truncated but refused."""
    integral = isinstance(raw, int) or (isinstance(raw, float) and raw.is_integer())
    if isinstance(raw, bool) or not integral:
        raise ValueError(f"{path} must be an integer, got {raw!r}")
    return int(raw)


def _finite(spec: dict, key: str, path: str, default=None) -> float:
    """spec[key] (or the default) as a finite float."""
    return _number(spec.get(key, default), f"{path}.{key}")


def _int_field(spec: dict, key: str, path: str, default=None) -> int:
    """spec[key] (or the default) as an int."""
    return _integer(spec.get(key, default), f"{path}.{key}")


def _per_axis(spec: dict, key: str, path: str, kind) -> tuple:
    """spec[key] as a tuple with one entry per axis, each converted by
    kind(value, dotted path), i.e. _number or _integer."""
    raw = spec[key]
    if not isinstance(raw, (list, tuple)):
        raise ValueError(f"{path}.{key} must be a list with one entry per axis, got {raw!r}")
    return tuple(kind(v, f"{path}.{key}[{i}]") for i, v in enumerate(raw))


def _eval_terms(grid: Grid, terms: list, path: str) -> np.ndarray:
    coords = grid.coords()
    total = np.zeros(grid.shape)
    for i, term in enumerate(_list(terms, f"{path}.terms")):
        tpath = f"{path}.terms[{i}]"
        _check_keys(term, {"coeff": False, "factors": True}, tpath)
        prod = np.full(grid.shape, _finite(term, "coeff", tpath, 1.0))
        for j, fac in enumerate(_list(term["factors"], f"{tpath}.factors")):
            fpath = f"{tpath}.factors[{j}]"
            _check_keys(fac, {"axis": True, "fn": True, "k": True}, fpath)
            axis = _int_field(fac, "axis", fpath)
            if not 0 <= axis < grid.dim:
                raise ValueError(f"{fpath}.axis out of range for dim {grid.dim}")
            fn = fac["fn"]
            if fn not in _FN:
                raise ValueError(f"{fpath}.fn must be 'cos' or 'sin'")
            k = _int_field(fac, "k", fpath)
            if k < 1:
                raise ValueError(f"{fpath}.k must be >= 1")
            theta = 2.0 * np.pi * k * coords[axis] / grid.lengths[axis]
            prod = prod * _FN[fn](theta)
        total += prod
    return total


def _eval_scalar(grid: Grid, spec: dict, path: str, rng=None) -> np.ndarray:
    kind = _object(spec, path).get("type")
    if kind == "constant":
        _check_keys(spec, {"type": True, "value": True}, path)
        return np.full(grid.shape, _finite(spec, "value", path))
    if kind == "sine_sum":
        _check_keys(
            spec,
            {"type": True, "offset": False, "amplitude": False, "terms": True},
            path,
        )
        body = _eval_terms(grid, spec["terms"], path)
        return _finite(spec, "offset", path, 0.0) + _finite(spec, "amplitude", path, 1.0) * body
    if kind == "heat_kernel":
        _check_keys(
            spec,
            {"type": True, "t0": True, "center": False, "floor": False, "images": False},
            path,
        )
        t0 = _finite(spec, "t0", path)
        if t0 <= 0:
            raise ValueError(f"{path}.t0 must be positive")
        if "center" in spec:
            center = _per_axis(spec, "center", path, _number)
        else:
            center = [L / 2.0 for L in grid.lengths]
        if len(center) != grid.dim:
            raise ValueError(f"{path}.center must have {grid.dim} coordinates")
        images = _int_field(spec, "images", path, 4)
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
        return _finite(spec, "floor", path, 0.0) + kernel
    if kind == "random_fourier":
        _check_keys(
            spec,
            {"type": True, "offset": False, "amplitude": False, "n_modes": True},
            path,
        )
        if rng is None:
            raise ValueError(f"{path}: random_fourier needs a scenario seed")
        n_modes = _int_field(spec, "n_modes", path)
        coords = grid.coords()
        out = np.zeros(grid.shape)
        for axis in range(grid.dim):
            for k in range(1, n_modes + 1):
                theta = 2.0 * np.pi * k * coords[axis] / grid.lengths[axis]
                c, s = rng.standard_normal(2) / k**2
                out += c * np.cos(theta) + s * np.sin(theta)
        return _finite(spec, "offset", path, 0.0) + _finite(spec, "amplitude", path, 1.0) * out
    raise ValueError(
        f"{path}.type must be one of 'constant', 'sine_sum', 'heat_kernel', "
        f"'random_fourier'; got {kind!r}"
    )


def _eval_metric(grid: Grid, spec: dict, path: str, rng=None) -> np.ndarray:
    kind = _object(spec, path).get("type")
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


def parse_grid(spec, path: str) -> Grid:
    """A grid object {dim, n_points, lengths}; errors name the dotted path."""
    _check_keys(spec, {"dim": True, "n_points": True, "lengths": True}, path)
    dim = _int_field(spec, "dim", path)
    n_points = _per_axis(spec, "n_points", path, _integer)
    lengths = _per_axis(spec, "lengths", path, _number)
    try:
        # the node-count cap is checked here, before any field is allocated
        return Grid(dim=dim, n_points=n_points, lengths=lengths)
    except ValueError as exc:
        raise ValueError(f"{path}.{exc}") from None


def parse_variant(spec, path: str) -> FlowVariant:
    """A variant object {kind, m, mu}; errors name the dotted path."""
    _check_keys(spec, {"kind": True, "m": False, "mu": False}, path)
    return FlowVariant(kind=spec["kind"], m=_int_field(spec, "m", path, 1),
                       mu=_finite(spec, "mu", path, 0.0))


def parse_schedule(spec, path: str) -> AlphaSchedule:
    """A schedule object {alpha0, alpha_bar, form, rate}; errors name the
    dotted path."""
    _check_keys(spec, {"alpha0": True, "alpha_bar": False, "form": False, "rate": False}, path)
    return AlphaSchedule(
        alpha0=_finite(spec, "alpha0", path),
        alpha_bar=_finite(spec, "alpha_bar", path, 0.0),
        form=spec.get("form", "constant"),
        rate=_finite(spec, "rate", path, 0.0),
    )


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
    grid = parse_grid(cfg["grid"], "grid")
    variant = parse_variant(cfg.get("variant", {"kind": "rh_alpha"}), "variant")
    schedule = parse_schedule(cfg.get("alpha", {"alpha0": 0.0}), "alpha")

    tspec = cfg["time"]
    _check_keys(
        tspec,
        {"t_start": False, "t_end": True, "dt_sub": True, "snapshot_stride": False},
        "time",
    )
    t_start = _finite(tspec, "t_start", "time", 0.0)
    t_end = _finite(tspec, "t_end", "time")
    dt_sub = _finite(tspec, "dt_sub", "time")
    stride = _int_field(tspec, "snapshot_stride", "time", 1)
    if t_start < 0:
        raise ValueError("time.t_start must be >= 0")
    if t_end <= t_start:
        raise ValueError("time.t_end must exceed time.t_start")
    if dt_sub <= 0:
        raise ValueError("time.dt_sub must be positive")
    if stride < 1:
        raise ValueError("time.snapshot_stride must be a positive integer")
    try:
        snapshot_count(t_end - t_start, dt_sub, stride)
    except ValueError as exc:
        raise ValueError(f"time: {exc}") from None

    method = cfg.get("method", "euler")
    if method not in ("euler", "rk2"):
        raise ValueError("method must be 'euler' or 'rk2'")

    init = cfg["initial"]
    _check_keys(init, {"metric": True, "phi": False, "u": True}, "initial")
    if "phi" in init:
        _check_keys(init["phi"], {"components": True}, "initial.phi")
        if not _list(init["phi"]["components"], "initial.phi.components"):
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
        seed=_integer(cfg["seed"], "seed") if "seed" in cfg else None,
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


def run_scenario(sc: Scenario, method: str | None = None) -> Trajectory:
    return run(
        sc.grid,
        sc.variant,
        sc.schedule,
        sc.initial_snapshot(),
        T=sc.t_end,
        dt_sub=sc.dt_sub,
        substride=sc.snapshot_stride,
        method=method or sc.method,
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
