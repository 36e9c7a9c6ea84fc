"""Scenario configs: validated JSON descriptions of complete runs.

A scenario pins everything a run needs: grid, flow variant, coupling
schedule, initial data profiles, time window, substep, snapshot stride and
integrator.  Loading is strict: unknown fields are rejected by dotted
path, specs, terms and factors must be objects and ``terms``, ``factors``
and ``components`` lists, numbers must be finite and are never booleans or
strings, integer fields (dim, n_points, snapshot_stride, axis, k, images,
n_modes, m, seed) must hold integral values, name and the enumerated
fields (type, fn, kind, form, method) must be strings, the grid may have
at most ``grid.MAX_NODES`` nodes, ``images`` at most `IMAGES_LIMIT` and
``n_modes`` at most half the smallest node count, a sine-sum factor's
``k`` at most half the node count of its axis, and the substep is
checked against the explicit stability bound of the initial metric at
load time, not step time.  Each of these errors names the field's dotted
path.  The initial state is evaluated and checked once, at load: the
`Scenario` keeps that snapshot, and every run of it starts from it.  The
readers here (`number`, `integer`, `json_object`, `json_list`,
`check_keys`, `per_axis`, `choice`) also read run metadata, manifests and
Harnack pairs.

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
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .flow import (
    ALPHA_FORMS,
    VARIANT_KINDS,
    AlphaSchedule,
    FlowVariant,
    Snapshot,
    Trajectory,
    run,
    snapshot_count,
    stability_limit,
)
from .geometry import MetricDegenerateError
from .grid import MAX_NODES, Grid, check_int_range

_FN = {"cos": np.cos, "sin": np.sin}


def json_object(raw, path: str) -> dict:
    """raw itself if it is a JSON object, else a ValueError naming the path."""
    if not isinstance(raw, dict):
        raise ValueError(f"{path or 'scenario'} must be an object, got {raw!r}")
    return raw


def json_list(raw, path: str, read=None) -> list:
    """raw if it is a list (or tuple), with each entry read by
    read(entry, path[i]) when a reader is given; else a ValueError naming
    the path."""
    if not isinstance(raw, (list, tuple)):
        raise ValueError(f"{path} must be a list, got {raw!r}")
    return raw if read is None else [read(v, f"{path}[{i}]") for i, v in enumerate(raw)]


def check_keys(raw, allowed: dict, path: str) -> dict:
    """raw if it is an object whose keys are all in ``allowed`` (key ->
    required) and that holds every required one, else a ValueError naming
    the path and the key."""
    json_object(raw, path)
    prefix = path + "." if path else ""
    for key in raw:
        if key not in allowed:
            raise ValueError(f"unknown field '{prefix}{key}'")
    for key, required in allowed.items():
        if required and key not in raw:
            raise ValueError(f"missing required field '{prefix}{key}'")
    return raw


def number(raw, path: str) -> float:
    """raw as a finite float, else a ValueError naming the dotted path.
    Python and numpy real scalars are read; booleans, strings (numeric ones
    too) and what is not finite as a double (nan, inf, an int too large)
    are refused."""
    if (isinstance(raw, (int, float, np.integer, np.floating)) and not isinstance(raw, bool)
            and abs(raw) <= sys.float_info.max):
        return float(raw)
    raise ValueError(f"{path} is not a finite real number: {raw!r}")


def integer(raw, path: str) -> int:
    """raw as an int, else a ValueError naming the dotted path.  Integral
    numbers (64.0) are read; fractions are refused rather than truncated,
    and so is whatever `number` refuses."""
    if not number(raw, path).is_integer():
        raise ValueError(f"{path} must be an integer, got {raw!r}")
    return int(raw)


def per_axis(raw, path: str, read, dim: int) -> tuple:
    """raw as a tuple of one entry per grid axis, each read by
    read(entry, path[i]), else a ValueError naming the dotted path."""
    values = tuple(json_list(raw, path, read))
    if len(values) != dim:
        raise ValueError(f"{path} must have {dim} entries, one per axis, got {raw!r}")
    return values


def choice(raw, path: str, options=None) -> str:
    """raw if it is a string, and one of ``options`` when they are given;
    else a ValueError naming the dotted path."""
    if not isinstance(raw, str) or options is not None and raw not in options:
        wanted = "a string" if options is None else "one of " + ", ".join(map(repr, options))
        raise ValueError(f"{path} must be {wanted}; got {raw!r}")
    return raw


def _field(spec: dict, key: str, path: str, read, default=None):
    """spec[key] (or the default) read by read(value, path.key)."""
    return read(spec.get(key, default), f"{path}.{key}")


def _eval_terms(grid: Grid, terms: list, path: str) -> np.ndarray:
    coords = grid.coords()
    total = np.zeros(grid.shape)
    for i, term in enumerate(json_list(terms, f"{path}.terms")):
        tpath = f"{path}.terms[{i}]"
        check_keys(term, {"coeff": False, "factors": True}, tpath)
        prod = np.full(grid.shape, _field(term, "coeff", tpath, number, 1.0))
        for j, fac in enumerate(json_list(term["factors"], f"{tpath}.factors")):
            fpath = f"{tpath}.factors[{j}]"
            check_keys(fac, {"axis": True, "fn": True, "k": True}, fpath)
            axis = _field(fac, "axis", fpath, integer)
            if not 0 <= axis < grid.dim:
                raise ValueError(f"{fpath}.axis out of range for dim {grid.dim}")
            fn = _FN[choice(fac["fn"], f"{fpath}.fn", _FN)]
            k = _field(fac, "k", fpath, integer)
            # a mode above half the node count of its axis aliases a lower one
            check_int_range(f"{fpath}.k", k, 1, grid.n_points[axis] // 2)
            theta = 2.0 * np.pi * k * coords[axis] / grid.lengths[axis]
            prod = prod * fn(theta)
        total += prod
    return total


_SCALAR_KEYS = {
    "constant": {"value": True},
    "sine_sum": {"offset": False, "amplitude": False, "terms": True},
    "heat_kernel": {"t0": True, "center": False, "floor": False, "images": False},
    "random_fourier": {"offset": False, "amplitude": False, "n_modes": True},
}
# Largest heat_kernel image count accepted.  The periodized sum costs
# (2 images + 1)^dim grid-wide exp calls, 4225 at this cap in 2-D (0.14 s
# on a 64^2 grid, 2 cores); for a centre on the torus and t0 up to 6 L^2
# (L the shorter side) the translates beyond it are below double
# precision.  Bundled scenarios use 4.
IMAGES_LIMIT = 32


def _eval_scalar(grid: Grid, spec: dict, path: str, rng=None) -> np.ndarray:
    kind = choice(json_object(spec, path).get("type"), f"{path}.type", _SCALAR_KEYS)
    check_keys(spec, {"type": True, **_SCALAR_KEYS[kind]}, path)
    if kind == "constant":
        return np.full(grid.shape, _field(spec, "value", path, number))
    if kind == "sine_sum":
        body = _eval_terms(grid, spec["terms"], path)
        return (_field(spec, "offset", path, number, 0.0)
                + _field(spec, "amplitude", path, number, 1.0) * body)
    if kind == "heat_kernel":
        t0 = _field(spec, "t0", path, number)
        if t0 <= 0:
            raise ValueError(f"{path}.t0 must be positive")
        if "center" in spec:
            center = per_axis(spec["center"], f"{path}.center", number, grid.dim)
        else:
            center = [L / 2.0 for L in grid.lengths]
        images = _field(spec, "images", path, integer, 4)
        check_int_range(f"{path}.images", images, 0, IMAGES_LIMIT)
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
        return _field(spec, "floor", path, number, 0.0) + kernel
    if rng is None:
        raise ValueError(f"{path}: random_fourier needs a scenario seed")
    n_modes = _field(spec, "n_modes", path, integer)
    # a mode above half the node count of an axis aliases a lower one
    check_int_range(f"{path}.n_modes", n_modes, 1, min(grid.n_points) // 2)
    coords = grid.coords()
    out = np.zeros(grid.shape)
    for axis in range(grid.dim):
        for k in range(1, n_modes + 1):
            theta = 2.0 * np.pi * k * coords[axis] / grid.lengths[axis]
            c, s = rng.standard_normal(2) / k**2
            out += c * np.cos(theta) + s * np.sin(theta)
    return (_field(spec, "offset", path, number, 0.0)
            + _field(spec, "amplitude", path, number, 1.0) * out)


def _eval_metric(grid: Grid, spec: dict, path: str, rng=None) -> np.ndarray:
    kind = choice(json_object(spec, path).get("type"), f"{path}.type", ("flat", "conformal"))
    eye = np.broadcast_to(np.eye(grid.dim), grid.shape + (grid.dim, grid.dim)).copy()
    if kind == "flat":
        check_keys(spec, {"type": True}, path)
        return eye
    # a conformal spec is a sine_sum body, read and checked as one
    w = _eval_scalar(grid, {**spec, "type": "sine_sum"}, path, rng)
    return np.exp(2.0 * w)[..., None, None] * eye


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


def _build(cls, path: str, **fields):
    """cls(**fields), with a ValueError it raises prefixed by the dotted
    path; the messages of Grid, FlowVariant and AlphaSchedule start with
    the field name."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ValueError(f"{path}.{exc}") from None


def parse_grid(spec, path: str) -> Grid:
    """A grid object {dim, n_points, lengths}; errors name the dotted path.
    The node-count cap is checked here, before any field is allocated."""
    check_keys(spec, {"dim": True, "n_points": True, "lengths": True}, path)
    dim = _field(spec, "dim", path, integer)
    check_int_range(f"{path}.dim", dim, 1, 2)
    return _build(Grid, path, dim=dim,
                  n_points=per_axis(spec["n_points"], f"{path}.n_points", integer, dim),
                  lengths=per_axis(spec["lengths"], f"{path}.lengths", number, dim))


def parse_variant(spec, path: str) -> FlowVariant:
    """A variant object {kind, m, mu}; errors name the dotted path."""
    check_keys(spec, {"kind": True, "m": False, "mu": False}, path)
    return _build(FlowVariant, path, kind=choice(spec["kind"], f"{path}.kind", VARIANT_KINDS),
                  m=_field(spec, "m", path, integer, 1), mu=_field(spec, "mu", path, number, 0.0))


def parse_schedule(spec, path: str) -> AlphaSchedule:
    """A schedule object {alpha0, alpha_bar, form, rate}; errors name the
    dotted path."""
    check_keys(spec, {"alpha0": True, "alpha_bar": False, "form": False, "rate": False}, path)
    return _build(
        AlphaSchedule, path,
        alpha0=_field(spec, "alpha0", path, number),
        alpha_bar=_field(spec, "alpha_bar", path, number, 0.0),
        form=choice(spec.get("form", "constant"), f"{path}.form", ALPHA_FORMS),
        rate=_field(spec, "rate", path, number, 0.0),
    )


@dataclass
class Scenario:
    """Parsed, validated scenario.  `raw` is the exact dict it came from and
    is echoed into run metadata; `initial` is its initial snapshot, built
    and checked once at load, and the first snapshot of every run of it."""

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
    initial: Snapshot = field(repr=False, compare=False)

    def initial_snapshot(self) -> Snapshot:
        return self.initial


def _initial_snapshot(grid: Grid, init: dict, t: float, seed: int | None) -> Snapshot:
    """The checked snapshot of a scenario's ``initial`` spec at time t."""
    rng = np.random.default_rng(seed) if seed is not None else None
    phi_spec = init.get("phi", {"components": [{"type": "constant", "value": 0.0}]})
    # a value that overflows is refused below, by the field it lands in
    with np.errstate(over="ignore", invalid="ignore"):
        g = _eval_metric(grid, init["metric"], "initial.metric", rng)
        phi = np.stack([_eval_scalar(grid, c, f"initial.phi.components[{i}]", rng)
                        for i, c in enumerate(phi_spec["components"])], axis=-1)
        u = _eval_scalar(grid, init["u"], "initial.u", rng)
    for name, values in (("metric", g), ("phi", phi)):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"initial.{name} has non-finite values")
    ok = np.isfinite(u) & (u > 0)
    if not np.all(ok):
        node = np.unravel_index(int(np.argmin(ok)), ok.shape)
        raise ValueError(
            f"initial.u must be finite and positive at every node; "
            f"got {u[node]!r} at node {tuple(int(i) for i in node)}"
        )
    try:
        return Snapshot(t, g, phi, u)
    except MetricDegenerateError as exc:
        raise ValueError(f"initial.metric: {exc}") from exc


def parse_scenario(cfg: dict) -> Scenario:
    """Validate a scenario dict (strict keys, stability, timing) and parse it."""
    check_keys(cfg, _TOP_KEYS, "")
    grid = parse_grid(cfg["grid"], "grid")
    variant = parse_variant(cfg.get("variant", {"kind": "rh_alpha"}), "variant")
    schedule = parse_schedule(cfg.get("alpha", {"alpha0": 0.0}), "alpha")

    tspec = check_keys(
        cfg["time"],
        {"t_start": False, "t_end": True, "dt_sub": True, "snapshot_stride": False},
        "time",
    )
    t_start = _field(tspec, "t_start", "time", number, 0.0)
    t_end = _field(tspec, "t_end", "time", number)
    dt_sub = _field(tspec, "dt_sub", "time", number)
    stride = _field(tspec, "snapshot_stride", "time", integer, 1)
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

    init = check_keys(cfg["initial"], {"metric": True, "phi": False, "u": True}, "initial")
    if "phi" in init:
        check_keys(init["phi"], {"components": True}, "initial.phi")
        if not json_list(init["phi"]["components"], "initial.phi.components"):
            raise ValueError("initial.phi.components must not be empty")
    if "description" in cfg:
        choice(cfg["description"], "description")
    name = choice(cfg["name"], "name")
    method = choice(cfg.get("method", "euler"), "method", ("euler", "rk2"))
    seed = integer(cfg["seed"], "seed") if "seed" in cfg else None
    if seed is not None and seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")

    # reject unstable configs at load time, citing the bound
    snap0 = _initial_snapshot(grid, init, t_start, seed)
    limit = stability_limit(grid, snap0.metric)
    if dt_sub > limit:
        raise ValueError(
            f"time.dt_sub={dt_sub:g} exceeds the stability bound "
            f"c_stab*h_min^2*min_eig(g) = {limit:g} for the initial metric"
        )
    if variant.kind == "warped_product" and snap0.phi.shape[-1] != 1:
        raise ValueError("initial.phi.components: warped_product needs a single-component map")
    return Scenario(raw=cfg, name=name, grid=grid, variant=variant, schedule=schedule,
                    t_start=t_start, t_end=t_end, dt_sub=dt_sub, snapshot_stride=stride,
                    method=method, seed=seed, initial=snap0)


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
        sc.initial,
        T=sc.t_end,
        dt_sub=sc.dt_sub,
        substride=sc.snapshot_stride,
        method=method or sc.method,
        scenario=sc.raw,
    )


def refine_scenario(cfg: dict, factor: int = 2) -> dict:
    """Refined twin of a scenario dict: n_points x factor, dt_sub / factor^2,
    stride x factor.  Snapshot times of the original all survive, so matched
    comparisons and convergence-rate measurements line up exactly; that
    needs an integer factor (bools refused) of at least 2."""
    # no larger factor leaves a grid within the node cap
    check_int_range("factor", factor, 2, MAX_NODES)
    out = json.loads(json.dumps(cfg))
    out["name"] = f"{cfg['name']}_refined{factor}"
    out["grid"]["n_points"] = [n * factor for n in cfg["grid"]["n_points"]]
    out["time"]["dt_sub"] = cfg["time"]["dt_sub"] / factor**2
    out["time"]["snapshot_stride"] = cfg["time"].get("snapshot_stride", 1) * factor
    return out
