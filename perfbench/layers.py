"""Per-layer metrics of the traced run: kernels timed alone on the
workload's own state, exact counts, and self times from the spans.

Short calls report the minimum raw time over repetitions (no probe
rescaling).  A layer call the workload's cycles already made (for example
``estimates.check_global`` on coupled_2d) reports the minimum over those
samples and is not repeated here.
"""

from __future__ import annotations

import copy

import numpy as np
from rhflow import cutoff, distance, estimates, flow, geometry, harnack, persistence, scenarios

import spans
from session import Session
from workloads import cli_check

# seconds -> the unit a per-layer time metric's name ends in
TIME_SCALE = {"_us": 1e6, "_ms": 1e3}

LAYER_MODULES = ("scenarios", "grid", "geometry", "flow", "estimates", "distance",
                 "harnack", "cutoff", "persistence", "cli", "bench")

CLI_WHICH = ("identities", "global", "local", "evolution", "harnack")

# Every per-layer metric, in output order, with its unit.
PER_LAYER = (
    ("scenarios.load_scenario_ms", "ms"),
    ("grid.d1_us", "us"),
    ("geometry.check_metric_us", "us"),
    ("geometry.metric_inverse_us", "us"),
    ("geometry.christoffel_ms", "ms"),
    ("geometry.ricci_ms", "ms"),
    ("geometry.tension_field_ms", "ms"),
    ("geometry.laplace_beltrami_us", "us"),
    ("geometry.eig_general_ms", "ms"),
    ("geometry.gradient_norm_sq_us", "us"),
    ("geometry.hessian_ms", "ms"),
    ("flow.step_heat_us", "us"),
    ("flow.step_flow_ms", "ms"),
    ("flow.snapshot_constants_ms", "ms"),
    ("flow.substep_us", "us"),
    ("flow.substeps", "count"),
    ("flow.snapshots", "count"),
    ("estimates.extract_constants_ms", "ms"),
    ("estimates.fit_cprime_ms", "ms"),
    ("estimates.check_identities_ms", "ms"),
    ("estimates.check_global_ms", "ms"),
    ("estimates.check_local_ms", "ms"),
    ("estimates.check_evolution_ms", "ms"),
    ("distance.geodesic_distance_ms", "ms"),
    ("harnack.gamma_inf_ms", "ms"),
    ("harnack.check_harnack_ms", "ms"),
    ("harnack.pairs", "count"),
    ("harnack.shared_source_frac", "ratio"),
    ("cutoff.cutoff_verify_ms", "ms"),
    ("persistence.save_run_ms", "ms"),
    ("persistence.load_run_ms", "ms"),
    ("persistence.dumps_mb_per_s", "MB/s"),
    ("persistence.save_report_ms", "ms"),
    ("persistence.bytes_per_double", "B"),
    ("persistence.bytes_written", "B"),
    ("persistence.doubles_stored", "count"),
    *((f"cli.check.{which}_ms", "ms") for which in CLI_WHICH),
    ("bench.probe_ms", "ms"),
    ("bench.raw_setup_s", "s"),
    *((f"bench.raw_{name}", "s") for name in ("run_s", "check_s", "save_s", "load_s")),
    ("bench.trace_overhead_frac", "ratio"),
    *((f"self.{layer}_ms", "ms") for layer in LAYER_MODULES),
)


def time_kernels(s: Session, st: dict, work) -> None:
    """Time every layer kernel once on the state of the first input."""
    traj, sc = st["traj"], st["scenario_obj"]
    grid = traj.grid
    snap = traj.snapshots[-1]
    g, u, phi = snap.g, snap.u, snap.phi
    f = np.log(u)
    ric = geometry.ricci(grid, g)
    loaded = persistence.load_run(st["run_dir"])

    def fresh():
        # a trajectory no check has run on, so its distance cache is cold
        return copy.copy(loaded)

    tl = s.time_layer
    s.op_id = "layers"
    tl("scenarios.load_scenario_ms", scenarios.load_scenario, st["scenario"])
    tl("grid.d1_us", grid.d1, u, 0)
    tl("geometry.check_metric_us", geometry.check_metric, g)
    tl("geometry.metric_inverse_us", geometry.metric_inverse, g)
    tl("geometry.christoffel_ms", geometry.christoffel, grid, g)
    tl("geometry.ricci_ms", geometry.ricci, grid, g)
    tl("geometry.tension_field_ms", geometry.tension_field, grid, g, phi)
    tl("geometry.laplace_beltrami_us", geometry.laplace_beltrami, grid, g, u)
    tl("geometry.eig_general_ms", geometry.eig_general, ric, g)
    tl("geometry.gradient_norm_sq_us", geometry.gradient_norm_sq, grid, g, f)
    tl("geometry.hessian_ms", geometry.hessian, grid, g, f)
    tl("flow.step_heat_us", flow.step_heat, grid, snap, sc.dt_sub)
    tl("flow.step_flow_ms", flow.step_flow, grid, snap, sc.dt_sub, sc.variant, sc.schedule)
    tl("flow.snapshot_constants_ms", flow.snapshot_constants, grid, snap)
    tl("estimates.extract_constants_ms", estimates.extract_constants, fresh=fresh)
    tl("distance.geodesic_distance_ms", distance.geodesic_distance, grid, g, st["x0"])
    x1, t1, x2, t2 = st["pairs"][0]
    tl("harnack.gamma_inf_ms", harnack.gamma_inf, traj, x1, x2, t1, t2)
    payload = {"u": u.ravel().tolist(), "g": g.ravel().tolist()}
    tl("persistence.dumps_ms", persistence.dumps, payload)
    s.counts["persistence.dumps_bytes"]["in0"] = len(persistence.dumps(payload))
    report = estimates.check_global(fresh())
    tl("persistence.save_report_ms", persistence.save_report, report, work / "reports", "bench")

    # calls the workload's own cycles may not have made; one cold call each
    rho, x0, pairs = st["rho"], st["x0"], st["pairs"]
    optional = {
        "estimates.check_identities_ms": estimates.check_identities,
        "estimates.check_global_ms": lambda t: estimates.check_global(t, st.get("beta", 1.0)),
        "estimates.check_local_ms": lambda t: estimates.check_local(t, 2.0, rho, x0, 1.0, 1.0),
        "estimates.check_evolution_ms": lambda t: estimates.check_evolution_inequality(
            t, 1.5, 1.0 / 4.5, 1.0 / 4.5),
        "estimates.fit_cprime_ms": lambda t: estimates.fit_cprime(t, [2.0], shape="harnack"),
        "harnack.check_harnack_ms": lambda t: harnack.check_harnack(
            t, pairs, mode="complete", beta=2.0, cprime=1.0),
        "cutoff.cutoff_verify_ms": lambda t: cutoff.cutoff_verify(rho, 0.1),
    }
    for layer, call in optional.items():
        if layer not in s.layer_s:
            tl(layer, call, fresh=fresh, budget_s=0.0)
    out = work / "cli_out"
    x0_arg = ",".join(str(v) for v in x0)
    extra = {"local": ["--rho", repr(rho), "--x0", x0_arg], "harnack": ["--mode", "complete"]}
    for which in CLI_WHICH:
        layer = f"cli.check.{which}_ms"
        if layer not in s.layer_s:
            argv = ["check", str(st["run_dir"]), "--out", str(out), "--which", which]
            tl(layer, cli_check, argv + extra.get(which, []), budget_s=0.0)
    s.op_id = None


def _sum(counts: dict) -> float:
    return float(sum(counts.values()))


def _div(a: float, b: float) -> float:
    """a / b, or NaN (reported as not measured) when an input failed."""
    return a / b if b else float("nan")


def per_layer_metrics(s: Session, raw_s: dict, overhead_frac: float) -> dict:
    """Per-layer metric values by name; ``raw_s`` holds the unscaled
    end-to-end seconds.  Units are in PER_LAYER."""
    out = {}
    for layer, values in s.layer_s.items():
        suffix = layer[-3:]
        if suffix in TIME_SCALE:
            out[layer] = min(values) * TIME_SCALE[suffix]
    c = s.counts
    substeps = _sum(c["flow.substeps"])
    out["flow.substeps"] = substeps
    out["flow.snapshots"] = _sum(c["flow.snapshots"])
    out["flow.substep_us"] = _div(1e6 * raw_s["run_s"], substeps)
    pairs = c["harnack.pairs"]
    out["harnack.pairs"] = _sum(pairs)
    out["harnack.shared_source_frac"] = _div(
        sum(c["harnack.shared_source_frac"][k] * pairs[k] for k in pairs), _sum(pairs))
    written = _sum(c["persistence.bytes_written"])
    doubles = _sum(c["persistence.doubles_stored"])
    out["persistence.bytes_written"] = written
    out["persistence.doubles_stored"] = doubles
    out["persistence.bytes_per_double"] = _div(written, doubles)
    out["persistence.dumps_mb_per_s"] = _div(
        _sum(c["persistence.dumps_bytes"]) / 1e6,
        min(s.layer_s.get("persistence.dumps_ms", [0.0])))
    out["bench.probe_ms"] = s.probe_ms()
    for name, value in raw_s.items():
        out[f"bench.raw_{name}"] = value
    out["bench.trace_overhead_frac"] = overhead_frac
    selfs = spans.self_times(s.tracer.spans)
    for layer in LAYER_MODULES:
        out[f"self.{layer}_ms"] = 1e3 * selfs.get(layer, 0.0)
    return out
