"""Output oracles.  Each returns a list of problems; empty means correct.

They run after an operation's timed interval.  A failure is counted in the
result's ``failed`` field (and ``fail_frac``), never raised.
"""

from __future__ import annotations

import numpy as np
from rhflow.harnack import default_substeps

# min_margin may drift from the seed-commit value by this share of
# max(|min_margin|, scale), where scale is the report's largest |LHS|: a
# reordered sum moves it by roundoff, a wrong formula moves it by far more.
RTOL_MARGIN = 1e-6
# Roundoff allowances of the exact-arithmetic oracles on the static runs.
RTOL_MASS = 1e-11
RTOL_DECAY = 1e-9
RTOL_GAMMA = 1e-12
# The time-derivative constant 2 is sharp and attained on the lattice, so it
# gets the same roundoff allowance cutoff_verify applies to its own flag.
CBAR_TIME_MAX = 2.0 + 1e-9


def run_complete(traj, n_snapshots: int) -> list[str]:
    out = []
    if not traj.completed:
        out.append(f"run halted: {traj.halt_reason}")
    if len(traj.snapshots) != n_snapshots:
        out.append(f"{len(traj.snapshots)} snapshots, expected {n_snapshots}")
    return out


def _mass(traj, snap) -> float:
    return traj.grid.integrate(snap.u, np.sqrt(np.linalg.det(snap.g)))


def mass_conserved(traj) -> list[str]:
    """Integral of u sqrt(det g) is conserved to roundoff on static runs."""
    m0 = _mass(traj, traj.snapshots[0])
    worst = max(abs(_mass(traj, s) - m0) for s in traj.snapshots)
    if worst > RTOL_MASS * abs(m0):
        return [f"mass drift {worst:.3g} exceeds {RTOL_MASS:g} of {m0:.6g}"]
    return []


def euler_decay(traj, scenario: dict) -> list[str]:
    """A single-mode eigenfunction on a flat 1-D torus decays by the exact
    discrete Euler factor (1 - dt lambda_k)^N per N substeps, with
    lambda_k = (2 - 2 cos(2 pi k / n)) / h^2."""
    term = scenario["initial"]["u"]
    (fac,) = term["terms"][0]["factors"]
    amp = float(term["amplitude"]) * float(term["terms"][0].get("coeff", 1.0))
    k = int(fac["k"])
    grid = traj.grid
    n, h = grid.n_points[0], grid.h[0]
    x = grid.axes()[0]
    mode = {"sin": np.sin, "cos": np.cos}[fac["fn"]](2.0 * np.pi * k * x / grid.lengths[0])
    lam = (2.0 - 2.0 * np.cos(2.0 * np.pi * k / n)) / (h * h)
    stride = round(traj.dt / traj.dt_sub)
    worst = 0.0
    for i, s in enumerate(traj.snapshots):
        factor = (1.0 - traj.dt_sub * lam) ** (i * stride)
        expect = float(term.get("offset", 0.0)) + amp * factor * mode
        worst = max(worst, float(np.max(np.abs(s.u - expect))))
    if worst > RTOL_DECAY * abs(amp):
        return [f"eigenmode off the Euler decay factor by {worst:.3g}"]
    return []


def roundtrip_equal(traj, loaded) -> list[str]:
    """load_run(save_run(traj)) reproduces every stored field bit for bit."""
    if len(loaded.snapshots) != len(traj.snapshots):
        return [f"{len(loaded.snapshots)} snapshots reloaded, {len(traj.snapshots)} saved"]
    out = []
    for i, (a, b) in enumerate(zip(traj.snapshots, loaded.snapshots)):
        for name in ("g", "phi", "u"):
            if not np.array_equal(getattr(a, name), getattr(b, name)):
                out.append(f"snapshot {i}: field {name} differs after reload")
        if a.t != b.t:
            out.append(f"snapshot {i}: time differs after reload")
    return out


def flat_gamma(report, grid) -> list[str]:
    """Gamma equals the flat-torus closed form (d^2 + r (K - r)) h^2 / dt,
    r = d mod K, for every pair of a Harnack report on a flat 1-D torus."""
    r_max = report.notes["r_max"]
    h = grid.h[0]
    out = []
    for p in report.pairs:
        d = abs(int(grid.wrap_delta(p["x1"][0], p["x2"][0], 0)))
        K = report.notes["substeps"] or default_substeps(grid, p["x1"], p["x2"], r_max)
        r = d % K
        expect = (d * d + r * (K - r)) * h * h / (p["t2"] - p["t1"])
        if abs(p["gamma"] - expect) > RTOL_GAMMA * max(expect, 1.0):
            out.append(f"gamma {p['gamma']!r} for pair {p['x1']}->{p['x2']}, "
                       f"closed form {expect!r}")
    return out


def cutoff_ok(report: dict) -> list[str]:
    out = []
    if not report["ok"]:
        out.append("cutoff certificate not ok")
    if not report["cbar_time"] <= CBAR_TIME_MAX:
        out.append(f"cbar_time {report['cbar_time']!r} > {CBAR_TIME_MAX!r}")
    return out


def positive_finite(x: float) -> list[str]:
    return [] if np.isfinite(x) and x > 0 else [f"expected a positive finite value, got {x!r}"]


def cli_ok(result) -> list[str]:
    code, summary = result
    return [] if code == 0 else [f"cli exit code {code}: {summary.get('error', '')}"]


# ---------------------------------------------------------------------------
# seed-commit records


def record(report) -> dict:
    """The fields of a check's output that are compared with the seed commit:
    verdict, gated fraction, min_margin and its scale.  Accepts estimate and
    Harnack reports, the identities dict, and the CLI's JSON summary."""
    summary = report if isinstance(report, dict) else report.summary()
    if "per_identity" in summary:
        per = summary["per_identity"].values()
        return {
            "ok": bool(summary["ok"]),
            "min_margin": min(p["tol"] - p["max_abs"] for p in per),
            "scale": max(p["tol"] for p in per),
        }
    out = {
        "ok": bool(summary["ok"]),
        "min_margin": float(summary["min_margin"]),
        "scale": float(summary["scale"]),
    }
    if "gated_fraction" in summary:
        out["gated_fraction"] = float(summary["gated_fraction"])
    return out


def match_record(rec: dict, ref: dict) -> list[str]:
    out = []
    if rec["ok"] != ref["ok"]:
        out.append(f"verdict ok={rec['ok']}, seed commit ok={ref['ok']}")
    if rec.get("gated_fraction") != ref.get("gated_fraction"):
        out.append(f"gated_fraction {rec.get('gated_fraction')!r}, "
                   f"seed commit {ref.get('gated_fraction')!r}")
    tol = RTOL_MARGIN * max(abs(ref["min_margin"]), ref["scale"])
    if not abs(rec["min_margin"] - ref["min_margin"]) <= tol:
        out.append(f"min_margin {rec['min_margin']!r}, seed commit "
                   f"{ref['min_margin']!r} (tolerance {tol:.3g})")
    return out
