"""Command line front end.

    rhflow run SOURCE [--out DIR] [--u-only] [--seed N] [--method M]
    rhflow check SOURCE --which WHICH [options]
    rhflow report SOURCE --which WHICH [options]

SOURCE is a bundled scenario name, a path to a scenario JSON, or a saved
run directory.  WHICH selects what to verify: identities, global, local,
evolution, harnack, or cutoff (cutoff needs no source).  `check` exits 0
only if every asserted margin clears -tol_num and no hypothesis gate was
empty; `run` exits 0 only if the run reached its final time.  Configuration
and usage problems exit 2.  All output is deterministic JSON/CSV: checking
the same scenario twice produces byte-identical files.

The output root is --out, else $RHFLOW_OUTPUT_ROOT, else ./runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import estimates, harnack, persistence
from .cutoff import LATTICE_LIMIT, cutoff_verify
from .estimates import GateEmptyError
from .flow import Trajectory
from .grid import check_int_range
from .scenarios import load_scenario, run_scenario

WHICH_CHOICES = ("identities", "global", "local", "evolution", "harnack", "cutoff")


def _output_root() -> Path:
    return Path(os.environ.get("RHFLOW_OUTPUT_ROOT", "runs"))


def _parse_node(text: str) -> tuple:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


def _open_source(source: str) -> tuple:
    """The name, the grid and a trajectory getter of a saved run directory
    or a scenario.  A run directory is loaded here; a scenario is parsed
    here and run only when the getter is called."""
    path = Path(source)
    if path.is_dir():
        traj = persistence.load_run(path)
        return path.name, traj.grid, lambda: traj
    sc = load_scenario(source)
    return sc.name, sc.grid, lambda: run_scenario(sc)


def _emit(obj) -> None:
    sys.stdout.write(persistence.dumps(obj) + "\n")


def _auto_pairs(traj: Trajectory) -> list:
    """Deterministic default Harnack pairs: peak and trough of u at the first
    positive-time snapshot, bridged to the final snapshot."""
    times = traj.times
    i1 = next(i for i, t in enumerate(times) if t > 0)
    t1, t2 = float(times[i1]), float(times[-1])
    u1 = traj.snapshots[i1].u
    peak = np.unravel_index(int(np.argmax(u1)), traj.grid.shape)
    trough = np.unravel_index(int(np.argmin(u1)), traj.grid.shape)
    origin = (0,) * traj.grid.dim
    return [
        (peak, t1, trough, t2),
        (trough, t1, peak, t2),
        (peak, t1, peak, t2),
        (origin, t1, trough, t2),
    ]


def _default(value, default):
    return default if value is None else value


def _run_check(args, traj: Trajectory):
    if args.which == "identities":
        return estimates.check_identities(
            traj,
            c_tol=args.c_tol,
            include_flow_correction=not args.printed_identity,
        )
    if args.which == "global":
        return estimates.check_global(
            traj, beta=_default(args.beta, 1.0), c_tol=args.c_tol, tol_eig_factor=args.tol_eig
        )
    if args.which == "local":
        beta = _default(args.beta, 2.0)
        if args.rho is None:
            raise ValueError("--which local needs --rho")
        if args.x0 is None:
            x0 = tuple(n // 2 for n in traj.grid.n_points)
        else:
            x0 = _parse_node(args.x0)  # checked against the grid by cmd_check
        cprime = args.cprime
        if cprime is None:
            cprime = estimates.fit_cprime(
                traj, [beta], rho=args.rho, x0=x0, shape="local", rho_power=1)
        cprime_sq = args.cprime_sq
        if cprime_sq is None:
            cprime_sq = estimates.fit_cprime(
                traj, [beta], rho=args.rho, x0=x0, shape="local", rho_power=2)
        report = estimates.check_local(
            traj, beta, args.rho, x0, cprime, cprime_sq, c_tol=args.c_tol)
        if args.cprime is None:
            report.notes["cprime_fitted_in_sample"] = True
        return report
    if args.which == "evolution":
        beta = _default(args.beta, 1.5)
        a = _default(args.a, 1.0 / (3.0 * beta))
        b = _default(args.b, 1.0 / (3.0 * beta))
        return estimates.check_evolution_inequality(traj, beta, a, b, c_tol=args.c_tol)
    if args.which == "harnack":
        if args.pairs:
            # check_harnack validates every pair and names a malformed one
            pairs = json.loads(Path(args.pairs).read_text())
        else:
            pairs = _auto_pairs(traj)
        beta = _default(args.beta, 2.0)
        cprime = args.cprime
        if args.mode == "complete" and cprime is None:
            cprime = estimates.fit_cprime(traj, [beta], shape="harnack")
        return harnack.check_harnack(
            traj, pairs, mode=args.mode, beta=beta, cprime=cprime,
            c_tol=args.c_tol, tol_eig_factor=args.tol_eig, substeps=args.substeps,
            r_max=args.r_max,
        )
    raise ValueError(f"unknown check {args.which!r}")


def _summary_of(report) -> dict:
    return report.summary() if hasattr(report, "summary") else dict(report)


def cmd_run(args) -> int:
    sc = load_scenario(args.source)
    if args.seed is not None:
        raw = dict(sc.raw)
        raw["seed"] = args.seed
        sc = load_scenario(raw)
    traj = run_scenario(sc, method=args.method)
    out = Path(args.out) if args.out else _output_root() / sc.name
    persistence.save_run(traj, out, full_fields=not args.u_only, overwrite=True)
    _emit(
        {
            "scenario": sc.name,
            "out": str(out),
            "n_snapshots": len(traj.snapshots),
            "t_final": float(traj.times[-1]),
            "completed": traj.completed,
            "halt_reason": traj.halt_reason,
        }
    )
    return 0 if traj.completed else 1


def _check_flag(flag: str, check, *args) -> None:
    """check(*args), with a refusal blamed on the flag."""
    try:
        check(*args)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _finite(value) -> None:
    if not np.isfinite(value):
        raise ValueError(f"must be a finite number, got {value!r}")


def _non_negative(value) -> None:
    if not 0 <= value < np.inf:
        raise ValueError(f"must be a finite number >= 0, got {value!r}")


def _check_flags(args) -> None:
    """Refuse every numeric flag outside its range, before anything is
    loaded or allocated.  --beta is checked against the domain of the
    check that reads it (see `estimates.check_beta`)."""
    positive = ("--rho", "--tau", "--cprime", "--cprime-sq", "--a", "--b")
    for flag in positive + ("--c-tol", "--tol-eig", "--beta"):
        name = flag[2:].replace("-", "_")
        value = getattr(args, name)
        if value is None:
            continue
        if flag in positive:
            _check_flag(flag, estimates.check_positive, name, value)
        elif flag != "--beta":
            _check_flag(flag, _non_negative, value)
        elif args.which in ("global", "evolution"):
            _check_flag(flag, estimates.check_beta, value)
        elif args.which == "local" or (args.which == "harnack" and args.mode == "complete"):
            _check_flag(flag, estimates.check_beta, value, True)
        else:
            _check_flag(flag, _finite, value)  # read by no check
    if args.x0 is not None:
        _check_flag("--x0", _parse_node, args.x0)
    if args.which == "cutoff":
        _check_flag("--lattice", check_int_range, "lattice", args.lattice, 2, LATTICE_LIMIT)
    if args.which == "harnack":
        _check_flag("--r-max", check_int_range, "r_max", args.r_max, 1, harnack.R_MAX_LIMIT)
        if args.substeps is not None:
            _check_flag("--substeps", check_int_range, "substeps", args.substeps, 1,
                        harnack.SUBSTEPS_LIMIT)


def cmd_check(args, emit_plotdata: bool = False) -> int:
    _check_flags(args)
    if args.which == "cutoff":
        name = "cutoff"
        report = cutoff_verify(_default(args.rho, 1.0), _default(args.tau, 0.1),
                               n_r=args.lattice, n_t=args.lattice)
    elif not args.source:
        raise ValueError(f"--which {args.which} needs a scenario or run directory")
    else:
        name, grid, trajectory = _open_source(args.source)
        if args.which == "local" and args.x0 is not None:
            _check_flag("--x0", grid.node, _parse_node(args.x0))
        report = _run_check(args, trajectory())
    out = Path(args.out) if args.out else _output_root() / name
    tag = args.which if args.which != "harnack" else f"harnack_{args.mode}"
    paths = persistence.save_report(report, out / "reports", tag)
    if emit_plotdata and hasattr(report, "rows") and hasattr(report, "lhs"):
        paths.update(persistence.save_plotdata(report, out / "reports", tag))
    summary = _summary_of(report)
    ok = summary.get("ok", False)
    _emit({**summary, "report_files": sorted(str(p.name) for p in paths.values())})
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rhflow",
        description="coupled metric/map flow runs and gradient-estimate checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a scenario and save the run")
    p_run.add_argument("source", help="bundled scenario name or scenario JSON path")
    p_run.add_argument("--out", help="run directory (default <root>/<name>)")
    p_run.add_argument("--method", choices=("euler", "rk2"), default=None)
    p_run.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p_run.add_argument(
        "--u-only", action="store_true",
        help="save only the heat field per snapshot (smaller, not reloadable)",
    )

    for cmd, helptext in (
        ("check", "verify an estimate on a scenario or saved run"),
        ("report", "like check, plus plot-ready CSV series"),
    ):
        p = sub.add_parser(cmd, help=helptext)
        p.add_argument("source", nargs="?", help="scenario name/path or run directory")
        p.add_argument("--which", choices=WHICH_CHOICES, required=True)
        p.add_argument("--out", help="output directory (default <root>/<name>)")
        p.add_argument("--beta", type=float, default=None)
        p.add_argument("--c-tol", type=float, default=estimates.C_TOL_DEFAULT)
        p.add_argument("--tol-eig", type=float, default=estimates.TOL_EIG_FACTOR,
                       help="curvature-gate tolerance factor (global, compact harnack)")
        p.add_argument("--rho", type=float, default=None, help="ball radius (local/cutoff)")
        p.add_argument("--x0", default=None, help="ball center node, comma separated")
        p.add_argument("--cprime", type=float, default=None)
        p.add_argument("--cprime-sq", type=float, default=None,
                       help="C' for the rho^2 variant of the local bound")
        p.add_argument("--a", type=float, default=None, help="evolution splitting constant")
        p.add_argument("--b", type=float, default=None, help="evolution splitting constant")
        p.add_argument("--printed-identity", action="store_true",
                       help="drop the map-transport term from the Laplacian-rate identity")
        p.add_argument("--mode", choices=("compact", "complete"), default="compact")
        p.add_argument("--pairs", default=None, help="JSON file of [x1, t1, x2, t2] pairs")
        p.add_argument("--substeps", type=int, default=None,
                       help=f"path-energy layers, 1 to {harnack.SUBSTEPS_LIMIT}")
        p.add_argument("--r-max", type=int, default=harnack.R_MAX_DEFAULT,
                       help=f"path-energy moves per layer, 1 to {harnack.R_MAX_LIMIT} cells")
        p.add_argument("--tau", type=float, default=None, help="cutoff ramp time")
        p.add_argument("--lattice", type=int, default=512,
                       help=f"cutoff verification lattice side, 2 to {LATTICE_LIMIT}")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "check":
            return cmd_check(args)
        return cmd_check(args, emit_plotdata=True)
    except GateEmptyError as exc:
        _emit({"ok": False, "error": f"empty hypothesis gate: {exc}"})
        return 1
    except (ValueError, FileNotFoundError, KeyError) as exc:
        _emit({"ok": False, "error": str(exc)})
        return 2


if __name__ == "__main__":
    sys.exit(main())
