"""Command line front end.

    rhflow run SOURCE [--out DIR] [--seed N] [--method M]
    rhflow check SOURCE --which WHICH [flags]
    rhflow report SOURCE --which WHICH [flags]

SOURCE is a bundled scenario name, a path to a scenario JSON, or a saved
run directory.  `CHECKS` holds one entry per check, keyed by its report tag
(`--which harnack --mode compact` is `harnack_compact`; `cutoff` takes no
SOURCE): the flags it reads, with their defaults and domains, and the
function that runs it.  A flag the check does not read, or a value outside
its domain, exits 2 naming the flag before anything is loaded.  `check`
exits 0 only if every asserted margin clears -tol_num and no hypothesis
gate was empty; `run` exits 0 only if the run reached its final time.
Configuration and usage problems, argparse's own included, and files that
cannot be read or written (any OSError) exit 2 with {"ok": false,
"error": ...} on stdout.  All output is deterministic
JSON/CSV: checking the same scenario twice produces byte-identical files.

The output root is --out, else $RHFLOW_OUTPUT_ROOT, else ./runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache, partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import estimates, harnack, persistence
from .cutoff import LATTICE_LIMIT, check_scale, cutoff_verify
from .estimates import EstimateReport, GateEmptyError, check_beta, check_positive, check_rho
from .flow import Trajectory
from .grid import check_int_range
from .scenarios import load_scenario, run_scenario


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
    i1 = next((i for i, t in enumerate(times) if t > 0), None)
    if i1 is None:
        raise ValueError("the default Harnack pairs need a stored snapshot at t > 0, "
                         f"and the run's last is at t={times[-1]:g}")
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


def _check_flag(flag: str, check, *args):
    """check(*args), with a refusal blamed on the flag."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _non_negative(value) -> None:
    if not 0 <= value < np.inf:
        raise ValueError(f"must be a finite number >= 0, got {value!r}")


def _with_pairs(traj: Trajectory, pairs_file) -> tuple:
    # check_harnack validates every pair and names a malformed one
    return traj, json.loads(Path(pairs_file).read_text()) if pairs_file else _auto_pairs(traj)


def _local(grid, trajectory, beta, rho, x0, cprime, cprime_sq, c_tol):
    if rho is None:
        raise ValueError("--which local needs --rho")
    _check_flag("--rho", check_rho, rho, beta)  # the local bound divides by rho^2 (beta - 1)
    # the centre node by default; a given --x0 is checked against the grid before the run
    x0 = (tuple(n // 2 for n in grid.n_points) if x0 is None
          else _check_flag("--x0", grid.node, _parse_node(x0)))
    traj = trajectory()
    fit = partial(estimates.fit_cprime, traj, [beta], rho=rho, x0=x0, shape="local")
    report = estimates.check_local(
        traj, beta, rho, x0, fit(rho_power=1) if cprime is None else cprime,
        fit(rho_power=2) if cprime_sq is None else cprime_sq, c_tol=c_tol)
    if cprime is None:
        report.notes["cprime_fitted_in_sample"] = True
    return report


def _harnack_complete(grid, trajectory, pairs, beta, cprime, **options):
    traj, pairs = _with_pairs(trajectory(), pairs)
    if cprime is None:
        cprime = estimates.fit_cprime(traj, [beta], shape="harnack")
    return harnack.check_harnack(traj, pairs, beta=beta, cprime=cprime, **options)


class Check(NamedTuple):
    """flags maps each flag the check reads to (default, domain); a domain
    raises ValueError on a value outside it.  run(grid, trajectory getter,
    **values) gets one value per flag, keyed by dest; it derives a None
    default from the run (a fitted C', the centre node) or refuses it
    (local's --rho).  A check without a source gets no grid or trajectory."""

    flags: dict
    run: Callable
    source: bool = True


_C_TOL = {"--c-tol": (estimates.C_TOL_DEFAULT, _non_negative)}
_GATE = {"--tol-eig": (estimates.TOL_EIG_FACTOR, _non_negative)}
_BETA_ABOVE_1 = partial(check_beta, strict=True)
_HARNACK = {
    "--pairs": (None, None), **_C_TOL,
    "--substeps": (None, partial(check_int_range, "substeps", lo=1, hi=harnack.SUBSTEPS_LIMIT)),
    "--r-max": (harnack.R_MAX_DEFAULT,
                partial(check_int_range, "r_max", lo=1, hi=harnack.R_MAX_LIMIT)),
}
CHECKS = {
    "identities": Check(
        {**_C_TOL, "--printed-identity": (False, None)},
        lambda grid, trajectory, c_tol, printed_identity: estimates.check_identities(
            trajectory(), c_tol=c_tol, include_flow_correction=not printed_identity)),
    "global": Check(
        {"--beta": (1.0, check_beta), **_C_TOL, **_GATE},
        lambda grid, trajectory, beta, c_tol, tol_eig: estimates.check_global(
            trajectory(), beta=beta, c_tol=c_tol, tol_eig_factor=tol_eig)),
    "local": Check(
        {"--beta": (2.0, _BETA_ABOVE_1), "--rho": (None, check_rho),
         "--x0": (None, _parse_node), "--cprime": (None, partial(check_positive, "cprime")),
         "--cprime-sq": (None, partial(check_positive, "cprime_sq")), **_C_TOL},
        _local),
    "evolution": Check(
        {"--beta": (1.5, check_beta), "--a": (None, partial(check_positive, "a")),
         "--b": (None, partial(check_positive, "b")), **_C_TOL},
        lambda grid, trajectory, beta, a, b, c_tol: estimates.check_evolution_inequality(
            trajectory(), beta, *(1.0 / (3.0 * beta) if v is None else v for v in (a, b)),
            c_tol=c_tol)),  # by default a = b, with a + 2b = 1/beta
    "harnack_compact": Check(
        {"--mode": ("compact", None), **_HARNACK, **_GATE},
        lambda grid, trajectory, pairs, tol_eig, **options: harnack.check_harnack(
            *_with_pairs(trajectory(), pairs), tol_eig_factor=tol_eig, **options)),
    "harnack_complete": Check(
        {"--mode": ("complete", None), "--beta": (2.0, _BETA_ABOVE_1),
         "--cprime": (None, partial(check_positive, "cprime")), **_HARNACK},
        _harnack_complete),
    "cutoff": Check(
        {"--rho": (1.0, partial(check_scale, "rho")), "--tau": (0.1, partial(check_scale, "tau")),
         "--lattice": (512, partial(check_int_range, "lattice", lo=2, hi=LATTICE_LIMIT))},
        lambda grid, trajectory, rho, tau, lattice: cutoff_verify(rho, tau, lattice, lattice),
        source=False),
}
FLAGS = tuple(dict.fromkeys(flag for check in CHECKS.values() for flag in check.flags))
WHICH_CHOICES = tuple(dict.fromkeys(tag.split("_")[0] for tag in CHECKS))

# what each flag sets, and its argparse options
_OPTIONS = {
    "--c-tol": ("tolerance factor of the margin verdicts", {"type": float}),
    "--printed-identity": ("drop the map-transport term from the Laplacian-rate identity",
                           {"action": "store_true"}),
    "--beta": ("weight of f_t in |grad f|^2 - beta f_t", {"type": float}),
    "--tol-eig": ("curvature-gate tolerance factor", {"type": float}),
    "--rho": ("radius of the local ball (required there) or of the cutoff", {"type": float}),
    "--x0": ("ball center node, comma separated (default: the center node)", {}),
    "--cprime": ("C' of the bound (default: fitted in-sample)", {"type": float}),
    "--cprime-sq": ("C' of the local bound's rho^2 variant (default: fitted)", {"type": float}),
    "--a": ("evolution splitting constant (default: 1/(3 beta))", {"type": float}),
    "--b": ("evolution splitting constant (default: 1/(3 beta))", {"type": float}),
    "--mode": ("Harnack case (default: compact)", {"choices": ("compact", "complete")}),
    "--pairs": ("JSON file of [x1, t1, x2, t2] pairs (default: peak/trough pairs)", {}),
    "--substeps": (f"path-energy layers, 1 to {harnack.SUBSTEPS_LIMIT}", {"type": int}),
    "--r-max": (f"path-energy moves per layer, 1 to {harnack.R_MAX_LIMIT} cells", {"type": int}),
    "--tau": ("cutoff ramp time", {"type": float}),
    "--lattice": (f"cutoff verification lattice side, 2 to {LATTICE_LIMIT}", {"type": int}),
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _values(args, tag: str, check: Check) -> dict:
    """Each flag the check reads, as given or by default, keyed by dest.  A flag
    it does not read, or a value outside its domain, is refused naming the flag."""
    for flag in FLAGS:
        if flag not in check.flags and getattr(args, _dest(flag)) is not None:
            raise ValueError(f"{flag}: not read by {tag}")
    values = {}
    for flag, (default, domain) in check.flags.items():
        value = getattr(args, _dest(flag))
        if value is not None and domain is not None:
            _check_flag(flag, domain, value)
        values[_dest(flag)] = default if value is None else value
    return values


def cmd_run(args) -> int:
    sc = load_scenario(args.source)
    if args.seed is not None:
        raw = dict(sc.raw)
        raw["seed"] = args.seed
        sc = load_scenario(raw)
    traj = run_scenario(sc, method=args.method)
    out = Path(args.out) if args.out else _output_root() / sc.name
    persistence.save_run(traj, out, overwrite=True)
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


def cmd_check(args, emit_plotdata: bool = False) -> int:
    tag = args.which if args.which in CHECKS else f"{args.which}_{args.mode or 'compact'}"
    check = CHECKS[tag]
    values = _values(args, tag, check)
    if check.source != bool(args.source):
        raise ValueError(f"--which {args.which} needs a scenario or run directory"
                         if check.source else
                         f"--which {args.which} reads no SOURCE, got {args.source!r}")
    name, grid, trajectory = _open_source(args.source) if check.source else (tag, None, None)
    report = check.run(grid, trajectory, **values)
    out = Path(args.out) if args.out else _output_root() / name
    paths = persistence.save_report(report, out / "reports", tag)
    if emit_plotdata and isinstance(report, EstimateReport):
        paths.update(persistence.save_plotdata(report, out / "reports", tag))
    summary = report if isinstance(report, dict) else report.summary()
    _emit({**summary, "report_files": sorted(str(p.name) for p in paths.values())})
    return 0 if summary.get("ok", False) else 1


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser (its subcommand parsers too) whose usage errors
    raise ValueError, so that `main` refuses them as JSON on stdout with
    exit 2, like every other refusal, instead of printing usage to stderr."""

    def error(self, message: str):
        raise ValueError(message)


@cache
def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rhflow",
        description="coupled metric/map flow runs and gradient-estimate checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a scenario and save the run")
    p_run.add_argument("source", help="bundled scenario name or scenario JSON path")
    p_run.add_argument("--out", help="run directory (default <root>/<name>)")
    p_run.add_argument("--method", choices=("euler", "rk2"), default=None)
    p_run.add_argument("--seed", type=int, default=None, help="override scenario seed")

    for cmd, helptext in (
        ("check", "verify an estimate on a scenario or saved run"),
        ("report", "like check, plus plot-ready CSV series"),
    ):
        p = sub.add_parser(cmd, help=helptext)
        p.add_argument("source", nargs="?", help="scenario name/path or run directory")
        p.add_argument("--which", choices=WHICH_CHOICES, required=True)
        p.add_argument("--out", help="output directory (default <root>/<name>)")
        for flag, (text, options) in _OPTIONS.items():
            readers = ", ".join(tag for tag, check in CHECKS.items() if flag in check.flags)
            p.add_argument(flag, default=None, help=f"{text}; read by {readers}", **options)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.command == "run":
            return cmd_run(args)
        return cmd_check(args, emit_plotdata=args.command == "report")
    except GateEmptyError as exc:
        _emit({"ok": False, "error": f"empty hypothesis gate: {exc}"})
        return 1
    except (ValueError, OSError, KeyError) as exc:
        _emit({"ok": False, "error": str(exc)})
        return 2


if __name__ == "__main__":
    sys.exit(main())
