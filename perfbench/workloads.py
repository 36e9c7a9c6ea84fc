"""The three workloads.  Each runs cycles over its inputs until the deadline;
one cycle of one input is one workload operation (a parent span when traced).

coupled_2d  Python API in memory: run, the five checks, save, load.
static_1d   long runs on tiny frozen 1-D grids, cheap checks, save, load.
recheck_2d  runs made and saved, then loaded and checked through many
            `rhflow check` calls (cli.main) on the saved run directories.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import time
from pathlib import Path

import numpy as np
from rhflow import cli, cutoff, estimates, harnack, persistence, scenarios

import oracles
from session import OpFailed, Session

MIN_CYCLES = 2


def auto_pairs(traj) -> list:
    """The CLI's default Harnack pairs: peak and trough of u at the first
    positive-time snapshot, bridged to the final snapshot."""
    times = traj.times
    i1 = next(i for i, t in enumerate(times) if t > 0)
    t1, t2 = float(times[i1]), float(times[-1])
    u1 = traj.snapshots[i1].u
    peak = tuple(int(v) for v in np.unravel_index(int(np.argmax(u1)), u1.shape))
    trough = tuple(int(v) for v in np.unravel_index(int(np.argmin(u1)), u1.shape))
    origin = (0,) * traj.grid.dim
    return [(peak, t1, trough, t2), (trough, t1, peak, t2),
            (peak, t1, peak, t2), (origin, t1, trough, t2)]


def lattice_pairs(traj, pair_nodes) -> list:
    t1, t2 = float(traj.times[1]), float(traj.times[-1])
    return [(x1, t1, x2, t2) for x1, x2 in pair_nodes]


def shared_source_frac(pairs) -> float:
    """Share of pairs whose (x1, t1, t2) repeats an earlier pair's."""
    seen, repeats = set(), 0
    for x1, t1, _, t2 in pairs:
        key = (tuple(x1), t1, t2)
        repeats += key in seen
        seen.add(key)
    return repeats / len(pairs)


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def doubles_stored(traj) -> int:
    s = traj.snapshots[0]
    return len(traj.snapshots) * (1 + s.u.size + s.g.size + s.phi.size)


def cli_check(argv: list[str]) -> tuple[int, dict]:
    """One in-process `rhflow check` call; returns (exit code, JSON summary)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, json.loads(buf.getvalue())


def _cycles(s: Session, cases: list, body, deadline: float, alternate: bool) -> None:
    """Run body(case) for every case per cycle while another cycle, as long
    as the last one, still ends before the deadline.  With ``alternate``,
    every other cycle is traced, so traced and untraced samples are taken
    under the same conditions."""
    cycle, last = 0, 0.0
    while cycle < MIN_CYCLES or time.perf_counter() + last < deadline:
        start = time.perf_counter()
        s.tracing = alternate and cycle % 2 == 1
        for i, case in enumerate(cases):
            s.op_id = f"cycle{cycle}/in{i}"
            with s.span("bench.cycle"):
                try:
                    body(f"in{i}", case)
                except OpFailed:
                    pass
        cycle += 1
        last = time.perf_counter() - start
    s.tracing = alternate
    s.op_id = None


def _save(s: Session, tag: str, traj, run_dir: Path) -> None:
    shutil.rmtree(run_dir, ignore_errors=True)
    s.op("save_s", f"{tag}/save", persistence.save_run, traj, run_dir,
         layer="persistence.save_run_ms")
    s.counts["persistence.bytes_written"][tag] = dir_bytes(run_dir)
    s.counts["persistence.doubles_stored"][tag] = doubles_stored(traj)


def _load(s: Session, tag: str, traj, run_dir: Path) -> None:
    s.op("load_s", f"{tag}/load", persistence.load_run, run_dir,
         layer="persistence.load_run_ms",
         check=lambda loaded: oracles.roundtrip_equal(traj, loaded))


def _count_run(s: Session, tag: str, traj) -> None:
    s.counts["flow.substeps"][tag] = round(
        (traj.times[-1] - traj.times[0]) / traj.dt_sub)
    s.counts["flow.snapshots"][tag] = len(traj.snapshots)


def _count_pairs(s: Session, tag: str, pairs: list) -> None:
    s.counts["harnack.pairs"][tag] = len(pairs)
    s.counts["harnack.shared_source_frac"][tag] = shared_source_frac(pairs)


def _match(s: Session, key: str):
    return lambda report: s.match(key, oracles.record(report))


def coupled_2d(s: Session, cases: list, work: Path, deadline: float, alternate: bool) -> dict:
    state = {}

    def body(tag, case):
        sc = case["scenario_obj"]
        traj = s.op("run_s", f"{tag}/run", scenarios.run_scenario, sc,
                    check=lambda t: oracles.run_complete(t, case["n_snapshots"]))
        _count_run(s, tag, traj)
        s.op("check_s", f"{tag}/identities", estimates.check_identities, traj,
             layer="estimates.check_identities_ms", check=_match(s, f"{tag}/identities"))
        s.op("check_s", f"{tag}/global", estimates.check_global, traj,
             layer="estimates.check_global_ms", check=_match(s, f"{tag}/global"))
        s.op("check_s", f"{tag}/local", estimates.check_local, traj, 2.0, case["rho"],
             case["x0"], 1.0, 1.0, layer="estimates.check_local_ms",
             check=_match(s, f"{tag}/local"))
        s.op("check_s", f"{tag}/evolution", estimates.check_evolution_inequality, traj,
             1.5, 1.0 / 4.5, 1.0 / 4.5, layer="estimates.check_evolution_ms",
             check=_match(s, f"{tag}/evolution"))
        cprime = s.op("check_s", f"{tag}/fit_cprime", estimates.fit_cprime, traj, [2.0],
                      shape="harnack", layer="estimates.fit_cprime_ms",
                      check=oracles.positive_finite)
        pairs = auto_pairs(traj)
        s.op("check_s", f"{tag}/harnack", harnack.check_harnack, traj, pairs,
             mode="complete", beta=2.0, cprime=cprime, layer="harnack.check_harnack_ms",
             check=_match(s, f"{tag}/harnack"))
        _count_pairs(s, tag, pairs)
        _save(s, tag, traj, work / tag)
        _load(s, tag, traj, work / tag)
        state[tag] = {"traj": traj, "run_dir": work / tag, "pairs": pairs, **case}

    _cycles(s, cases, body, deadline, alternate)
    return state


def static_1d(s: Session, cases: list, work: Path, deadline: float, alternate: bool) -> dict:
    state = {}

    def run_oracles(case):
        def check(traj):
            out = oracles.run_complete(traj, case["n_snapshots"]) + oracles.mass_conserved(traj)
            if case["eigenmode"]:
                out += oracles.euler_decay(traj, case["scenario"])
            return out
        return check

    def harnack_oracles(key, grid):
        return lambda rep: s.match(key, oracles.record(rep)) + oracles.flat_gamma(rep, grid)

    def body(tag, case):
        traj = s.op("run_s", f"{tag}/run", scenarios.run_scenario, case["scenario_obj"],
                    check=run_oracles(case))
        _count_run(s, tag, traj)
        s.op("check_s", f"{tag}/global", estimates.check_global, traj,
             layer="estimates.check_global_ms", check=_match(s, f"{tag}/global"))
        s.op("check_s", f"{tag}/local", estimates.check_local, traj, 2.0, case["rho"],
             case["x0"], 1.0, 1.0, layer="estimates.check_local_ms",
             check=_match(s, f"{tag}/local"))
        s.op("check_s", f"{tag}/evolution", estimates.check_evolution_inequality, traj,
             1.5, 1.0 / 4.5, 1.0 / 4.5, layer="estimates.check_evolution_ms",
             check=_match(s, f"{tag}/evolution"))
        pairs = lattice_pairs(traj, case["pair_nodes"])
        s.op("check_s", f"{tag}/harnack", harnack.check_harnack, traj, pairs,
             mode="compact", layer="harnack.check_harnack_ms",
             check=harnack_oracles(f"{tag}/harnack", traj.grid))
        _count_pairs(s, tag, pairs)
        s.op("check_s", f"{tag}/cutoff", cutoff.cutoff_verify, case["rho"], case["tau"],
             layer="cutoff.cutoff_verify_ms", check=oracles.cutoff_ok)
        _save(s, tag, traj, work / tag)
        _load(s, tag, traj, work / tag)
        state[tag] = {"traj": traj, "run_dir": work / tag, "pairs": pairs, **case}

    _cycles(s, cases, body, deadline, alternate)
    return state


def _cli_calls(case: dict, run_dir: Path, out_dir: Path, pairs_file: Path) -> list:
    """(name, argv) of the `rhflow check` calls made on one run directory."""
    base = ["check", str(run_dir), "--out", str(out_dir)]
    x0 = ",".join(str(v) for v in case["x0"])
    return [
        ("local", base + ["--which", "local", "--rho", repr(case["rho"]), "--x0", x0]),
        ("harnack", base + ["--which", "harnack", "--mode", "complete",
                            "--pairs", str(pairs_file)]),
        ("global", base + ["--which", "global", "--beta", repr(case["beta"])]),
        ("identities", base + ["--which", "identities"]),
        ("evolution", base + ["--which", "evolution"]),
    ]


def recheck_2d(s: Session, cases: list, work: Path, deadline: float, alternate: bool) -> dict:
    state = {}

    def body(tag, case):
        # Re-making and re-saving the run every cycle writes identical bytes;
        # it spreads the run_s and save_s samples over the whole budget
        # instead of bunching them at the start.
        run_dir = work / tag
        traj = s.op("run_s", f"{tag}/run", scenarios.run_scenario, case["scenario_obj"],
                    check=lambda t: oracles.run_complete(t, case["n_snapshots"]))
        _count_run(s, tag, traj)
        _save(s, tag, traj, run_dir)
        if tag not in state:
            pairs = lattice_pairs(traj, case["pair_nodes"])
            pairs_file = work / f"{tag}_pairs.json"
            pairs_file.write_text(json.dumps([[list(x1), t1, list(x2), t2]
                                              for x1, t1, x2, t2 in pairs]))
            _count_pairs(s, tag, pairs)
            state[tag] = {"run_dir": run_dir, "pairs": pairs,
                          "calls": _cli_calls(case, run_dir, work / f"{tag}_out", pairs_file),
                          **case}
        state[tag]["traj"] = traj
        _load(s, tag, traj, run_dir)
        for name, argv in state[tag]["calls"]:
            key = f"{tag}/cli.{name}"
            s.op("check_s", key, cli_check, argv, layer=f"cli.check.{name}_ms",
                 check=lambda res, key=key: (oracles.cli_ok(res)
                                             + s.match(key, oracles.record(res[1]))))

    _cycles(s, cases, body, deadline, alternate)
    return state


WORKLOADS = {"coupled_2d": coupled_2d, "static_1d": static_1d, "recheck_2d": recheck_2d}
