"""rhflow benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload coupled_2d --seed 0 --seconds 40 --trace 0

Run it from the repository root; the package is imported from ./src.  With
``--trace 0`` the last stdout line is a JSON object holding the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics and the spans are
written to .perfbench_out/.  The lines before it print every metric with its
unit, sample count, raw seconds and probe time, then the environment stamp.
See perfbench/README.md.
"""

import os

# Single-threaded BLAS, set before numpy is imported anywhere in the process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".perfbench_work"
OUT_ROOT = ROOT / ".perfbench_out"
SETUP_REPS = 7
SETUP_TIMEOUT_S = 120

E2E = (("setup_s", "s"), ("run_s", "s"), ("check_s", "s"), ("save_s", "s"),
       ("load_s", "s"), ("peak_rss_mb", "MB"), ("run_dir_mb", "MB"))
TIMED_E2E = ("run_s", "check_s", "save_s", "load_s")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("coupled_2d", "static_1d", "recheck_2d"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_once(workload: str, seed: int) -> int:
    """What setup_s times, in a fresh interpreter: imports, input generation,
    scenario parse, and one warm-up call."""
    import scipy.sparse.csgraph  # noqa: F401
    from rhflow import flow, scenarios

    import inputs
    import workloads  # noqa: F401  (the benchmark's own imports)

    parsed = [scenarios.load_scenario(c["scenario"]) for c in inputs.INPUTS[workload](seed)]
    sc = parsed[0]
    flow.step_heat(sc.grid, sc.initial_snapshot(), sc.dt_sub)
    return 0


def _setup_child(workload: str, seed: int) -> int:
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", workload,
           "--seed", str(seed), "--seconds", "0"]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, timeout=SETUP_TIMEOUT_S).returncode


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if text.startswith("ref: "):
        ref = ROOT / ".git" / text[5:]
        return ref.read_text().strip() if ref.is_file() else None
    return text


def env_stamp(seed: int, variant: int, probe_ms: float) -> dict:
    import numpy as np
    import scipy

    import probe

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": git_commit(),
        "seed": seed,
        "input_variant": variant,
        "p_nom_ms": 1e3 * probe.P_NOM_S,
        "probe_median_ms": probe_ms,
    }


def overhead_frac(s) -> float:
    """Traced over untraced cycle time, minus one, over the metrics that
    have both kinds of samples."""
    plain = traced = 0.0
    for name in TIMED_E2E:
        a, b = s.totals(name, traced=False), s.totals(name, traced=True)
        if a["n"] and b["n"]:
            plain += a["scaled"]
            traced += b["scaled"]
    return traced / plain - 1.0 if plain else float("nan")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "rhflow" / "__init__.py").is_file():
        print("perfbench: no src/rhflow here; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_only:
        return setup_once(args.workload, args.seed)

    from rhflow import scenarios

    import inputs
    import layers
    from session import Session
    from workloads import WORKLOADS

    variant = inputs.variant(args.seed)
    reference = json.loads((HERE / "reference.json").read_text())
    s = Session(reference["workloads"][args.workload][str(variant)])
    cases = inputs.INPUTS[args.workload](args.seed)
    for case in cases:
        case["scenario_obj"] = scenarios.load_scenario(case["scenario"])
    work = WORK_ROOT / f"{args.workload}_seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    deadline = time.perf_counter() + args.seconds
    try:
        for _ in range(SETUP_REPS):
            s.op("setup_s", "setup", _setup_child, args.workload, args.seed,
                 check=lambda code: [] if code == 0 else [f"setup exited {code}"])
        state = WORKLOADS[args.workload](s, cases, work, deadline, bool(args.trace))
        if args.trace and "in0" in state:
            try:
                layers.time_kernels(s, state["in0"], work)
            except Exception as exc:  # counted; the untimed kernels are then missing
                s.failures.append(("layers", [f"raised {exc!r}"]))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    totals = {name: s.totals(name) for name, _ in E2E[:5]}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    run_dir_mb = sum(s.counts["persistence.bytes_written"].values()) / 1e6
    e2e = {name: (totals[name]["scaled"], unit) for name, unit in E2E[:5]}
    e2e["peak_rss_mb"] = (rss_mb, "MB")
    e2e["run_dir_mb"] = (run_dir_mb, "MB")

    stamp = env_stamp(args.seed, variant, s.probe_ms())
    print(f"perfbench {args.workload} seed={args.seed} variant={variant} "
          f"inputs={len(cases)} seconds={args.seconds:g} trace={args.trace}")
    print(f"{'metric':<14}{'value':>14}  {'unit':<5}{'n':>4}{'raw_s':>12}{'probe_ms':>10}")
    for name, (value, unit) in e2e.items():
        t = totals.get(name)
        extra = f"{t['n']:>4}{t['raw']:>12.4f}{t['probe_ms']:>10.2f}" if t else f"{1:>4}"
        print(f"{name:<14}{value:>14.6g}  {unit:<5}{extra}")
    frac = s.failed / max(s.attempted, 1)
    print(f"{'fail_frac':<14}{frac:>14.6g}  {'ratio':<5}  attempted={s.attempted} "
          f"failed={s.failed}")
    for key, problems in s.failures[:20]:
        print(f"FAILED {key}: {'; '.join(problems)}")
    print("env " + json.dumps(stamp, sort_keys=True))

    if args.trace:
        raw_s = {name: totals[name]["raw"] for name, _ in E2E[:5]}
        values = layers.per_layer_metrics(s, raw_s, overhead_frac(s))
        metrics = {}
        for name, unit in layers.PER_LAYER:
            metrics[name] = values.get(name, float("nan"))
            print(f"{name:<34}{metrics[name]:>16.6g}  {unit}")
    else:
        metrics = {name: value for name, (value, _) in e2e.items()}
    missing = sorted(k for k, v in metrics.items() if not math.isfinite(v))
    if missing:
        s.attempted += 1
        s.failures.append(("metrics", [f"not measured: {', '.join(missing)}"]))
        print(f"FAILED metrics not measured: {', '.join(missing)}")
        metrics.update({k: 0.0 for k in missing})

    units = dict(layers.PER_LAYER) if args.trace else dict(E2E)
    OUT_ROOT.mkdir(exist_ok=True)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    (OUT_ROOT / f"result_{tag}.json").write_text(json.dumps({
        "env": stamp,
        "end_to_end": {name: {"value": v, "unit": u, **(totals.get(name) or {})}
                       for name, (v, u) in e2e.items()},
        "metrics": metrics,
        "attempted": s.attempted,
        "failures": s.failures,
    }, indent=1))
    if args.trace:
        (OUT_ROOT / f"spans_{tag}.json").write_text(json.dumps(
            {"env": stamp, "spans": s.tracer.spans}))
    print(json.dumps({
        "correct": not s.failures,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
