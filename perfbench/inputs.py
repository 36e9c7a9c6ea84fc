"""Seeded workload inputs: scenario dicts and check parameters.

``--seed n`` selects input variant ``n % N_VARIANTS``; the seed-commit
values of every check on every variant are stored in reference.json, so the
oracles compare each output with what the seed commit computed on exactly
that input.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import copy

import numpy as np
from rhflow import scenarios

N_VARIANTS = 16
WORKLOAD_STREAMS = {"coupled_2d": 1, "static_1d": 2, "recheck_2d": 3}

# Stored snapshots of a 2-D input: t_start plus 4 strides of 5 substeps,
# the fewest the evolution check accepts.
SNAPSHOTS_2D = 5
SUBSTEPS_1D = 2000


def variant(seed: int) -> int:
    return seed % N_VARIANTS


def rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([variant(seed), WORKLOAD_STREAMS[workload]])


def _window(cfg: dict, n_substeps: int) -> None:
    t = cfg["time"]
    t["t_end"] = t["t_start"] + n_substeps * t["dt_sub"]


def coupled_scenario(r: np.random.Generator, tag: str) -> dict:
    """A perturbation of the bundled rh_perturbed_2d: 64x64, rh_alpha flow,
    bundled substep and stride, a window of SNAPSHOTS_2D snapshots."""
    cfg = copy.deepcopy(scenarios.load_scenario("rh_perturbed_2d").raw)
    cfg["name"] = f"bench_coupled_{tag}"
    init = cfg["initial"]
    init["metric"]["amplitude"] *= r.uniform(0.8, 1.2)
    for term in init["metric"]["terms"][1:]:
        term["coeff"] *= r.uniform(0.8, 1.2)
    init["phi"]["components"][0]["amplitude"] *= r.uniform(0.8, 1.2)
    for term in init["u"]["terms"]:
        term["coeff"] *= r.uniform(0.8, 1.2)
    cfg["alpha"]["alpha0"] = float(r.uniform(0.9, 1.0))
    _window(cfg, (SNAPSHOTS_2D - 1) * cfg["time"]["snapshot_stride"])
    return cfg


def _node(r: np.random.Generator, shape) -> tuple[int, ...]:
    return tuple(int(r.integers(n)) for n in shape)


def _near(r: np.random.Generator, x: tuple, shape) -> tuple[int, ...]:
    """A node within 6 cells of x per axis."""
    return tuple((a + int(d)) % n for a, d, n in zip(x, r.integers(-6, 7, size=len(x)), shape))


def coupled_inputs(seed: int, n_inputs: int = 2) -> list[dict]:
    r = rng("coupled_2d", seed)
    out = []
    for i in range(n_inputs):
        cfg = coupled_scenario(r, f"in{i}")
        out.append({
            "scenario": cfg,
            "n_snapshots": SNAPSHOTS_2D,
            "x0": _node(r, cfg["grid"]["n_points"]),
            "rho": float(r.uniform(1.2, 2.0)),
        })
    return out


def static_inputs(seed: int) -> list[dict]:
    """Frozen flat circles: a single eigenmode (128 nodes) and a periodized
    heat kernel (256 nodes), each SUBSTEPS_1D substeps long."""
    r = rng("static_1d", seed)
    eig = copy.deepcopy(scenarios.load_scenario("static_eigenmode").raw)
    eig["name"] = "bench_eigenmode"
    eig["initial"]["u"]["amplitude"] = float(r.uniform(0.5, 1.0))
    eig["initial"]["u"]["terms"][0]["factors"][0]["k"] = int(r.integers(1, 3))
    kern = copy.deepcopy(scenarios.load_scenario("heat_kernel_largetorus").raw)
    kern["name"] = "bench_heat_kernel"
    t0 = float(r.uniform(0.006, 0.010))
    kern["initial"]["u"]["t0"] = t0
    kern["initial"]["u"]["center"] = [float(r.uniform(0.5, 1.5))]
    kern["time"]["t_start"] = t0
    out = []
    for cfg, eigenmode in ((eig, True), (kern, False)):
        _window(cfg, SUBSTEPS_1D)
        n = cfg["grid"]["n_points"][0]
        length = cfg["grid"]["lengths"][0]
        sources = [int(r.integers(n)) for _ in range(2)]
        # offsets of at most 16 cells keep every pair at the Harnack DP's
        # floor of 32 layers, so the lattice costs the same on every seed
        targets = [int(v) for v in r.integers(-16, 17, size=4)]
        out.append({
            "scenario": cfg,
            "eigenmode": eigenmode,
            "n_snapshots": SUBSTEPS_1D // cfg["time"]["snapshot_stride"] + 1,
            "x0": (int(r.integers(n)),),
            "rho": float(r.uniform(0.2, 0.3)) * length,
            "tau": float(r.uniform(0.05, 0.2)),
            # a lattice: every source to every target offset, first stored
            # positive time to the last
            "pair_nodes": [((s,), ((s + o) % n,)) for s in sources for o in targets],
        })
    return out


def recheck_inputs(seed: int, n_inputs: int = 2) -> list[dict]:
    """Coupled runs to save once and check many times through the CLI.
    Per run: one seeded ball, one beta for the global check, and a Harnack
    pair lattice whose pairs mostly share one (x1, t1, t2)."""
    r = rng("recheck_2d", seed)
    out = []
    for i in range(n_inputs):
        cfg = coupled_scenario(r, f"run{i}")
        shape = cfg["grid"]["n_points"]
        src, other = _node(r, shape), _node(r, shape)
        out.append({
            "scenario": cfg,
            "n_snapshots": SNAPSHOTS_2D,
            "x0": _node(r, shape),
            "rho": float(r.uniform(1.2, 2.0)),
            "beta": [1.0, 1.25, 1.5][int(r.integers(3))],
            "pair_nodes": [(src, _near(r, src, shape)) for _ in range(4)]
            + [(other, _near(r, other, shape))],
        })
    return out


INPUTS = {"coupled_2d": coupled_inputs, "static_1d": static_inputs,
          "recheck_2d": recheck_inputs}
