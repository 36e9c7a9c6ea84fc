"""The shared derived-field layer: work done once per trajectory.

Every check reads Ricci curvature, f = log u, f_t, |grad f|^2 and distance
fields from ``traj.derived``.  Running the whole chain of checks on one
trajectory must compute each of them once.  What depends on the metric
alone is built once per distinct metric array (consecutive snapshots whose
metric arrays are one object or equal in content): Ricci and its
eigenvalues, one Dijkstra per centre, and one edge-cost build per
`check_harnack` call, with only one metric's edge costs alive at a time.
So a coupled run, whose metrics all differ, builds them once per stored
(or floor) snapshot, and a static run once in all, in memory or reloaded.
"""

import ast
import copy
import weakref
from pathlib import Path

import numpy as np
import pytest

from test_flow import count_calls, short_coupled_scenario
from tiny_configs import tiny_static_cfg
from rhflow import distance, geometry, harnack
from rhflow import estimates as est
from rhflow.cli import _auto_pairs
from rhflow.persistence import dumps, load_run, save_run
from rhflow.scenarios import load_scenario, run_scenario


def run_every_check(traj, x0, rho):
    est.check_identities(traj)
    est.check_global(traj)
    est.check_local(traj, 2.0, rho, x0, 1.0, 1.0)
    est.check_evolution_inequality(traj, 1.5, 1.0 / 4.5, 1.0 / 4.5)
    est.fit_cprime(traj, [2.0], rho=rho, x0=x0, shape="local")
    cprime = est.fit_cprime(traj, [2.0], shape="harnack")
    harnack.check_harnack(traj, _auto_pairs(traj), mode="complete", beta=2.0, cprime=cprime)


def test_every_check_shares_one_layer(coupled_run, monkeypatch):
    traj = copy.copy(coupled_run)  # a copy starts with an empty layer
    ricci = count_calls(monkeypatch, geometry, "ricci")
    eig = count_calls(monkeypatch, geometry, "eig_general")
    dijkstra = count_calls(monkeypatch, distance, "geodesic_distance")
    edges = count_calls(monkeypatch, harnack, "_edge_costs")
    x0 = (32, 32)
    run_every_check(traj, x0, 2.0)
    snaps = traj.snapshots
    S = len(snaps)
    # Ricci once per stored snapshot, its eigenvalues and the map's once each
    assert sorted(id(args[1]) for args in ricci) == sorted(id(s.metric) for s in snaps)
    assert len(eig) == 2 * S
    assert sorted(id(args[1]) for args in eig) == sorted(2 * [id(s.metric) for s in snaps])
    # every metric of a coupled run differs: one Dijkstra per snapshot
    assert [id(args[1]) for args in dijkstra] == [id(s.metric) for s in snaps]
    assert {args[2] for args in dijkstra} == {x0}
    # one edge build per floor snapshot of the Harnack call, in time order;
    # the auto pairs run from the first positive time to the last snapshot
    i1 = next(i for i, t in enumerate(traj.times) if t > 0)
    assert [id(args[1]) for args in edges] == [id(s.g) for s in snaps[i1:S - 1]]
    # a second round of checks computes nothing new but Harnack's edges
    del ricci[:], eig[:], dijkstra[:], edges[:]
    run_every_check(traj, x0, 2.0)
    assert not ricci and not eig and not dijkstra
    assert len(edges) == S - 1 - i1


def test_static_run_needs_one_dijkstra_per_centre(eigenmode_run, tmp_path, monkeypatch):
    traj = copy.copy(eigenmode_run)
    dijkstra = count_calls(monkeypatch, distance, "geodesic_distance")
    rho = 0.3
    est.check_local(traj, 2.0, rho, (64,), 1.0, 1.0)
    est.fit_cprime(traj, [2.0], rho=rho, x0=(64,), shape="local")
    assert len(dijkstra) == 1
    est.check_local(traj, 2.0, rho, (10,), 1.0, 1.0)
    assert len(dijkstra) == 2
    # a reloaded static run holds one array per snapshot, all equal
    save_run(eigenmode_run, tmp_path / "run")
    loaded = load_run(tmp_path / "run")
    assert loaded.snapshots[0].g is not loaded.snapshots[1].g
    np.testing.assert_array_equal(loaded.derived.distance((64,)),
                                  traj.derived.distance((64,)))
    assert len(dijkstra) == 3


@pytest.mark.parametrize("reloaded", [False, True])
def test_a_static_run_builds_its_metric_fields_once(eigenmode_run, tmp_path, monkeypatch,
                                                    reloaded):
    traj = copy.copy(eigenmode_run)
    if reloaded:  # separate but equal arrays in every snapshot
        save_run(eigenmode_run, tmp_path / "run")
        traj = load_run(tmp_path / "run")
        a, b = traj.snapshots[0], traj.snapshots[1]
        assert a.g is not b.g and a.phi is not b.phi and a.metric is not b.metric
    ricci = count_calls(monkeypatch, geometry, "ricci")
    eig = count_calls(monkeypatch, geometry, "eig_general")
    dijkstra = count_calls(monkeypatch, distance, "geodesic_distance")
    edges = count_calls(monkeypatch, harnack, "_edge_costs")
    run_every_check(traj, (64,), 0.3)
    assert len(edges) == 1
    harnack.check_harnack(traj, _auto_pairs(traj), mode="compact")
    assert len(edges) == 2
    # Ricci once, its eigenvalues and the map's once each, for all snapshots
    assert len(ricci) == 1 and len(eig) == 2 and len(dijkstra) == 1
    assert traj.derived.metric_class == [0] * len(traj.snapshots)
    # the run's constants are still the reduction of the shared fields
    lam_min, lam_max, t_lam_outer = traj.derived.curvature
    for i, s in enumerate(traj.snapshots):
        assert traj.constants[i]["tc_phi"] == float(t_lam_outer[i].max())
        assert traj.constants[i]["ric_min"] == float(lam_min[i].min())


def test_spellings_of_one_node_share_one_dijkstra_and_echo(eigenmode_run, monkeypatch):
    # 133 and -123 wrap to node 5 on the 128-node circle
    traj = copy.copy(eigenmode_run)
    dijkstra = count_calls(monkeypatch, distance, "geodesic_distance")
    reports = [est.check_local(traj, 2.0, 0.3, x0, 1.0)
               for x0 in ((5,), (133,), np.array([-123]), [np.int64(5)])]
    assert len(dijkstra) == 1 and dijkstra[0][2] == (5,)
    assert {dumps(rep.summary()) for rep in reports} == {dumps(reports[0].summary())}
    assert reports[0].notes["x0"] == (5,)
    assert reports[0].constants["region"] == "ball(x0=(5,), rho=0.3)"


def test_edge_costs_of_one_floor_snapshot_alive_at_a_time(coupled_run, monkeypatch):
    alive = []
    real = harnack._edge_costs

    def tracking(*args):
        # the costs of every earlier snapshot are freed before a new build
        assert all(ref() is None for ref in alive)
        out = real(*args)
        alive.extend(weakref.ref(cost) for _, cost in out)
        return out

    monkeypatch.setattr(harnack, "_edge_costs", tracking)
    cprime = est.fit_cprime(coupled_run, [2.0], shape="harnack")
    harnack.check_harnack(coupled_run, _auto_pairs(coupled_run), mode="complete",
                          cprime=cprime)
    assert len(alive) > 0 and all(ref() is None for ref in alive)


def test_lockstep_programs_equal_one_program_at_a_time(coupled_run):
    # four programs with different layer counts and start times, run
    # together and alone, agree bit for bit
    times = coupled_run.times
    programs = [((3, 5), times[1], times[4], 40), ((60, 2), times[1], times[4], 32),
                ((3, 5), times[2], times[4], 17), ((30, 30), times[1], times[3], 40)]
    together = harnack.gamma_fields(coupled_run, programs)
    for program, field in zip(programs, together):
        alone = harnack.gamma_field(coupled_run, *program)
        np.testing.assert_array_equal(field, alone)


def test_layer_is_not_part_of_equality_and_copies_start_empty(coupled_run):
    traj = copy.copy(coupled_run)
    layer = traj.derived
    assert traj.derived is layer
    twin = copy.copy(traj)
    assert twin == traj
    assert twin.derived is not layer and twin.derived.owner() is twin


@pytest.mark.parametrize("i", [0, -1])
def test_f_t_is_centered_only(coupled_run, i):
    S = len(coupled_run.snapshots)
    with pytest.raises(ValueError, match="interior"):
        coupled_run.derived.f_t(i % S)


# ---------------------------------------------------------------------------
# one eigenvalue pass: the run's constants reduce the layer's curvature


def halted_warped_scenario():
    """A 1-D warped run whose map blows up after a few stored snapshots."""
    return load_scenario({
        "name": "warped_blowup",
        "grid": {"dim": 1, "n_points": [16], "lengths": [1.0]},
        "variant": {"kind": "warped_product", "m": 1, "mu": 20.0},
        "alpha": {"alpha0": 1.0},
        "initial": {
            "metric": {"type": "flat"},
            "phi": {"components": [{"type": "constant", "value": -1.0}]},
            "u": {"type": "constant", "value": 1.0},
        },
        "time": {"t_start": 0.0, "t_end": 0.05, "dt_sub": 5e-4, "snapshot_stride": 2},
    })


@pytest.mark.parametrize("case", ["euler", "rk2", "static", "halted"])
def test_run_constants_are_the_reduction_of_the_layer(case):
    if case == "static":
        sc = load_scenario(tiny_static_cfg())
    elif case == "halted":
        sc = halted_warped_scenario()
    else:
        sc = short_coupled_scenario(case)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        traj = run_scenario(sc)
    assert traj.completed == (case != "halted")
    assert len(traj.snapshots) > 2
    lam_min, lam_max, t_lam_outer = traj.derived.curvature
    assert len(traj.constants) == len(traj.snapshots) == len(lam_min)
    for i, (s, rec) in enumerate(zip(traj.snapshots, traj.constants)):
        ric_min, ric_max = float(lam_min[i].min()), float(lam_max[i].max())
        assert rec == {"t": s.t, "ric_min": ric_min, "ric_max": ric_max,
                       "k1": max(0.0, -ric_min), "k2": ric_max,
                       "tc_phi": float(t_lam_outer[i].max())}


def test_eig_general_has_one_caller():
    # every hypothesis constant comes from derived.curvature_fields
    package = Path(geometry.__file__).parent
    callers = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and "eig_general" in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    callers.append((path.name, fn.name))
    assert callers == [("derived.py", "curvature_fields")] * 2
