"""Each oracle passes on a correct output and trips on a corrupted one."""

import copy
import dataclasses

import numpy as np
import pytest
from rhflow import cutoff, harnack, persistence, scenarios

import inputs
import oracles
from workloads import lattice_pairs, shared_source_frac


@pytest.fixture(scope="module")
def eigen_case():
    case = inputs.static_inputs(3)[0]
    cfg = copy.deepcopy(case["scenario"])
    cfg["time"]["t_end"] = cfg["time"]["t_start"] + 400 * cfg["time"]["dt_sub"]
    case["scenario"] = cfg
    return case, scenarios.run_scenario(scenarios.load_scenario(cfg))


def _with_snapshot(traj, i, **fields):
    out = copy.copy(traj)
    out.snapshots = list(traj.snapshots)
    out.snapshots[i] = dataclasses.replace(traj.snapshots[i], **fields)
    return out


def test_run_complete(eigen_case):
    _, traj = eigen_case
    assert oracles.run_complete(traj, 5) == []
    assert oracles.run_complete(traj, 6)
    assert oracles.run_complete(dataclasses.replace(traj, halt_reason="blew up"), 5)


def test_mass_conserved(eigen_case):
    _, traj = eigen_case
    assert oracles.mass_conserved(traj) == []
    last = traj.snapshots[-1]
    assert oracles.mass_conserved(_with_snapshot(traj, -1, u=last.u * (1 + 1e-9)))


def test_euler_decay(eigen_case):
    case, traj = eigen_case
    assert oracles.euler_decay(traj, case["scenario"]) == []
    u = traj.snapshots[2].u.copy()
    u[7] += 1e-6
    assert oracles.euler_decay(_with_snapshot(traj, 2, u=u), case["scenario"])


def test_roundtrip_equal(eigen_case, tmp_path):
    _, traj = eigen_case
    loaded = persistence.load_run(persistence.save_run(traj, tmp_path / "run"))
    assert oracles.roundtrip_equal(traj, loaded) == []
    u = loaded.snapshots[1].u.copy()
    u[0] = np.nextafter(u[0], np.inf)
    assert oracles.roundtrip_equal(traj, _with_snapshot(loaded, 1, u=u))
    shorter = dataclasses.replace(loaded, snapshots=loaded.snapshots[:-1])
    assert oracles.roundtrip_equal(traj, shorter)


def test_flat_gamma(eigen_case):
    case, traj = eigen_case
    report = harnack.check_harnack(traj, lattice_pairs(traj, case["pair_nodes"]))
    assert oracles.flat_gamma(report, traj.grid) == []
    moved = next(p for p in report.pairs if p["gamma"] > 0)
    moved["gamma"] *= 1 + 1e-9
    assert oracles.flat_gamma(report, traj.grid)


def test_cutoff_ok():
    report = cutoff.cutoff_verify(0.5, 0.1, n_r=128, n_t=128)
    assert oracles.cutoff_ok(report) == []
    assert oracles.cutoff_ok({**report, "cbar_time": 2.01})
    assert oracles.cutoff_ok({**report, "ok": False})


def test_cli_and_positive():
    assert oracles.cli_ok((0, {"ok": True})) == []
    assert oracles.cli_ok((1, {"ok": False}))
    assert oracles.positive_finite(0.5) == []
    assert oracles.positive_finite(float("nan"))
    assert oracles.positive_finite(0.0)


def test_match_record():
    ref = {"ok": True, "gated_fraction": 0.5, "min_margin": 2.0, "scale": 10.0}
    assert oracles.match_record(dict(ref), ref) == []
    assert oracles.match_record({**ref, "min_margin": 2.0 + 1e-9}, ref) == []
    assert oracles.match_record({**ref, "ok": False}, ref)
    assert oracles.match_record({**ref, "gated_fraction": 0.5 + 2.0**-12}, ref)
    assert oracles.match_record({**ref, "min_margin": 2.0 + 1e-3}, ref)


def test_record_of_identities_and_cli_summary():
    rec = oracles.record({"ok": True, "per_identity": {
        "a": {"tol": 1.0, "max_abs": 0.25}, "b": {"tol": 2.0, "max_abs": 1.5}}})
    assert rec == {"ok": True, "min_margin": 0.5, "scale": 2.0}
    rec = oracles.record({"ok": True, "min_margin": 1.0, "scale": 3.0, "gated_fraction": 0.25})
    assert rec == {"ok": True, "min_margin": 1.0, "scale": 3.0, "gated_fraction": 0.25}


def test_shared_source_frac():
    pairs = [((1,), 0.1, (2,), 0.5), ((1,), 0.1, (3,), 0.5), ((4,), 0.1, (2,), 0.5)]
    assert shared_source_frac(pairs) == pytest.approx(1 / 3)
