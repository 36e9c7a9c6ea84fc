"""Time stepping: coupling schedules, flow variants, admissibility guards,
and exact single-step / whole-run decay factors for the explicit integrators.

The sharpest oracles are the discrete eigenmode factors: on a frozen flat
metric an explicit Euler heat step multiplies a sampled sine mode by exactly
(1 - dt lam_h) where lam_h is the stencil eigenvalue, so an 8000-step run has
a closed-form final state.
"""

import json
import warnings

import numpy as np
import pytest

import heat_oracle
from tiny_configs import count_calls, short_coupled_cfg, short_coupled_scenario, tiny_static_cfg
from rhflow import derived, flow, geometry
from rhflow.estimates import check_identities
from rhflow.flow import (
    AlphaSchedule,
    BlowUpError,
    FlowVariant,
    Snapshot,
    StabilityError,
    run,
    snapshot_constants,
    stability_limit,
    step_flow,
    step_heat,
)
from rhflow.grid import Grid
from rhflow.scenarios import load_scenario, run_scenario


def flat_metric(grid):
    return np.broadcast_to(np.eye(grid.dim), grid.shape + (grid.dim, grid.dim)).copy()


def static_setup(n=32, L=1.0):
    grid = Grid(1, (n,), (L,))
    x = grid.coords()[0]
    u = 2.0 + np.sin(2.0 * np.pi * x / L)
    snap = Snapshot(0.0, flat_metric(grid), np.zeros(grid.shape + (1,)), u)
    return grid, x, snap


# ---------------------------------------------------------------------------
# schedules and variants


def test_schedule_forms():
    const = AlphaSchedule(2.0)
    assert const(0.0) == 2.0 and const(5.0) == 2.0
    lin = AlphaSchedule(1.0, alpha_bar=0.25, form="linear_decay", rate=0.5)
    assert np.isclose(lin(1.0), 0.5)
    assert lin(10.0) == 0.25  # clamped at the floor
    exp = AlphaSchedule(1.0, alpha_bar=0.25, form="exp_decay", rate=2.0)
    assert np.isclose(exp(0.0), 1.0)
    assert np.isclose(exp(1.0), 0.25 + 0.75 * np.exp(-2.0))
    # vectorized evaluation
    ts = np.array([0.0, 1.0, 10.0])
    np.testing.assert_allclose(lin(ts), [1.0, 0.5, 0.25])


def test_schedule_validation():
    with pytest.raises(ValueError):
        AlphaSchedule(1.0, form="cubic")
    with pytest.raises(ValueError):
        AlphaSchedule(1.0, alpha_bar=-0.1)
    with pytest.raises(ValueError):
        AlphaSchedule(0.5, alpha_bar=1.0)
    with pytest.raises(ValueError):
        AlphaSchedule(1.0, rate=-1.0)


def test_variant_validation_and_coupling():
    with pytest.raises(ValueError):
        FlowVariant(kind="mean_curvature")
    with pytest.raises(ValueError):
        FlowVariant(kind="warped_product", m=0)
    sched = AlphaSchedule(1.0, form="linear_decay", rate=0.5)
    assert FlowVariant("rh_alpha").coupling(sched, 1.0) == 0.5
    assert FlowVariant("warped_product", m=3).coupling(sched, 1.0) == 3.0
    assert FlowVariant("static").coupling(sched, 1.0) == 0.0


def test_snapshot_admissibility_guards():
    grid, x, snap = static_setup()
    bad_u = snap.u.copy()
    bad_u[5] = 0.0
    with pytest.raises(BlowUpError):
        Snapshot(0.0, snap.g, snap.phi, bad_u)
    bad_phi = snap.phi.copy()
    bad_phi[3] = np.nan
    with pytest.raises(BlowUpError):
        Snapshot(0.0, snap.g, bad_phi, snap.u)
    bad_g = snap.g.copy()
    bad_g[..., 0, 0] = 0.0
    with pytest.raises(geometry.MetricDegenerateError):
        Snapshot(0.0, bad_g, snap.phi, snap.u)


# ---------------------------------------------------------------------------
# single steps: closed-form factors


def test_heat_step_euler_exact_mode_factor():
    grid, x, snap = static_setup(n=64)
    h = grid.h[0]
    k = 2.0 * np.pi
    lam_h = 2.0 * (1.0 - np.cos(k * h)) / h**2
    dt = 1e-5
    u1 = step_heat(grid, snap, dt, method="euler")
    expected = 2.0 + (1.0 - dt * lam_h) * np.sin(k * x)
    np.testing.assert_allclose(u1, expected, rtol=1e-12)


def test_heat_step_rk2_exact_mode_factor():
    grid, x, snap = static_setup(n=64)
    h = grid.h[0]
    k = 2.0 * np.pi
    lam = 2.0 * (1.0 - np.cos(k * h)) / h**2
    dt = 1e-5
    u1 = step_heat(grid, snap, dt, method="rk2")
    factor = 1.0 - dt * lam + 0.5 * (dt * lam) ** 2
    np.testing.assert_allclose(u1, 2.0 + factor * np.sin(k * x), rtol=1e-12)


def test_heat_step_positivity_asserted_not_clamped():
    # under the default stability factor the flat explicit step preserves
    # positivity, so loosen c_stab to let a sharp spike overshoot below zero
    grid, x, _ = static_setup(n=32)
    u = np.full(grid.shape, 1e-6)
    u[7] = 1.0
    snap = Snapshot(0.0, flat_metric(grid), np.zeros(grid.shape + (1,)), u)
    h = grid.h[0]
    with pytest.raises(BlowUpError, match="positivity"):
        step_heat(grid, snap, 2.0 * h**2, c_stab=5.0)


def test_step_methods_validated():
    grid, x, snap = static_setup()
    with pytest.raises(ValueError, match="euler"):
        step_heat(grid, snap, 1e-6, method="verlet")
    with pytest.raises(ValueError, match="euler"):
        step_flow(grid, snap, 1e-6, FlowVariant("rh_alpha"), AlphaSchedule(0.0),
                  method="verlet")


def test_stability_guard_on_single_step():
    grid, x, snap = static_setup(n=32)
    limit = stability_limit(grid, snap.g)
    assert np.isclose(limit, 0.2 * grid.h_min**2)  # flat metric, unit eigenvalue
    with pytest.raises(StabilityError):
        step_heat(grid, snap, 1.5 * limit)
    step_heat(grid, snap, 0.5 * limit)  # under the bound: fine


def test_static_flow_step_freezes_fields():
    grid, x, snap = static_setup()
    out = step_flow(grid, snap, 1e-4, FlowVariant("static"), AlphaSchedule(0.0))
    assert out.g is snap.g and out.phi is snap.phi and out.u is snap.u
    assert out.t == snap.t + 1e-4


def test_warped_step_requires_single_component_map():
    grid = Grid(2, (16, 16), (1.0, 1.0))
    phi2 = np.zeros(grid.shape + (2,))
    snap = Snapshot(0.0, flat_metric(grid), phi2, np.ones(grid.shape))
    with pytest.raises(ValueError, match="single-component"):
        step_flow(grid, snap, 1e-6, FlowVariant("warped_product", m=1),
                  AlphaSchedule(0.0))


# ---------------------------------------------------------------------------
# whole runs


def test_eigenmode_run_matches_closed_form(eigenmode_run):
    traj = eigenmode_run
    assert traj.completed
    assert len(traj.snapshots) == 81
    grid = traj.grid
    x = grid.coords()[0]
    h = grid.h[0]
    lam_h = 2.0 * (1.0 - np.cos(2.0 * np.pi * h)) / h**2
    factor = (1.0 - traj.dt_sub * lam_h) ** 8000
    expected = 2.0 + factor * np.sin(2.0 * np.pi * x)
    np.testing.assert_allclose(traj.snapshots[-1].u, expected, rtol=1e-9)
    # static variant never touches g or phi
    assert np.array_equal(traj.snapshots[-1].g, traj.snapshots[0].g)
    assert np.array_equal(traj.snapshots[-1].phi, traj.snapshots[0].phi)


def test_run_time_bookkeeping_is_exact(eigenmode_run):
    # times come from the step counter, not accumulation, so drift never
    # exceeds one rounding of step * dt_sub
    times = eigenmode_run.times
    np.testing.assert_allclose(times, np.arange(81) * (1e-5 * 100), atol=1e-15)
    assert eigenmode_run.snapshot_at(0.04) == 40
    with pytest.raises(ValueError, match="nearest"):
        eigenmode_run.snapshot_at(0.0405)


def test_zero_length_run():
    grid, x, snap = static_setup()
    traj = run(grid, FlowVariant("static"), AlphaSchedule(0.0), snap,
               T=0.0, dt_sub=1e-4, substride=10)
    assert len(traj.snapshots) == 1 and traj.completed


def test_run_rejects_non_integer_span():
    grid, x, snap = static_setup()
    with pytest.raises(ValueError, match="integer multiple"):
        run(grid, FlowVariant("static"), AlphaSchedule(0.0), snap,
            T=0.0015, dt_sub=1e-4, substride=10)
    with pytest.raises(ValueError, match="substride"):
        run(grid, FlowVariant("static"), AlphaSchedule(0.0), snap,
            T=0.001, dt_sub=1e-4, substride=0)
    with pytest.raises(ValueError, match=">="):
        run(grid, FlowVariant("static"), AlphaSchedule(0.0), snap,
            T=-0.001, dt_sub=1e-4, substride=10)


def test_run_halts_on_stability_violation():
    grid, x, snap = static_setup(n=32)
    limit = stability_limit(grid, snap.g)
    traj = run(grid, FlowVariant("static"), AlphaSchedule(0.0), snap,
               T=10 * 2.0 * limit, dt_sub=2.0 * limit, substride=1)
    assert not traj.completed
    assert "halted at t=" in traj.halt_reason
    assert len(traj.snapshots) == 1  # failed inside the first snapshot window


def test_run_records_constants_and_alphas(coupled_run):
    traj = coupled_run
    assert len(traj.constants) == len(traj.snapshots)
    assert len(traj.alphas) == len(traj.snapshots)
    for rec in traj.constants:
        assert set(rec) == {"t", "ric_min", "ric_max", "k1", "k2", "tc_phi"}
        assert rec["k1"] >= 0.0 and rec["k2"] >= rec["ric_min"]
    # schedule echoed: linear decay from 1.0 at rate 2.0
    np.testing.assert_allclose(
        traj.alphas, np.maximum(0.8, 1.0 - 2.0 * traj.times), rtol=1e-12
    )


# ---------------------------------------------------------------------------
# variant cross-checks (bitwise twins)


def test_warped_mu_zero_is_bitwise_twin_of_constant_alpha(warped_run):
    twin_cfg = json.loads(json.dumps(load_scenario("warped_mu0").raw))
    twin_cfg["variant"] = {"kind": "rh_alpha"}
    twin_cfg["alpha"] = {"alpha0": 2.0}
    twin_cfg["name"] = "warped_mu0_twin"
    twin = run_scenario(load_scenario(twin_cfg))
    assert twin.completed and warped_run.completed
    assert len(twin.snapshots) == len(warped_run.snapshots)
    for a, b in zip(warped_run.snapshots, twin.snapshots):
        assert np.array_equal(a.g, b.g)
        assert np.array_equal(a.phi, b.phi)
        assert np.array_equal(a.u, b.u)


def test_warped_constant_map_reduces_to_pure_curvature_flow():
    # with phi spatially constant and mu = 0 both the map forcing and the
    # coupling term vanish identically, so the metric path is bitwise the
    # alpha = 0 path and phi never moves
    cfg = json.loads(json.dumps(load_scenario("warped_mu0").raw))
    cfg["initial"]["phi"] = {"components": [{"type": "constant", "value": 0.3}]}
    cfg["name"] = "warped_constphi"
    warped = run_scenario(load_scenario(cfg))

    pure = json.loads(json.dumps(cfg))
    pure["variant"] = {"kind": "rh_alpha"}
    pure["alpha"] = {"alpha0": 0.0}
    pure["name"] = "ricci_pure"
    ricci = run_scenario(load_scenario(pure))

    assert warped.completed and ricci.completed
    for a, b in zip(warped.snapshots, ricci.snapshots):
        assert np.array_equal(a.g, b.g)
        assert np.array_equal(a.phi, warped.snapshots[0].phi)


def test_warped_negative_mu_drives_map_up():
    # dphi/dt = Lap phi - mu exp(-2 phi): with mu < 0 the forcing is strictly
    # positive, so the spatial mean must increase every snapshot
    traj = run_scenario(load_scenario("warped_muneg"))
    assert traj.completed
    means = [float(np.mean(s.phi)) for s in traj.snapshots]
    assert all(b > a for a, b in zip(means, means[1:]))


def test_map_blowup_halts_gracefully():
    # mu > 0 with exp(-2 phi) forcing pushes phi down, which inflates the
    # forcing further: finite-time blow-up. The run must return a partial
    # trajectory with the reason recorded, not raise.
    cfg = {
        "name": "warped_blowup",
        "grid": {"dim": 1, "n_points": [16], "lengths": [1.0]},
        "variant": {"kind": "warped_product", "m": 1, "mu": 20.0},
        "alpha": {"alpha0": 1.0},
        "initial": {
            "metric": {"type": "flat"},
            "phi": {"components": [{"type": "constant", "value": -1.0}]},
            "u": {"type": "constant", "value": 1.0},
        },
        "time": {"t_start": 0.0, "t_end": 0.05, "dt_sub": 5e-4,
                 "snapshot_stride": 10},
        "method": "euler",
    }
    with np.errstate(over="ignore", invalid="ignore"):
        traj = run_scenario(load_scenario(cfg))
    assert not traj.completed
    assert "non-finite" in traj.halt_reason
    assert 1 <= len(traj.snapshots) < 11


# ---------------------------------------------------------------------------
# validate once per metric: the initial snapshot's as an array
# (`geometry.check_metric`), each stepped one in the run's workspace
# (`flow._Workspace.validate`)


def test_coupled_run_validates_each_new_metric_once(monkeypatch):
    # the count covers load and run: the run starts from the loaded snapshot
    cfg, n_substeps = short_coupled_cfg()
    checks = count_calls(monkeypatch, geometry, "check_metric")
    validations = count_calls(monkeypatch, flow._Workspace, "validate")
    traj = run_scenario(load_scenario(cfg))
    assert traj.completed and len(traj.snapshots) == 3
    assert len(checks) == 1 and len(checks) + len(validations) <= n_substeps + 1


def test_coupled_rk2_run_validates_midpoint_and_end_metrics(monkeypatch):
    cfg, n_substeps = short_coupled_cfg("rk2")
    checks = count_calls(monkeypatch, geometry, "check_metric")
    validations = count_calls(monkeypatch, flow._Workspace, "validate")
    traj = run_scenario(load_scenario(cfg))
    assert traj.completed and len(traj.snapshots) == 3
    assert len(checks) + len(validations) == 2 * n_substeps + 1 and len(checks) == 1


def test_run_halts_on_degenerate_rk2_midpoint():
    # a conformal metric with positive curvature somewhere, and a dt (let
    # through by an enlarged c_stab) that takes the RK2 midpoint metric
    # g - dt Ric past degeneracy; the heat step keeps a constant u constant
    grid = Grid(2, (16, 16), (1.0, 1.0))
    x, y = grid.coords()
    f = 0.3 * np.cos(2.0 * np.pi * x) * np.cos(2.0 * np.pi * y)
    g = np.exp(2.0 * f)[..., None, None] * np.eye(2)
    snap = Snapshot(0.0, g, np.zeros(grid.shape + (1,)), np.ones(grid.shape))
    dt = 2.0 / float(geometry.eig_general(geometry.ricci(grid, g), g).max())
    c_stab = 2.0 * dt / stability_limit(grid, g, 1.0)
    traj = run(grid, FlowVariant("rh_alpha"), AlphaSchedule(0.0), snap, 2 * dt, dt, 1,
               method="rk2", c_stab=c_stab)
    assert not traj.completed
    assert "metric degenerate" in traj.halt_reason
    assert f"(halted at t={0.5 * dt:g})" in traj.halt_reason
    assert len(traj.snapshots) == 1


@pytest.mark.parametrize("method", ["euler", "rk2"])
def test_degenerate_metric_halts_as_the_reference_loop_does(method):
    # a sheared conformal metric and a dt (let through by an enlarged
    # c_stab) that takes it past degeneracy a few stored strides in: the
    # run halts at the reference's substep, with its message and its
    # partial trajectory
    grid = Grid(2, (16, 16), (1.0, 1.0))
    x, y = grid.coords()
    f = 0.3 * np.cos(2.0 * np.pi * x) * np.cos(2.0 * np.pi * y)
    g = np.exp(2.0 * f)[..., None, None] * np.eye(2)
    g[..., 0, 1] = g[..., 1, 0] = 0.2 * np.sin(2.0 * np.pi * x) * np.exp(f)
    snap = Snapshot(0.0, g, 0.1 * np.sin(2.0 * np.pi * y)[..., None], np.ones(grid.shape))
    dt = 0.05 / float(geometry.eig_general(geometry.ricci(grid, g), g).max())
    args = (grid, FlowVariant("rh_alpha"), AlphaSchedule(0.5), snap, 40 * dt, dt, 2)
    c_stab = 2.0 * dt / stability_limit(grid, g, 1.0)
    traj = run(*args, method=method, c_stab=c_stab)
    ref = heat_oracle.moving_run(*args, method=method, c_stab=c_stab)
    assert "metric degenerate after step" in traj.halt_reason
    assert traj.halt_reason == ref.halt_reason and len(traj.snapshots) > 2
    assert [s.t for s in traj.snapshots] == [s.t for s in ref.snapshots]
    for a, b in zip(traj.snapshots, ref.snapshots, strict=True):
        for name in ("u", "g", "phi"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    assert traj.constants == ref.constants and traj.alphas == ref.alphas


def test_static_run_validates_its_metric_once(monkeypatch):
    calls = count_calls(monkeypatch, geometry, "check_metric")
    traj = run_scenario(load_scenario("static_eigenmode"))
    assert traj.completed and len(traj.snapshots) > 2
    assert len(calls) == 1
    assert all(s.metric is traj.snapshots[0].metric for s in traj.snapshots)


# ---------------------------------------------------------------------------
# work done once per run: face coefficients, snapshot checks, Ricci; a
# Laplacian forms its coefficients on construction and on each refresh,
# both through `geometry.Laplacian.refresh`


@pytest.mark.parametrize("method", ["euler", "rk2"])
def test_static_run_builds_face_coefficients_once(monkeypatch, method):
    builds = count_calls(monkeypatch, geometry.Laplacian, "refresh")
    traj = run_scenario(load_scenario(tiny_static_cfg()), method=method)
    assert traj.completed and len(traj.snapshots) == 5
    assert [args[0].metric for args in builds] == [traj.snapshots[0].metric]


@pytest.mark.parametrize("method", ["euler", "rk2"])
def test_coupled_run_builds_face_coefficients_once_per_flow_stage(monkeypatch, method):
    # the loop's faces serve the heat step and the tension of one metric;
    # an RK2 step also forms the midpoint metric's
    sc, n_substeps = short_coupled_scenario(method)
    builds = count_calls(monkeypatch, geometry.Laplacian, "refresh")
    traj = run_scenario(sc)
    assert traj.completed
    assert len(builds) == (1 if method == "euler" else 2) * n_substeps


@pytest.mark.parametrize("scenario", ["static", "coupled"])
def test_stored_snapshots_keep_no_laplacian_faces(scenario):
    sc = load_scenario(tiny_static_cfg()) if scenario == "static" else short_coupled_scenario()[0]
    traj = run_scenario(sc)
    check_identities(traj)  # applies Laplacians with every stored metric
    kept = {"min_eigenvalue", "g", "dim", "comp", "inv", "sqrt_det"}
    assert all(set(vars(s.metric)) == kept for s in traj.snapshots)


@pytest.mark.parametrize("scenario", ["static", "coupled"])
def test_snapshot_constructor_checks_only_the_initial_snapshot(monkeypatch, scenario):
    cfg = tiny_static_cfg() if scenario == "static" else short_coupled_cfg()[0]
    checks = count_calls(monkeypatch, Snapshot, "__post_init__")
    traj = run_scenario(load_scenario(cfg))
    assert traj.completed and len(traj.snapshots) > 2
    assert len(checks) == 1 and checks[0][0] is traj.snapshots[0]
    # the public constructor still checks what it is given
    last = traj.snapshots[-1]
    with pytest.raises(BlowUpError, match="positive"):
        Snapshot(last.t, last.g, last.phi, -last.u, last.metric)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_snapshot_refuses_a_u_not_finite_and_positive(bad):
    grid = Grid(2, (8, 8), (1.0, 1.0))
    u = np.ones(grid.shape)
    u[3, 4] = bad
    with pytest.raises(BlowUpError, match="positive"):
        Snapshot(0.0, flat_metric(grid), np.zeros(grid.shape + (1,)), u)


@pytest.mark.parametrize("method, per_substep", [("euler", 1), ("rk2", 2)])
def test_run_evaluates_ricci_once_per_flow_stage_plus_one(monkeypatch, method, per_substep):
    # each stored snapshot's Ricci tensor serves its constants and the next
    # substep's flow; only the final snapshot's is not reused
    sc, n_substeps = short_coupled_scenario(method)
    calls = count_calls(monkeypatch, geometry.Curvature, "ricci")
    traj = run_scenario(sc)
    assert traj.completed and len(traj.snapshots) == 3
    assert len(calls) == per_substep * n_substeps + 1
    monkeypatch.undo()
    for snap, constants in zip(traj.snapshots, traj.constants):
        assert snapshot_constants(sc.grid, snap) == constants


def test_static_run_evaluates_ricci_once(monkeypatch):
    calls = count_calls(monkeypatch, geometry.Curvature, "ricci")
    traj = run_scenario(load_scenario(tiny_static_cfg()))
    assert traj.completed and len(traj.snapshots) == 5
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# built once per metric, assembled once per stored snapshot


def test_static_run_computes_its_curvature_fields_once(monkeypatch):
    sc = load_scenario("static_eigenmode")
    eig = count_calls(monkeypatch, derived.CurvatureKernel, "eigenvalues")
    traj = run_scenario(sc)
    assert traj.completed and len(traj.snapshots) == 81
    # one eigenvalue run, of Ric and of dphi (x) dphi, for all 81 snapshots
    assert len(eig) == 1
    monkeypatch.undo()
    assert traj.constants == [snapshot_constants(sc.grid, s) for s in traj.snapshots]


@pytest.mark.parametrize("scenario", ["static", "coupled"])
def test_run_assembles_each_stored_snapshot_once(monkeypatch, scenario):
    sc = load_scenario(tiny_static_cfg()) if scenario == "static" else short_coupled_scenario()[0]
    assembled = count_calls(monkeypatch, Snapshot, "_unchecked")
    traj = run_scenario(sc)
    assert traj.completed and len(traj.snapshots) > 2
    assert len(assembled) == len(traj.snapshots) - 1


@pytest.mark.parametrize("method", ["euler", "rk2"])
def test_static_run_checks_stability_once_and_takes_no_flow_step(monkeypatch, method):
    stable = count_calls(monkeypatch, flow, "_require_stable")
    flows = count_calls(monkeypatch, flow._Workspace, "__init__")
    traj = run_scenario(load_scenario(tiny_static_cfg()), method=method)
    assert traj.completed and len(traj.snapshots) == 5
    assert len(stable) == 1 and not flows


def test_coupled_run_checks_stability_once_per_substep(monkeypatch):
    sc, n_substeps = short_coupled_scenario()
    stable = count_calls(monkeypatch, flow, "_require_stable")
    assert run_scenario(sc).completed
    assert len(stable) == n_substeps


def unstable_mode_run(method, **options):
    """A 32-node flat static run whose dt, 0.6 h^2, exceeds the explicit
    bound 0.5 h^2: its highest mode grows 1.4-fold per Euler substep."""
    grid = Grid(1, (32,), (1.0,))
    u = 1.0 + 1e-3 * (-1.0) ** np.arange(32)
    snap = Snapshot(0.0, flat_metric(grid), np.zeros(grid.shape + (1,)), u)
    dt = 0.6 * grid.h[0] ** 2
    return run(grid, FlowVariant("static"), AlphaSchedule(0.0), snap, 40 * dt, dt, 5,
               method=method, **options), dt


@pytest.mark.parametrize("method, reason, n_snapshots", [
    ("euler", "heat solution lost positivity (halted at t=0.0123047)", 5),
    ("rk2", "heat solution lost positivity (halted at t=0.0105469)", 4),
])
def test_static_run_halts_when_positivity_is_lost(method, reason, n_snapshots):
    # let through by c_stab = 1; the record is the allocating heat step's
    traj, dt = unstable_mode_run(method, c_stab=1.0)
    assert traj.halt_reason == reason
    assert list(traj.times) == [k * 5 * dt for k in range(n_snapshots)]
    assert len(traj.constants) == len(traj.alphas) == n_snapshots


@pytest.mark.parametrize("method", ["euler", "rk2"])
def test_run_refused_for_stability_halts_before_its_first_substep(method):
    traj, dt = unstable_mode_run(method)
    assert traj.halt_reason == ("dt=0.000585937 exceeds stability bound "
                                "c_stab*h_min^2*min_eig(g)=0.000195313 "
                                "(halted at t=0.000585937)")
    assert list(traj.times) == [0.0] and len(traj.constants) == 1


# ---------------------------------------------------------------------------
# positivity at every substep of a stride stepped in one call


def static_run_and_reference(grid, g, u, dt, T, stride, method, c_stab=flow.C_STAB_DEFAULT,
                             checked=True):
    """A static run and `heat_oracle.static_run`, its per-substep reference;
    with ``checked`` False the initial snapshot is assembled unchecked."""
    phi = np.zeros(grid.shape + (1,))
    if checked:
        snap = Snapshot(0.0, g, phi, u)
    else:
        snap = Snapshot._unchecked(0.0, g, phi, u, geometry.MetricFields(g))
    traj = run(grid, FlowVariant("static"), AlphaSchedule(0.0), snap, T, dt, stride,
               method=method, c_stab=c_stab)
    return traj, heat_oracle.static_run(grid, snap, T, dt, stride, method, c_stab)


def unchecked_minima(grid, g, u, dt, method, n):
    """min u after each of n reference heat steps, positivity not asserted."""
    mf = geometry.MetricFields(g)
    faces = heat_oracle.laplacian_faces(mf)

    def lap(s):
        return heat_oracle._laplace(grid, mf, s, faces)

    minima = []
    for _ in range(n):
        u = u + dt * lap(u if method == "euler" else u + 0.5 * dt * lap(u))
        minima.append(u.min())
    return minima


@pytest.mark.parametrize("method, shear, floor", [("euler", 0.5, 0.01), ("rk2", 0.3, 0.001)])
def test_transient_dip_inside_a_stride_halts_at_its_substep(method, shear, floor):
    # a sheared metric's mixed term makes the stencil non-monotone: a spike
    # overshoots below zero at the default c_stab and is positive again well
    # before the end of the 7-substep stride, so a check made only at the
    # end of each stride would let the run complete
    grid = Grid(2, (16, 16), (1.0, 1.0))
    g = flat_metric(grid)
    g[..., 0, 1] = g[..., 1, 0] = shear
    u = np.full(grid.shape, floor)
    u[7, 7] += 1.0
    dt = stability_limit(grid, g)
    minima = unchecked_minima(grid, g, u, dt, method, 7)
    assert minima[0] < 0 < minima[-1]
    traj, (times, _, constants, halt) = static_run_and_reference(grid, g, u, dt, 14 * dt, 7,
                                                                  method)
    assert traj.halt_reason == halt == f"heat solution lost positivity (halted at t={dt:g})"
    assert list(traj.times) == times == [0.0]
    assert traj.constants == constants and len(traj.alphas) == 1


# each method on one 1-D and one 2-D grid: in 2-D the heat step also writes
# junk into the padding cells between rows, and the halt must still be the
# reference's
HALT_GRIDS = (("", Grid(1, (32,), (1.0,))), ("-2d", Grid(2, (16, 12), (1.0, 0.6))))
HALT_CASES = [pytest.param(method, grid, id=method + tag)
              for tag, grid in HALT_GRIDS for method in ("euler", "rk2")]


@pytest.mark.parametrize("method, grid", HALT_CASES)
def test_overflow_inside_a_stride_halts_as_the_per_substep_loop_does(method, grid):
    # the unstable mode of `unstable_mode_run` on an offset near the double
    # range: the Laplacian overflows, and u goes infinite, partway through
    # a stride, with u positive until then (dt set so that the mode grows
    # by the same factor 1.4 per substep in 1-D and 2-D)
    g = flat_metric(grid)
    u = 1e306 * (1.0 + 1e-3 * (-1.0) ** sum(np.indices(grid.shape)))
    dt = 0.6 / sum(h ** -2 for h in grid.h)
    with np.errstate(over="ignore", invalid="ignore"):
        minima = unchecked_minima(grid, g, u, dt, method, 40)
    lost = next(k for k, m in enumerate(minima, 1) if not m > 0)
    assert lost % 5 and all(np.isfinite(minima[:lost - 1]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj, (times, _, constants, halt) = static_run_and_reference(grid, g, u, dt, 40 * dt,
                                                                      5, method, c_stab=1.0)
    assert traj.halt_reason == halt
    assert halt.endswith(f"(halted at t={lost * dt:g})")
    assert list(traj.times) == times and len(times) == lost // 5 + 1
    assert traj.constants == constants


@pytest.mark.parametrize("method, grid", HALT_CASES)
def test_nan_inside_a_stride_halts_at_its_substep(method, grid):
    # an infinite node is positive; its own Laplacian is inf - inf, so the
    # first substep leaves NaN there beside infinite neighbours, and no
    # node below zero: only NaN's propagation through the running minimum
    # halts the run.  The Snapshot constructor refuses such a u, so it is
    # assembled unchecked here
    u = np.ones(grid.shape)
    u[(5,) * grid.dim] = np.inf
    dt = 0.1 * grid.h_min ** 2 / grid.dim
    with pytest.raises(BlowUpError, match="finite and positive"):
        Snapshot(0.0, flat_metric(grid), np.zeros(grid.shape + (1,)), u)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj, (times, _, constants, halt) = static_run_and_reference(
            grid, flat_metric(grid), u, dt, 20 * dt, 5, method, checked=False)
    assert traj.halt_reason == halt == f"heat solution lost positivity (halted at t={dt:g})"
    assert list(traj.times) == times == [0.0] and traj.constants == constants
