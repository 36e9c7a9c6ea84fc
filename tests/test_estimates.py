"""Gradient-estimate checks: closed-form bound values, exact difference
oracles for the Li-Yau quantity, empirical constant extraction, and frozen
regression values for the bundled runs.

Frozen numbers were produced by this same code once and pinned; they guard
against silent drift, while the closed-form and band assertions guard
against being wrong in the first place.
"""

import ast
import copy
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import check_oracle
from rhflow import estimates as est
from rhflow import geometry
from rhflow.flow import AlphaSchedule, FlowVariant, Snapshot, Trajectory, run
from rhflow.grid import Grid
from rhflow.harnack import check_harnack
from rhflow.persistence import dumps, load_run, save_run
from rhflow.scenarios import load_scenario, run_scenario


def flat_metric(grid):
    return np.broadcast_to(np.eye(grid.dim), grid.shape + (grid.dim, grid.dim)).copy()


# ---------------------------------------------------------------------------
# closed-form bounds


def test_global_bound_flat_static_is_sharp_constant():
    t = np.array([0.01, 0.1, 1.0, 10.0])
    np.testing.assert_allclose(est.global_bound(0.0, 1, 0.0, 0.0, t), 0.5 / t)
    np.testing.assert_allclose(est.global_bound(0.0, 2, 0.0, 0.0, t), 1.0 / t)


def test_global_bound_spot_value_and_monotonicity():
    rt2 = np.sqrt(2.0)
    got = est.global_bound(1.0, 2, 0.5, 1.0, 2.0)
    assert np.isclose(got, rt2 * 2.0 + (1.0 + rt2 * 2.0 * 1.0 * 0.5) / 2.0)
    ts = np.linspace(0.01, 1.0, 50)
    vals = est.global_bound(0.3, 2, 0.1, 0.7, ts)
    assert np.all(np.diff(vals) < 0)
    with pytest.raises(ValueError, match="t > 0"):
        est.global_bound(0.0, 1, 0.0, 0.0, 0.0)


def test_local_bound_spot_values_and_validation():
    # beta=2, rho=2, t=0.5, k1=0.1, k2=0.3, C'=0.01, n=2
    b2 = 4.0
    base = 0.01 * b2 * (b2 / (2.0 * 1.0) + 2.0 + 0.3) + 2.0 * 2.0 * 0.1 / 4.0
    assert np.isclose(est.local_bound(2.0, 2.0, 0.5, 0.1, 0.3, 0.01, 2), base)
    sq = 0.01 * b2 * (b2 / (4.0 * 1.0) + 2.0 + 0.3) + 2.0 * 2.0 * 0.1 / 4.0
    assert np.isclose(est.local_bound(2.0, 2.0, 0.5, 0.1, 0.3, 0.01, 2, rho_power=2), sq)
    # with rho > 1 the rho^2 variant is the smaller bound
    assert sq < base
    for bad in (dict(beta=1.0), dict(rho=-1.0), dict(t=0.0), dict(rho_power=3)):
        kw = dict(beta=2.0, rho=2.0, t=0.5, k1=0.1, k2=0.3, cprime=0.01, n=2)
        kw.update(bad)
        with pytest.raises(ValueError):
            est.local_bound(kw["beta"], kw["rho"], kw["t"], kw["k1"], kw["k2"],
                            kw["cprime"], kw["n"], rho_power=kw.get("rho_power", 1))


# ---------------------------------------------------------------------------
# the Li-Yau quantity


def liyau_fixture(beta=1.0):
    """A hand-built static trajectory of the separable solution
    u = exp(c t) w(x), snapshots at t = 0.1, 0.2, 0.3."""
    grid = Grid(1, (64,), (2.0 * np.pi,))
    x = grid.coords()[0]
    w = np.exp(0.2 * np.sin(x))
    phi = np.zeros(grid.shape + (1,))
    g = flat_metric(grid)
    c = -1.3
    snaps = [Snapshot(t, g, phi, np.exp(c * t) * w) for t in (0.1, 0.2, 0.3)]
    traj = Trajectory(grid, FlowVariant("static"), AlphaSchedule(0.0), snaps,
                      dt=0.1, dt_sub=0.1)
    return grid, x, c, traj


def test_liyau_quantity_exact_on_separable_solution():
    # u = exp(c t) w(x) makes f = log u linear in t, so the centred
    # difference recovers f_t = c exactly and the quantity has a closed form
    grid, x, c, traj = liyau_fixture()
    h = grid.h[0]
    grad_sq = (0.2 * np.cos(x) * np.sin(h) / h) ** 2
    np.testing.assert_allclose(traj.derived.f_t(1), c, atol=1e-12)
    np.testing.assert_allclose(traj.derived.liyau(1, 1.0), grad_sq - c, atol=1e-12)


def test_liyau_quantity_beta_relation_exact():
    grid, x, c, traj = liyau_fixture()
    q1 = traj.derived.liyau(1, 1.0)
    q3 = traj.derived.liyau(1, 3.0)
    np.testing.assert_allclose(q3, q1 + (3.0 - 1.0) * (-c), atol=1e-12)


def test_liyau_quantity_validation():
    # f_t is centred, so the end snapshots have no Li-Yau quantity
    grid, x, c, traj = liyau_fixture()
    for i in (0, 2):
        with pytest.raises(ValueError, match="interior"):
            traj.derived.liyau(i, 1.0)


# ---------------------------------------------------------------------------
# constants extraction


def test_constants_vanish_on_static_flat_run(eigenmode_run):
    c = est.extract_constants(eigenmode_run)
    assert c.k1 == 0.0 and c.k2 == 0.0 and c.c_phi == 0.0
    assert c.ric_nonneg
    assert c.region == "all"
    assert np.all(c.valid_mask)


def test_constants_frozen_on_coupled_run(coupled_run):
    c = est.extract_constants(coupled_run)
    assert np.isclose(c.k1, 0.0035964140, rtol=1e-6)
    assert np.isclose(c.k2, 0.0020992478, rtol=1e-6)
    assert np.isclose(c.c_phi, 8.2696114e-06, rtol=1e-5)
    assert not c.ric_nonneg
    assert c.n_points_masked == 21 * 64 * 64
    d = c.as_dict()
    assert d["k1"] == c.k1 and "valid_mask" not in d


def test_constants_ball_region(coupled_run):
    c = est.extract_constants(coupled_run, region=((32, 32), 2.0))
    assert c.region.startswith("ball(")
    assert 0 < c.n_points_masked < 21 * 64 * 64
    # the ball sees a smaller max eigenvalue than the whole torus
    assert np.isclose(c.k2, 0.0012006232, rtol=1e-6)
    assert c.k2 < est.extract_constants(coupled_run).k2
    # a radius that is not a positive finite number is refused, on the
    # shared layer and on a fresh one; the layer itself reads it as an
    # empty ball
    for rho in (0.0, -1.0, np.nan):
        for traj in (coupled_run, copy.copy(coupled_run)):
            with pytest.raises(ValueError, match="rho must be a positive finite number"):
                est.extract_constants(traj, region=((32, 32), rho))
        assert not np.any(copy.copy(coupled_run).derived.distance((32, 32), rho) < rho)


# ---------------------------------------------------------------------------
# global estimate reports


def test_global_check_eigenmode_rhs_is_exactly_half_over_t(eigenmode_run):
    rep = est.check_global(eigenmode_run)
    assert rep.ok
    # static flat 1d: k = C = 0, so the bound collapses to n/(2t) = 0.5/t
    np.testing.assert_array_equal(rep.times, eigenmode_run.times[1:-1])
    for i, t in enumerate(rep.times):
        np.testing.assert_allclose(rep.rhs[i], 0.5 / t, rtol=1e-14)
    assert np.isclose(rep.min_margin, 5.4750953, rtol=1e-3)
    assert np.isclose(rep.tol_num, 0.3882118, rtol=1e-3)
    assert rep.gated_fraction == 1.0


def test_global_check_coupled_gate_and_margins(coupled_run):
    rep = est.check_global(coupled_run)
    assert rep.ok
    assert 0.55 < rep.gated_fraction < 0.65
    assert rep.gated_fraction >= 0.5
    assert np.isclose(rep.min_margin, 6.8438500, rtol=1e-3)
    assert np.isclose(rep.tol_num, 0.0492351, rtol=1e-3)
    # hypothesis constants are echoed into the report
    assert np.isclose(rep.constants["k2"], 0.0020992478, rtol=1e-6)
    assert rep.notes["alpha0"] == 1.0
    w = rep.worst
    assert {"t", "snapshot", "node", "margin"} <= set(w)


def test_global_check_heat_kernel_sharpness(heat_kernel_run):
    rep = est.check_global(heat_kernel_run)
    assert rep.ok
    assert np.isclose(rep.min_margin, -0.2278007, rtol=1e-3)
    assert np.isclose(rep.tol_num, 2.6262893, rtol=1e-3)
    # near-kernel data sits within half a percent of the flat bound
    sel = (rep.times >= 0.01) & (rep.times <= 0.1)
    assert np.count_nonzero(sel) >= 80
    ratios = [np.max(rep.lhs[i]) * 2.0 * rep.times[i]
              for i in np.nonzero(sel)[0]]
    assert min(ratios) > 0.995 and max(ratios) < 1.005


def test_reports_exclude_end_snapshots(heat_kernel_run):
    rep = est.check_global(heat_kernel_run)
    times = heat_kernel_run.times
    assert rep.times[0] == times[1] and rep.times[-1] == times[-2]
    assert times[0] not in rep.times and times[-1] not in rep.times


def test_report_needs_three_interior_snapshots():
    grid = Grid(1, (32,), (1.0,))
    x = grid.coords()[0]
    snap = Snapshot(0.0, flat_metric(grid), np.zeros(grid.shape + (1,)),
                    2.0 + np.sin(2.0 * np.pi * x))
    traj = run(grid, FlowVariant("static"), AlphaSchedule(0.0), snap,
               T=2e-4, dt_sub=1e-4, substride=2)  # two snapshots only
    with pytest.raises(ValueError, match="at least 3"):
        est.check_global(traj)


def test_rows_and_summary_structure(eigenmode_run):
    rep = est.check_global(eigenmode_run)
    rows = rep.rows()
    assert len(rows) == len(rep.times)
    assert {"t", "gated_fraction", "min_margin", "argmin_node"} <= set(rows[0])
    assert all(r["min_margin"] >= rep.min_margin for r in rows)
    s = rep.summary()
    assert s["theorem"] == "global" and s["ok"] is True
    assert s["min_margin"] == rep.min_margin
    assert s["gated_fraction"] == rep.gated_fraction
    assert {"beta", "tol_num", "c_tol", "scale", "constants", "worst"} <= set(s)


def test_margin_reports_are_built_in_one_place():
    # the global, local and evolution checks pass their parts to one builder
    def builds(node):
        return isinstance(node, ast.Call) and "EstimateReport" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))

    package = Path(est.__file__).parent
    calls, callers = 0, []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        calls += sum(map(builds, ast.walk(tree)))
        callers += [(path.name, fn.name) for fn in ast.walk(tree)
                    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and any(map(builds, ast.walk(fn)))]
    assert calls == 1 and callers == [("estimates.py", "_report")]


# ---------------------------------------------------------------------------
# local estimate and C' fitting


FROZEN_CPRIME_RHO1 = {1.5: 0.00313306, 2.0: 0.00244528, 4.0: 0.00112098}
FROZEN_CPRIME_RHO2 = {1.5: 0.00356593, 2.0: 0.00275028, 4.0: 0.00129996}


def test_fit_cprime_frozen_values(coupled_run):
    for beta, want in FROZEN_CPRIME_RHO1.items():
        got = est.fit_cprime(coupled_run, [beta], rho=2.0, x0=(32, 32), rho_power=1)
        assert np.isclose(got, want, rtol=1e-3), (beta, got)
    for beta, want in FROZEN_CPRIME_RHO2.items():
        got = est.fit_cprime(coupled_run, [beta], rho=2.0, x0=(32, 32), rho_power=2)
        assert np.isclose(got, want, rtol=1e-3), (beta, got)
    # joint fit over the family is the max of the single-beta fits
    joint = est.fit_cprime(coupled_run, [1.5, 2.0, 4.0], rho=2.0, x0=(32, 32))
    assert np.isclose(joint, max(FROZEN_CPRIME_RHO1.values()), rtol=1e-3)


def test_fitted_cprime_touches_in_sample(coupled_run):
    c1 = est.fit_cprime(coupled_run, [2.0], rho=2.0, x0=(32, 32))
    rep = est.check_local(coupled_run, beta=2.0, rho=2.0, x0=(32, 32), cprime=c1)
    assert rep.ok
    assert abs(rep.min_margin) <= 1e-9 * rep.scale


def test_fit_cprime_validation(coupled_run, monkeypatch):
    with pytest.raises(ValueError, match="shape"):
        est.fit_cprime(coupled_run, [2.0], shape="global")
    with pytest.raises(ValueError, match="rho and x0"):
        est.fit_cprime(coupled_run, [2.0], shape="local")
    with pytest.raises(ValueError, match="beta > 1"):
        est.fit_cprime(coupled_run, [1.0], rho=2.0, x0=(32, 32))
    # the floor survives when nothing binds
    monkeypatch.setattr(est, "CPRIME_FLOOR", 1e9)
    assert est.fit_cprime(coupled_run, [2.0], shape="harnack") == 1e9


@pytest.mark.parametrize("rho, beta", [(1e-300, 2.0), (1e308, 2.0), (1e-160, 1.00001)])
def test_a_rho_whose_square_is_zero_or_infinite_is_refused(coupled_run, rho, beta):
    # rho^2 (beta - 1) underflows to 0 (rho^2 = 1e-320 is subnormal, the
    # product 1e-325 is not) or rho^2 overflows: the rho^2 bound and its fit
    # divided by it (ZeroDivisionError) or raised OverflowError computing it
    traj = copy.copy(coupled_run)
    for call in (lambda: est.local_bound(beta, rho, 0.5, 0.1, 0.3, 0.01, 2, rho_power=2),
                 lambda: est.check_local(traj, beta, rho, (3, 4), 0.003, 0.004),
                 lambda: est.fit_cprime(traj, [beta], rho=rho, x0=(3, 4), rho_power=2)):
        with pytest.raises(ValueError, match="rho must have a positive finite square"):
            call()
    # the ring of radii around them whose squares stay finite is still read
    ok = 1e-150 if rho < 1 else 1e150
    assert est.check_local(traj, beta, ok, (3, 4), 0.003, 0.004).alt["rho_power"] == 2


def test_check_local_gate_and_alt(coupled_run):
    rep = est.check_local(coupled_run, beta=2.0, rho=2.0, x0=(32, 32),
                          cprime=0.003, cprime_sq=0.004)
    assert rep.theorem == "local"
    assert 0.0 < rep.gated_fraction < 1.0  # strict half-ball gate
    assert rep.alt is not None and rep.alt["rho_power"] == 2
    assert rep.alt["cprime"] == 0.004
    # min_margin folds in the alt variant
    solo = est.check_local(coupled_run, beta=2.0, rho=2.0, x0=(32, 32), cprime=0.003)
    assert rep.min_margin <= solo.min_margin + 1e-15
    # the half-ball gate always contains the center node, so a vanishing
    # radius shrinks it to exactly that column rather than emptying it
    tiny = est.check_local(coupled_run, beta=2.0, rho=1e-9, x0=(32, 32), cprime=0.003)
    assert np.isclose(tiny.gated_fraction, 1.0 / (64 * 64))


def test_harnack_shape_fit_frozen(coupled_run):
    got = est.fit_cprime(coupled_run, [2.0], shape="harnack")
    assert np.isclose(got, 0.0122741, rtol=1e-3)


# ---------------------------------------------------------------------------
# differential identities


FROZEN_IDENTITY_MAX = {
    "grad_sq_time": 8.8118e-06,
    "laplacian_time": 1.9458e-06,
    "commute_grad": 1.0656e-03,
    "grad_sq_laplacian": 5.6220e-04,
    "heat_log": 5.3713e-04,
}


def test_identity_residuals_frozen_values(coupled_run):
    res = est.identity_residuals(coupled_run)
    assert set(res["residuals"]) == set(est.IDENTITY_NAMES)
    for name, want in FROZEN_IDENTITY_MAX.items():
        got = float(np.max(np.abs(res["residuals"][name])))
        assert np.isclose(got, want, rtol=2e-3), (name, got)
        assert res["scales"][name] > 0


def test_transport_term_matters_when_map_is_active(coupled_run):
    # dropping the flow-transport term in the d/dt(Lap f) identity inflates
    # its residual by more than a factor of 5 on this run
    full = est.identity_residuals(coupled_run)
    bare = est.identity_residuals(coupled_run, include_flow_correction=False)
    r_full = np.max(np.abs(full["residuals"]["laplacian_time"]))
    r_bare = np.max(np.abs(bare["residuals"]["laplacian_time"]))
    assert np.isclose(r_bare, 2.0819e-05, rtol=2e-3)
    assert r_bare / r_full > 5.0


def test_identity_residuals_second_order(coupled_run, coupled_refined_run):
    coarse = est.identity_residuals(coupled_run)
    fine = est.identity_residuals(coupled_refined_run)
    for name in est.IDENTITY_NAMES:
        ratio = (np.max(np.abs(coarse["residuals"][name]))
                 / np.max(np.abs(fine["residuals"][name])))
        assert 3.2 < ratio < 4.8, (name, ratio)
    # without the transport term the same refinement stalls on that identity
    bare_c = est.identity_residuals(coupled_run, include_flow_correction=False)
    bare_f = est.identity_residuals(coupled_refined_run, include_flow_correction=False)
    stalled = (np.max(np.abs(bare_c["residuals"]["laplacian_time"]))
               / np.max(np.abs(bare_f["residuals"]["laplacian_time"])))
    assert stalled < 2.0


def test_identity_indices_validation(coupled_run):
    with pytest.raises(ValueError, match="interior"):
        est.identity_residuals(coupled_run, indices=[0])
    with pytest.raises(ValueError, match="interior"):
        est.identity_residuals(coupled_run, indices=[len(coupled_run.snapshots) - 1])
    one = est.identity_residuals(coupled_run, indices=[5])
    assert one["residuals"]["heat_log"].shape == (1, 64, 64)


def einsum_identity_residuals(traj, include_flow_correction=True):
    """The residual fields as identity_residuals computed them with stacked
    tensors and numpy's einsum; the component form must equal them bit for
    bit."""
    grid = traj.grid
    d = traj.derived
    times = traj.times
    out = {name: [] for name in est.IDENTITY_NAMES}

    def lap_f(i):
        return geometry.laplace_beltrami(grid, traj.snapshots[i].metric, d.log_u(i))

    for i in range(1, len(traj.snapshots) - 1):
        snap = traj.snapshots[i]
        g, phi, f = snap.metric, snap.phi, d.log_u(i)
        dt_c = times[i + 1] - times[i - 1]
        ginv = geometry.metric_inverse(g)
        df = grid.partial(f)
        df_up = np.einsum("...ij,...j->...i", ginv, df)
        coup = traj.variant.coupling(traj.schedule, snap.t)
        ric = geometry._stack2(d.ricci(i))
        if traj.variant.kind == "static":
            s_tensor = np.zeros_like(snap.g)
        else:
            s_tensor = ric - coup * geometry.grad_phi_outer(grid, phi)
        hess = geometry.hessian(grid, g, f)
        lap = lap_f(i)
        ft = d.f_t(i)
        lhs1 = (d.grad_sq(i + 1) - d.grad_sq(i - 1)) / dt_c
        rhs1 = (2.0 * np.einsum("...ab,...a,...b->...", s_tensor, df_up, df_up)
                + 2.0 * np.einsum("...i,...i->...", df_up, grid.partial(ft)))
        out["grad_sq_time"].append(lhs1 - rhs1)
        lhs2 = (lap_f(i + 1) - lap_f(i - 1)) / dt_c
        hess_up = np.einsum("...ai,...bj,...ij->...ab", ginv, ginv, hess)
        rhs2 = (2.0 * np.einsum("...ab,...ab->...", s_tensor, hess_up)
                + geometry.laplace_beltrami(grid, g, ft))
        if include_flow_correction and traj.variant.kind != "static":
            tension = geometry.tension_field(grid, g, phi)
            dphi = np.stack([grid.d1(phi, ax) for ax in range(grid.dim)], axis=-2)
            rhs2 = rhs2 - 2.0 * coup * np.einsum("...im,...m,...i->...", dphi, tension, df_up)
        out["laplacian_time"].append(lhs2 - rhs2)
        lap_df = check_oracle.rough_laplacian_covector(grid, g, df)
        res3 = lap_df - grid.partial(lap) - np.einsum("...ij,...j->...i", ric, df_up)
        out["commute_grad"].append(np.sqrt(np.einsum("...ij,...i,...j->...", ginv, res3, res3)))
        lhs4 = geometry.laplace_beltrami(grid, g, d.grad_sq(i))
        rhs4 = (2.0 * np.einsum("...ab,...ab->...", hess_up, hess)
                + 2.0 * np.einsum("...ab,...a,...b->...", ric, df_up, df_up)
                + 2.0 * np.einsum("...i,...i->...", df_up, grid.partial(lap)))
        out["grad_sq_laplacian"].append(lhs4 - rhs4)
        out["heat_log"].append(ft - lap - d.grad_sq(i))
    return {name: np.stack(out[name]) for name in est.IDENTITY_NAMES}


def random_coupled_traj(shape, n_snaps=4, components=3, seed=7):
    """A coupled trajectory with a random SPD metric, a random map into R^3
    and a random positive u at every snapshot: no symmetry or smallness for
    the contractions to lean on."""
    rng = np.random.default_rng(seed)
    d = len(shape)
    grid = Grid(d, shape, (1.3, 0.9)[:d])
    snaps = []
    for i in range(n_snaps):
        a = rng.normal(size=shape + (d, d))
        g = a @ np.swapaxes(a, -1, -2) + 0.3 * np.eye(d)
        g = 0.5 * (g + np.swapaxes(g, -1, -2))
        snaps.append(Snapshot(0.2 + 0.1 * i, g, rng.normal(size=shape + (components,)),
                              np.exp(rng.normal(size=shape))))
    return Trajectory(grid=grid, variant=FlowVariant("rh_alpha"),
                      schedule=AlphaSchedule(0.7), snapshots=snaps, dt=0.1, dt_sub=0.01)


@pytest.mark.parametrize("shape", [(12, 10), (17,)])
@pytest.mark.parametrize("transport", [True, False])
def test_identity_residuals_equal_the_einsum_forms(shape, transport):
    traj = random_coupled_traj(shape)
    got = est.identity_residuals(traj, include_flow_correction=transport)["residuals"]
    want = einsum_identity_residuals(traj, include_flow_correction=transport)
    for name in est.IDENTITY_NAMES:
        assert np.array_equal(got[name], want[name]), name


def test_identity_residuals_equal_the_einsum_forms_on_1d_runs(eigenmode_run, heat_kernel_run):
    for traj in (eigenmode_run, heat_kernel_run):
        got = est.identity_residuals(traj)["residuals"]
        want = einsum_identity_residuals(traj)
        for name in est.IDENTITY_NAMES:
            assert np.array_equal(got[name], want[name]), name


def test_check_identities_summary(coupled_run):
    out = est.check_identities(coupled_run)
    assert out["ok"] is True
    assert out["theorem"] == "identities"
    assert out["n_snapshots_used"] == len(coupled_run.snapshots) - 2
    grid = coupled_run.grid
    basis = max(grid.h) ** 2 + coupled_run.dt ** 2 + coupled_run.dt_sub
    assert np.isclose(out["tol_basis"], basis)
    for name in est.IDENTITY_NAMES:
        rec = out["per_identity"][name]
        assert rec["ok"] and rec["max_abs"] <= rec["tol"]
        assert np.isclose(rec["tol"], 10.0 * basis * rec["scale"])


# ---------------------------------------------------------------------------
# evolution inequality


def test_evolution_inequality_coupled(coupled_run):
    rep = est.check_evolution_inequality(coupled_run, beta=1.5, a=1 / 4.5, b=1 / 4.5)
    assert rep.ok
    assert 0.0 < rep.min_margin < 1e-4  # extraction makes it self-touching
    assert np.isclose(rep.tol_num, 0.0729199, rtol=1e-3)
    # two interior snapshots are dropped at each end
    assert len(rep.times) == len(coupled_run.times) - 4


def test_evolution_inequality_static(eigenmode_run):
    rep = est.check_evolution_inequality(eigenmode_run, beta=1.5, a=1 / 4.5, b=1 / 4.5)
    assert rep.ok
    assert np.isclose(rep.min_margin, -0.0332730, rtol=1e-3)
    assert np.isclose(rep.tol_num, 0.5906935, rtol=1e-3)


def test_evolution_inequality_validation(coupled_run, eigenmode_run):
    with pytest.raises(ValueError, match="a \\+ 2 b"):
        est.check_evolution_inequality(coupled_run, beta=1.5, a=0.3, b=0.3)
    with pytest.raises(ValueError, match="positive"):
        est.check_evolution_inequality(coupled_run, beta=1.5, a=-0.1, b=0.3833333333333333)
    with pytest.raises(ValueError, match="positive"):
        est.check_evolution_inequality(coupled_run, beta=1.5, a=np.nan, b=0.3)
    # beta 0 used to end in a ZeroDivisionError
    for beta in (0.0, 0.5, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="beta >= 1"):
            est.check_evolution_inequality(coupled_run, beta=beta, a=0.1, b=0.1)
    grid = eigenmode_run.grid
    short = run(grid, FlowVariant("static"), AlphaSchedule(0.0),
                eigenmode_run.snapshots[0], T=3e-3, dt_sub=1e-5, substride=100)
    assert len(short.snapshots) == 4
    with pytest.raises(ValueError, match="at least 5"):
        est.check_evolution_inequality(short, beta=1.5, a=1 / 4.5, b=1 / 4.5)


@pytest.mark.parametrize("beta", [0.0, -1.0, 0.99, np.nan, np.inf])
def test_global_check_refuses_beta_below_one(eigenmode_run, beta):
    with pytest.raises(ValueError, match="beta >= 1"):
        est.check_global(eigenmode_run, beta=beta)


@pytest.mark.parametrize("beta", [1.0, 0.0, np.nan])
def test_local_check_and_fit_refuse_beta_at_most_one(eigenmode_run, beta):
    with pytest.raises(ValueError, match="beta > 1"):
        est.check_local(eigenmode_run, beta, 0.3, (64,), 1.0)
    with pytest.raises(ValueError, match="beta > 1"):
        est.fit_cprime(eigenmode_run, [beta], shape="harnack")


@pytest.mark.parametrize("rho", [0.0, -1.0, np.nan, np.inf])
def test_local_check_and_fit_refuse_bad_rho(eigenmode_run, rho):
    with pytest.raises(ValueError, match="rho must be a positive finite number"):
        est.check_local(eigenmode_run, 2.0, rho, (64,), 1.0)
    with pytest.raises(ValueError, match="rho must be a positive finite number"):
        est.fit_cprime(eigenmode_run, [2.0], rho=rho, x0=(64,))


def test_local_and_harnack_checks_refuse_a_bool_coordinate(coupled_run):
    # np.atleast_1d read [True, 1] as node (1, 1) in the local check
    with pytest.raises(ValueError, match="non-integer coordinates"):
        est.check_local(coupled_run, 2.0, 1.0, [True, 1], 1.0)
    times = coupled_run.times
    with pytest.raises(ValueError, match="pair 0: .*non-integer coordinates"):
        check_harnack(coupled_run, [[[True, 1], times[1], [2, 2], times[-1]]],
                      mode="complete", cprime=1.0)


@pytest.mark.parametrize("x0", [(1, 2), (), (1.5,), (True,)])
def test_local_check_refuses_a_node_of_the_wrong_shape(eigenmode_run, x0):
    # (1, 2) on the 128-node circle used to check the ball around node 1
    with pytest.raises(ValueError, match="needs 1 integer coordinate"):
        est.check_local(eigenmode_run, 2.0, 0.3, x0, 1.0)


# ---------------------------------------------------------------------------
# bitwise references: the checks read the layer's snapshot stacks, and every
# report equals that of the per-snapshot code they replaced (check_oracle)


def same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and got.dtype == want.dtype
            and np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes())


def assert_same_report(got, want):
    for name in ("times", "lhs", "rhs", "margin", "gate"):
        assert same_bits(getattr(got, name), getattr(want, name)), name
    assert same_bits(got.tol_num, want.tol_num) and same_bits(got.scale, want.scale)
    assert (got.alt is None) == (want.alt is None)
    if got.alt is not None:
        for name in ("rhs", "margin"):
            assert same_bits(got.alt[name], want.alt[name]), name
    assert dumps(got.summary()) == dumps(want.summary())


def local_args(traj):
    """A ball centre and radius whose half ball holds a few nodes."""
    grid = traj.grid
    return tuple(n // 3 for n in grid.n_points), 0.3 * min(grid.lengths)


def assert_checks_match_the_oracle(traj, beta):
    """Global, local, C' fits and evolution on a fresh layer of traj, each
    against the per-snapshot reference; beta > 1."""
    traj = copy.copy(traj)  # a copy starts with an empty layer
    old = check_oracle.reference(traj)
    x0, rho = local_args(traj)
    for b in (1.0, beta):
        assert_same_report(est.check_global(traj, b), check_oracle.check_global(old, b))
    assert_same_report(est.check_local(traj, beta, rho, x0, 0.5, 0.7),
                       check_oracle.check_local(old, beta, rho, x0, 0.5, 0.7))
    betas = [beta, 1.5 * beta]
    for rho_power in (1, 2):
        got = est.fit_cprime(traj, betas, rho=rho, x0=x0, rho_power=rho_power)
        assert same_bits(got, check_oracle.fit_cprime(old, betas, rho=rho, x0=x0,
                                                      rho_power=rho_power))
    got = est.fit_cprime(traj, betas, shape="harnack")
    assert same_bits(got, check_oracle.fit_cprime(old, betas, shape="harnack"))
    a = b = 1.0 / (3.0 * beta)
    assert_same_report(est.check_evolution_inequality(traj, beta, a, b),
                       check_oracle.check_evolution_inequality(old, beta, a, b))


@pytest.mark.parametrize("run", ["eigenmode_run", "heat_kernel_run", "coupled_run",
                                 "warped_run"])
def test_checks_equal_the_per_snapshot_reference(run, request):
    # static 1-D from t = 0 and from t > 0, moving 2-D from t > 0 and t = 0
    traj = request.getfixturevalue(run)
    assert_checks_match_the_oracle(traj, 2.0)


def test_checks_equal_the_reference_on_a_static_2d_run():
    # one metric class over 7 snapshots of 64x64, filled two at a time
    cfg = json.loads(json.dumps(load_scenario("rh_perturbed_2d").raw))
    cfg["variant"] = {"kind": "static"}
    t = cfg["time"]
    t["t_end"] = t["t_start"] + 6 * t["snapshot_stride"] * t["dt_sub"]
    traj = run_scenario(load_scenario(cfg))
    assert traj.derived.metric_class == [0] * 7
    assert_checks_match_the_oracle(traj, 2.0)


def test_checks_equal_the_reference_on_a_reloaded_static_run(eigenmode_run, tmp_path):
    # separate metric arrays of equal content: one metric class all the same
    traj = load_run(save_run(eigenmode_run, tmp_path / "run"))
    assert traj.snapshots[0].g is not traj.snapshots[1].g
    assert_checks_match_the_oracle(traj, 2.0)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(beta=st.floats(1.0, 8.0, exclude_min=True))
def test_checks_equal_the_reference_for_any_beta(eigenmode_run, beta):
    assert_checks_match_the_oracle(eigenmode_run, beta)
