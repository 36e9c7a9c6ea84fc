"""Space-time path energy and Harnack floors.

The dynamic program on a flat 1d torus has a closed-form optimum: a d-cell
offset spread over K layers costs (d^2 + r (K - r)) h^2 / (t2 - t1) with
r = d mod K, which collapses to the continuum d^2 h^2 / (t2 - t1) exactly
when K divides d.  That formula is the oracle for the solver; metric scaling
and floor monotonicity pin the rest.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from rhflow import cli, harnack
from rhflow.cli import _auto_pairs, main
from rhflow.estimates import GateEmptyError, extract_constants, fit_cprime
from rhflow.flow import AlphaSchedule, FlowVariant, Snapshot, Trajectory, run, stability_limit
from rhflow.grid import Grid
from rhflow.harnack import (
    R_MAX_DEFAULT,
    R_MAX_LIMIT,
    SUBSTEPS_LIMIT,
    check_harnack,
    default_substeps,
    gamma_field,
    gamma_inf,
    harnack_floor,
    path_energy,
)
from rhflow.persistence import save_run

REPO = Path(__file__).resolve().parents[1]


def flat_metric(grid):
    return np.broadcast_to(np.eye(grid.dim), grid.shape + (grid.dim, grid.dim)).copy()


def static_traj(grid, g=None, t0=0.5, t1=1.5, u_value=1.0):
    """Two-snapshot frozen trajectory; enough for path-energy work."""
    if g is None:
        g = flat_metric(grid)
    phi = np.zeros(grid.shape + (1,))
    u = np.full(grid.shape, u_value)
    snaps = [Snapshot(t0, g, phi, u), Snapshot(t1, g, phi, u)]
    return Trajectory(
        grid=grid,
        variant=FlowVariant("static"),
        schedule=AlphaSchedule(0.0),
        snapshots=snaps,
        dt=t1 - t0,
        dt_sub=t1 - t0,
    )


def dp_formula(d, K, h, dt):
    r = d % K
    return (d * d + r * (K - r)) * h * h / dt


def reference_gamma_inf(traj, x1, x2, t1, t2, substeps=None, r_max=R_MAX_DEFAULT):
    """The one-pair solver the field DP replaced: every layer rebuilds every
    edge cost and rolls cost + edge per move.  The field DP must match it
    bit for bit."""
    grid = traj.grid
    times = traj.times
    if substeps is None:
        substeps = default_substeps(grid, x1, x2, r_max)
    K = int(substeps)
    ds = (t2 - t1) / K
    axes = tuple(range(grid.dim))
    offsets = list(product(range(-r_max, r_max + 1), repeat=grid.dim))
    hvec = np.asarray(grid.h)

    def floor_index(s):
        idx = int(np.searchsorted(times, s + 1e-12 * (1.0 + abs(s)), side="right")) - 1
        return max(idx, 0)

    cost = np.full(grid.shape, np.inf)
    cost[tuple(x1)] = 0.0
    for k in range(K):
        g = traj.snapshots[floor_index(t1 + k * ds)].g
        best = np.full(grid.shape, np.inf)
        for off in offsets:
            delta = hvec * np.asarray(off, dtype=float)
            if not any(off):
                edge = 0.0
            else:
                g_to = np.roll(g, shift=tuple(-o for o in off), axis=axes)
                gbar = 0.5 * (g + g_to)
                edge = np.einsum("...ij,i,j->...", gbar, delta, delta) / ds
            cand = np.roll(cost + edge, shift=off, axis=axes)
            np.minimum(best, cand, out=best)
        cost = best
    return float(cost[tuple(x2)])


def random_metric_traj(shape=(14, 11), n_snaps=4, seed=5):
    """A trajectory whose SPD metric differs at every snapshot, so the
    floor snapshot changes several times inside one dynamic program."""
    rng = np.random.default_rng(seed)
    d = len(shape)
    grid = Grid(d, shape, (1.3, 0.9)[:d])
    snaps = []
    for i in range(n_snaps):
        a = rng.normal(size=shape + (d, d))
        g = np.einsum("...ik,...jk->...ij", a, a) + 0.3 * np.eye(d)
        snaps.append(Snapshot(0.2 + 0.1 * i, g, np.zeros(shape + (1,)),
                              np.ones(shape)))
    return Trajectory(
        grid=grid,
        variant=FlowVariant("static"),
        schedule=AlphaSchedule(0.0),
        snapshots=snaps,
        dt=0.1,
        dt_sub=0.1,
    )


# ---------------------------------------------------------------------------
# path energy oracles


def test_gamma_matches_closed_form_on_flat_circle():
    grid = Grid(1, (64,), (2.0,))
    traj = static_traj(grid, t0=0.5, t1=1.5)
    h = grid.h[0]
    for d, K in [(5, 32), (5, 5), (12, 36), (12, 40), (1, 32), (31, 62), (7, 33)]:
        got = gamma_inf(traj, (0,), (d,), 0.5, 1.5, substeps=K)
        want = dp_formula(d, K, h, 1.0)
        assert np.isclose(got, want, rtol=1e-12), (d, K, got, want)


def test_gamma_exact_when_layers_divide_offset():
    grid = Grid(1, (128,), (2.0,))
    traj = static_traj(grid)
    h = grid.h[0]
    for d in (4, 8, 32, 64):
        got = gamma_inf(traj, (0,), (d,), 0.5, 1.5, substeps=d)
        assert np.isclose(got, d * d * h * h, rtol=1e-12)


def test_gamma_uses_wraparound():
    grid = Grid(1, (64,), (2.0,))
    traj = static_traj(grid)
    # node 60 is 4 cells backwards, not 60 forwards
    a = gamma_inf(traj, (0,), (60,), 0.5, 1.5, substeps=4)
    b = gamma_inf(traj, (0,), (4,), 0.5, 1.5, substeps=4)
    assert np.isclose(a, b, rtol=1e-12)


def test_gamma_metric_doubling_doubles_energy():
    grid = Grid(2, (24, 24), (1.0, 1.0))
    t1 = static_traj(grid)
    t2 = static_traj(grid, g=2.0 * flat_metric(grid))
    g1 = gamma_inf(t1, (0, 0), (5, 3), 0.5, 1.5, substeps=40)
    g2 = gamma_inf(t2, (0, 0), (5, 3), 0.5, 1.5, substeps=40)
    assert np.isclose(g2, 2.0 * g1, rtol=1e-12)


def test_gamma_zero_for_resting_path():
    grid = Grid(1, (32,), (1.0,))
    traj = static_traj(grid)
    assert gamma_inf(traj, (3,), (3,), 0.5, 1.5, substeps=8) == 0.0


def test_gamma_validation():
    grid = Grid(1, (32,), (1.0,))
    traj = static_traj(grid, t0=0.5, t1=1.5)
    with pytest.raises(ValueError, match="t1 < t2"):
        gamma_inf(traj, (0,), (1,), 1.5, 0.5)
    with pytest.raises(ValueError, match="outside stored range"):
        gamma_inf(traj, (0,), (1,), 0.1, 1.0)
    with pytest.raises(ValueError, match="unreachable"):
        gamma_inf(traj, (0,), (10,), 0.5, 1.5, substeps=2, r_max=2)
    with pytest.raises(ValueError, match="r_max"):
        gamma_inf(traj, (0,), (1,), 0.5, 1.5, r_max=0)
    with pytest.raises(ValueError, match="dimension"):
        gamma_inf(traj, (0, 0), (1, 1), 0.5, 1.5)


def test_default_substeps_floor_and_growth():
    grid = Grid(1, (256,), (1.0,))
    assert default_substeps(grid, (0,), (1,)) == 32
    # far targets force enough layers to stay reachable at r_max cells each
    far = default_substeps(grid, (0,), (120,), r_max=R_MAX_DEFAULT)
    assert far >= 120 / R_MAX_DEFAULT
    assert far >= 32


def test_explicit_path_energy_upper_bounds_infimum():
    grid = Grid(1, (64,), (2.0,))
    traj = static_traj(grid)
    # straight 5-cell path in 5 hops
    nodes = [(i,) for i in range(6)]
    e = path_energy(traj, nodes, 0.5, 1.5)
    opt = gamma_inf(traj, (0,), (5,), 0.5, 1.5, substeps=5)
    assert e >= opt - 1e-12
    assert np.isclose(e, opt, rtol=1e-12)  # the even path is the optimum
    # a lazy path (all motion in one hop) is strictly worse
    lazy = [(0,), (5,), (5,), (5,), (5,), (5,)]
    assert path_energy(traj, lazy, 0.5, 1.5) > e
    with pytest.raises(ValueError, match="two nodes"):
        path_energy(traj, [(0,)], 0.5, 1.5)


def test_field_matches_closed_form_at_every_node():
    grid = Grid(1, (64,), (2.0,))
    traj = static_traj(grid, t0=0.5, t1=1.5)
    h = grid.h[0]
    for source, K, r_max in [(0, 32, 2), (17, 40, 2), (63, 9, 3), (5, 5, 2)]:
        field = gamma_field(traj, (source,), 0.5, 1.5, K, r_max)
        for x in range(64):
            d = abs(grid.wrap_delta(source, x, 0))
            if d > K * r_max:
                assert field[x] == np.inf
                continue
            want = dp_formula(d, K, h, 1.0)
            assert abs(field[x] - want) <= 1e-12 * max(want, 1.0), (source, K, x)


def test_field_dp_is_bit_identical_to_the_one_pair_solver():
    traj = random_metric_traj()
    times = traj.times
    rng = np.random.default_rng(11)
    for r_max in (1, 2, 3):
        for _ in range(6):
            x1 = (int(rng.integers(14)), int(rng.integers(11)))
            # targets across the wrap, both ways, up to the reachable range
            x2 = tuple(int(a + rng.integers(-7, 8)) % n
                       for a, n in zip(x1, traj.grid.shape))
            i1 = int(rng.integers(0, 2))
            i2 = int(rng.integers(i1 + 2, 4))
            K = int(rng.integers(max(4, 7 // r_max + 1), 13))
            got = gamma_inf(traj, x1, x2, times[i1], times[i2], substeps=K, r_max=r_max)
            want = reference_gamma_inf(traj, x1, x2, times[i1], times[i2], K, r_max)
            assert got == want, (r_max, x1, x2, K)
            # a time window between snapshots as well
            t1, t2 = times[0] + 0.013, times[-1] - 0.021
            got = gamma_inf(traj, x1, x2, t1, t2, substeps=K, r_max=r_max)
            assert got == reference_gamma_inf(traj, x1, x2, t1, t2, K, r_max)


@pytest.mark.parametrize("shape", [(23,), (8,), (14, 11), (9, 8)])
def test_field_dp_wraps_both_ways_at_every_r_max(shape):
    # sources at the first and the last node, so moves leave the grid through
    # both ends of every axis and the padded copies on both sides are read
    traj = random_metric_traj(shape)
    times = traj.times
    first, last = (0,) * len(shape), tuple(n - 1 for n in shape)
    for r_max, x1 in product(range(1, R_MAX_LIMIT + 1), (first, last)):
        K = 5
        field = gamma_field(traj, x1, times[0], times[-1], K, r_max)
        for step in ((-4, -4), (-1, 3), (3, -1), (1, 1), (0, 0)):
            x2 = tuple((a + s) % n for a, s, n in zip(x1, step, shape))
            want = reference_gamma_inf(traj, x1, x2, times[0], times[-1], K, r_max)
            assert field[x2] == want, (r_max, x1, x2)


def test_field_dp_is_bit_identical_on_bundled_runs(coupled_run, eigenmode_run):
    times = coupled_run.times
    pairs = _auto_pairs(coupled_run) + [
        ((16, 16), times[2], (48, 48), times[-3]),
        ((0, 0), times[4], (63, 1), times[-5]),
    ]
    rep = check_harnack(coupled_run, pairs, mode="complete", beta=2.0, cprime=0.01)
    for row in rep.pairs:
        assert row["gamma"] == reference_gamma_inf(coupled_run, row["x1"], row["x2"],
                                                   row["t1"], row["t2"])
    rep = check_harnack(eigenmode_run, eigenmode_pairs()[::7], mode="compact")
    for row in rep.pairs:
        assert row["gamma"] == reference_gamma_inf(eigenmode_run, row["x1"], row["x2"],
                                                   row["t1"], row["t2"])


# ---------------------------------------------------------------------------
# the floor itself


def test_floor_closed_form_spot_value():
    val = harnack_floor(3.0, 0.5, 1.0, 2.0, 2.0, 0.3, 4.0)
    want = 3.0 * (2.0) ** (-2.0) * np.exp(-1.0 - 0.075)
    assert np.isclose(val, want, rtol=1e-14)


def test_floor_monotone_in_gamma_and_time():
    base = harnack_floor(1.0, 0.5, 1.0, 1.0, 1.0, 0.1, 0.5)
    assert harnack_floor(1.0, 0.5, 1.0, 2.0, 1.0, 0.1, 0.5) < base
    assert harnack_floor(1.0, 0.5, 2.0, 1.0, 1.0, 0.1, 0.5) < base
    assert harnack_floor(2.0, 0.5, 1.0, 1.0, 1.0, 0.1, 0.5) == 2.0 * base


def test_floor_validation():
    with pytest.raises(ValueError, match="0 < t1 < t2"):
        harnack_floor(1.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.5)
    with pytest.raises(ValueError, match="0 < t1 < t2"):
        harnack_floor(1.0, 1.0, 0.5, 1.0, 1.0, 0.0, 0.5)
    with pytest.raises(ValueError, match="a1"):
        harnack_floor(1.0, 0.5, 1.0, 1.0, 0.0, 0.0, 0.5)
    with pytest.raises(ValueError, match="u1"):
        harnack_floor(0.0, 0.5, 1.0, 1.0, 1.0, 0.0, 0.5)


# ---------------------------------------------------------------------------
# full reports


def eigenmode_pairs():
    nodes = [(0,), (25,), (51,), (76,), (102,)]
    tpairs = [(0.01, 0.08), (0.02, 0.06), (0.04, 0.08), (0.01, 0.04)]
    return [(x1, t1, x2, t2) for x1 in nodes for x2 in nodes
            for (t1, t2) in tpairs]


def test_compact_report_on_static_run(eigenmode_run):
    pairs = eigenmode_pairs()
    rep = check_harnack(eigenmode_run, pairs, mode="compact")
    assert rep.ok
    assert len(rep.pairs) == 100
    assert 0.2 < rep.min_margin < 0.35
    assert np.isclose(rep.tol_num, 0.0365, rtol=0.05)
    # flat static 1d: a1 = 1, a2 = 0, a3 = n/2
    assert rep.notes["a1"] == 1.0
    assert rep.notes["a2"] == 0.0
    assert rep.notes["a3"] == 0.5
    assert "never optimistic" in rep.notes["gamma_conservative"]
    row = rep.pairs[0]
    assert {"x1", "t1", "x2", "t2", "u1", "u2", "gamma", "floor",
            "margin_log", "ok"} <= set(row)
    assert row["u2"] >= row["floor"]


def test_compact_gate_refuses_negative_curvature(coupled_run):
    with pytest.raises(GateEmptyError, match="nonnegative Ricci"):
        check_harnack(coupled_run, [((0, 0), 0.0165, (0, 0), 0.1)], mode="compact")


def test_complete_report_on_coupled_run(coupled_run):
    cprime = fit_cprime(coupled_run, [2.0], shape="harnack")
    assert np.isclose(cprime, 0.0122741, rtol=1e-3)
    times = coupled_run.times
    pairs = [
        ((16, 16), times[2], (16, 16), times[-3]),
        ((16, 16), times[2], (48, 48), times[-3]),
        ((0, 0), times[4], (32, 32), times[-5]),
        ((32, 32), times[2], (32, 32), times[10]),
    ]
    rep = check_harnack(coupled_run, pairs, mode="complete", beta=2.0, cprime=cprime)
    assert rep.ok
    assert rep.mode == "complete" and rep.beta == 2.0
    # integrated constants echo the fit: a1 = beta, a3 = C' beta^2
    assert rep.notes["a1"] == 2.0
    assert np.isclose(rep.notes["a3"], cprime * 4.0, rtol=1e-12)
    k = extract_constants(coupled_run)
    want_a2 = cprime * 4.0 * max(k.k1, k.k2) + 2.0 * 4.0 * k.k1 / 4.0
    assert np.isclose(rep.notes["a2"], want_a2, rtol=1e-12)
    assert "never optimistic" in rep.notes["gamma_conservative"]


def test_complete_mode_validation(coupled_run):
    pair = [((0, 0), 0.0165, (0, 0), 0.1)]
    with pytest.raises(ValueError, match="beta > 1"):
        check_harnack(coupled_run, pair, mode="complete", beta=1.0, cprime=0.01)
    with pytest.raises(ValueError, match="positive C'"):
        check_harnack(coupled_run, pair, mode="complete", beta=2.0)
    with pytest.raises(ValueError, match="mode"):
        check_harnack(coupled_run, pair, mode="parabolic")
    with pytest.raises(ValueError, match="no pairs"):
        check_harnack(coupled_run, [], mode="complete", beta=2.0, cprime=0.01)


def test_compact_mode_refuses_a_cprime(eigenmode_run):
    # compact floors use the global-estimate constants; a C' was echoed unread
    pairs = eigenmode_pairs()[:1]
    with pytest.raises(ValueError, match=r"^compact mode reads no C', got 0\.5$"):
        check_harnack(eigenmode_run, pairs, mode="compact", cprime=0.5)
    assert check_harnack(eigenmode_run, pairs, mode="compact").notes["cprime"] is None


def test_pair_times_must_hit_snapshots(eigenmode_run):
    with pytest.raises(ValueError, match="no snapshot"):
        check_harnack(eigenmode_run, [((0,), 0.0105, (3,), 0.08)], mode="compact")


def test_report_summary_shape(eigenmode_run):
    rep = check_harnack(eigenmode_run, eigenmode_pairs()[:5], mode="compact")
    s = rep.summary()
    assert s["theorem"] == "harnack" and s["mode"] == "compact"
    assert s["n_pairs"] == 5
    assert s["ok"] is True
    assert s["min_margin"] == rep.min_margin
    assert len(rep.rows()) == 5


def test_rows_record_the_layer_count_each_pair_used(eigenmode_run):
    pairs = eigenmode_pairs()[:10]
    rep = check_harnack(eigenmode_run, pairs, mode="compact")
    grid = eigenmode_run.grid
    assert rep.notes["substeps"] is None
    for (x1, _, x2, _), row in zip(pairs, rep.pairs):
        assert row["substeps"] == default_substeps(grid, x1, x2)
    rep = check_harnack(eigenmode_run, pairs, mode="compact", substeps=70)
    assert rep.notes["substeps"] == 70
    assert {row["substeps"] for row in rep.pairs} == {70}


def test_one_dynamic_program_per_source(eigenmode_run, monkeypatch):
    # check_harnack hands all of its programs to one lockstep gamma_fields
    calls = []
    fields_dp = harnack.gamma_fields

    def counting(traj, programs, r_max=R_MAX_DEFAULT):
        calls.extend(programs)
        return fields_dp(traj, programs, r_max)

    monkeypatch.setattr(harnack, "gamma_fields", counting)
    pairs = eigenmode_pairs()
    rep = check_harnack(eigenmode_run, pairs, mode="compact")
    grid = eigenmode_run.grid
    keys = {(x1, t1, t2, default_substeps(grid, x1, x2)) for x1, t1, x2, t2 in pairs}
    assert len(calls) == len(set(calls)) == len(keys) < len(pairs)
    assert {(x1, t1, t2, K) for x1, t1, t2, K in calls} == {
        (row["x1"], row["t1"], row["t2"], row["substeps"]) for row in rep.pairs}


@pytest.fixture(scope="module")
def eigenmode_dir(eigenmode_run, tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("harnack") / "static_eigenmode"
    save_run(eigenmode_run, run_dir)
    return run_dir


def check_pairs_file(run_dir, tmp_path, pairs):
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps(pairs))
    return main(["check", str(run_dir), "--which", "harnack", "--pairs", str(path),
                 "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("pairs, index, what", [
    (5, None, "pairs must be a list"),
    ([[[0], 0.01, [3], 0.08], [[0], 0.01, [3]]], 1, "expected"),
    ([[[0], 0.01, [3], 0.08], [[0], "x", [3], 0.08]], 1, "not a finite real"),
    ([[[0], None, [3], 0.08]], 0, "not a finite real"),
    ([[[0], 0.01, [3], 0.08], [[0.7], 0.01, [3], 0.08]], 1, "integer coordinates"),
    ([[[0], 0.01, [True], 0.08]], 0, "integer coordinates"),
    ([[[0, 1], 0.01, [3], 0.08]], 0, "dimension"),
    ([[[0], 0.01, [3], 0.08], [[0], 0.0, [3], 0.08]], 1, "0 < t1"),
])
def test_cli_malformed_pairs_exit_2(eigenmode_dir, tmp_path, capsys, pairs, index, what):
    assert check_pairs_file(eigenmode_dir, tmp_path, pairs) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert what in err
    if index is not None:
        assert err.startswith(f"pair {index}: ")


def test_cli_pairs_wrap_out_of_range_nodes(eigenmode_dir, tmp_path, capsys):
    assert check_pairs_file(eigenmode_dir, tmp_path, [[[300], 0.01, [-5], 0.08]]) == 0
    capsys.readouterr()
    rows = (tmp_path / "out" / "reports" / "harnack_compact.csv").read_text().splitlines()
    header = rows[0].split(",")
    row = dict(zip(header, rows[1].split(",")))
    assert (row["x1"], row["x2"]) == (str(300 % 128), str(-5 % 128))
    assert row["substeps"] == str(default_substeps(Grid(1, (128,), (1.0,)), (44,), (123,)))


@pytest.mark.parametrize("r_max", [0, R_MAX_LIMIT + 1, 2.0, True])
def test_r_max_outside_its_range_is_refused(eigenmode_run, r_max):
    x1, t1 = (0,), float(eigenmode_run.times[1])
    t2 = float(eigenmode_run.times[-1])
    with pytest.raises(ValueError, match=f"r_max must be an integer from 1 to {R_MAX_LIMIT}"):
        gamma_inf(eigenmode_run, x1, (3,), t1, t2, r_max=r_max)
    with pytest.raises(ValueError, match="r_max"):
        gamma_field(eigenmode_run, x1, t1, t2, 32, r_max=r_max)
    with pytest.raises(ValueError, match="^r_max"):  # not blamed on a pair
        check_harnack(eigenmode_run, [(x1, t1, (3,), t2)], r_max=r_max)
    assert gamma_inf(eigenmode_run, x1, (3,), t1, t2, r_max=R_MAX_LIMIT) > 0


def test_cli_huge_r_max_exits_2_before_loading(monkeypatch, tmp_path, capsys):
    def no_load(source):
        raise AssertionError("the run was loaded")

    monkeypatch.setattr(cli, "_open_source", no_load)
    tracemalloc.start()
    try:
        code = main(["check", "static_eigenmode", "--which", "harnack",
                     "--r-max", str(10**12), "--out", str(tmp_path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err.startswith("--r-max: ") and str(10**12) in err
    assert peak < 2**20


@pytest.mark.parametrize("substeps", [0, -1, SUBSTEPS_LIMIT + 1, 2.5, True])
def test_substeps_outside_their_range_are_refused(eigenmode_run, substeps):
    x1, t1 = (0,), float(eigenmode_run.times[1])
    t2 = float(eigenmode_run.times[-1])
    match = f"substeps must be an integer from 1 to {SUBSTEPS_LIMIT}"
    with pytest.raises(ValueError, match=match):
        gamma_inf(eigenmode_run, x1, (3,), t1, t2, substeps=substeps)
    with pytest.raises(ValueError, match=f"^pair 0: {match}"):
        check_harnack(eigenmode_run, [(x1, t1, (3,), t2)], substeps=substeps)


@pytest.mark.parametrize("substeps", ["0", str(SUBSTEPS_LIMIT + 1), str(10**12)])
def test_cli_substeps_outside_their_range_exit_2_before_loading(monkeypatch, tmp_path,
                                                                capsys, substeps):
    def no_load(source):
        raise AssertionError("the run was loaded")

    monkeypatch.setattr(cli, "_open_source", no_load)
    code = main(["check", "static_eigenmode", "--which", "harnack",
                 "--substeps", substeps, "--out", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err.startswith("--substeps: ") and substeps in err


def test_underflowing_floor_names_its_pair(coupled_run, tmp_path, capsys):
    # many layers make a long pair's path energy so large that exp(-Gamma/4)
    # underflows; its log margin would be +inf and unserializable
    pairs = _auto_pairs(coupled_run)[:1]
    cprime = fit_cprime(coupled_run, [2.0], shape="harnack")
    rep = check_harnack(coupled_run, pairs, mode="complete", cprime=cprime, substeps=64)
    assert 0.0 < rep.pairs[0]["floor"] < 1e-30
    with pytest.raises(ValueError, match=r"^pair 0: Harnack floor 0\.0 is not a positive"):
        check_harnack(coupled_run, pairs, mode="complete", cprime=cprime, substeps=700)
    run_dir = tmp_path / "run"
    save_run(coupled_run, run_dir)
    pairs_file = tmp_path / "pairs.json"
    pairs_file.write_text(json.dumps([[[int(v) for v in x1], t1, [int(v) for v in x2], t2]
                                      for x1, t1, x2, t2 in pairs]))
    code = main(["check", str(run_dir), "--which", "harnack", "--mode", "complete",
                 "--pairs", str(pairs_file), "--substeps", "700",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["error"].startswith("pair 0: Harnack floor")


def test_harnack_demo_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(REPO / "demos" / "04_harnack_paths.py")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "complete-manifold floors" in proc.stdout


def conformal_run():
    """Five snapshots of Ricci flow of a conformal metric on a 16x16 torus.
    Its Gauss curvature takes both signs, so the compact gate fails at the
    default curvature tolerance."""
    grid = Grid(2, (16, 16), (1.0, 1.0))
    x, y = grid.coords()
    f = 0.2 * np.cos(2.0 * np.pi * x) * np.cos(2.0 * np.pi * y)
    g = np.exp(2.0 * f)[..., None, None] * np.eye(2)
    u = 2.0 + np.sin(2.0 * np.pi * x)
    snap = Snapshot(0.0, g, np.zeros(grid.shape + (1,)), u)
    dt = 0.5 * stability_limit(grid, g)
    return run(grid, FlowVariant("rh_alpha"), AlphaSchedule(0.0), snap, 16 * dt, dt, 4)


def test_compact_gate_honours_the_curvature_tolerance(tmp_path, capsys):
    traj = conformal_run()
    t1, t2 = float(traj.times[1]), float(traj.times[-1])
    pairs = [((0, 0), t1, (8, 8), t2), ((4, 4), t1, (4, 12), t2)]
    with pytest.raises(GateEmptyError, match="nonnegative Ricci"):
        check_harnack(traj, pairs)
    # a tolerance of twice the curvature scale admits every node
    want = extract_constants(traj, tol_eig_factor=2.0)
    assert want.ric_nonneg and want.k1 > 0
    rep = check_harnack(traj, pairs, tol_eig_factor=2.0)
    assert rep.constants == want.as_dict() and len(rep.pairs) == 2
    # and so does the CLI's --tol-eig, which the harnack check used to drop
    save_run(traj, tmp_path / "run")
    code = main(["check", str(tmp_path / "run"), "--which", "harnack", "--tol-eig", "2",
                 "--out", str(tmp_path / "out")])
    out = json.loads(capsys.readouterr().out)
    assert code in (0, 1) and "error" not in out
    assert out["constants"]["tol_eig"] == want.tol_eig
