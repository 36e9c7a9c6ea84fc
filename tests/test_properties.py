"""Property-based checks of symmetries the discretization claims exactly.

Every stencil is built from one-node periodic shifts, so the Laplacian and
a whole static run commute bit for bit with translations of the grid, and
the divergence-form Laplacian conserves the weighted mass sum(u sqrt(det g))
to roundoff; it is also self-adjoint and negative in the sqrt(det g)-
weighted inner product, to roundoff.  The in-place `geometry.Laplacian`,
and the heat step built on it and the operator a trajectory's derived layer
hands the checks, match the allocating reference in `heat_oracle` bit for
bit, and a static run, which steps a stored stride per call, matches the
reference's one substep at a time.  The bound curvature and map-gradient
kernels match the earlier allocating `_christoffel`, `_ricci` and
`_grad_phi_outer`, and a moving run, stepped in its workspace, matches the
earlier run loop (`heat_oracle.moving_run`) byte for byte, on metrics
with off-diagonal terms of order 0.1-0.5 and maps of 1-3 components.
A distance field satisfies the shortest-path (Bellman) equations of its
stencil graph bit for bit, and scaling the metric by 4 doubles it exactly.
A distance asked for on a ball of radius rho is Dijkstra's bit for bit
below rho and at least rho elsewhere, from sources on the wrap rows.
On square grids the Laplacian and the distance commute with a swap of the
axes to a few ulps: only the order of a few sums changes.  On flat 1-D
runs, from smooth or rough positive data, every compact-mode Harnack
floor lies below the solution it bounds: u(x2, t2) >= floor.
Hypothesis draws the grid, the shift and a seed; numpy draws
the fields from the seed.  Example counts are kept small (and derandomized)
so the suite stays fast and reproducible.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import distance_oracle
import heat_oracle
from rhflow import geometry
from rhflow.distance import ball_distance, geodesic_distance
from rhflow.flow import (AlphaSchedule, FlowVariant, Snapshot, run, stability_limit, step_flow,
                         step_heat)
from rhflow.grid import Grid, shift
from rhflow.harnack import check_harnack

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@st.composite
def grids(draw):
    dim = draw(st.integers(1, 2))
    n_points = tuple(draw(st.integers(8, 20)) for _ in range(dim))
    lengths = tuple(draw(st.sampled_from([1.0, 2.0, 2.0 * np.pi])) for _ in range(dim))
    return Grid(dim, n_points, lengths)


def random_metric(grid, rng):
    """A smooth-enough SPD metric with off-diagonal terms in 2-D."""
    shape = grid.shape
    if grid.dim == 1:
        return (1.0 + 0.5 * rng.random(shape))[..., None, None]
    g = np.empty(shape + (2, 2))
    g[..., 0, 0] = 1.0 + 0.5 * rng.random(shape)
    g[..., 1, 1] = 1.0 + 0.5 * rng.random(shape)
    g[..., 0, 1] = g[..., 1, 0] = 0.2 * (rng.random(shape) - 0.5)
    return g


def roll(a, offset):
    return np.roll(a, offset, axis=tuple(range(len(offset))))


def static_run(grid, g, u, method, n_substeps=6, stride=2):
    snap = Snapshot(0.0, g, np.zeros(grid.shape + (1,)), u)
    dt = 0.5 * stability_limit(grid, snap.metric)
    return run(grid, FlowVariant("static"), AlphaSchedule(0.0), snap,
               n_substeps * dt, dt, stride, method=method)


@PROPERTY
@given(grid=grids(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_laplacian_commutes_with_grid_translations_bitwise(grid, seed, data):
    rng = np.random.default_rng(seed)
    offset = tuple(data.draw(st.integers(-n, n)) for n in grid.n_points)
    g = random_metric(grid, rng)
    s = rng.standard_normal(grid.shape)
    moved = geometry.laplace_beltrami(grid, roll(g, offset), roll(s, offset))
    assert np.array_equal(moved, roll(geometry.laplace_beltrami(grid, g, s), offset))


@PROPERTY
@given(grid=grids(), seed=st.integers(0, 2**32 - 1), method=st.sampled_from(["euler", "rk2"]),
       data=st.data())
def test_static_run_commutes_with_grid_translations_bitwise(grid, seed, method, data):
    rng = np.random.default_rng(seed)
    offset = tuple(data.draw(st.integers(-n, n)) for n in grid.n_points)
    g = random_metric(grid, rng)
    u = 1.0 + rng.random(grid.shape)
    base = static_run(grid, g, u, method)
    moved = static_run(grid, roll(g, offset), roll(u, offset), method)
    assert base.completed and moved.completed
    assert [s.t for s in moved.snapshots] == [s.t for s in base.snapshots]
    for a, b in zip(base.snapshots, moved.snapshots):
        assert np.array_equal(b.u, roll(a.u, offset))
    # extremes over the nodes do not see the translation
    assert moved.constants == base.constants


@PROPERTY
@given(grid=grids(), seed=st.integers(0, 2**32 - 1), method=st.sampled_from(["euler", "rk2"]))
def test_static_run_conserves_weighted_mass(grid, seed, method):
    rng = np.random.default_rng(seed)
    g = random_metric(grid, rng)
    u = 1.0 + rng.random(grid.shape)
    traj = static_run(grid, g, u, method, n_substeps=20, stride=5)
    w = traj.snapshots[0].metric.sqrt_det
    mass = np.array([np.sum(s.u * w) for s in traj.snapshots])
    # roundoff only: each substep adds at most a few ulps of the node sum
    bound = 20 * 2 * grid.n_nodes * np.finfo(float).eps * mass[0]
    assert traj.completed and np.max(np.abs(mass - mass[0])) <= bound


@PROPERTY
@given(grid=grids(), seed=st.integers(0, 2**32 - 1), method=st.sampled_from(["euler", "rk2"]))
def test_laplacian_and_heat_step_match_the_reference_bitwise(grid, seed, method):
    # the in-place operator does the reference's floating-point operations
    # per node in the same order: Laplacian, tension, one step, a whole run
    rng = np.random.default_rng(seed)
    g = random_metric(grid, rng)
    s = rng.standard_normal(grid.shape)
    phi = rng.standard_normal(grid.shape + (2,))
    assert np.array_equal(geometry.laplace_beltrami(grid, g, s),
                          heat_oracle.laplace_beltrami(grid, g, s))
    assert np.array_equal(geometry.tension_field(grid, g, phi),
                          heat_oracle.tension_field(grid, g, phi))
    u = 1.0 + rng.random(grid.shape)
    traj = static_run(grid, g, u, method)
    snap = traj.snapshots[0]
    assert np.array_equal(step_heat(grid, snap, traj.dt_sub, method),
                          heat_oracle.step_heat(grid, snap, traj.dt_sub, method))
    for stored in traj.snapshots[1:]:
        for _ in range(2):  # the stride
            snap = Snapshot(snap.t + traj.dt_sub, g, snap.phi,
                            heat_oracle.step_heat(grid, snap, traj.dt_sub, method), snap.metric)
        assert np.array_equal(stored.u, snap.u)


@settings(PROPERTY, max_examples=12)
@given(grid=grids(), seed=st.integers(0, 2**32 - 1), method=st.sampled_from(["euler", "rk2"]),
       stride=st.sampled_from([1, 2, 7]), n_strides=st.sampled_from([1, 3, 5]))
def test_static_run_matches_the_per_substep_reference_bitwise(grid, seed, method, stride,
                                                              n_strides):
    rng = np.random.default_rng(seed)
    g = random_metric(grid, rng)
    u = 1.0 + rng.random(grid.shape)
    traj = static_run(grid, g, u, method, n_substeps=stride * n_strides, stride=stride)
    times, us, constants, halt = heat_oracle.static_run(
        grid, traj.snapshots[0], traj.snapshots[-1].t, traj.dt_sub, stride, method)
    assert traj.completed and halt is None
    assert [s.t for s in traj.snapshots] == times
    assert all(np.array_equal(s.u, v) for s, v in zip(traj.snapshots, us, strict=True))
    assert traj.constants == constants


@PROPERTY
@given(grid=grids(), seed=st.integers(0, 2**32 - 1))
def test_laplacian_is_self_adjoint_and_negative(grid, seed):
    # discrete integration by parts in the sqrt(det g)-weighted inner
    # product; the 2-D metrics have g_01 != 0
    rng = np.random.default_rng(seed)
    g = random_metric(grid, rng)
    w = geometry.sqrt_det(g)
    u, v = rng.standard_normal(grid.shape), rng.standard_normal(grid.shape)
    lap_u, lap_v = geometry.laplace_beltrami(grid, g, u), geometry.laplace_beltrami(grid, g, v)
    asymmetry = np.sum(v * lap_u * w) - np.sum(lap_v * u * w)
    assert abs(asymmetry) <= 8 * np.finfo(float).eps * np.sum(np.abs(v * lap_u * w))
    assert np.sum(u * lap_u * w) < 0


@PROPERTY
@given(data=st.data())
def test_layer_laplacian_matches_the_reference_bitwise(eigenmode_run, coupled_run, data):
    # the layer keeps one operator; asked for snapshots in any order, it
    # applies each snapshot's metric's Laplacian to the last bit
    for traj in (copy.copy(eigenmode_run), copy.copy(coupled_run)):
        last = len(traj.snapshots) - 1
        for i in data.draw(st.lists(st.integers(0, last), min_size=1, max_size=4)):
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            s = rng.standard_normal(traj.grid.shape)
            assert np.array_equal(traj.derived.laplacian(i)(s), heat_oracle.laplace_beltrami(
                traj.grid, traj.snapshots[i].metric, s))


def same_bytes(a, b) -> bool:
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(
        b).tobytes()


def sheared_metric(grid, rng, shear):
    """A random SPD metric whose off-diagonal term is of order ``shear``."""
    g = random_metric(grid, rng)
    if grid.dim == 2:
        g[..., 0, 0] += shear
        g[..., 1, 1] += shear
        g[..., 0, 1] = g[..., 1, 0] = shear * (0.5 + 0.5 * rng.random(grid.shape))
    return g


@PROPERTY
@given(grid=grids(), seed=st.integers(0, 2**32 - 1), n_maps=st.integers(1, 3),
       shear=st.floats(0.1, 0.5))
def test_curvature_kernels_match_the_reference_bitwise(grid, seed, n_maps, shear):
    rng = np.random.default_rng(seed)
    g = sheared_metric(grid, rng, shear)
    mf = heat_oracle.MetricFields(g)
    gam = heat_oracle._christoffel(grid, mf)
    assert same_bytes(geometry.christoffel(grid, g),
                      np.stack([heat_oracle._stack2(gk) for gk in gam], axis=-3))
    ric = geometry.ricci(grid, g)
    assert same_bytes(ric, heat_oracle.ricci(grid, g))
    if grid.dim == 1:  # its terms cancel pairwise: exactly zero for any metric
        assert np.all(ric == 0.0)
    phi = rng.standard_normal(grid.shape + (n_maps,))
    outer = geometry.grad_phi_outer(grid, phi)
    assert same_bytes(outer, heat_oracle.grad_phi_outer(grid, phi))
    assert same_bytes(geometry.eig_general(outer, g), heat_oracle.eig_general(outer, g))
    fields = geometry.MetricFields(g)
    assert fields.min_eigenvalue == mf.min_eigenvalue
    assert same_bytes(fields.sqrt_det, mf.sqrt_det)
    assert all(same_bytes(a, b) for ra, rb in zip(fields.inv, mf.inv) for a, b in zip(ra, rb))


@st.composite
def moving_runs(draw, kind):
    """(grid, variant, schedule, initial snapshot, T, dt, stride) of a 2-D
    moving run of variant ``kind``."""
    grid = Grid(2, tuple(draw(st.integers(8, 12)) for _ in range(2)), (1.0, 2.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "rh_alpha":
        variant = FlowVariant("rh_alpha")
        schedule = AlphaSchedule(1.0, 0.5, "linear_decay", 3.0)
        n_maps = draw(st.sampled_from([3, 1, 2]))
    else:
        variant = FlowVariant("warped_product", m=draw(st.sampled_from([2, 1])),
                              mu=draw(st.sampled_from([-1.0, 0.5, 0.0])))
        schedule, n_maps = AlphaSchedule(0.0), 1
    g = sheared_metric(grid, rng, draw(st.floats(0.1, 0.5)))
    phi = 0.3 * rng.standard_normal(grid.shape + (n_maps,))
    snap = Snapshot(0.01, g, phi, 1.0 + rng.random(grid.shape))
    dt = 0.5 * stability_limit(grid, snap.metric)
    # a few stored strides: derandomized examples draw the first entries first
    stride = draw(st.sampled_from([3, 1, 2]))
    T = snap.t + stride * draw(st.sampled_from([3, 2])) * dt
    return grid, variant, schedule, snap, T, dt, stride


def assert_same_run(traj, ref):
    assert traj.halt_reason == ref.halt_reason
    assert len(traj.snapshots) == len(ref.snapshots)
    for a, b in zip(traj.snapshots, ref.snapshots):
        assert a.t == b.t
        assert same_bytes(a.u, b.u) and same_bytes(a.g, b.g) and same_bytes(a.phi, b.phi)
        # the metric fields a run assembles are those of validating the array
        fresh = geometry.MetricFields(a.g)
        assert a.metric.min_eigenvalue == fresh.min_eigenvalue
        assert same_bytes(a.metric.sqrt_det, fresh.sqrt_det)
        assert all(same_bytes(x, y) for rx, ry in zip(a.metric.inv, fresh.inv)
                   for x, y in zip(rx, ry))
    assert traj.constants == ref.constants and traj.alphas == ref.alphas


@pytest.mark.parametrize("method", ["euler", "rk2"])
@pytest.mark.parametrize("kind", ["rh_alpha", "warped_product"])
@settings(PROPERTY, max_examples=3)
@given(data=st.data())
def test_moving_run_matches_the_reference_loop_bytewise(kind, method, data):
    grid, variant, schedule, snap, T, dt, stride = data.draw(moving_runs(kind))
    traj = run(grid, variant, schedule, snap, T, dt, stride, method=method)
    ref = heat_oracle.moving_run(grid, variant, schedule, snap, T, dt, stride, method=method)
    assert_same_run(traj, ref)
    # step_flow is run's substep, u carried along
    stepped = step_flow(grid, snap, dt, variant, schedule, method)
    g, phi, metric = heat_oracle._flow_update(grid, variant, schedule, method, snap.t, dt,
                                              snap.g, snap.phi, snap.metric, None, None)
    assert same_bytes(stepped.g, g) and same_bytes(stepped.phi, phi)
    assert stepped.u is snap.u and stepped.metric.min_eigenvalue == metric.min_eigenvalue


@st.composite
def distance_problems(draw):
    """A grid, a random metric with off-diagonal terms of order 0-0.5 in
    2-D, and a source node."""
    grid = draw(grids())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = sheared_metric(grid, rng, draw(st.floats(0.0, 0.5)))
    x0 = tuple(draw(st.integers(0, n - 1)) for n in grid.shape)
    return grid, g, x0


@settings(PROPERTY, max_examples=15)
@given(problem=distance_problems())
def test_distance_satisfies_the_bellman_equations_bitwise(problem):
    # d(y) <= fl(d(z) + w(z, y)) on every stencil edge z -> y, and every
    # node but the source attains it on some in-edge
    grid, g, x0 = problem
    d = geodesic_distance(grid, g, x0)
    attained = np.zeros(grid.shape, dtype=bool)
    for off, w in distance_oracle.stencil_weights(grid, g):
        reached = roll(d + w, off)  # fl(d(z) + w(z, z + off)) at y = z + off
        assert np.all(d <= reached)
        attained |= d == reached
    assert not attained[x0] and np.count_nonzero(~attained) == 1


@settings(PROPERTY, max_examples=15)
@given(problem=distance_problems())
def test_distance_scales_exactly_with_the_metric(problem):
    # 4g doubles every edge weight exactly, and so every rounded path sum
    grid, g, x0 = problem
    assert same_bytes(geodesic_distance(grid, 4.0 * g, x0), 2.0 * geodesic_distance(grid, g, x0))


@st.composite
def axis_swaps(draw):
    """A square 2-D grid and, drawn with it, a random metric with
    off-diagonal terms of order 0-0.4 of either sign, a scalar field and a
    node."""
    n = draw(st.integers(8, 20))
    lengths = tuple(draw(st.sampled_from([1.0, 2.0, 2.0 * np.pi])) for _ in range(2))
    grid = Grid(2, (n, n), lengths)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = sheared_metric(grid, rng, draw(st.floats(-0.4, 0.4)))
    x0 = (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
    return grid, g, rng.standard_normal(grid.shape), x0


def swap_axes(grid, g):
    """The grid with its lengths swapped, and g on it: g_00 and g_11
    exchanged and the node axes transposed."""
    return Grid(2, grid.shape, grid.lengths[::-1]), np.ascontiguousarray(
        g.transpose(1, 0, 2, 3)[..., ::-1, ::-1])


def laplacian_term_sizes(grid, g, s):
    """sum over (i, j) of |term (i, j)| / sqrt(det g), the terms of
    `heat_oracle._laplace` one by one."""
    mf = geometry.MetricFields(g)
    faces = heat_oracle.laplacian_faces(mf)
    total = 0.0
    for i in range(2):
        for j in range(2):
            if i == j:
                flux = faces[i] * (shift(s, -1, i) - s)
                term = (flux - shift(flux, 1, i)) / (grid.h[i] * grid.h[i])
            else:
                term = grid.d1(mf.sqrt_det * mf.inv[i][j] * grid.d1(s, j), i)
            total = total + np.abs(term)
    return total / mf.sqrt_det


@settings(PROPERTY, max_examples=10)
@given(problem=axis_swaps())
def test_laplacian_commutes_with_an_axis_swap(problem):
    # each term maps to its swapped partner bit for bit; only the order in
    # which the four are added changes, so the sums agree to a few ulps of
    # the terms' sizes.  A stride or spacing taken along the wrong axis
    # breaks it, which a translation cannot show
    grid, g, s, _ = problem
    swapped, g_swapped = swap_axes(grid, g)
    got = geometry.laplace_beltrami(swapped, g_swapped, s.T).T
    bound = 4 * np.finfo(float).eps * laplacian_term_sizes(grid, g, s)
    assert np.all(np.abs(got - geometry.laplace_beltrami(grid, g, s)) <= bound)


@settings(PROPERTY, max_examples=10)
@given(problem=axis_swaps())
def test_distance_commutes_with_an_axis_swap(problem):
    # an edge weight sums its quadratic form's terms in another order once
    # the axes are swapped, so each differs by a few ulps, and so do the
    # path lengths summed from them
    grid, g, _, x0 = problem
    swapped, g_swapped = swap_axes(grid, g)
    d = geodesic_distance(grid, g, x0)
    got = geodesic_distance(swapped, g_swapped, x0[::-1]).T
    assert np.all(np.abs(got - d) <= 4 * np.finfo(float).eps * d)


@st.composite
def ball_problems(draw):
    """A 2-D grid, a random SPD metric, diagonal or with off-diagonal terms
    of order 0.1-0.5, a source on a wrap row (the first or the last), often
    on a wrap column too, and a radius below one edge, beyond the largest distance, or a fraction of
    the largest distance."""
    grid = Grid(2, tuple(draw(st.integers(8, 20)) for _ in range(2)),
                tuple(draw(st.sampled_from([1.0, 2.0, 2.0 * np.pi])) for _ in range(2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = sheared_metric(grid, rng, draw(st.floats(0.1, 0.5)))
    if draw(st.booleans()):
        g[..., 0, 1] = g[..., 1, 0] = 0.0
    n0, n1 = grid.shape
    x0 = (draw(st.sampled_from([0, n0 - 1])),
          draw(st.one_of(st.sampled_from([0, n1 - 1]), st.integers(0, n1 - 1))))
    return grid, g, x0, draw(st.sampled_from(["below an edge", "beyond", "inside"])), draw(
        st.floats(0.05, 0.95))


@settings(PROPERTY, max_examples=15)
@given(problem=ball_problems())
def test_ball_distance_is_dijkstras_on_the_ball(problem):
    # exact below the radius, and at least the radius elsewhere, so the
    # masks of the ball and of the half ball are Dijkstra's
    grid, g, x0, kind, fraction = problem
    ref = distance_oracle.dijkstra_distance(grid, g, x0)
    if kind == "below an edge":
        rho = 0.5 * min(float(w.min()) for _, w in distance_oracle.stencil_weights(grid, g))
    else:
        rho = 2.0 * float(ref.max()) if kind == "beyond" else fraction * float(ref.max())
    got = ball_distance(grid, g, x0, rho)
    assert np.array_equal(got < rho, ref < rho)
    assert np.array_equal(got < 0.5 * rho, ref < 0.5 * rho)
    assert same_bytes(got[ref < rho], ref[ref < rho])
    if kind == "below an edge":
        assert np.count_nonzero(got < rho) == 1 and got[x0] == 0.0
    if kind == "beyond":
        assert same_bytes(got, ref)


@st.composite
def flat_heat_runs(draw):
    """A static run on a flat 1-D torus from smooth (three low modes) or
    rough (one uniform draw per node) positive data, and its numpy generator
    for the pairs.  A one-node spike is left out: its discrete peak decays
    faster than the continuum bound allows until t is many h^2 (the floor
    from the spike exceeds u by 8% at t1 = 0.4 h^2 and by 0.5% at 4 h^2)."""
    n = draw(st.integers(12, 40))
    length = draw(st.sampled_from([1.0, 2.0, 2.0 * np.pi]))
    smooth = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = Grid(1, (n,), (length,))
    x = np.arange(n) * length / n
    if smooth:
        u = 1.0 + sum(rng.uniform(-0.3, 0.3) * np.cos(2 * np.pi * k * x / length + rng.uniform(0, 7))
                      for k in rng.integers(1, 4, size=3))
    else:
        u = 1e-3 + rng.random(n)
    g = np.ones((n, 1, 1))
    snap = Snapshot(0.0, g, np.zeros((n, 1)), u)
    dt = 0.5 * stability_limit(grid, snap.metric)
    return run(grid, FlowVariant("static"), AlphaSchedule(0.0), snap, 32 * dt, dt, 4), rng


@settings(PROPERTY, max_examples=15)
@given(problem=flat_heat_runs())
def test_harnack_floors_lie_below_the_solution_on_flat_runs(problem):
    # a flat torus has Ric = 0, so the compact gate admits every run; the
    # discrete path energy bounds the continuum infimum from above, so the
    # floors are conservative, and each holds here with no tolerance.  Half
    # the sources sit at the maximum of u(t1), where the bound is tightest
    traj, rng = problem
    n, times = traj.grid.n_points[0], traj.times
    pairs = []
    for _ in range(6):
        i1, i2 = sorted(rng.choice(np.arange(1, len(times)), 2, replace=False))
        x1 = np.argmax(traj.snapshots[i1].u) if rng.random() < 0.5 else rng.integers(n)
        pairs.append([[int(x1)], float(times[i1]), [int(rng.integers(n))], float(times[i2])])
    rep = check_harnack(traj, pairs, mode="compact")
    assert rep.ok
    assert all(p["u2"] >= p["floor"] for p in rep.pairs)
