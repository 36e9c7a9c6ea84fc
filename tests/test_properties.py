"""Property-based checks of symmetries the discretization claims exactly.

Every stencil is built from one-node periodic shifts, so the Laplacian and
a whole static run commute bit for bit with translations of the grid, and
the divergence-form Laplacian conserves the weighted mass sum(u sqrt(det g))
to roundoff.  The in-place `geometry.Laplacian`, and the heat step built on
it, match the allocating reference in `heat_oracle` bit for bit.
Hypothesis draws the grid, the shift and a seed; numpy draws
the fields from the seed.  Example counts are kept small (and derandomized)
so the suite stays fast and reproducible.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import heat_oracle
from rhflow import geometry
from rhflow.flow import AlphaSchedule, FlowVariant, Snapshot, run, stability_limit, step_heat
from rhflow.grid import Grid

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
