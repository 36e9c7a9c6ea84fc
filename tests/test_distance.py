"""Graph geodesic distance on the periodic lattice.

In 1d the 2-neighbor graph is exact for any metric. In 2d the 8-neighbor
stencil overestimates Euclidean length by at most 1/cos(pi/8), with equality
only for directions falling between stencil rays; axis and diagonal
directions are exact.  Every field equals scipy's Dijkstra on the same
graph (`distance_oracle`) bit for bit.
"""

import numpy as np
import pytest

from distance_oracle import dijkstra_distance, flat_torus_distance
from rhflow import geometry
from rhflow.distance import METRICATION_8, geodesic_distance
from rhflow.grid import Grid
from rhflow.scenarios import bundled_names, load_scenario, run_scenario


def flat_metric(grid):
    return np.broadcast_to(np.eye(grid.dim), grid.shape + (grid.dim, grid.dim)).copy()


def test_flat_1d_exact_wrap_distance():
    grid = Grid(1, (40,), (2.0,))
    h = grid.h[0]
    d = geodesic_distance(grid, flat_metric(grid), (0,))
    idx = np.arange(40)
    wrapped = np.minimum(idx, 40 - idx)
    np.testing.assert_allclose(d, wrapped * h, atol=1e-12)


def test_flat_1d_nonuniform_metric_sums_edge_lengths():
    grid = Grid(1, (32,), (1.0,))
    x = grid.coords()[0]
    g = ((1.0 + 0.5 * np.sin(2.0 * np.pi * x)) ** 2)[..., None, None]
    d = geodesic_distance(grid, g, (0,))
    # each edge carries length h * sqrt(endpoint-averaged metric entry)
    gxx = g[..., 0, 0]
    h = grid.h[0]
    expected = sum(h * np.sqrt(0.5 * (gxx[i] + gxx[i + 1])) for i in range(3))
    assert np.isclose(d[3], expected, rtol=1e-12)


def test_flat_2d_band_and_exact_directions():
    grid = Grid(2, (64, 64), (2.0, 2.0))
    d = geodesic_distance(grid, flat_metric(grid), (0, 0))
    ref = np.array([[flat_torus_distance(grid, (0, 0), (i, j)) for j in range(64)]
                    for i in range(64)])
    mask = ref > 0
    ratio = d[mask] / ref[mask]
    assert np.min(ratio) > 1.0 - 1e-12
    assert np.max(ratio) < METRICATION_8 + 1e-12
    # on-axis and main-diagonal targets are representable by stencil moves
    h = grid.h[0]
    assert np.isclose(d[7, 0], 7 * h, atol=1e-12)
    assert np.isclose(d[0, 7], 7 * h, atol=1e-12)
    assert np.isclose(d[5, 5], 5 * h * np.sqrt(2.0), rtol=1e-12)


def test_an_integer_node_wraps_onto_the_1d_torus():
    # 20 used to reach scipy as linear index 20 and fail there
    grid = Grid(1, (16,), (1.0,))
    g = flat_metric(grid)
    np.testing.assert_array_equal(geodesic_distance(grid, g, 20),
                                  geodesic_distance(grid, g, (4,)))


@pytest.mark.parametrize("x0", [True, 3.7, 5, (True, 1), (1, 3.7), (1, 2, 3)])
def test_a_2d_node_needs_two_integer_coordinates(x0):
    # True used to be read as linear index 1, 3.7 truncated to 3 and 5 read
    # as the linear index of node (0, 5)
    grid = Grid(2, (16, 16), (1.0, 1.0))
    with pytest.raises(ValueError, match="needs 2 integer coordinates"):
        geodesic_distance(grid, flat_metric(grid), x0)


def test_metric_scaling_scales_distance_by_sqrt():
    grid = Grid(2, (24, 24), (1.0, 1.0))
    g = flat_metric(grid)
    d1 = geodesic_distance(grid, g, (3, 4))
    d2 = geodesic_distance(grid, 2.0 * g, (3, 4))
    np.testing.assert_allclose(d2, np.sqrt(2.0) * d1, rtol=1e-12)


def test_conformal_metric_sandwich_bounds():
    # exp(2 w_min) flat <= g <= exp(2 w_max) flat pointwise, and the graph
    # distance is monotone in the edge weights
    grid = Grid(2, (32, 32), (2.0 * np.pi, 2.0 * np.pi))
    X, Y = grid.coords()
    w = 0.2 * np.sin(X) * np.cos(Y)
    g = np.exp(2.0 * w)[..., None, None] * np.eye(2)
    d = geodesic_distance(grid, g, (0, 0))
    d_flat = geodesic_distance(grid, flat_metric(grid), (0, 0))
    lo = np.exp(np.min(w))
    hi = np.exp(np.max(w))
    assert np.all(d >= lo * d_flat - 1e-12)
    assert np.all(d <= hi * d_flat + 1e-12)


def test_distance_symmetry():
    grid = Grid(2, (16, 16), (1.0, 1.0))
    X, Y = grid.coords()
    w = 0.1 * np.sin(2.0 * np.pi * X)
    g = np.exp(2.0 * w)[..., None, None] * np.eye(2)
    a, b = (2, 3), (11, 7)
    da = geodesic_distance(grid, g, a)
    db = geodesic_distance(grid, g, b)
    assert np.isclose(da[b], db[a], rtol=1e-12)


def test_flat_torus_distance_closed_form():
    grid = Grid(2, (8, 8), (1.0, 1.0))
    assert flat_torus_distance(grid, (0, 0), (0, 0)) == 0.0
    assert np.isclose(flat_torus_distance(grid, (0, 0), (4, 0)), 0.5)   # half wrap
    assert np.isclose(flat_torus_distance(grid, (0, 0), (0, 7)), 0.125)
    assert np.isclose(flat_torus_distance(grid, (0, 0), (3, 4)),
                      np.hypot(3 * 0.125, 0.5))


def test_source_index_wraps():
    grid = Grid(1, (16,), (1.0,))
    g = flat_metric(grid)
    d0 = geodesic_distance(grid, g, (0,))
    d16 = geodesic_distance(grid, g, (16,))
    assert np.array_equal(d0, d16)


def spd_metric(rng, shape):
    d = len(shape)
    a = 0.3 * rng.standard_normal(shape + (d, d))
    return np.eye(d) + a @ np.swapaxes(a, -1, -2)


def smooth_metric(grid, rng):
    """A smooth SPD metric; in 2-D its g01 varies between about -0.3 and 0.3."""
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(grid.dim, 2))
    a = sum(0.3 * np.sin(2.0 * np.pi * (k + 1) * x / length + phase[ax, k])
            for ax, (x, length) in enumerate(zip(grid.coords(), grid.lengths))
            for k in range(2))
    g = np.zeros(grid.shape + (grid.dim, grid.dim))
    g[..., 0, 0] = np.exp(a)
    if grid.dim == 2:
        g[..., 1, 1] = np.exp(-0.5 * a) + 0.2
        g[..., 0, 1] = g[..., 1, 0] = 0.3 * np.cos(a)
    return g


def sheared_metric(grid, shear):
    """The constant metric with unit diagonal and off-diagonal ``shear``."""
    g = np.eye(grid.dim) + shear * (1.0 - np.eye(grid.dim))
    return np.broadcast_to(g, grid.shape + g.shape).copy()


@pytest.mark.parametrize("name", bundled_names())
def test_distance_equals_dijkstra_on_bundled_metrics(name):
    sc = load_scenario(name)
    traj = run_scenario(sc) if sc.variant.kind != "static" else None
    metrics = [sc.initial_snapshot().g] + ([traj.snapshots[-1].g] if traj else [])
    for g in metrics:
        for x0 in [(0,) * sc.grid.dim, tuple(n // 3 for n in sc.grid.shape),
                   tuple(n - 1 for n in sc.grid.shape)]:
            assert np.array_equal(geodesic_distance(sc.grid, g, x0),
                                  dijkstra_distance(sc.grid, g, x0))


@pytest.mark.parametrize("shape", [(8,), (61,), (128,), (8, 8), (9, 13), (24, 17), (17, 24),
                                   (64, 64), (128, 128)])
def test_distance_equals_dijkstra_on_random_metrics(shape):
    rng = np.random.default_rng(7 + shape[-1])
    grid = Grid(len(shape), shape, tuple(1.0 + 0.5 * i for i in range(len(shape))))
    metrics = [spd_metric(rng, shape), smooth_metric(grid, rng), sheared_metric(grid, 0.4)]
    if grid.dim == 2:
        metrics.append(sheared_metric(grid, -0.7))
    for g in metrics:
        for x0 in [tuple(int(rng.integers(n)) for n in shape), (0,) * grid.dim]:
            assert np.array_equal(geodesic_distance(grid, g, x0), dijkstra_distance(grid, g, x0))


def test_validated_metric_is_not_checked_again(monkeypatch):
    grid = Grid(2, (9, 13), (1.0, 1.5))
    g = spd_metric(np.random.default_rng(3), grid.shape)
    mf = geometry.MetricFields(g)
    checks = []
    real = geometry.check_metric
    monkeypatch.setattr(geometry, "check_metric", lambda a: checks.append(a) or real(a))
    via_fields = geodesic_distance(grid, mf, (4, 5))
    assert not checks
    # a raw array is still validated, once
    assert np.array_equal(geodesic_distance(grid, g, (4, 5)), via_fields)
    assert len(checks) == 1
    bad = g.copy()
    bad[2, 3] = -np.eye(2)
    with pytest.raises(geometry.MetricDegenerateError):
        geodesic_distance(grid, bad, (0, 0))
