"""Discrete-operator oracles: exact algebraic identities first, then
convergence bands against continuum values.

The strongest checks here are the ones that hold to roundoff, not just to
O(h^2): curvature of any 1d or constant metric vanishes identically, the
conformal 2d Ricci tensor equals a divergence built from the same stencils,
and every operator commutes bitwise with grid translations.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from rhflow import geometry
from rhflow.geometry import MetricDegenerateError
from rhflow.grid import MAX_NODES, Grid, shift


def flat_metric(grid):
    return np.broadcast_to(np.eye(grid.dim), grid.shape + (grid.dim, grid.dim)).copy()


def conformal_metric(grid, w):
    return np.exp(2.0 * w)[..., None, None] * np.eye(grid.dim)


def generic_metric_2d(grid):
    """Non-conformal SPD metric with off-diagonal coupling."""
    X, Y = grid.coords()
    g = np.zeros(grid.shape + (2, 2))
    g[..., 0, 0] = 1.3 + 0.2 * np.sin(X)
    g[..., 1, 1] = 0.9 + 0.1 * np.cos(Y)
    g[..., 0, 1] = g[..., 1, 0] = 0.05 * np.sin(X + Y)
    return g


# ---------------------------------------------------------------------------
# grid plumbing


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(3, (16, 16, 16), (1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        Grid(1, (4,), (1.0,))
    with pytest.raises(ValueError):
        Grid(1, (16,), (-1.0,))
    with pytest.raises(ValueError):
        Grid(2, (16,), (1.0, 1.0))
    with pytest.raises(ValueError, match="dim"):
        Grid(True, (16,), (1.0,))
    with pytest.raises(ValueError, match="n_points"):
        Grid(1, (16.5,), (1.0,))
    with pytest.raises(ValueError, match="lengths"):
        Grid(1, (16,), (True,))
    with pytest.raises(ValueError, match="lengths"):
        Grid(1, (16,), (np.inf,))
    Grid(1, (MAX_NODES,), (1.0,))
    with pytest.raises(ValueError, match="limit"):
        Grid(1, (MAX_NODES + 1,), (1.0,))
    with pytest.raises(ValueError, match="limit"):
        Grid(2, (10**9, 10**9), (1.0, 1.0))


def test_grid_spacing_and_volume():
    grid = Grid(2, (16, 32), (1.0, 4.0))
    assert grid.h == (1.0 / 16, 0.125)
    assert grid.h_min == 1.0 / 16
    assert grid.n_nodes == 512
    assert np.isclose(grid.cell_volume, (1.0 / 16) * 0.125)
    ax0, ax1 = grid.axes()
    assert ax0[0] == 0.0 and np.isclose(ax0[-1], 1.0 - 1.0 / 16)
    assert len(ax1) == 32


@pytest.mark.parametrize("dim, shape", [
    (1, (9,)), (1, (9, 2)), (1, (8, 2, 2)),
    (2, (9, 10)), (2, (9, 10, 3)), (2, (8, 10, 2, 2)),
])
@pytest.mark.parametrize("k", [1, -1])
def test_shift_is_np_roll_bit_for_bit(dim, shape, k):
    # node axes lead and trailing tensor axes ride along
    a = np.random.default_rng(len(shape)).standard_normal(shape)
    for axis in range(dim):
        got = shift(a, k, axis)
        assert got.dtype == a.dtype and not np.shares_memory(got, a)
        assert np.array_equal(got, np.roll(a, k, axis=axis))
    with pytest.raises(ValueError, match="one node"):
        shift(a, 2, 0)


def test_first_and_second_differences_exact_on_modes():
    # centered stencils act on sampled sinusoids by exact discrete symbols:
    # d1 sin(kx) = cos(kx) sin(kh)/h, d2 sin(kx) = -2(1-cos(kh))/h^2 sin(kx)
    grid = Grid(1, (64,), (2.0 * np.pi,))
    x = grid.coords()[0]
    h = grid.h[0]
    for k in (1, 3):
        s = np.sin(k * x)
        np.testing.assert_allclose(
            grid.d1(s, 0), np.cos(k * x) * np.sin(k * h) / h, atol=1e-13
        )
        lam_h = 2.0 * (1.0 - np.cos(k * h)) / h**2
        np.testing.assert_allclose(grid.d2(s, 0), -lam_h * s, atol=1e-11)


def test_wrap_delta_shortest_displacement():
    grid = Grid(1, (10,), (1.0,))
    assert grid.wrap_delta(0, 3, 0) == 3
    assert grid.wrap_delta(0, 7, 0) == -3
    assert grid.wrap_delta(8, 2, 0) == 4
    arr = grid.wrap_delta(np.array([0, 9]), np.array([9, 0]), 0)
    np.testing.assert_array_equal(arr, [-1, 1])


def test_integrate_periodic_mean():
    grid = Grid(2, (32, 32), (2.0 * np.pi, 2.0 * np.pi))
    X, _ = grid.coords()
    assert abs(grid.integrate(np.cos(X))) < 1e-12
    w = 2.0 * np.ones(grid.shape)
    assert np.isclose(grid.integrate(np.ones(grid.shape), weight=w),
                      2.0 * (2.0 * np.pi) ** 2)


# ---------------------------------------------------------------------------
# metric checks


def test_metric_symmetry_enforced():
    grid = Grid(2, (8, 8), (1.0, 1.0))
    g = flat_metric(grid)
    g[0, 0, 0, 1] = 0.1  # break symmetry at one node
    with pytest.raises(ValueError, match="symmetric"):
        geometry.check_metric(g)


def test_metric_degeneracy_detected_with_location():
    grid = Grid(2, (8, 8), (1.0, 1.0))
    g = flat_metric(grid)
    g[3, 5] = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank one at node (3, 5)
    with pytest.raises(MetricDegenerateError) as exc:
        geometry.check_metric(g)
    assert exc.value.node == (3, 5)
    assert exc.value.eigenvalue <= 0.0


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_metric_non_finite_entries_diagnosed_first(value):
    # stored symmetric, so only the finiteness check can catch it
    grid = Grid(2, (8, 8), (1.0, 1.0))
    g = flat_metric(grid)
    g[2, 6, 1, 1] = value
    with pytest.raises(MetricDegenerateError, match="non-finite") as exc:
        geometry.check_metric(g)
    assert exc.value.node == (2, 6)
    with pytest.raises(MetricDegenerateError, match="non-finite"):
        geometry.MetricFields(g)


def test_the_failing_node_prints_as_plain_integers():
    # numpy 2 prints unravel_index scalars as np.int64(3), which a saved
    # halt reason would then carry
    grid = Grid(2, (8, 8), (1.0, 1.0))
    g = flat_metric(grid)
    g[3, 5] = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(MetricDegenerateError, match=r"degenerate at node \(3, 5\): min") as exc:
        geometry.check_metric(g)
    assert [type(i) for i in exc.value.node] == [int, int]
    g[2, 6, 1, 1] = np.inf
    with pytest.raises(MetricDegenerateError, match=r"entries at node \(2, 6\): \[\[") as exc:
        geometry.check_metric(g)
    assert [type(i) for i in exc.value.node] == [int, int]


def test_metric_fields_validate_once_and_accept_either_form():
    grid = Grid(2, (16, 16), (2.0 * np.pi, 2.0 * np.pi))
    g = generic_metric_2d(grid)
    mf = geometry.MetricFields(g)
    assert geometry.metric_fields(mf) is mf
    assert mf.min_eigenvalue == float(np.min(geometry.min_metric_eigenvalue(g)))
    s = 1.0 + 0.3 * np.sin(grid.coords()[0])
    assert np.array_equal(geometry.ricci(grid, mf), geometry.ricci(grid, g))
    assert np.array_equal(geometry.laplace_beltrami(grid, mf, s),
                          geometry.laplace_beltrami(grid, g, s))
    with pytest.raises(ValueError, match="2x2"):
        geometry.check_metric(np.ones((4, 3, 3)))


def test_min_eigenvalue_closed_form_matches_eigvalsh():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((50, 2, 2))
    g = np.einsum("...ij,...kj->...ik", a, a) + 0.5 * np.eye(2)
    np.testing.assert_allclose(
        geometry.min_metric_eigenvalue(g), np.linalg.eigvalsh(g)[..., 0], atol=1e-12
    )


# ---------------------------------------------------------------------------
# curvature: exact identities


def test_ricci_identically_zero_in_1d():
    # every 1-manifold is flat; discretely the two contraction terms cancel
    # pairwise, so the result is exactly zero for any metric
    grid = Grid(1, (48,), (2.0 * np.pi,))
    x = grid.coords()[0]
    g = ((1.2 + 0.3 * np.sin(x)) ** 2)[..., None, None]
    assert np.all(geometry.ricci(grid, g) == 0.0)


def test_ricci_and_christoffel_zero_for_constant_metric():
    grid = Grid(2, (16, 16), (1.0, 2.0))
    g = np.broadcast_to(np.array([[2.0, 0.3], [0.3, 1.5]]), grid.shape + (2, 2)).copy()
    assert np.all(geometry.christoffel(grid, g) == 0.0)
    assert np.all(geometry.ricci(grid, g) == 0.0)


def test_conformal_ricci_equals_discrete_divergence_form():
    # for g = exp(2w) I in 2d the Christoffel contraction collapses, at the
    # level of the stencils themselves, to Ric = -div(a) I with
    # a_i = exp(-2w) d_i exp(2w) / 2; this holds at any amplitude
    grid = Grid(2, (48, 48), (2.0 * np.pi, 2.0 * np.pi))
    X, Y = grid.coords()
    w = 0.4 * np.cos(X) + 0.3 * np.sin(X + 2.0 * Y)
    e2w = np.exp(2.0 * w)
    g = conformal_metric(grid, w)
    a = np.stack([0.5 * np.exp(-2.0 * w) * grid.d1(e2w, ax) for ax in range(2)], axis=-1)
    div_a = grid.d1(a[..., 0], 0) + grid.d1(a[..., 1], 1)
    oracle = -div_a[..., None, None] * np.eye(2)
    ric = geometry.ricci(grid, g)
    scale = float(np.max(np.abs(ric)))
    assert np.max(np.abs(ric - oracle)) < 1e-13 * scale


def test_ricci_matches_index_loop_transliteration():
    # independent implementation: same formula, explicit index loops instead
    # of einsum contractions
    grid = Grid(2, (16, 16), (2.0 * np.pi, 2.0 * np.pi))
    g = generic_metric_2d(grid)
    d = grid.dim
    ginv = np.linalg.inv(g)
    dg = [grid.d1(g, ax) for ax in range(d)]
    gam = np.zeros(grid.shape + (d, d, d))
    for k in range(d):
        for i in range(d):
            for j in range(d):
                acc = np.zeros(grid.shape)
                for l in range(d):
                    acc += ginv[..., k, l] * (
                        dg[i][..., j, l] + dg[j][..., i, l] - dg[l][..., i, j]
                    )
                gam[..., k, i, j] = 0.5 * acc
    dgam = [grid.d1(gam, ax) for ax in range(d)]
    ric = np.zeros(grid.shape + (d, d))
    for i in range(d):
        for j in range(d):
            t1 = np.zeros(grid.shape)
            t2 = np.zeros(grid.shape)
            t3 = np.zeros(grid.shape)
            t4 = np.zeros(grid.shape)
            for k in range(d):
                t1 += dgam[k][..., k, i, j]
                t2 += dgam[i][..., k, k, j]
                for l in range(d):
                    t3 += gam[..., k, k, l] * gam[..., l, i, j]
                    t4 += gam[..., k, i, l] * gam[..., l, k, j]
            ric[..., i, j] = t1 - t2 + t3 - t4
    ric = 0.5 * (ric + np.swapaxes(ric, -1, -2))
    got = geometry.ricci(grid, g)
    scale = max(float(np.max(np.abs(got))), 1e-30)
    assert np.max(np.abs(got - ric)) < 1e-12 * scale


def test_christoffel_symmetric_in_lower_indices():
    grid = Grid(2, (16, 16), (2.0 * np.pi, 2.0 * np.pi))
    gam = geometry.christoffel(grid, generic_metric_2d(grid))
    assert np.array_equal(gam, np.swapaxes(gam, -1, -2))


def test_scalar_curvature_second_order_convergence():
    # conformal metric with known continuum value R = -2 exp(-2w) lap w
    def err(n):
        grid = Grid(2, (n, n), (2.0 * np.pi, 2.0 * np.pi))
        X, Y = grid.coords()
        w = 0.05 * np.cos(X) + 0.03 * np.sin(Y) + 0.02 * np.sin(X) * np.cos(Y)
        lap_w = -0.05 * np.cos(X) - 0.03 * np.sin(Y) - 0.04 * np.sin(X) * np.cos(Y)
        R = geometry.scalar_curvature(grid, conformal_metric(grid, w))
        return float(np.max(np.abs(R + 2.0 * np.exp(-2.0 * w) * lap_w)))

    factor = err(32) / err(64)
    assert 3.2 < factor < 4.8


# ---------------------------------------------------------------------------
# Laplacian structure


def test_flat_laplacian_equals_plain_stencil():
    grid = Grid(2, (16, 16), (1.0, 2.0))
    rng = np.random.default_rng(11)
    s = rng.standard_normal(grid.shape)
    lap = geometry.laplace_beltrami(grid, flat_metric(grid), s)
    expected = grid.d2(s, 0) + grid.d2(s, 1)
    np.testing.assert_allclose(lap, expected, atol=1e-10 * np.max(np.abs(expected)))


def test_flat_laplacian_discrete_eigenmode():
    grid = Grid(1, (128,), (1.0,))
    x = grid.coords()[0]
    h = grid.h[0]
    s = np.sin(2.0 * np.pi * x)
    lam_h = 2.0 * (1.0 - np.cos(2.0 * np.pi * h)) / h**2
    lap = geometry.laplace_beltrami(grid, flat_metric(grid), s)
    np.testing.assert_allclose(lap, -lam_h * s, atol=1e-9)


def test_laplacian_self_adjoint_and_mass_conserving():
    grid = Grid(2, (48, 48), (2.0 * np.pi, 2.0 * np.pi))
    X, Y = grid.coords()
    w = 0.4 * np.cos(X) + 0.3 * np.sin(X + 2.0 * Y)
    g = conformal_metric(grid, w)
    u = 1.5 + 0.5 * np.sin(X) * np.cos(Y)
    v = 2.0 + 0.3 * np.cos(2.0 * X)
    vol = geometry.sqrt_det(g)
    Lu = geometry.laplace_beltrami(grid, g, u)
    Lv = geometry.laplace_beltrami(grid, g, v)
    norm = grid.integrate(np.abs(Lu * v), weight=vol)
    assert abs(grid.integrate(Lu * v, weight=vol)
               - grid.integrate(u * Lv, weight=vol)) < 1e-12 * norm
    assert abs(grid.integrate(Lu, weight=vol)) < 1e-12 * norm


def test_operators_commute_with_translations_bitwise():
    grid = Grid(2, (16, 16), (2.0 * np.pi, 2.0 * np.pi))
    g = generic_metric_2d(grid)
    s = 1.0 + 0.3 * np.sin(grid.coords()[0])
    shift = (5, 9)
    axes = (0, 1)
    assert np.array_equal(
        geometry.ricci(grid, np.roll(g, shift, axis=axes)),
        np.roll(geometry.ricci(grid, g), shift, axis=axes),
    )
    assert np.array_equal(
        geometry.laplace_beltrami(grid, np.roll(g, shift, axis=axes), np.roll(s, shift, axis=axes)),
        np.roll(geometry.laplace_beltrami(grid, g, s), shift, axis=axes),
    )


# ---------------------------------------------------------------------------
# gradients, Hessians, map tensors


def test_gradient_norm_flat_is_sum_of_squared_differences():
    grid = Grid(2, (24, 24), (2.0 * np.pi, 2.0 * np.pi))
    X, Y = grid.coords()
    s = np.sin(X) * np.cos(2.0 * Y)
    expected = grid.d1(s, 0) ** 2 + grid.d1(s, 1) ** 2
    np.testing.assert_allclose(
        geometry.gradient_norm_sq(grid, flat_metric(grid), s), expected, atol=1e-14
    )


def test_hessian_flat_reduces_to_second_differences():
    grid = Grid(2, (16, 16), (1.0, 1.0))
    rng = np.random.default_rng(4)
    s = rng.standard_normal(grid.shape)
    hess = geometry.hessian(grid, flat_metric(grid), s)
    assert np.array_equal(hess[..., 0, 0], grid.d2(s, 0))
    assert np.array_equal(hess[..., 1, 1], grid.d2(s, 1))
    mixed = 0.5 * (grid.d1(grid.d1(s, 0), 1) + grid.d1(grid.d1(s, 1), 0))
    assert np.array_equal(hess[..., 0, 1], mixed)
    assert np.array_equal(hess[..., 0, 1], hess[..., 1, 0])


def test_map_gram_tensor_is_positive_semidefinite():
    grid = Grid(2, (16, 16), (2.0 * np.pi, 2.0 * np.pi))
    X, Y = grid.coords()
    phi = np.stack([0.3 * np.sin(X), 0.2 * np.cos(X + Y)], axis=-1)
    outer = geometry.grad_phi_outer(grid, phi)
    assert np.array_equal(outer, np.swapaxes(outer, -1, -2))
    g = generic_metric_2d(grid)
    lam = geometry.eig_general(outer, g)
    assert np.min(lam) > -1e-14
    # trace identity: energy density is the g-trace of the Gram tensor
    np.testing.assert_allclose(
        geometry.energy_density(grid, g, phi), np.sum(lam, axis=-1), atol=1e-12
    )


def test_coupled_tensor_interpolates_between_curvature_and_map():
    grid = Grid(2, (16, 16), (2.0 * np.pi, 2.0 * np.pi))
    X, Y = grid.coords()
    phi = np.stack([0.3 * np.sin(X + Y)], axis=-1)
    g = generic_metric_2d(grid)
    ric = geometry.ricci(grid, g)
    outer = geometry.grad_phi_outer(grid, phi)
    # alpha = 0 returns the curvature tensor bitwise
    assert np.array_equal(geometry.s_tensor(grid, g, phi, 0.0), ric)
    s1 = geometry.s_tensor(grid, g, phi, 1.0)
    np.testing.assert_allclose(s1, ric - outer, atol=1e-15)
    # subtracting a PSD term can only lower the smallest generalized eigenvalue
    lam_ric = geometry.eig_general(ric, g)[..., 0]
    lam_s = geometry.eig_general(s1, g)[..., 0]
    assert np.all(lam_s <= lam_ric + 1e-12)
    # scalar version is the g-trace
    tr = np.einsum("...ij,...ij->...", geometry.metric_inverse(g), s1)
    np.testing.assert_allclose(geometry.s_scalar(grid, g, phi, 1.0), tr, atol=1e-12)


def test_generalized_eigenvalues_diagonal_oracle():
    g = np.diag([2.0, 0.5])[None, ...]
    a = np.diag([4.0, 1.0])[None, ...]
    # eigenvalues of g^{-1} a for diagonal pair: (2.0, 2.0)
    lam = geometry.eig_general(a, g)
    np.testing.assert_allclose(lam[0], [2.0, 2.0], atol=1e-14)
    a2 = np.diag([1.0, 2.0])[None, ...]
    lam2 = geometry.eig_general(a2, g)
    np.testing.assert_allclose(lam2[0], [0.5, 4.0], atol=1e-14)
    # ascending order is part of the contract
    assert np.all(np.diff(lam2, axis=-1) >= 0.0)


def test_generalized_eigenvalues_1d():
    g = np.full((5, 1, 1), 4.0)
    a = np.full((5, 1, 1), 2.0)
    np.testing.assert_allclose(geometry.eig_general(a, g), 0.5, atol=1e-15)


def test_tension_field_componentwise_in_flat_target():
    grid = Grid(2, (24, 24), (2.0 * np.pi, 2.0 * np.pi))
    X, Y = grid.coords()
    phi = np.stack([0.3 * np.sin(X), 0.1 * np.cos(Y)], axis=-1)
    g = generic_metric_2d(grid)
    tau = geometry.tension_field(grid, g, phi)
    assert tau.shape == grid.shape + (2,)
    for m in range(2):
        assert np.array_equal(tau[..., m],
                              geometry.laplace_beltrami(grid, g, phi[..., m]))


# ---------------------------------------------------------------------------
# closed-form 2x2 kernels against np.linalg references


def random_spd(rng, shape, floor=0.5):
    a = rng.standard_normal(shape + (2, 2))
    g = np.einsum("...ij,...kj->...ik", a, a) + floor * np.eye(2)
    return 0.5 * (g + np.swapaxes(g, -1, -2))


def reference_eig_general(A, g):
    """Eigenvalues of A relative to g by the symmetric square-root congruence."""
    w, V = np.linalg.eigh(g)
    ghalf_inv = np.einsum("...ij,...j,...kj->...ik", V, 1.0 / np.sqrt(w), V)
    B = np.einsum("...ij,...jk,...kl->...il", ghalf_inv, A, ghalf_inv)
    return np.linalg.eigvalsh(0.5 * (B + np.swapaxes(B, -1, -2)))


def assert_close_per_node(got, ref, rtol):
    """|got - ref| <= rtol * (largest |ref| entry) at every node."""
    scale = np.max(np.abs(ref).reshape(ref.shape[:2] + (-1,)), axis=-1)
    err = np.max(np.abs(got - ref).reshape(ref.shape[:2] + (-1,)), axis=-1)
    assert np.all(err <= rtol * scale), float(np.max(err / scale))


def test_metric_inverse_and_sqrt_det_match_linalg():
    g = random_spd(np.random.default_rng(21), (24, 24))
    assert_close_per_node(geometry.metric_inverse(g), np.linalg.inv(g), 1e-12)
    np.testing.assert_allclose(geometry.sqrt_det(g), np.sqrt(np.linalg.det(g)),
                               rtol=1e-12, atol=0.0)


def test_eig_general_matches_linalg_on_random_pairs():
    rng = np.random.default_rng(22)
    g = random_spd(rng, (24, 24))
    a = rng.standard_normal((24, 24, 2, 2))
    A = a + np.swapaxes(a, -1, -2)
    lam = geometry.eig_general(A, g)
    assert_close_per_node(lam, reference_eig_general(A, g), 1e-12)
    assert np.all(lam[..., 0] <= lam[..., 1])


@pytest.mark.parametrize("eps", [1e-6, 1e-9, 1e-12])
def test_eig_general_accurate_near_a_multiple_of_the_metric(eps):
    # A = c g + eps E: both eigenvalues sit within eps of c, where the
    # trace/determinant discriminant would lose about half the digits
    rng = np.random.default_rng(23)
    g = random_spd(rng, (24, 24))
    e = rng.standard_normal((24, 24, 2, 2))
    E = e + np.swapaxes(e, -1, -2)
    c = rng.uniform(-3.0, 3.0, (24, 24))[..., None, None]
    A = c * g + eps * E
    lam = geometry.eig_general(A, g)
    assert_close_per_node(lam, reference_eig_general(A, g), 1e-12)
    shifted = c[..., 0] + eps * reference_eig_general(E, g)
    assert_close_per_node(lam, shifted, 1e-12)


def test_no_einsum_in_the_package():
    # every contraction is written out over components, in an order that
    # is pinned bit for bit by the tests of the kernels that use them; an
    # einsum call, attribute or import anywhere in the package fails here
    package = Path(geometry.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias)
                    else node.value if isinstance(node, ast.Constant) else None)
            if name == "einsum":
                found.append(f"{path.name}:{node.lineno}")
    assert len(list(package.glob("*.py"))) > 10
    assert not found
