"""Reference Li-Yau checks: the per-snapshot code that reading the derived
layer's snapshot stacks replaced, kept as an oracle for bit-for-bit tests.

`check_global`, `check_local`, `fit_cprime` and `check_evolution_inequality`
are the earlier functions verbatim.  They loop over the reported snapshots
and read f = log u, f_t, |grad f|^2 and the Li-Yau side one snapshot at a
time from `Fields`, the earlier per-index methods of the layer, verbatim
but for `gradient_norm_sq`, which is the earlier geometry function's body.
Pass them a trajectory wrapped by `reference`: its ``derived`` is a
`Fields`, which hands everything else (curvature, distance fields, the
Laplacian) to the trajectory's own layer, so these checks share no
f, f_t or |grad f|^2 code with the ones they check.

The rest are helpers that no check calls, kept with their tests: the
coupled curvature tensor Ric - alpha dphi (x) dphi (`s_tensor`), its trace
(`s_scalar`) and the map's energy density (`energy_density`); the connection
Laplacian of a covector (`rough_laplacian_covector`), whose private kernel
the commutation identity reads; and the energy of an explicit space-time
path (`path_energy`), which the Harnack dynamic program must not exceed.
"""

import numpy as np

from rhflow import geometry
from rhflow.estimates import (C_TOL_DEFAULT, CPRIME_FLOOR, TOL_EIG_FACTOR, EstimateReport,
                              GateEmptyError, _report_indices, check_beta, check_positive,
                              extract_constants, global_bound, local_bound, tol_num)
from rhflow.flow import Trajectory
from rhflow.harnack import _floor_snapshot_index


def gradient_norm_sq(grid, g, s: np.ndarray) -> np.ndarray:
    """|grad s|^2 = g^{ij} d_i s d_j s with centered first differences."""
    ds = [grid.d1(s, ax) for ax in range(grid.dim)]
    inv = geometry.metric_fields(g).inv
    return geometry._trace_with(inv, geometry._sym(grid.dim, lambda i, j: ds[i] * ds[j]))


class Fields:
    """f, f_t, |grad f|^2 and the Li-Yau side one snapshot at a time, kept
    in per-index dicts; every other attribute is the trajectory's layer's."""

    def __init__(self, traj):
        self.layer = traj.derived
        self.grid = traj.grid
        self.snapshots = traj.snapshots
        self.times = traj.times
        self._f_t = {}
        self._grad_sq = {}

    def __getattr__(self, name):
        return getattr(self.layer, name)

    def log_u(self, i: int) -> np.ndarray:
        return np.log(self.snapshots[i].u)

    def f_t(self, i: int) -> np.ndarray:
        """d/dt of f at an interior snapshot, centered over its neighbours."""
        if not 0 < i < len(self.snapshots) - 1:
            raise ValueError(f"f_t needs an interior snapshot, got index {i}")
        if i not in self._f_t:
            times = self.times
            self._f_t[i] = ((self.log_u(i + 1) - self.log_u(i - 1))
                            / (times[i + 1] - times[i - 1]))
        return self._f_t[i]

    def grad_sq(self, i: int) -> np.ndarray:
        if i not in self._grad_sq:
            s = self.snapshots[i]
            self._grad_sq[i] = gradient_norm_sq(self.grid, s.metric, self.log_u(i))
        return self._grad_sq[i]

    def liyau(self, i: int, beta: float) -> np.ndarray:
        return self.grad_sq(i) - beta * self.f_t(i)


class reference:
    """A trajectory whose ``derived`` is a `Fields`; every other attribute
    is the trajectory's."""

    def __init__(self, traj):
        self.traj = traj
        self.derived = Fields(traj)

    def __getattr__(self, name):
        return getattr(self.traj, name)


def check_global(
    traj: Trajectory,
    beta: float = 1.0,
    c_tol: float = C_TOL_DEFAULT,
    tol_eig_factor: float = TOL_EIG_FACTOR,
) -> EstimateReport:
    """Gated check of the global gradient estimate over a trajectory.

    The gate requires nonnegative Ricci curvature pointwise (up to tol_eig);
    ungated points are counted and excluded.  Only interior snapshots with
    t > 0 are reported: the bound degenerates at t = 0 and the end snapshots
    carry first-order differencing error.
    """
    check_beta(beta)
    grid = traj.grid
    constants = extract_constants(traj, tol_eig_factor=tol_eig_factor)
    times = traj.times
    keep = _report_indices(times)
    lhs = np.stack([traj.derived.liyau(i, beta) for i in keep])
    alpha0 = traj.schedule.alpha0
    n = grid.dim
    rhs_t = global_bound(constants.k2, n, constants.c_phi, alpha0, times[keep])
    rhs = np.broadcast_to(
        rhs_t.reshape((-1,) + (1,) * grid.dim), lhs.shape
    ).copy()
    gate = constants.valid_mask[keep]
    if not np.any(gate):
        raise GateEmptyError("global-estimate hypothesis gate is empty on this run")
    tol, scale = tol_num(traj, c_tol, lhs)
    return EstimateReport(
        theorem="global",
        beta=beta,
        times=times[keep],
        lhs=lhs,
        rhs=rhs,
        margin=rhs - lhs,
        gate=gate,
        tol_num=tol,
        c_tol=c_tol,
        scale=scale,
        constants=constants.as_dict(),
        notes={"k_used": constants.k2, "alpha0": alpha0},
    )


def check_local(
    traj: Trajectory,
    beta: float,
    rho: float,
    x0,
    cprime: float,
    cprime_sq: float | None = None,
    c_tol: float = C_TOL_DEFAULT,
) -> EstimateReport:
    """Gated check of the local gradient estimate on the half ball.

    Constants come from the ball of radius rho around x0; margins are
    asserted on the ball of radius rho/2.  With cprime_sq given, the rho^2
    variant of the bound is evaluated alongside and both margins must clear
    the tolerance for the report to pass.  Reporting is restricted to
    interior snapshots with t > 0, as in the global check.  x0 is a node
    (`Grid.node`), echoed wrapped onto the torus.
    """
    check_beta(beta, strict=True)
    check_positive("rho", rho)
    grid = traj.grid
    constants = extract_constants(traj, region=(x0, rho))
    times = traj.times
    keep = _report_indices(times)
    lhs = np.stack([traj.derived.liyau(i, beta) for i in keep])
    gate = traj.derived.distance(x0)[keep] < 0.5 * rho
    if not np.any(gate):
        raise GateEmptyError("local-estimate gate (half ball) is empty on this run")
    n = grid.dim
    k1, k2 = constants.k1, constants.k2
    shape = (-1,) + (1,) * grid.dim
    rhs = np.broadcast_to(
        local_bound(beta, rho, times[keep], k1, k2, cprime, n, 1).reshape(shape),
        lhs.shape,
    ).copy()
    alt = None
    if cprime_sq is not None:
        rhs2 = np.broadcast_to(
            local_bound(beta, rho, times[keep], k1, k2, cprime_sq, n, 2).reshape(shape),
            lhs.shape,
        ).copy()
        alt = {
            "rho_power": 2,
            "cprime": cprime_sq,
            "rhs": rhs2,
            "margin": rhs2 - lhs,
        }
    tol, scale = tol_num(traj, c_tol, lhs)
    return EstimateReport(
        theorem="local",
        beta=beta,
        times=times[keep],
        lhs=lhs,
        rhs=rhs,
        margin=rhs - lhs,
        gate=gate,
        tol_num=tol,
        c_tol=c_tol,
        scale=scale,
        constants=constants.as_dict(),
        notes={"rho": rho, "x0": grid.node(x0), "cprime": cprime},
        alt=alt,
    )


def fit_cprime(
    traj: Trajectory,
    betas,
    rho: float | None = None,
    x0=None,
    shape: str = "local",
    rho_power: int = 1,
) -> float:
    """Smallest C' making the selected bound hold with margin >= 0, and at
    least CPRIME_FLOOR.

    shape="local" fits the half-ball estimate at the given rho and
    rho_power.  shape="harnack" fits the rho-free differential form
    |grad f|^2 - beta f_t <= C' b^2 (1/t + max(k1,k2)) + n b^2 k1/(4(b-1)),
    which is the inequality the Harnack integration actually consumes.
    """
    if shape not in ("local", "harnack"):
        raise ValueError("shape must be 'local' or 'harnack'")
    grid = traj.grid
    if shape == "local":
        if rho is None or x0 is None:
            raise ValueError("local fit needs rho and x0")
        check_positive("rho", rho)
        gate_all = traj.derived.distance(x0) < 0.5 * rho
    else:
        gate_all = np.ones((len(traj.snapshots),) + grid.shape, dtype=bool)
    constants = extract_constants(traj, region=(x0, rho) if shape == "local" else None)
    d = traj.derived
    times = traj.times
    keep = _report_indices(times)
    k1, k2 = constants.k1, constants.k2
    kbar = max(k1, k2)
    n = grid.dim
    best = CPRIME_FLOOR
    for beta in np.atleast_1d(betas):
        beta = float(beta)
        check_beta(beta, strict=True)
        b2 = beta * beta
        for i in keep:
            gate = gate_all[i]
            if not np.any(gate):
                continue
            lhs = d.liyau(i, beta)
            t = times[i]
            if shape == "local":
                numer = lhs - n * beta * k1 / (4.0 * (beta - 1.0))
                denom = b2 * (b2 / (rho**rho_power * (beta - 1.0)) + 1.0 / t + kbar)
            else:
                numer = lhs - n * b2 * k1 / (4.0 * (beta - 1.0))
                denom = b2 * (1.0 / t + kbar)
            best = max(best, float(np.max(numer[gate])) / denom)
    return best


def check_evolution_inequality(
    traj: Trajectory,
    beta: float,
    a: float,
    b: float,
    c_tol: float = C_TOL_DEFAULT,
) -> EstimateReport:
    """Check the evolution inequality for F = t (|grad f|^2 - beta f_t).

    For any splitting constants a, b > 0 with a + 2b = 1/beta the quantity F
    satisfies, pointwise,

        (Lap - d/dt) F >= -2 grad f . grad F
                          + (2 a beta t / n) (|grad f|^2 - f_t)^2
                          - (|grad f|^2 - beta f_t)
                          - 2 k1 beta t |grad f|^2
                          - (beta t n / 2b) max(k1^2, k2^2)
                          - (beta alpha0^2 n / 2b) C^2 / t
                          - 2 (beta - 1) alpha0 C |grad f|^2

    with the empirical constants of the run.  The margin LHS - RHS is
    asserted at every node (the bounds are self-satisfied by extraction).
    Interior snapshots only: F_t needs centered f_t on both neighbors.
    """
    check_beta(beta)
    if not (0 < a < np.inf and 0 < b < np.inf):
        raise ValueError("splitting constants a, b must be positive")
    if abs(a + 2.0 * b - 1.0 / beta) > 1e-12:
        raise ValueError("need a + 2 b = 1/beta to within 1e-12")
    grid = traj.grid
    S = len(traj.snapshots)
    if S < 5:
        raise ValueError("evolution-inequality check needs at least 5 snapshots")
    constants = extract_constants(traj)
    k1, k2, c_phi = constants.k1, constants.k2, constants.c_phi
    alpha0 = traj.schedule.alpha0
    n = grid.dim
    d = traj.derived
    times = traj.times
    keep = [i for i in range(2, S - 2) if times[i] > 0]
    if not keep:
        raise ValueError("no interior snapshots with t > 0")
    F = {j: times[j] * d.liyau(j, beta)
         for j in {j for i in keep for j in (i - 1, i, i + 1)}}
    lhs_list, rhs_list = [], []
    for i in keep:
        snap = traj.snapshots[i]
        mf, f, t = snap.metric, d.log_u(i), times[i]
        dt_c = times[i + 1] - times[i - 1]
        df = geometry._partials(grid, f)
        df_up = [geometry._dot(row, df) for row in mf.inv]
        F_t = (F[i + 1] - F[i - 1]) / dt_c
        lhs = d.laplacian(i)(F[i]) - F_t
        grad_f_grad_F = geometry._dot(df_up, geometry._partials(grid, F[i]))
        gs, ft = d.grad_sq(i), d.f_t(i)
        rhs = (
            -2.0 * grad_f_grad_F
            + (2.0 * a * beta * t / n) * (gs - ft) ** 2
            - d.liyau(i, beta)
            - 2.0 * k1 * beta * t * gs
            - (beta * t * n / (2.0 * b)) * max(k1 * k1, k2 * k2)
            - (beta * alpha0 * alpha0 * n / (2.0 * b)) * (c_phi * c_phi / t)
            - 2.0 * (beta - 1.0) * alpha0 * c_phi * gs
        )
        lhs_list.append(lhs)
        rhs_list.append(rhs)
    lhs = np.stack(lhs_list)
    rhs = np.stack(rhs_list)
    tol, scale = tol_num(traj, c_tol, lhs)
    return EstimateReport(
        theorem="evolution",
        beta=beta,
        times=times[keep],
        lhs=lhs,
        rhs=rhs,
        margin=lhs - rhs,
        gate=np.ones(lhs.shape, dtype=bool),
        tol_num=tol,
        c_tol=c_tol,
        scale=scale,
        constants=constants.as_dict(),
        notes={"a": a, "b": b, "alpha0": alpha0},
    )


def energy_density(grid, g, phi: np.ndarray) -> np.ndarray:
    """|grad phi|^2 = g^{ij} (dphi (x) dphi)_ij."""
    return geometry._trace_with(geometry.metric_fields(g).inv,
                                geometry._grad_phi_outer(grid, phi))


def s_tensor(grid, g, phi: np.ndarray, alpha: float) -> np.ndarray:
    """Coupled curvature tensor Ric - alpha * (dphi (x) dphi)."""
    return geometry.ricci(grid, g) - alpha * geometry.grad_phi_outer(grid, phi)


def s_scalar(grid, g, phi: np.ndarray, alpha: float) -> np.ndarray:
    """Trace of the coupled curvature tensor: R - alpha |grad phi|^2."""
    mf = geometry.metric_fields(g)
    return geometry.scalar_curvature(grid, mf) - alpha * energy_density(grid, mf, phi)


def rough_laplacian_covector(grid, g, omega: np.ndarray) -> np.ndarray:
    """Connection Laplacian g^{ab} (nabla^2 omega)_{ab i} of a covector field.

    omega has shape ``grid.shape + (d,)``.  Needed for the commutation
    identity between the Laplacian and the gradient.
    """
    mf = geometry.metric_fields(g)
    om = [omega[..., i] for i in range(grid.dim)]
    gam = geometry._christoffel(grid, mf)
    return np.stack(geometry._rough_laplacian_covector(grid, mf, om, gam), axis=-1)


def _segment_energy(grid, g, x_from, x_to, ds: float) -> float:
    delta = np.array(
        [grid.wrap_delta(a, b, ax) * grid.h[ax]
         for ax, (a, b) in enumerate(zip(x_from, x_to))]
    )
    gbar = 0.5 * (g[x_from] + g[x_to])
    return float(delta @ gbar @ delta) / ds


def path_energy(traj: Trajectory, nodes, t1: float, t2: float) -> float:
    """Energy of an explicit space-time polyline visiting `nodes` at uniform
    times from t1 to t2, metric frozen per segment at the floor snapshot."""
    grid = traj.grid
    nodes = [grid.node(x) for x in nodes]
    if len(nodes) < 2:
        raise ValueError("a path needs at least two nodes")
    if not t1 < t2:
        raise ValueError("need t1 < t2")
    K = len(nodes) - 1
    ds = (t2 - t1) / K
    floors = _floor_snapshot_index(traj.times, t1 + np.arange(K) * ds)
    total = 0.0
    for j, idx in enumerate(floors):
        g = traj.snapshots[idx].g
        total += _segment_energy(grid, g, nodes[j], nodes[j + 1], ds)
    return total
