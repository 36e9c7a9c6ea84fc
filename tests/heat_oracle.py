"""Reference Laplacian, heat step and static run: the implementations that
`geometry.Laplacian` and stepping a stride per call replaced, kept as
oracles for bit-for-bit tests.

`_laplace` and `step_heat` are the earlier code verbatim; `laplace_beltrami`
and `tension_field` are the earlier public wrappers around `_laplace`, so
that `step_heat` here runs the old arithmetic throughout.  `HeatStep` and
`static_run` are the earlier per-substep loop of a static `flow.run`: one
heat step per substep, its positivity tested after each.  They are verbatim
but for the Laplacian, which here is `_laplace` with the metric's faces, so
that the reference shares no stepping code with the run it checks.

The rest is the moving substep as it was before a moving run stepped in a
workspace of bound in-place calls: `_christoffel`, `_ricci`,
`_grad_phi_outer`, `_flow_rhs`, `_flow_update` and the moving branch of
the run loop (`moving_run`), verbatim, with the metric validation
(`check_metric`, `MetricFields`), the eigenvalue pencil (`eig_general`) and
`curvature_fields` they call, so that the reference shares no curvature,
map-gradient, flow or validation code with the run it checks.  Its heat
step is `HeatStep` above.
"""

import numpy as np

import functools
import operator

from rhflow import geometry
from rhflow.flow import (BlowUpError, C_STAB_DEFAULT, FlowVariant, AlphaSchedule, Snapshot,
                         StabilityError, Trajectory, _check_map, _check_method, _constants,
                         _require_stable, snapshot_count)
from rhflow.geometry import PD_RTOL, MetricDegenerateError, _first_node, _metric_dim
from rhflow.grid import Grid, shift


def laplacian_faces(g) -> list:
    """Laplacian face coefficients, one node field per axis i: the mean
    1/2 (a_k + a_{k+1}) of a = sqrt(det g) g^{ii} over the face between
    nodes k and k+1, stored at node k."""
    mf = metric_fields(g)
    out = []
    for i in range(mf.dim):
        a = mf.sqrt_det * mf.inv[i][i]
        out.append(0.5 * (a + shift(a, -1, i)))
    return out


def _laplace(grid: Grid, mf: geometry.MetricFields, s: np.ndarray, faces: list) -> np.ndarray:
    w = mf.sqrt_det

    def term(i, j):
        if i != j:
            return grid.d1(w * mf.inv[i][j] * grid.d1(s, j), i)
        # face k sits between nodes k and k+1: mean coefficient, flux through it
        flux = faces[i] * (shift(s, -1, i) - s)
        return (flux - shift(flux, 1, i)) / (grid.h[i] * grid.h[i])

    return _sum(term(i, j) for i in range(grid.dim) for j in range(grid.dim)) / w


def laplace_beltrami(grid: Grid, g, s: np.ndarray, faces: list | None = None) -> np.ndarray:
    mf = metric_fields(g)
    return _laplace(grid, mf, s, faces if faces is not None else laplacian_faces(mf))


def tension_field(grid: Grid, g, phi: np.ndarray, faces: list | None = None) -> np.ndarray:
    mf = metric_fields(g)
    if faces is None:
        faces = laplacian_faces(mf)
    return np.stack([_laplace(grid, mf, phi[..., m], faces) for m in range(phi.shape[-1])],
                    axis=-1)


def step_heat(
    grid: Grid,
    snap: Snapshot,
    dt: float,
    method: str = "euler",
    c_stab: float = C_STAB_DEFAULT,
    faces: list | None = None,
) -> np.ndarray:
    """One explicit heat step du/dt = Lap_g u with the snapshot's metric.

    Positivity is asserted, never clamped: a non-positive result raises.
    ``faces``, the Laplacian face coefficients of ``snap.metric`` when the
    caller already has them, spare their recomputation.
    """
    mf = snap.metric
    _require_stable(grid, mf, dt, c_stab)
    if faces is None:
        faces = laplacian_faces(mf)
    if method == "euler":
        u_new = snap.u + dt * laplace_beltrami(grid, mf, snap.u, faces)
    elif method == "rk2":
        u_mid = snap.u + 0.5 * dt * laplace_beltrami(grid, mf, snap.u, faces)
        u_new = snap.u + dt * laplace_beltrami(grid, mf, u_mid, faces)
    else:
        raise ValueError(f"unknown method {method!r}; use 'euler' or 'rk2'")
    if not (u_new > 0).all():
        raise BlowUpError("heat solution lost positivity", snap.t + dt)
    return u_new


class Laplacian:
    """`_laplace` of one metric, called as `geometry.Laplacian` is."""

    def __init__(self, grid: Grid, mf: geometry.MetricFields):
        self.grid, self.mf, self.faces = grid, mf, laplacian_faces(mf)

    def __call__(self, s: np.ndarray, out: np.ndarray) -> np.ndarray:
        out[...] = _laplace(self.grid, self.mf, s, self.faces)
        return out


class HeatStep:
    def __init__(self, grid: Grid, mf: geometry.MetricFields, dt: float, method: str,
                 c_stab: float):
        _require_stable(grid, mf, dt, c_stab)
        self.lap = Laplacian(grid, mf)
        _check_method(method)
        self.dt, self.rk2 = dt, method == "rk2"
        self._dlap, self._mid = np.empty(grid.shape), np.empty(grid.shape)

    def __call__(self, u: np.ndarray, t_new: float) -> np.ndarray:
        """u one step later, as a new array; positivity is asserted (NaN
        fails too), never clamped: a BlowUpError at t_new."""
        dt, dlap = self.dt, self._dlap
        if self.rk2:
            np.multiply(self.lap(u, out=dlap), 0.5 * dt, out=dlap)
            self.lap(np.add(u, dlap, out=self._mid), out=dlap)
        else:
            self.lap(u, out=dlap)
        u_new = np.add(u, np.multiply(dlap, dt, out=dlap))
        if not u_new.min() > 0:
            raise BlowUpError("heat solution lost positivity", t_new)
        return u_new


def static_run(grid: Grid, initial: Snapshot, T: float, dt_sub: float, substride: int,
               method: str = "euler", c_stab: float = C_STAB_DEFAULT):
    """(times, us, constants, halt_reason) of a static `flow.run` from
    ``initial`` to T, stepped one substep at a time."""
    n_snaps = snapshot_count(T - initial.t, dt_sub, substride)
    t, u, metric = initial.t, initial.u, initial.metric
    curvature = curvature_fields(grid, initial, ricci(grid, metric))
    heat = None
    times, us, constants = [t], [u], [_constants(t, curvature)]
    halt = None
    step_index = 0
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(n_snaps):
                for _ in range(substride):
                    if heat is None:
                        heat = HeatStep(grid, metric, dt_sub, method, c_stab)
                    u_new = heat(u, t + dt_sub)
                    u = u_new
                    step_index += 1
                    # exact time bookkeeping: t derived from the step counter
                    t = initial.t + step_index * dt_sub
                times.append(t)
                us.append(u)
                constants.append(_constants(t, curvature))
    except (BlowUpError, StabilityError) as exc:
        t_fail = getattr(exc, "t", initial.t + (step_index + 1) * dt_sub)
        halt = f"{exc} (halted at t={t_fail:g})"
    return times, us, constants, halt


# ---------------------------------------------------------------------------
# the moving substep


def min_metric_eigenvalue(g: np.ndarray) -> np.ndarray:
    if _metric_dim(g) == 1:
        return g[..., 0, 0]
    a, b, c = g[..., 0, 0], g[..., 0, 1], g[..., 1, 1]
    return 0.5 * (a + c) - np.hypot(0.5 * (a - c), b)


def check_metric(g: np.ndarray) -> np.ndarray:
    d = _metric_dim(g)
    finite = np.isfinite(g)
    if not finite.all():
        node = _first_node(~np.all(finite, axis=(-2, -1)))
        raise MetricDegenerateError(
            f"metric has non-finite entries at node {node}: {g[node].tolist()}", node=node
        )
    if d == 2 and not np.array_equal(g[..., 0, 1], g[..., 1, 0]):
        raise ValueError("metric is not stored symmetric")
    lam = min_metric_eigenvalue(g)
    tr = g[..., 0, 0] if d == 1 else g[..., 0, 0] + g[..., 1, 1]
    bad = lam <= PD_RTOL * tr
    if bad.any():
        node = _first_node(bad)
        raise MetricDegenerateError(
            f"metric degenerate at node {node}: min eigenvalue "
            f"{lam[node]:g} <= {PD_RTOL:g} * trace {tr[node]:g}",
            node=node,
            eigenvalue=float(lam[node]),
        )
    return lam


def MetricFields(g: np.ndarray) -> geometry.MetricFields:
    """The earlier ``MetricFields(g)``, assembled as a `geometry.MetricFields`."""
    min_eigenvalue = float(np.min(check_metric(g)))
    d = g.shape[-1]
    comp = [[g[..., i, j] for j in range(d)] for i in range(d)]
    c = comp
    det = c[0][0] if d == 1 else c[0][0] * c[1][1] - c[0][1] * c[0][1]
    if d == 1:
        inv = [[1.0 / det]]
    else:
        off = -c[0][1] / det
        inv = [[c[1][1] / det, off], [off, c[0][0] / det]]
    return geometry.MetricFields._assembled(g, comp, inv, np.sqrt(det), min_eigenvalue)


def metric_fields(g) -> geometry.MetricFields:
    return g if isinstance(g, geometry.MetricFields) else MetricFields(g)


def _sym(d: int, fn) -> list:
    out = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            out[i][j] = out[j][i] = fn(i, j)
    return out


def _sum(terms) -> np.ndarray:
    return functools.reduce(operator.add, terms)


def _dot(xs, ys) -> np.ndarray:
    return _sum(x * y for x, y in zip(xs, ys))


def _stack2(t) -> np.ndarray:
    return np.stack([np.stack(row, axis=-1) for row in t], axis=-2)


def _christoffel(grid: Grid, mf) -> list:
    """G[k][i][j] as node fields; G[k][i][j] and G[k][j][i] are one array."""
    d = mf.dim
    dg = [grid.d1(mf.g, ax) for ax in range(d)]  # dg[a][..., b, c] = d_a g_bc
    # first kind: G_lij = 1/2 (d_i g_jl + d_j g_il - d_l g_ij)
    first = [
        _sym(d, lambda i, j, l=l: 0.5 * (dg[i][..., j, l] + dg[j][..., i, l] - dg[l][..., i, j]))
        for l in range(d)
    ]
    return [
        _sym(d, lambda i, j, k=k: _dot(mf.inv[k], [first[l][i][j] for l in range(d)]))
        for k in range(d)
    ]


def _ricci(grid: Grid, mf) -> list:
    """Symmetric Ricci components R[i][j]."""
    d = mf.dim
    gam = _christoffel(grid, mf)
    tr = [_sum(gam[k][k][j] for k in range(d)) for j in range(d)]
    dtr = [[grid.d1(tr[j], i) for j in range(d)] for i in range(d)]  # dtr[i][j] = d_i G^k_kj

    def comp(i, j):
        t1 = _sum(grid.d1(gam[k][i][j], k) for k in range(d))
        # the raw contraction is symmetrized: only d_i G^k_kj is not
        # symmetric in (i, j) on the grid
        t2 = dtr[i][j] if i == j else 0.5 * (dtr[i][j] + dtr[j][i])
        t3 = _dot(tr, [gam[l][i][j] for l in range(d)])
        t4 = _dot([gam[k][i][l] for k in range(d) for l in range(d)],
                  [gam[l][k][j] for k in range(d) for l in range(d)])
        return t1 - t2 + t3 - t4

    return _sym(d, comp)


def ricci(grid: Grid, g) -> np.ndarray:
    return _stack2(_ricci(grid, metric_fields(g)))


def _grad_phi_outer(grid: Grid, phi: np.ndarray) -> list:
    dphi = [grid.d1(phi, ax) for ax in range(grid.dim)]  # dphi[i][..., m] = d_i phi^m
    return _sym(grid.dim, lambda i, j: np.sum(dphi[i] * dphi[j], axis=-1))


def grad_phi_outer(grid: Grid, phi: np.ndarray) -> np.ndarray:
    return _stack2(_grad_phi_outer(grid, phi))


def _tension(lap, phi: np.ndarray) -> np.ndarray:
    out = np.empty(phi.shape)
    for m in range(phi.shape[-1]):
        lap(phi[..., m], out=out[..., m])
    return out


def eig_general(A: np.ndarray, g) -> np.ndarray:
    mf = metric_fields(g)
    if mf.dim == 1:
        return A[..., 0, 0:1] / mf.g[..., 0, 0:1]
    g00, g01 = mf.comp[0][0], mf.comp[0][1]
    a00, a11 = A[..., 0, 0], A[..., 1, 1]
    a01 = 0.5 * (A[..., 0, 1] + A[..., 1, 0])
    # L = [[l00, 0], [l10, l11]]: l00^2 = g00, l10 = c l00, l00 l11 = sqrt(det g)
    c = g01 / g00
    b00 = a00 / g00
    b01 = (a01 - c * a00) / mf.sqrt_det
    b11 = (a11 - c * (2.0 * a01 - c * a00)) * mf.inv[1][1]  # g00 / det g
    mean = 0.5 * (b00 + b11)
    rad = np.hypot(0.5 * (b00 - b11), b01)
    return np.stack([mean - rad, mean + rad], axis=-1)


def curvature_fields(grid, snap, ric: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    lam_ric = eig_general(ric, snap.metric)
    lam_outer = eig_general(grad_phi_outer(grid, snap.phi), snap.metric)
    return lam_ric[..., 0], lam_ric[..., -1], lam_outer[..., -1]


def _new_metric(g: np.ndarray, t: float):
    """Validate a stepped metric; a degenerate one is a blow-up at time t."""
    try:
        return MetricFields(g)
    except MetricDegenerateError as exc:
        raise BlowUpError(f"metric degenerate after step: {exc}", t) from exc


def _flow_rhs(grid: Grid, variant: FlowVariant, schedule: AlphaSchedule, t, mf, phi,
              ric=None, lap=None):
    """Right-hand sides (dg/dt, dphi/dt) for the metric/map system; ``ric``
    and ``lap`` are the Ricci tensor and `geometry.Laplacian` of ``mf`` if
    the caller already has them."""
    coup = variant.coupling(schedule, t)
    if ric is None:
        ric = ricci(grid, mf)
    if lap is None:
        lap = Laplacian(grid, mf)
    outer = grad_phi_outer(grid, phi)
    dg = -2.0 * ric + (2.0 * coup) * outer
    if variant.kind == "warped_product":
        dphi = _tension(lap, phi) - variant.mu * np.exp(-2.0 * phi)
    else:
        dphi = _tension(lap, phi)
    return dg, dphi


def _flow_update(grid: Grid, variant: FlowVariant, schedule: AlphaSchedule, method: str,
                 t: float, dt: float, g, phi, mf, ric, lap) -> tuple:
    """(g, phi, metric) one flow step of dt after time t, for a moving
    variant and a checked method; ``ric`` and ``lap`` are as in
    `_flow_rhs`.  The new metric is validated once and the new map checked
    finite once; the midpoint metric of an RK2 step is validated too."""
    t_new = t + dt
    if method == "euler":
        dg, dphi = _flow_rhs(grid, variant, schedule, t, mf, phi, ric, lap)
        g_new = g + dt * dg
        phi_new = phi + dt * dphi
    else:
        dg1, dphi1 = _flow_rhs(grid, variant, schedule, t, mf, phi, ric, lap)
        g_mid = g + 0.5 * dt * dg1
        g_mid = 0.5 * (g_mid + np.swapaxes(g_mid, -1, -2))
        phi_mid = phi + 0.5 * dt * dphi1
        mid = _new_metric(g_mid, t + 0.5 * dt)
        dg2, dphi2 = _flow_rhs(grid, variant, schedule, t + 0.5 * dt, mid, phi_mid)
        g_new = g + dt * dg2
        phi_new = phi + dt * dphi2
    # keep the stored metric exactly symmetric
    g_new = 0.5 * (g_new + np.swapaxes(g_new, -1, -2))
    if not np.isfinite(phi_new).all():
        raise BlowUpError("map field became non-finite", t_new)
    return g_new, phi_new, _new_metric(g_new, t_new)


def moving_run(grid: Grid, variant: FlowVariant, schedule: AlphaSchedule, initial: Snapshot,
               T: float, dt_sub: float, substride: int, method: str = "euler",
               c_stab: float = C_STAB_DEFAULT) -> Trajectory:
    """The earlier `flow.run` of a moving variant: one heat step and one
    flow step per substep, a Snapshot assembled at each stored stride."""
    if substride < 1:
        raise ValueError("substride must be a positive integer")
    span = T - initial.t
    if span < 0:
        raise ValueError("T must be >= the initial snapshot time")
    n_snaps = snapshot_count(span, dt_sub, substride)
    if n_snaps:
        _check_map(variant, initial.phi)
    t, g, phi, u, metric = initial.t, initial.g, initial.phi, initial.u, initial.metric
    ric = ricci(grid, metric)  # of metric, or None
    curvature = curvature_fields(grid, initial, ric)  # of metric and phi, or None
    heat = None  # of metric, built on first use
    snaps = [initial]
    constants = [_constants(t, curvature)]
    alphas = [float(schedule(t))]
    halt = None
    step_index = 0
    try:
        # an overflow halts the run naming the node; numpy's warning would repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(n_snaps):
                for _ in range(substride):
                    if heat is None:
                        heat = HeatStep(grid, metric, dt_sub, method, c_stab)
                    u_new = heat(u, t + dt_sub)
                    # the flow reads g and phi only: it steps the pre-heat state
                    g, phi, metric = _flow_update(grid, variant, schedule, method, t,
                                                  dt_sub, g, phi, metric, ric, heat.lap)
                    ric = curvature = heat = None
                    u = u_new
                    step_index += 1
                    # exact time bookkeeping: t derived from the step counter
                    t = initial.t + step_index * dt_sub
                snap = Snapshot._unchecked(t, g, phi, u, metric)
                snaps.append(snap)
                if ric is None:
                    ric = ricci(grid, metric)
                if curvature is None:
                    curvature = curvature_fields(grid, snap, ric)
                constants.append(_constants(t, curvature))
                alphas.append(float(schedule(t)))
    except (BlowUpError, StabilityError) as exc:
        t_fail = getattr(exc, "t", initial.t + (step_index + 1) * dt_sub)
        halt = f"{exc} (halted at t={t_fail:g})"
    return Trajectory(grid=grid, variant=variant, schedule=schedule, snapshots=snaps,
                      dt=dt_sub * substride, dt_sub=dt_sub, halt_reason=halt,
                      constants=constants, alphas=alphas)
