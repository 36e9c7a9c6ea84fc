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
"""

import numpy as np

from rhflow import geometry
from rhflow.derived import curvature_fields
from rhflow.flow import (BlowUpError, C_STAB_DEFAULT, Snapshot, StabilityError, _check_method,
                         _constants, _require_stable, snapshot_count)
from rhflow.geometry import MetricFields, _sum, metric_fields
from rhflow.grid import Grid, shift


def _laplace(grid: Grid, mf: MetricFields, s: np.ndarray, faces: list) -> np.ndarray:
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
    return _laplace(grid, mf, s, faces if faces is not None else geometry.laplacian_faces(mf))


def tension_field(grid: Grid, g, phi: np.ndarray, faces: list | None = None) -> np.ndarray:
    mf = metric_fields(g)
    if faces is None:
        faces = geometry.laplacian_faces(mf)
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
        faces = geometry.laplacian_faces(mf)
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

    def __init__(self, grid: Grid, mf: MetricFields):
        self.grid, self.mf, self.faces = grid, mf, geometry.laplacian_faces(mf)

    def __call__(self, s: np.ndarray, out: np.ndarray) -> np.ndarray:
        out[...] = _laplace(self.grid, self.mf, s, self.faces)
        return out


class HeatStep:
    def __init__(self, grid: Grid, mf: MetricFields, dt: float, method: str, c_stab: float):
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
    curvature = curvature_fields(grid, initial, geometry.ricci(grid, metric))
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
