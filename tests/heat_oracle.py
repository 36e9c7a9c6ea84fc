"""Reference Laplacian and heat step: the allocating implementation that
`geometry.Laplacian` replaced, kept as an oracle for bit-for-bit tests.

`_laplace` and `step_heat` are the earlier code verbatim; `laplace_beltrami`
and `tension_field` are the earlier public wrappers around `_laplace`, so
that `step_heat` here runs the old arithmetic throughout.
"""

import numpy as np

from rhflow import geometry
from rhflow.flow import BlowUpError, C_STAB_DEFAULT, Snapshot, _require_stable
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
