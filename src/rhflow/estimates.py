"""Gradient-estimate harness: empirical constants, bounds, and gated checks.

Given a trajectory and a positive heat solution u riding on it, this module
evaluates both sides of the pointwise gradient estimates

    global form   |grad f|^2 - f_t        <=  sqrt(2) k n + (n/2 + sqrt(2) n C alpha0) / t
    local form    |grad f|^2 - beta f_t   <=  C' b^2 (b^2/(rho^p (b-1)) + 1/t + max(k1,k2))
                                            + n b k1 / (4 (b-1)),    b = beta

with f = log u, plus the differential identities used to derive them and the
evolution inequality for the Harnack quantity F = t (|grad f|^2 - beta f_t).

Hypothesis constants are extracted empirically from the trajectory (tightest
curvature bounds -k1 g <= Ric <= k2 g, map-gradient bound
dphi (x) dphi <= (C/t) g) and are echoed into every report.  Points where the
nonnegative-curvature gate of the global estimate fails are excluded from
assertions and counted, never silently dropped.

Everything time-like uses centered differences over stored snapshots
(one-sided at the trajectory ends), so the numeric tolerance of a report is
``tol_num = c_tol * (h_max^2 + dt_snapshot) * scale`` with
``scale = max |LHS|`` over the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .distance import geodesic_distance
from .flow import Trajectory
from .grid import Grid

TOL_EIG_FACTOR = 1e-8
C_TOL_DEFAULT = 10.0


class GateEmptyError(ValueError):
    """No point satisfies the hypothesis gate of a check."""


# ---------------------------------------------------------------------------
# field plumbing


def _log_fields(traj: Trajectory) -> list[np.ndarray]:
    return [np.log(s.u) for s in traj.snapshots]


def _time_derivative(fields: list[np.ndarray], times: np.ndarray) -> list[np.ndarray]:
    """d/dt of a per-snapshot field: centered inside, one-sided at the ends."""
    S = len(fields)
    if S < 2:
        raise ValueError("need at least 2 snapshots for a time derivative")
    out = []
    for i in range(S):
        if i == 0:
            out.append((fields[1] - fields[0]) / (times[1] - times[0]))
        elif i == S - 1:
            out.append((fields[-1] - fields[-2]) / (times[-1] - times[-2]))
        else:
            out.append((fields[i + 1] - fields[i - 1]) / (times[i + 1] - times[i - 1]))
    return out


def _report_indices(times) -> list[int]:
    """Snapshot indices where estimates are evaluated: interior (so f_t is a
    centered, second-order difference) and t > 0 (where the bounds exist).
    The trajectory ends use one-sided differences, whose first-order error
    swamps near-sharp margins, so they are never asserted on."""
    S = len(times)
    keep = [i for i in range(1, S - 1) if times[i] > 0]
    if not keep:
        raise ValueError("need at least 3 snapshots with interior t > 0 to report")
    return keep


def distance_fields(traj: Trajectory, x0) -> np.ndarray:
    """Geodesic distance from x0 at every snapshot, shape (S,) + grid.shape.

    Cached on the trajectory object; ball masks and local checks reuse it.
    """
    key = tuple(np.atleast_1d(x0).tolist())
    cache = getattr(traj, "_distance_cache", None)
    if cache is None:
        cache = {}
        traj._distance_cache = cache
    if key not in cache:
        cache[key] = np.stack(
            [geodesic_distance(traj.grid, s.g, key) for s in traj.snapshots]
        )
    return cache[key]


# ---------------------------------------------------------------------------
# hypothesis constants


@dataclass
class HypothesisConstants:
    """Tightest empirical bounds over the masked region of a trajectory.

    k1, k2:   -k1 g <= Ric <= k2 g  (k1 clipped below at 0)
    c_phi:    sup of t * max-eigenvalue of dphi (x) dphi relative to g
    ric_nonneg: whether Ric >= -tol_eig everywhere in the region
    valid_mask: per-snapshot-per-node gate Ric >= -tol_eig (False off-region)
    """

    k1: float
    k2: float
    c_phi: float
    ric_nonneg: bool
    tol_eig: float
    valid_mask: np.ndarray
    region: str = "all"
    n_points_masked: int = 0

    def as_dict(self) -> dict:
        return {
            "k1": self.k1,
            "k2": self.k2,
            "c_phi": self.c_phi,
            "ric_nonneg": self.ric_nonneg,
            "tol_eig": self.tol_eig,
            "region": self.region,
            "n_points_masked": self.n_points_masked,
        }


def extract_constants(
    traj: Trajectory,
    region: tuple | None = None,
    tol_eig_factor: float = TOL_EIG_FACTOR,
) -> HypothesisConstants:
    """Extract hypothesis constants over the whole trajectory or a ball.

    region, if given, is (x0, rho): constants are taken over the points with
    geodesic distance to x0 below rho at each snapshot.  Raises if the
    region mask is empty.
    """
    grid = traj.grid
    S = len(traj.snapshots)
    lam_min = np.empty((S,) + grid.shape)
    lam_max = np.empty((S,) + grid.shape)
    t_lam_outer = np.empty((S,) + grid.shape)
    for i, s in enumerate(traj.snapshots):
        lam_ric = geometry.eig_general(geometry.ricci(grid, s.metric), s.metric)
        lam_min[i] = lam_ric[..., 0]
        lam_max[i] = lam_ric[..., -1]
        lam_out = geometry.eig_general(geometry.grad_phi_outer(grid, s.phi), s.metric)
        t_lam_outer[i] = s.t * lam_out[..., -1]
    if region is None:
        mask = np.ones((S,) + grid.shape, dtype=bool)
        region_desc = "all"
    else:
        x0, rho = region
        mask = distance_fields(traj, x0) < rho
        region_desc = f"ball(x0={tuple(np.atleast_1d(x0).tolist())}, rho={rho:g})"
        if not np.any(mask):
            raise GateEmptyError(f"region mask is empty: {region_desc}")
    ric_scale = float(np.max(np.abs(np.where(mask, lam_min, 0.0))))
    ric_scale = max(ric_scale, float(np.max(np.abs(np.where(mask, lam_max, 0.0)))))
    tol_eig = tol_eig_factor * ric_scale
    masked_min = np.where(mask, lam_min, np.inf)
    masked_max = np.where(mask, lam_max, -np.inf)
    masked_outer = np.where(mask, t_lam_outer, -np.inf)
    valid = (lam_min >= -tol_eig) & mask
    return HypothesisConstants(
        k1=float(max(0.0, -np.min(masked_min))),
        k2=float(np.max(masked_max)),
        c_phi=float(max(0.0, np.max(masked_outer))),
        ric_nonneg=bool(np.all(valid[mask])),
        tol_eig=float(tol_eig),
        valid_mask=valid,
        region=region_desc,
        n_points_masked=int(np.sum(mask)),
    )


# ---------------------------------------------------------------------------
# pointwise quantities and closed-form bounds


def liyau_quantity(
    grid: Grid,
    snap,
    snap_next,
    beta: float = 1.0,
    snap_prev=None,
) -> np.ndarray:
    """|grad f|^2 - beta f_t for f = log u at snap's time.

    f_t is a forward difference to snap_next, or a centered difference when
    snap_prev is also given.  At beta the value equals the beta=1 value plus
    (beta - 1)(-f_t) exactly.
    """
    if np.any(snap.u <= 0) or np.any(snap_next.u <= 0):
        raise ValueError("heat field must be positive to take logarithms")
    f = np.log(snap.u)
    f_next = np.log(snap_next.u)
    if snap_prev is None:
        dt = snap_next.t - snap.t
        if dt <= 0:
            raise ValueError("snapshots must be in increasing time order")
        f_t = (f_next - f) / dt
    else:
        if np.any(snap_prev.u <= 0):
            raise ValueError("heat field must be positive to take logarithms")
        dt2 = snap_next.t - snap_prev.t
        if dt2 <= 0:
            raise ValueError("snapshots must be in increasing time order")
        f_t = (f_next - np.log(snap_prev.u)) / dt2
    return geometry.gradient_norm_sq(grid, snap.metric, f) - beta * f_t


def global_bound(k: float, n: int, c_phi: float, alpha0: float, t) -> np.ndarray:
    """Right side of the global gradient estimate,

        sqrt(2) k n + (n/2 + sqrt(2) n alpha0 C) / t.

    The coefficients come from optimizing the quadratic-root step of the
    maximum-principle argument (the root bound is (n/2)(1 + 2 s) with
    s^2 = 2 (t^2 k^2 + alpha0^2 C^2), then s <= sqrt(2)(t k + alpha0 C)).
    The static flat case reduces to the classic sharp n/(2t), which the
    Euclidean heat kernel attains with equality.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("the global bound is defined for t > 0 only")
    rt2 = np.sqrt(2.0)
    return rt2 * k * n + (n / 2.0 + rt2 * n * alpha0 * c_phi) / t


def local_bound(
    beta: float,
    rho: float,
    t,
    k1: float,
    k2: float,
    cprime: float,
    n: int,
    rho_power: int = 1,
) -> np.ndarray:
    """Right side of the local gradient estimate on the half ball.

    rho_power selects the printed rho scaling (1) or the variant with rho^2
    that the chain of cutoff inequalities actually produces (2); both are
    reported side by side downstream.
    """
    if beta <= 1:
        raise ValueError("the local bound needs beta > 1")
    if rho <= 0:
        raise ValueError("rho must be positive")
    if rho_power not in (1, 2):
        raise ValueError("rho_power must be 1 or 2")
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("the local bound is defined for t > 0 only")
    b2 = beta * beta
    rho_term = b2 / (rho**rho_power * (beta - 1.0))
    return cprime * b2 * (rho_term + 1.0 / t + max(k1, k2)) + n * beta * k1 / (
        4.0 * (beta - 1.0)
    )


def cprime_fallback(n: int, alpha0: float, c_phi: float, d4: float) -> float:
    """Analytic fallback for C' with the cutoff-derived constant d4 supplied
    by the caller (it is left symbolic by the derivation)."""
    return max(
        2.0 * n * d4,
        n * (d4 + 1.0 + alpha0 * c_phi / n + np.sqrt(2.0) * alpha0 * c_phi),
        n * (d4 + 2.0),
    )


# ---------------------------------------------------------------------------
# reports


@dataclass
class EstimateReport:
    """Per-snapshot, per-node evaluation of one estimate.

    ``margin = RHS - LHS`` is asserted only where ``gate`` is true; the
    report keeps the full fields so failures can be localized.  ``alt``
    optionally carries a second variant of the same check (the rho^2 local
    bound) for side-by-side emission.
    """

    theorem: str
    beta: float
    times: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    margin: np.ndarray
    gate: np.ndarray
    tol_num: float
    c_tol: float
    scale: float
    constants: dict
    notes: dict = field(default_factory=dict)
    alt: dict | None = None

    @property
    def gated_fraction(self) -> float:
        return float(np.mean(self.gate))

    @property
    def min_margin(self) -> float:
        if not np.any(self.gate):
            return float("nan")
        vals = [np.min(self.margin[self.gate])]
        if self.alt is not None:
            vals.append(np.min(self.alt["margin"][self.gate]))
        return float(min(vals))

    @property
    def worst(self) -> dict:
        """Earliest-snapshot, lowest-node location of the worst gated margin."""
        masked = np.where(self.gate, self.margin, np.inf)
        flat = masked.reshape(masked.shape[0], -1)
        pos = int(np.argmin(flat))
        snap_i, node = divmod(pos, flat.shape[1])
        return {
            "t": float(self.times[snap_i]),
            "snapshot": snap_i,
            "node": node,
            "margin": float(flat.reshape(-1)[pos]),
        }

    @property
    def ok(self) -> bool:
        return bool(np.any(self.gate)) and self.min_margin >= -self.tol_num

    def rows(self) -> list[dict]:
        """One summary row per snapshot for CSV emission."""
        out = []
        for i, t in enumerate(self.times):
            gate_i = self.gate[i]
            row = {"t": float(t), "gated_fraction": float(np.mean(gate_i))}
            if np.any(gate_i):
                m = np.where(gate_i, self.margin[i], np.inf).reshape(-1)
                row["min_margin"] = float(np.min(m))
                row["argmin_node"] = int(np.argmin(m))
            else:
                row["min_margin"] = float("nan")
                row["argmin_node"] = -1
            if self.alt is not None:
                ma = np.where(gate_i, self.alt["margin"][i], np.inf).reshape(-1)
                row["min_margin_alt"] = float(np.min(ma)) if np.any(gate_i) else float("nan")
            out.append(row)
        return out

    def summary(self) -> dict:
        out = {
            "theorem": self.theorem,
            "beta": self.beta,
            "ok": self.ok,
            "min_margin": self.min_margin,
            "tol_num": self.tol_num,
            "c_tol": self.c_tol,
            "scale": self.scale,
            "gated_fraction": self.gated_fraction,
            "worst": self.worst,
            "constants": self.constants,
            "notes": self.notes,
        }
        if self.alt is not None:
            out["alt"] = {k: v for k, v in self.alt.items() if k not in ("rhs", "margin")}
        return out


def _tol_num(grid: Grid, dt_snap: float, lhs: np.ndarray, c_tol: float) -> tuple[float, float]:
    scale = float(np.max(np.abs(lhs))) if lhs.size else 0.0
    return c_tol * (max(grid.h) ** 2 + dt_snap) * scale, scale


def check_global(
    traj: Trajectory,
    beta: float = 1.0,
    c_tol: float = C_TOL_DEFAULT,
    tol_eig_factor: float = TOL_EIG_FACTOR,
    constants: HypothesisConstants | None = None,
) -> EstimateReport:
    """Gated check of the global gradient estimate over a trajectory.

    The gate requires nonnegative Ricci curvature pointwise (up to tol_eig);
    ungated points are counted and excluded.  Only interior snapshots with
    t > 0 are reported: the bound degenerates at t = 0 and the end snapshots
    carry first-order differencing error.
    """
    grid = traj.grid
    if constants is None:
        constants = extract_constants(traj, tol_eig_factor=tol_eig_factor)
    fs = _log_fields(traj)
    times = traj.times
    fts = _time_derivative(fs, times)
    keep = _report_indices(times)
    lhs = np.stack(
        [
            geometry.gradient_norm_sq(grid, traj.snapshots[i].metric, fs[i]) - beta * fts[i]
            for i in keep
        ]
    )
    alpha0 = traj.schedule.alpha0
    n = grid.dim
    rhs_t = global_bound(constants.k2, n, constants.c_phi, alpha0, times[keep])
    rhs = np.broadcast_to(
        rhs_t.reshape((-1,) + (1,) * grid.dim), lhs.shape
    ).copy()
    gate = constants.valid_mask[keep]
    if not np.any(gate):
        raise GateEmptyError("global-estimate hypothesis gate is empty on this run")
    tol, scale = _tol_num(grid, traj.dt, lhs, c_tol)
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
    tol_eig_factor: float = TOL_EIG_FACTOR,
    constants: HypothesisConstants | None = None,
) -> EstimateReport:
    """Gated check of the local gradient estimate on the half ball.

    Constants come from the ball of radius rho around x0; margins are
    asserted on the ball of radius rho/2.  With cprime_sq given, the rho^2
    variant of the bound is evaluated alongside and both margins must clear
    the tolerance for the report to pass.  Reporting is restricted to
    interior snapshots with t > 0, as in the global check.
    """
    grid = traj.grid
    if constants is None:
        constants = extract_constants(
            traj, region=(x0, rho), tol_eig_factor=tol_eig_factor
        )
    fs = _log_fields(traj)
    times = traj.times
    fts = _time_derivative(fs, times)
    keep = _report_indices(times)
    lhs = np.stack(
        [
            geometry.gradient_norm_sq(grid, traj.snapshots[i].metric, fs[i]) - beta * fts[i]
            for i in keep
        ]
    )
    gate = distance_fields(traj, x0)[keep] < 0.5 * rho
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
    tol, scale = _tol_num(grid, traj.dt, lhs, c_tol)
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
        notes={"rho": rho, "x0": tuple(np.atleast_1d(x0).tolist()), "cprime": cprime},
        alt=alt,
    )


def fit_cprime(
    traj: Trajectory,
    betas,
    rho: float | None = None,
    x0=None,
    shape: str = "local",
    rho_power: int = 1,
    constants: HypothesisConstants | None = None,
    floor: float = 1e-12,
) -> float:
    """Smallest C' making the selected bound hold with margin >= 0.

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
        if constants is None:
            constants = extract_constants(traj, region=(x0, rho))
        gate_all = distance_fields(traj, x0) < 0.5 * rho
    else:
        if constants is None:
            constants = extract_constants(traj)
        gate_all = np.ones((len(traj.snapshots),) + grid.shape, dtype=bool)
    fs = _log_fields(traj)
    times = traj.times
    fts = _time_derivative(fs, times)
    keep = _report_indices(times)
    k1, k2 = constants.k1, constants.k2
    kbar = max(k1, k2)
    n = grid.dim
    best = floor
    for beta in np.atleast_1d(betas):
        beta = float(beta)
        if beta <= 1:
            raise ValueError("C' fitting needs beta > 1")
        b2 = beta * beta
        for i in keep:
            gate = gate_all[i]
            if not np.any(gate):
                continue
            lhs = (
                geometry.gradient_norm_sq(grid, traj.snapshots[i].metric, fs[i])
                - beta * fts[i]
            )
            t = times[i]
            if shape == "local":
                numer = lhs - n * beta * k1 / (4.0 * (beta - 1.0))
                denom = b2 * (b2 / (rho**rho_power * (beta - 1.0)) + 1.0 / t + kbar)
            else:
                numer = lhs - n * b2 * k1 / (4.0 * (beta - 1.0))
                denom = b2 * (1.0 / t + kbar)
            best = max(best, float(np.max(numer[gate])) / denom)
    return best


# ---------------------------------------------------------------------------
# differential identities behind the estimates

IDENTITY_NAMES = (
    "grad_sq_time",
    "laplacian_time",
    "commute_grad",
    "grad_sq_laplacian",
    "heat_log",
)


def identity_residuals(
    traj: Trajectory,
    indices=None,
    include_flow_correction: bool = True,
) -> dict:
    """Residual fields of the five differential identities along a run.

    grad_sq_time        d/dt |grad f|^2 = 2 S(grad f, grad f) + 2 grad f . grad f_t
    laplacian_time      d/dt (Lap f) = 2 <S, Hess f> + Lap f_t
                                        - 2 c <tension(phi) dphi, df>
    commute_grad        |Lap(df) - d(Lap f) - Ric(grad f)|_g   (reported as a norm)
    grad_sq_laplacian   Lap |grad f|^2 = 2 |Hess f|^2 + 2 Ric(grad f, grad f)
                                        + 2 grad f . grad(Lap f)
    heat_log            f_t = Lap f + |grad f|^2

    S is the coupled curvature tensor driving dg/dt = -2 S for the run's
    variant (zero for static runs).  The transport term in laplacian_time
    comes from differentiating the Christoffel contraction under the flow;
    the contracted second Bianchi identity cancels only its pure-curvature
    part, so dropping it (include_flow_correction=False) leaves a residual
    that converges to that term instead of zero whenever the map is active.

    Returns {"times": ..., "residuals": {name: array of shape
    (len(indices),) + grid.shape}, "scales": {name: max |side|}}; the scales
    are the largest magnitude either side of each identity reaches, the
    right yardstick for a relative tolerance.  Time derivatives are
    centered, so indices must be interior snapshots.
    """
    grid = traj.grid
    S = len(traj.snapshots)
    if S < 3:
        raise ValueError("identity residuals need at least 3 snapshots")
    if indices is None:
        indices = range(1, S - 1)
    indices = [int(i) for i in indices]
    if any(i < 1 or i > S - 2 for i in indices):
        raise ValueError("indices must be interior snapshots (centered stencil)")
    fs = _log_fields(traj)
    times = traj.times
    fts = _time_derivative(fs, times)

    def grad_sq(i):
        return geometry.gradient_norm_sq(grid, traj.snapshots[i].metric, fs[i])

    def lap_f(i):
        return geometry.laplace_beltrami(grid, traj.snapshots[i].metric, fs[i])

    out = {name: [] for name in IDENTITY_NAMES}
    scales = {name: 0.0 for name in IDENTITY_NAMES}

    def note_scale(name, *sides):
        for s in sides:
            scales[name] = max(scales[name], float(np.max(np.abs(s))))

    for i in indices:
        snap = traj.snapshots[i]
        g, phi, f = snap.metric, snap.phi, fs[i]
        dt_c = times[i + 1] - times[i - 1]
        ginv = geometry.metric_inverse(g)
        df = grid.partial(f)
        df_up = np.einsum("...ij,...j->...i", ginv, df)
        coup = traj.variant.coupling(traj.schedule, snap.t)
        ric = geometry.ricci(grid, g)
        if traj.variant.kind == "static":
            s_tensor = np.zeros_like(snap.g)
        else:
            s_tensor = ric - coup * geometry.grad_phi_outer(grid, phi)
        hess = geometry.hessian(grid, g, f)
        lap = lap_f(i)
        ft = fts[i]

        # 1: time derivative of the gradient square
        lhs1 = (grad_sq(i + 1) - grad_sq(i - 1)) / dt_c
        s_ff = np.einsum("...ab,...a,...b->...", s_tensor, df_up, df_up)
        rhs1 = 2.0 * s_ff + 2.0 * np.einsum(
            "...i,...i->...", df_up, grid.partial(ft)
        )
        out["grad_sq_time"].append(lhs1 - rhs1)
        note_scale("grad_sq_time", lhs1, rhs1)

        # 2: time derivative of the Laplacian
        lhs2 = (lap_f(i + 1) - lap_f(i - 1)) / dt_c
        hess_up = np.einsum("...ai,...bj,...ij->...ab", ginv, ginv, hess)
        s_hess = np.einsum("...ab,...ab->...", s_tensor, hess_up)
        rhs2 = 2.0 * s_hess + geometry.laplace_beltrami(grid, g, ft)
        if include_flow_correction and traj.variant.kind != "static":
            tension = geometry.tension_field(grid, g, phi)
            dphi = np.stack([grid.d1(phi, ax) for ax in range(grid.dim)], axis=-2)
            transport = np.einsum("...im,...m,...i->...", dphi, tension, df_up)
            rhs2 = rhs2 - 2.0 * coup * transport
        out["laplacian_time"].append(lhs2 - rhs2)
        note_scale("laplacian_time", lhs2, rhs2)

        # 3: commutation of Laplacian and gradient (norm of the vector residual)
        lap_df = geometry.rough_laplacian_covector(grid, g, df)
        d_lapf = grid.partial(lap)
        ric_df = np.einsum("...ij,...j->...i", ric, df_up)
        res3 = lap_df - d_lapf - ric_df
        out["commute_grad"].append(
            np.sqrt(np.einsum("...ij,...i,...j->...", ginv, res3, res3))
        )
        side3 = d_lapf + ric_df
        note_scale(
            "commute_grad",
            np.sqrt(np.einsum("...ij,...i,...j->...", ginv, lap_df, lap_df)),
            np.sqrt(np.einsum("...ij,...i,...j->...", ginv, side3, side3)),
        )

        # 4: Laplacian of the gradient square
        lhs4 = geometry.laplace_beltrami(grid, g, grad_sq(i))
        hess_sq = np.einsum("...ab,...ab->...", hess_up, hess)
        ric_ff = np.einsum("...ab,...a,...b->...", ric, df_up, df_up)
        rhs4 = 2.0 * hess_sq + 2.0 * ric_ff + 2.0 * np.einsum(
            "...i,...i->...", df_up, grid.partial(lap)
        )
        out["grad_sq_laplacian"].append(lhs4 - rhs4)
        note_scale("grad_sq_laplacian", lhs4, rhs4)

        # 5: the heat equation in log form
        out["heat_log"].append(ft - lap - grad_sq(i))
        note_scale("heat_log", ft, lap + grad_sq(i))

    return {
        "times": times[np.asarray(indices, dtype=int)],
        "residuals": {name: np.stack(out[name]) for name in IDENTITY_NAMES},
        "scales": scales,
    }


def check_identities(
    traj: Trajectory,
    c_tol: float = C_TOL_DEFAULT,
    indices=None,
    include_flow_correction: bool = True,
) -> dict:
    """Assert every identity residual is small relative to its own sides.

    The tolerance basis is h_max^2 + dt_snapshot^2 + dt_sub: second order in
    space, second order in the centered snapshot differences, first order in
    the integrator substep (explicit stepping biases measured time
    derivatives at that order).  All three quarter under the standard
    refinement (h/2, dt_snapshot/2, dt_sub/4).
    """
    res = identity_residuals(
        traj, indices=indices, include_flow_correction=include_flow_correction
    )
    grid = traj.grid
    basis = max(grid.h) ** 2 + traj.dt**2 + traj.dt_sub
    per = {}
    rows = []
    for name in IDENTITY_NAMES:
        max_abs = float(np.max(np.abs(res["residuals"][name])))
        scale = res["scales"][name]
        tol = c_tol * basis * scale
        per[name] = {"max_abs": max_abs, "scale": scale, "tol": tol, "ok": max_abs <= tol}
        rows.append({"identity": name, **per[name]})
    return {
        "theorem": "identities",
        "ok": all(p["ok"] for p in per.values()),
        "c_tol": c_tol,
        "tol_basis": basis,
        "include_flow_correction": include_flow_correction,
        "n_snapshots_used": len(res["times"]),
        "per_identity": per,
        "rows": rows,
    }


def check_evolution_inequality(
    traj: Trajectory,
    beta: float,
    a: float,
    b: float,
    c_tol: float = C_TOL_DEFAULT,
    tol_eig_factor: float = TOL_EIG_FACTOR,
    constants: HypothesisConstants | None = None,
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
    if a <= 0 or b <= 0:
        raise ValueError("splitting constants a, b must be positive")
    if abs(a + 2.0 * b - 1.0 / beta) > 1e-12:
        raise ValueError("need a + 2 b = 1/beta to within 1e-12")
    grid = traj.grid
    S = len(traj.snapshots)
    if S < 5:
        raise ValueError("evolution-inequality check needs at least 5 snapshots")
    if constants is None:
        constants = extract_constants(traj, tol_eig_factor=tol_eig_factor)
    k1, k2, c_phi = constants.k1, constants.k2, constants.c_phi
    alpha0 = traj.schedule.alpha0
    n = grid.dim
    fs = _log_fields(traj)
    times = traj.times
    fts = _time_derivative(fs, times)
    grad_sqs = [
        geometry.gradient_norm_sq(grid, s.metric, f) for s, f in zip(traj.snapshots, fs)
    ]
    F = [t * (gs - beta * ft) for t, gs, ft in zip(times, grad_sqs, fts)]
    keep = [i for i in range(2, S - 2) if times[i] > 0]
    if not keep:
        raise ValueError("no interior snapshots with t > 0")
    lhs_list, rhs_list = [], []
    for i in keep:
        snap = traj.snapshots[i]
        g, f, t = snap.metric, fs[i], times[i]
        dt_c = times[i + 1] - times[i - 1]
        ginv = geometry.metric_inverse(g)
        df = grid.partial(f)
        df_up = np.einsum("...ij,...j->...i", ginv, df)
        F_t = (F[i + 1] - F[i - 1]) / dt_c
        lhs = geometry.laplace_beltrami(grid, g, F[i]) - F_t
        grad_f_grad_F = np.einsum("...i,...i->...", df_up, grid.partial(F[i]))
        gs, ft = grad_sqs[i], fts[i]
        rhs = (
            -2.0 * grad_f_grad_F
            + (2.0 * a * beta * t / n) * (gs - ft) ** 2
            - (gs - beta * ft)
            - 2.0 * k1 * beta * t * gs
            - (beta * t * n / (2.0 * b)) * max(k1 * k1, k2 * k2)
            - (beta * alpha0 * alpha0 * n / (2.0 * b)) * (c_phi * c_phi / t)
            - 2.0 * (beta - 1.0) * alpha0 * c_phi * gs
        )
        lhs_list.append(lhs)
        rhs_list.append(rhs)
    lhs = np.stack(lhs_list)
    rhs = np.stack(rhs_list)
    tol, scale = _tol_num(grid, traj.dt, lhs, c_tol)
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
