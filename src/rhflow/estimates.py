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
dphi (x) dphi <= (C/t) g) and are echoed into every report.  Each check
takes them from `extract_constants`, a mask over the layer's curvature
fields; the global check sets its tol_eig_factor, the only check here whose
verdict reads the curvature gate.  Points where the nonnegative-curvature
gate of the global estimate fails are excluded from assertions and counted,
never silently dropped.

Everything time-like uses centered differences over stored snapshots and
is evaluated at interior snapshots only, so the numeric tolerance of a
report is ``tol_num = c_tol * (h_max^2 + dt_snapshot) * scale`` with
``scale = max |LHS|`` over the report (`tol_num`; the Harnack report uses
it too).  One builder, `_report`, assembles the margin reports of the
global, local and evolution checks from each check's own parts.

Every field a check reads (Ricci curvature and its eigenvalue bounds,
f = log u, f_t, |grad f|^2, the Li-Yau left side |grad f|^2 - beta f_t,
distance fields) comes from the trajectory's shared layer ``traj.derived``
(see the derived module), so running several checks on one trajectory
computes each field once.  f, f_t and |grad f|^2 are snapshot stacks there,
so the Li-Yau checks evaluate their formulas over all reported snapshots
at once (in parts of `derived.BATCH_NODES` nodes), with the per-node
arithmetic of one snapshot at a time; only each metric's Laplacian is
applied snapshot by snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import geometry
from .derived import CurvatureKernel, stack_rows
from .flow import Trajectory

TOL_EIG_FACTOR = 1e-8
C_TOL_DEFAULT = 10.0
# `fit_cprime` returns at least this, also when no margin binds.
CPRIME_FLOOR = 1e-12


class GateEmptyError(ValueError):
    """No point satisfies the hypothesis gate of a check."""


def check_beta(beta, strict: bool = False) -> None:
    """Refuse a beta that is not a finite number >= 1, or > 1 when strict.

    Every estimate here weighs f_t by a beta >= 1: the global bound and the
    evolution inequality hold from beta = 1, while the local bound, its C'
    fit and the complete Harnack floor divide by beta - 1."""
    if not (np.isfinite(beta) and (beta > 1 if strict else beta >= 1)):
        raise ValueError(f"needs a finite beta {'>' if strict else '>='} 1, got {beta!r}")


def check_positive(name: str, value) -> None:
    """Refuse a value that is not a positive finite number."""
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")


def check_rho(rho, beta: float | None = None) -> None:
    """Refuse a ball radius that is not a positive finite number, or whose
    square, times beta - 1 when a (checked) beta is given, is 0 or
    infinite: the local bound's rho^2 variant and its C' fit divide by
    rho^2 (beta - 1), and rho (beta - 1) lies between that and beta - 1."""
    check_positive("rho", rho)
    try:
        divisor = float(rho) ** 2 * (1.0 if beta is None else beta - 1.0)
    except OverflowError:  # a float power overflows by raising
        divisor = np.inf
    if not 0 < divisor < np.inf:
        times = "" if beta is None else f" times beta - 1 = {beta - 1.0!r}"
        raise ValueError(f"rho must have a positive finite square{times}, got {rho!r}")


# ---------------------------------------------------------------------------
# report snapshots and the numeric tolerance


def _report_indices(times) -> list[int]:
    """Snapshot indices where estimates are evaluated: interior (so f_t is a
    centered, second-order difference) and t > 0 (where the bounds exist).
    A one-sided difference at the trajectory ends would carry first-order
    error that swamps near-sharp margins, so the ends are never reported."""
    S = len(times)
    keep = [i for i in range(1, S - 1) if times[i] > 0]
    if not keep:
        raise ValueError("need at least 3 snapshots with interior t > 0 to report")
    return keep


def tol_num(traj: Trajectory, c_tol: float, *sides) -> tuple[float, float]:
    """(tol_num, scale) of a margin report: scale is the largest magnitude
    the given sides reach (0 if they are empty), and the tolerance is
    c_tol * (h_max^2 + dt_snapshot) * scale."""
    scale = max((float(np.max(np.abs(s))) for s in sides if np.size(s)), default=0.0)
    return float(c_tol * (max(traj.grid.h) ** 2 + traj.dt) * scale), scale


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
        """Every field but the mask, as the reports echo them."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "valid_mask"}


def extract_constants(
    traj: Trajectory,
    region: tuple | None = None,
    tol_eig_factor: float = TOL_EIG_FACTOR,
) -> HypothesisConstants:
    """Extract hypothesis constants over the whole trajectory or a ball.

    region, if given, is (x0, rho): constants are taken over the points with
    geodesic distance to x0 below rho at each snapshot.  A rho that
    `check_rho` refuses is a ValueError; an empty region mask is a
    `GateEmptyError`.  The curvature fields come from ``traj.derived``; a
    call masks them and takes the extremes.
    """
    if region is not None:
        check_rho(region[1])
    lam_min, lam_max, t_lam_outer = traj.derived.curvature
    if region is None:
        mask = np.ones(lam_min.shape, dtype=bool)
        region_desc = "all"
    else:
        x0, rho = region
        mask = traj.derived.distance(x0, rho) < rho
        region_desc = f"ball(x0={traj.grid.node(x0)}, rho={rho:g})"
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
    check_beta(beta, strict=True)
    check_rho(rho, beta)
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


def _per_snapshot(bound, lhs: np.ndarray) -> np.ndarray:
    """A bound with one value per snapshot, copied out to the shape of lhs."""
    return np.broadcast_to(bound.reshape((-1,) + (1,) * (lhs.ndim - 1)), lhs.shape).copy()


def _report(theorem: str, traj: Trajectory, beta: float, keep, lhs, rhs, margin, gate,
            constants: HypothesisConstants, c_tol: float, notes: dict,
            alt: dict | None = None) -> EstimateReport:
    """The margin report of one check, at the snapshots ``keep``; its
    tolerance and scale come from the left side (`tol_num`)."""
    tol, scale = tol_num(traj, c_tol, lhs)
    return EstimateReport(
        theorem=theorem, beta=beta, times=traj.times[keep], lhs=lhs, rhs=rhs,
        margin=margin, gate=gate, tol_num=tol, c_tol=c_tol, scale=scale,
        constants=constants.as_dict(), notes=notes, alt=alt,
    )


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
    constants = extract_constants(traj, tol_eig_factor=tol_eig_factor)
    keep = _report_indices(traj.times)
    lhs = traj.derived.liyau(keep, beta)
    alpha0 = traj.schedule.alpha0
    rhs = _per_snapshot(global_bound(constants.k2, traj.grid.dim, constants.c_phi, alpha0,
                                     traj.times[keep]), lhs)
    gate = constants.valid_mask[keep]
    if not np.any(gate):
        raise GateEmptyError("global-estimate hypothesis gate is empty on this run")
    return _report("global", traj, beta, keep, lhs, rhs, rhs - lhs, gate, constants, c_tol,
                   {"k_used": constants.k2, "alpha0": alpha0})


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
    check_rho(rho, beta)
    constants = extract_constants(traj, region=(x0, rho))
    keep = _report_indices(traj.times)
    lhs = traj.derived.liyau(keep, beta)
    gate = traj.derived.distance(x0, rho)[keep] < 0.5 * rho
    if not np.any(gate):
        raise GateEmptyError("local-estimate gate (half ball) is empty on this run")

    t, k1, k2 = traj.times[keep], constants.k1, constants.k2

    def rhs_of(c, rho_power):
        return _per_snapshot(local_bound(beta, rho, t, k1, k2, c, traj.grid.dim, rho_power), lhs)

    rhs, alt = rhs_of(cprime, 1), None
    if cprime_sq is not None:
        rhs2 = rhs_of(cprime_sq, 2)
        alt = {"rho_power": 2, "cprime": cprime_sq, "rhs": rhs2, "margin": rhs2 - lhs}
    return _report("local", traj, beta, keep, lhs, rhs, rhs - lhs, gate, constants, c_tol,
                   {"rho": rho, "x0": traj.grid.node(x0), "cprime": cprime}, alt)


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
        check_rho(rho)
        gate_all = traj.derived.distance(x0, rho) < 0.5 * rho
    else:
        gate_all = np.ones((len(traj.snapshots),) + grid.shape, dtype=bool)
    constants = extract_constants(traj, region=(x0, rho) if shape == "local" else None)
    d = traj.derived
    times = traj.times
    keep = _report_indices(times)
    k1, k2 = constants.k1, constants.k2
    kbar = max(k1, k2)
    n = grid.dim
    gate = gate_all[keep]
    t = times[keep]
    nodes = tuple(range(1, gate.ndim))
    live = np.any(gate, axis=nodes)  # snapshots with a gated node
    best = CPRIME_FLOOR
    for beta in np.atleast_1d(betas):
        beta = float(beta)
        check_beta(beta, strict=True)
        b2 = beta * beta
        lhs = d.liyau(keep, beta)
        if shape == "local":
            check_rho(rho, beta)
            numer = lhs - n * beta * k1 / (4.0 * (beta - 1.0))
            denom = b2 * (b2 / (rho**rho_power * (beta - 1.0)) + 1.0 / t + kbar)
        else:
            numer = lhs - n * b2 * k1 / (4.0 * (beta - 1.0))
            denom = b2 * (1.0 / t + kbar)
        top = np.max(np.where(gate, numer, -np.inf), axis=nodes)
        for m, den in zip(top[live], denom[live]):
            best = max(best, float(m) / den)
    return best


# ---------------------------------------------------------------------------
# differential identities behind the estimates

# The contractions below add products left to right in the order numpy's
# einsum does (numpy 2), so the residuals equal the einsum forms they
# replaced value for value: a sum over one index is a plain sum, and the
# four products of a double sum over 2x2 components are added in sequence
# for a quadratic form and pairwise for a full contraction.


def _form(t, x, y) -> np.ndarray:
    """t_ab x_a y_b over component lists: the products (t_ab x_a) y_b, a
    outer, added in sequence."""
    n = len(x)
    return geometry._sum((t[a][b] * x[a]) * y[b] for a in range(n) for b in range(n))


def _pairwise(terms: list) -> np.ndarray:
    """(t0 + t1) + (t2 + t3) of the four products of a 2x2 contraction, or
    the one product of a 1x1 one."""
    if len(terms) == 1:
        return terms[0]
    t0, t1, t2, t3 = terms
    return (t0 + t1) + (t2 + t3)


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

    Everything is computed over component lists of node fields, as in the
    geometry module: g^{ij} comes from the snapshot's MetricFields, Ricci
    from the layer (``traj.derived.ricci``, its missing metric classes
    formed in one pass), the Christoffel field of each metric class from
    one `derived.CurvatureKernel` bound per call, shared by Hess f and the
    rough Laplacian of df, and every Laplacian is applied by the layer's
    operator (``traj.derived.laplacian``).  The contractions keep the summation
    order of the einsum forms they replaced (see `_form`), so every
    residual and scale is unchanged to the last bit.
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
    d = traj.derived
    # fill what the loop reads of the layer's stacks and Ricci, one batched
    # pass each
    d.grad_sq(sorted({j for i in indices for j in (i - 1, i, i + 1)}))
    d.f_t(indices)
    d.ricci(indices)
    # one kernel for the call: the Christoffel field of each metric class
    # (shared by Hess f and the rough Laplacian of df) and dphi (x) dphi
    kernel = CurvatureKernel.bound(grid, traj.snapshots[0].phi.shape)
    held = gam = None  # the metric class the kernel holds, and its Christoffel field
    times = traj.times
    grad_sq = d.grad_sq
    laps = {}

    def lap_f(i):
        if i not in laps:
            laps[i] = d.laplacian(i)(d.log_u(i))
        return laps[i]

    # each residual is written into its row of a stack, not stacked at the end
    out = {name: np.empty((len(indices),) + grid.shape) for name in IDENTITY_NAMES}
    scales = {name: 0.0 for name in IDENTITY_NAMES}

    def note_scale(name, *sides):
        for s in sides:
            scales[name] = max(scales[name], float(np.max(np.abs(s))))

    n = grid.dim
    ab = [(a, b) for a in range(n) for b in range(n)]
    # "...ab,...ab->..." pairs its products as (t00 + t10) + (t01 + t11)
    ba = [(a, b) for b in range(n) for a in range(n)]

    def residuals_at(at: int, i: int) -> None:
        # writes row ``at`` of each residual; its temporaries are freed on return
        nonlocal gam, held
        # Laplacians of snapshots before i - 1 are not read again
        for j in laps.keys() - {i - 1, i, i + 1}:
            del laps[j]
        snap = traj.snapshots[i]
        mf, phi, f = snap.metric, snap.phi, d.log_u(i)
        inv = mf.inv
        dt_c = times[i + 1] - times[i - 1]
        df = geometry._partials(grid, f)
        df_up = [geometry._dot(row, df) for row in inv]
        coup = traj.variant.coupling(traj.schedule, snap.t)
        ric = d.ricci(i)
        if traj.variant.kind == "static":
            s_tensor = [[0.0] * n for _ in range(n)]
        else:
            np.copyto(kernel.phi, phi)
            outer = kernel.gradient()
            s_tensor = [[ric[a][b] - coup * outer[a][b] for b in range(n)] for a in range(n)]
        if d.metric_class[i] != held:
            kernel.load_metric(mf)
            gam, held = kernel.curvature.christoffel(), d.metric_class[i]
        hess = geometry._hessian(grid, f, df, gam)
        lap_df = geometry._rough_laplacian_covector(grid, mf, df, gam)
        ft = d.f_t(i)
        # the layer keeps its last operator only: snapshot i's uses come after
        # i - 1's and before i + 1's, so each metric's is built once
        lap_prev, lap = lap_f(i - 1), lap_f(i)
        op = d.laplacian(i)
        lap_ft, lhs4 = op(ft), op(grad_sq(i))
        transported = include_flow_correction and traj.variant.kind != "static"
        tension = geometry._tension(op, phi) if transported else None
        lhs2 = (lap_f(i + 1) - lap_prev) / dt_c

        # 1: time derivative of the gradient square
        lhs1 = (grad_sq(i + 1) - grad_sq(i - 1)) / dt_c
        s_ff = _form(s_tensor, df_up, df_up)
        rhs1 = 2.0 * s_ff + 2.0 * geometry._dot(df_up, geometry._partials(grid, ft))
        np.subtract(lhs1, rhs1, out=out["grad_sq_time"][at])
        note_scale("grad_sq_time", lhs1, rhs1)

        # 2: time derivative of the Laplacian
        hess_up = [[_pairwise([(inv[a][k] * inv[b][m]) * hess[k][m] for k, m in ab])
                    for b in range(n)] for a in range(n)]
        s_hess = _pairwise([s_tensor[a][b] * hess_up[a][b] for a, b in ba])
        rhs2 = 2.0 * s_hess + lap_ft
        if transported:
            dphi = [grid.d1(phi, ax) for ax in range(n)]
            transport = geometry._sum(
                (dphi[a][..., m] * tension[..., m]) * df_up[a]
                for a in range(n) for m in range(phi.shape[-1])
            )
            rhs2 = rhs2 - 2.0 * coup * transport
        np.subtract(lhs2, rhs2, out=out["laplacian_time"][at])
        note_scale("laplacian_time", lhs2, rhs2)

        # 3: commutation of Laplacian and gradient (norm of the vector residual)
        d_lapf = geometry._partials(grid, lap)
        ric_df = [geometry._dot(row, df_up) for row in ric]
        res3 = [x - y - z for x, y, z in zip(lap_df, d_lapf, ric_df)]
        np.sqrt(_form(inv, res3, res3), out=out["commute_grad"][at])
        side3 = [y + z for y, z in zip(d_lapf, ric_df)]
        note_scale(
            "commute_grad",
            np.sqrt(_form(inv, lap_df, lap_df)),
            np.sqrt(_form(inv, side3, side3)),
        )

        # 4: Laplacian of the gradient square
        hess_sq = _pairwise([hess_up[a][b] * hess[a][b] for a, b in ba])
        ric_ff = _form(ric, df_up, df_up)
        rhs4 = 2.0 * hess_sq + 2.0 * ric_ff + 2.0 * geometry._dot(df_up, d_lapf)
        np.subtract(lhs4, rhs4, out=out["grad_sq_laplacian"][at])
        note_scale("grad_sq_laplacian", lhs4, rhs4)

        # 5: the heat equation in log form
        np.subtract(ft - lap, grad_sq(i), out=out["heat_log"][at])
        note_scale("heat_log", ft, lap + grad_sq(i))

    for at, i in enumerate(indices):
        residuals_at(at, i)

    return {
        "times": times[np.asarray(indices, dtype=int)],
        "residuals": out,
        "scales": scales,
    }


def check_identities(
    traj: Trajectory,
    c_tol: float = C_TOL_DEFAULT,
    include_flow_correction: bool = True,
) -> dict:
    """Assert every identity residual is small relative to its own sides.

    The tolerance basis is h_max^2 + dt_snapshot^2 + dt_sub: second order in
    space, second order in the centered snapshot differences, first order in
    the integrator substep (explicit stepping biases measured time
    derivatives at that order).  All three quarter under the standard
    refinement (h/2, dt_snapshot/2, dt_sub/4).
    """
    res = identity_residuals(traj, include_flow_correction=include_flow_correction)
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
    keep = np.array(keep)
    lead = (-1,) + (1,) * n
    lhs = np.empty((len(keep),) + grid.shape)
    rhs = np.empty_like(lhs)
    for k in range(0, len(keep), d.batch):
        at = slice(k, k + d.batch)
        part = keep[at]
        # F at the part's snapshots and their neighbours, the snapshots J;
        # here, prev and after select the rows of J at, before and after
        # each snapshot of the part
        J = np.array(sorted({j for i in part for j in (i - 1, i, i + 1)}))
        here, prev, after = (stack_rows(np.searchsorted(J, part + k)) for k in (0, -1, 1))
        liyau = d.liyau(J, beta)
        F = times[J].reshape(lead) * liyau
        F_here = F[here]
        F_t = (F[after] - F[prev]) / (times[part + 1] - times[part - 1]).reshape(lead)
        lap_F = lhs[at]  # the left side, once F_t is subtracted
        for row, field, i in zip(lap_F, F_here, part):  # one Laplacian per metric
            d.laplacian(i)(field, out=row)
        lap_F -= F_t
        df = geometry._partials(grid, d.log_u(part))
        df_up = [geometry._dot(row, df) for row in d.inverse(part)]
        grad_f_grad_F = geometry._dot(df_up, geometry._partials(grid, F_here))
        gs, ft, t = d.grad_sq(part), d.f_t(part), times[part].reshape(lead)
        rhs[at] = (
            -2.0 * grad_f_grad_F
            + (2.0 * a * beta * t / n) * (gs - ft) ** 2
            - liyau[here]
            - 2.0 * k1 * beta * t * gs
            - (beta * t * n / (2.0 * b)) * max(k1 * k1, k2 * k2)
            - (beta * alpha0 * alpha0 * n / (2.0 * b)) * (c_phi * c_phi / t)
            - 2.0 * (beta - 1.0) * alpha0 * c_phi * gs
        )
    return _report("evolution", traj, beta, keep, lhs, rhs, lhs - rhs,
                   np.ones(lhs.shape, dtype=bool), constants, c_tol,
                   {"a": a, "b": b, "alpha0": alpha0})
