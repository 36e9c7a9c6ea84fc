"""Time stepping for the coupled metric/map flow and the heat equation.

The metric and map evolve by one of three variants:

``rh_alpha``        dg/dt = -2 Ric + 2 alpha(t) dphi (x) dphi,   dphi/dt = tension(phi)
``warped_product``  dg/dt = -2 Ric + 2 m dphi (x) dphi,          dphi/dt = Lap phi - mu exp(-2 phi)
``static``          frozen metric and map

and a positive scalar u rides along solving du/dt = Lap_g u in the evolving
metric.  One integration substep applies the heat update with the current
metric, then the flow update (first-order operator splitting).  Explicit
Euler is the default; an RK2 midpoint rule is available per step.

Stability is enforced, not assumed: every step requires
``dt <= c_stab * h_min^2 * min_eig(g)`` and refuses to run otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .derived import TrajectoryFields, curvature_fields
from .geometry import MetricDegenerateError, MetricFields, metric_fields
from .grid import Grid

C_STAB_DEFAULT = 0.2


class StabilityError(ValueError):
    """Requested dt violates the explicit-step stability bound."""


class BlowUpError(RuntimeError):
    """A field left the admissible set (degenerate metric, non-finite map,
    non-positive heat solution) during a step."""

    def __init__(self, message: str, t: float):
        super().__init__(message)
        self.t = t


ALPHA_FORMS = ("constant", "linear_decay", "exp_decay")


@dataclass(frozen=True)
class AlphaSchedule:
    """Non-increasing coupling schedule alpha(t) with floor alpha_bar >= 0."""

    alpha0: float
    alpha_bar: float = 0.0
    form: str = "constant"
    rate: float = 0.0

    def __post_init__(self):
        for name in ("alpha0", "alpha_bar", "rate"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.form not in ALPHA_FORMS:
            raise ValueError(f"unknown schedule form {self.form!r}; use one of {ALPHA_FORMS}")
        if self.alpha_bar < 0:
            raise ValueError("alpha_bar must be >= 0")
        if self.alpha0 < self.alpha_bar:
            raise ValueError("alpha0 must be >= alpha_bar")
        if self.rate < 0:
            raise ValueError("rate must be >= 0")

    def __call__(self, t) -> float | np.ndarray:
        if self.form == "constant":
            return np.broadcast_to(self.alpha0, np.shape(t)).astype(float) if np.ndim(t) else self.alpha0
        if self.form == "linear_decay":
            return np.maximum(self.alpha_bar, self.alpha0 - self.rate * np.asarray(t, dtype=float))
        return self.alpha_bar + (self.alpha0 - self.alpha_bar) * np.exp(
            -self.rate * np.asarray(t, dtype=float)
        )


VARIANT_KINDS = ("rh_alpha", "warped_product", "static")


@dataclass(frozen=True)
class FlowVariant:
    """Which coupled flow to run.  warped_product carries the fiber dimension
    m >= 1 and the fiber Einstein constant mu (and requires a 1-component map)."""

    kind: str = "rh_alpha"
    m: int = 1
    mu: float = 0.0

    def __post_init__(self):
        if self.kind not in VARIANT_KINDS:
            raise ValueError(f"unknown flow variant {self.kind!r}; use one of {VARIANT_KINDS}")
        if self.kind == "warped_product" and self.m < 1:
            raise ValueError("warped_product fiber dimension m must be >= 1")
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu!r}")

    def coupling(self, schedule: AlphaSchedule, t: float) -> float:
        """Coefficient of dphi (x) dphi in the metric equation at time t."""
        if self.kind == "rh_alpha":
            return float(schedule(t))
        if self.kind == "warped_product":
            return float(self.m)
        return 0.0


@dataclass(frozen=True)
class Snapshot:
    """State at one instant: metric g, map phi, heat solution u.

    ``metric`` holds the validated MetricFields of g.  It is built from g
    unless one for the same array is passed in, so snapshots sharing a
    metric array (all of a static run's) validate it only once.

    Constructing a Snapshot checks it: the metric (unless passed in), phi
    finite and u positive everywhere.  The stepping code does not construct
    snapshots this way per substep; it checks each field where it changes
    (u in ``step_heat``, phi and the metric in ``step_flow``) and assembles
    the result with ``_unchecked``.
    """

    t: float
    g: np.ndarray
    phi: np.ndarray
    u: np.ndarray
    metric: MetricFields | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.metric is None:
            object.__setattr__(self, "metric", MetricFields(self.g))
        elif self.metric.g is not self.g:
            raise ValueError("metric fields were built from a different array than g")
        if not np.all(np.isfinite(self.phi)):
            raise BlowUpError("map field has non-finite values", self.t)
        if not np.all(self.u > 0):
            raise BlowUpError("heat solution is not positive everywhere", self.t)

    @classmethod
    def _unchecked(cls, t, g, phi, u, metric: MetricFields) -> "Snapshot":
        """A snapshot of fields that have just been checked: ``metric`` built
        from ``g``, ``phi`` finite and ``u`` positive.  Runs no check."""
        snap = object.__new__(cls)
        snap.__dict__.update(t=t, g=g, phi=phi, u=u, metric=metric)
        return snap


@dataclass
class Trajectory:
    """Uniformly spaced snapshots of one run, plus per-snapshot diagnostics.

    ``dt`` is the spacing between stored snapshots; the integrator substep is
    ``dt / substride`` and is recorded separately.  ``constants`` holds the
    empirical curvature/map bounds per snapshot (`snapshot_constants`, the
    node extremes of the same `derived.curvature_fields` the checks read).
    ``derived`` is the trajectory's lazily built field layer, which every
    check reads (see the derived module).
    """

    grid: Grid
    variant: FlowVariant
    schedule: AlphaSchedule
    snapshots: list[Snapshot]
    dt: float
    dt_sub: float
    halt_reason: str | None = None
    constants: list[dict] = field(default_factory=list)
    alphas: list[float] = field(default_factory=list)
    scenario: dict | None = None

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.snapshots])

    @property
    def derived(self) -> TrajectoryFields:
        layer = self.__dict__.get("_derived")
        # none yet, a copy's, or one of a replaced snapshot list
        if layer is None or layer.owner() is not self or layer.snapshots is not self.snapshots:
            layer = self._derived = TrajectoryFields(self)
        return layer

    @property
    def completed(self) -> bool:
        return self.halt_reason is None

    def snapshot_at(self, t: float, rtol: float = 1e-9) -> int:
        """Index of the snapshot at time t (must match one)."""
        times = self.times
        i = int(np.argmin(np.abs(times - t)))
        scale = max(abs(t), self.dt, 1e-300)
        if abs(times[i] - t) > rtol * scale:
            raise ValueError(f"no snapshot at t={t!r}; nearest is t={times[i]!r}")
        return i


def stability_limit(grid: Grid, g, c_stab: float = C_STAB_DEFAULT) -> float:
    """Largest admissible explicit timestep for the current metric (an
    array or its MetricFields)."""
    return c_stab * grid.h_min**2 * metric_fields(g).min_eigenvalue


def _require_stable(grid: Grid, mf: MetricFields, dt: float, c_stab: float) -> None:
    limit = stability_limit(grid, mf, c_stab)
    if dt > limit:
        raise StabilityError(
            f"dt={dt:g} exceeds stability bound c_stab*h_min^2*min_eig(g)={limit:g}"
        )


def _new_metric(g: np.ndarray, t: float) -> MetricFields:
    """Validate a stepped metric; a degenerate one is a blow-up at time t."""
    try:
        return MetricFields(g)
    except MetricDegenerateError as exc:
        raise BlowUpError(f"metric degenerate after step: {exc}", t) from exc


def _flow_rhs(grid: Grid, variant: FlowVariant, schedule: AlphaSchedule, t, mf, phi,
              ric=None, faces=None):
    """Right-hand sides (dg/dt, dphi/dt) for the metric/map system; ``ric``
    and ``faces`` are the Ricci tensor and Laplacian face coefficients of
    ``mf`` if the caller already has them."""
    coup = variant.coupling(schedule, t)
    if ric is None:
        ric = geometry.ricci(grid, mf)
    outer = geometry.grad_phi_outer(grid, phi)
    dg = -2.0 * ric + (2.0 * coup) * outer
    if variant.kind == "warped_product":
        dphi = geometry.tension_field(grid, mf, phi, faces) - variant.mu * np.exp(-2.0 * phi)
    else:
        dphi = geometry.tension_field(grid, mf, phi, faces)
    return dg, dphi


def step_flow(
    grid: Grid,
    snap: Snapshot,
    dt: float,
    variant: FlowVariant,
    schedule: AlphaSchedule,
    method: str = "euler",
    c_stab: float = C_STAB_DEFAULT,
    ric: np.ndarray | None = None,
    faces: list | None = None,
) -> Snapshot:
    """Advance metric and map by one step; u is carried along unchanged.

    Raises StabilityError if dt violates the explicit bound and BlowUpError
    (with the failure time) if the stepped state leaves the admissible set.
    Each new metric is validated once: one per Euler step, two per RK2 step
    (midpoint and end), none on the static variant.  The new map is checked
    for finiteness once, and not at all on the static variant, whose fields
    are those of ``snap``.  ``ric`` and ``faces``, the Ricci tensor and
    Laplacian face coefficients of ``snap.metric`` when the caller already
    has them, spare their recomputation.
    """
    t_new = snap.t + dt
    if variant.kind == "static":
        return Snapshot._unchecked(t_new, snap.g, snap.phi, snap.u, snap.metric)
    if variant.kind == "warped_product" and snap.phi.shape[-1] != 1:
        raise ValueError("warped_product flow requires a single-component map")
    _require_stable(grid, snap.metric, dt, c_stab)
    if method == "euler":
        dg, dphi = _flow_rhs(grid, variant, schedule, snap.t, snap.metric, snap.phi, ric,
                             faces)
        g_new = snap.g + dt * dg
        phi_new = snap.phi + dt * dphi
    elif method == "rk2":
        dg1, dphi1 = _flow_rhs(grid, variant, schedule, snap.t, snap.metric, snap.phi, ric,
                               faces)
        g_mid = snap.g + 0.5 * dt * dg1
        g_mid = 0.5 * (g_mid + np.swapaxes(g_mid, -1, -2))
        phi_mid = snap.phi + 0.5 * dt * dphi1
        mid = _new_metric(g_mid, snap.t + 0.5 * dt)
        dg2, dphi2 = _flow_rhs(grid, variant, schedule, snap.t + 0.5 * dt, mid, phi_mid)
        g_new = snap.g + dt * dg2
        phi_new = snap.phi + dt * dphi2
    else:
        raise ValueError(f"unknown method {method!r}; use 'euler' or 'rk2'")
    # keep the stored metric exactly symmetric
    g_new = 0.5 * (g_new + np.swapaxes(g_new, -1, -2))
    if not np.isfinite(phi_new).all():
        raise BlowUpError("map field became non-finite", t_new)
    return Snapshot._unchecked(t_new, g_new, phi_new, snap.u, _new_metric(g_new, t_new))


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
        u_new = snap.u + dt * geometry.laplace_beltrami(grid, mf, snap.u, faces)
    elif method == "rk2":
        u_mid = snap.u + 0.5 * dt * geometry.laplace_beltrami(grid, mf, snap.u, faces)
        u_new = snap.u + dt * geometry.laplace_beltrami(grid, mf, u_mid, faces)
    else:
        raise ValueError(f"unknown method {method!r}; use 'euler' or 'rk2'")
    if not (u_new > 0).all():
        raise BlowUpError("heat solution lost positivity", snap.t + dt)
    return u_new


def snapshot_constants(grid: Grid, snap: Snapshot, ric: np.ndarray | None = None) -> dict:
    """Empirical hypothesis bounds at one snapshot: the extremes over nodes
    of `derived.curvature_fields`, with k1 = -min lambda(Ric) clipped at 0
    from below.  ``ric`` is the Ricci tensor of the snapshot's metric if the
    caller has it (the run loop does, and reuses it for the next step).
    """
    if ric is None:
        ric = geometry.ricci(grid, snap.metric)
    lam_min, lam_max, t_lam_outer = curvature_fields(grid, snap, ric)
    ric_min, ric_max = float(np.min(lam_min)), float(np.max(lam_max))
    return {
        "t": float(snap.t),
        "ric_min": ric_min,
        "ric_max": ric_max,
        "k1": max(0.0, -ric_min),
        "k2": ric_max,
        "tc_phi": float(np.max(t_lam_outer)),
    }


def snapshot_count(span: float, dt_sub: float, stride: int) -> int:
    """Number of snapshot intervals of dt_sub * stride in a time span >= 0;
    a ValueError unless the span is an integer multiple of the interval to
    within 1e-9 of the larger of the two."""
    dt_snap = dt_sub * stride
    n_snaps = int(round(span / dt_snap)) if span > 0 else 0
    if abs(n_snaps * dt_snap - span) > 1e-9 * max(span, dt_snap):
        raise ValueError(
            f"(t_end - t_start)={span:g} is not an integer multiple of "
            f"dt_sub*stride={dt_snap:g}"
        )
    return n_snaps


def run(
    grid: Grid,
    variant: FlowVariant,
    schedule: AlphaSchedule,
    initial: Snapshot,
    T: float,
    dt_sub: float,
    substride: int,
    method: str = "euler",
    c_stab: float = C_STAB_DEFAULT,
    scenario: dict | None = None,
) -> Trajectory:
    """Integrate from the initial snapshot to time T, recording every
    ``substride`` substeps.

    Each substep validates the new metric once (twice with RK2, whose
    midpoint metric is validated too), so an N-substep run calls
    check_metric N + 1 times with Euler and 2N + 1 times with RK2; the
    static variant shares the initial metric throughout and calls it once.

    Per substep, u is checked for positivity once (in ``step_heat``) and a
    map the flow moved for finiteness once (in ``step_flow``); the initial
    snapshot was checked when it was constructed, and no snapshot is
    checked again.  The Ricci tensor of each stored snapshot's metric is
    computed once, for its constants, and reused by the next substep's flow,
    so an Euler run evaluates it N + 1 times, an RK2 run 2N + 1 times and a
    static run once.  Likewise the loop holds the Laplacian face
    coefficients of the current metric for the heat step and the map's
    tension: built once per metric (once per static run), and kept on no
    stored snapshot.

    On blow-up the partial trajectory is returned with ``halt_reason`` set
    and the failure time appended; callers decide whether that is an error.
    A zero-length run (T == t_start) yields the initial snapshot only.
    """
    if substride < 1:
        raise ValueError("substride must be a positive integer")
    span = T - initial.t
    if span < 0:
        raise ValueError("T must be >= the initial snapshot time")
    n_snaps = snapshot_count(span, dt_sub, substride)
    snaps = [initial]
    ric = geometry.ricci(grid, initial.metric)  # of current.metric, or None
    constants = [snapshot_constants(grid, initial, ric)]
    alphas = [float(schedule(initial.t))]
    halt = None
    current = initial
    faces = None  # of current.metric, built on first use
    step_index = 0
    try:
        for _ in range(n_snaps):
            for _ in range(substride):
                if faces is None:
                    faces = geometry.laplacian_faces(current.metric)
                # the flow update reads only g and phi, so it steps the
                # pre-heat snapshot and the heated u is attached after
                u_new = step_heat(grid, current, dt_sub, method=method, c_stab=c_stab,
                                  faces=faces)
                nxt = step_flow(
                    grid, current, dt_sub, variant, schedule, method=method, c_stab=c_stab,
                    ric=ric, faces=faces,
                )
                if nxt.metric is not current.metric:
                    ric = faces = None
                step_index += 1
                # exact time bookkeeping: t derived from the step counter
                t_exact = initial.t + step_index * dt_sub
                current = Snapshot._unchecked(t_exact, nxt.g, nxt.phi, u_new, nxt.metric)
            snaps.append(current)
            if ric is None:
                ric = geometry.ricci(grid, current.metric)
            constants.append(snapshot_constants(grid, current, ric))
            alphas.append(float(schedule(current.t)))
    except (BlowUpError, StabilityError) as exc:
        t_fail = getattr(exc, "t", initial.t + (step_index + 1) * dt_sub)
        halt = f"{exc} (halted at t={t_fail:g})"
    return Trajectory(
        grid=grid,
        variant=variant,
        schedule=schedule,
        snapshots=snaps,
        dt=dt_sub * substride,
        dt_sub=dt_sub,
        halt_reason=halt,
        constants=constants,
        alphas=alphas,
        scenario=scenario,
    )
