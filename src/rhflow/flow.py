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

`run` steps the state (u, g, phi, metric), checks stability and builds one
`geometry.Laplacian` per metric array, steps a frozen metric's u a whole
stored stride per call, and assembles a `Snapshot` only at each stored
stride; `step_heat` and `step_flow` build the same per call.
The checks read each metric's Laplacian from ``traj.derived.laplacian``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .derived import TrajectoryFields, curvature_fields
from .geometry import MetricDegenerateError, MetricFields, metric_fields
from .grid import Grid, Halo

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
            raise ValueError("m, the warped_product fiber dimension, must be >= 1")
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
    snapshots this way; it checks each field where it changes (u in the
    heat step, phi and the metric in the flow step) and assembles a stored
    snapshot with ``_unchecked``.
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


def _check_method(method: str) -> None:
    if method not in ("euler", "rk2"):
        raise ValueError(f"unknown method {method!r}; use 'euler' or 'rk2'")


def _check_map(variant: FlowVariant, phi: np.ndarray) -> None:
    if variant.kind == "warped_product" and phi.shape[-1] != 1:
        raise ValueError("warped_product flow requires a single-component map")


def _flow_rhs(grid: Grid, variant: FlowVariant, schedule: AlphaSchedule, t, mf, phi,
              ric=None, lap=None):
    """Right-hand sides (dg/dt, dphi/dt) for the metric/map system; ``ric``
    and ``lap`` are the Ricci tensor and `geometry.Laplacian` of ``mf`` if
    the caller already has them."""
    coup = variant.coupling(schedule, t)
    if ric is None:
        ric = geometry.ricci(grid, mf)
    if lap is None:
        lap = geometry.Laplacian(grid, mf)
    outer = geometry.grad_phi_outer(grid, phi)
    dg = -2.0 * ric + (2.0 * coup) * outer
    if variant.kind == "warped_product":
        dphi = geometry._tension(lap, phi) - variant.mu * np.exp(-2.0 * phi)
    else:
        dphi = geometry._tension(lap, phi)
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


def step_flow(
    grid: Grid,
    snap: Snapshot,
    dt: float,
    variant: FlowVariant,
    schedule: AlphaSchedule,
    method: str = "euler",
    c_stab: float = C_STAB_DEFAULT,
) -> Snapshot:
    """Advance metric and map by one step; u is carried along unchanged.

    Raises StabilityError if dt violates the explicit bound and BlowUpError
    (with the failure time) if the stepped state leaves the admissible set.
    Each new metric is validated once: one per Euler step, two per RK2 step
    (midpoint and end), none on the static variant.  The new map is checked
    for finiteness once, and not at all on the static variant, whose fields
    are those of ``snap``.  The Ricci tensor and the `geometry.Laplacian`
    of ``snap.metric`` are built once per call; `run` steps without this
    function and builds them once per metric.
    """
    t_new = snap.t + dt
    if variant.kind == "static":
        return Snapshot._unchecked(t_new, snap.g, snap.phi, snap.u, snap.metric)
    _check_map(variant, snap.phi)
    _require_stable(grid, snap.metric, dt, c_stab)
    _check_method(method)
    g, phi, metric = _flow_update(grid, variant, schedule, method, snap.t, dt, snap.g,
                                  snap.phi, snap.metric, None, None)
    return Snapshot._unchecked(t_new, g, phi, snap.u, metric)


class _HeatStep:
    """The explicit heat step of one metric, with its per-metric work done
    once: the stability check, on construction, and one `geometry.Laplacian`
    (``lap``).  `advance` keeps u in the interior of the operator's halo
    and steps it there: each substep is one fixed list of ufunc calls into
    scratch buffers, built here, then an add in place, and makes no new
    array: refresh the ghost layers, form the fluxes and their differences,
    divide by h^2 and then by sqrt(det g), multiply by dt, add.  These are
    the same floating-point operations per node, in the same order, as
    u + dt Lap u (Euler) or u + dt Lap(u + dt/2 Lap u) (RK2).  The halo
    holds u only within a call, so the operator serves other callers (the
    map's tension) between calls."""

    def __init__(self, grid: Grid, mf: MetricFields, dt: float, method: str, c_stab: float):
        _require_stable(grid, mf, dt, c_stab)
        self.lap = geometry.Laplacian(grid, mf)
        _check_method(method)
        self.dt = dt
        u, dlap = self.lap.halo.inner, self.lap.out
        self._calls = list(self.lap.calls)
        if method == "rk2":
            mid = Halo(grid.shape)
            self._calls += [(np.multiply, (dlap, np.array(0.5 * dt), dlap)),
                            (np.add, (u, dlap, mid.inner)), *self.lap.bind(mid, dlap)]
        self._calls.append((np.multiply, (dlap, np.array(dt), dlap)))

    def advance(self, u: np.ndarray, steps: int, t0: float, n: int = 0) -> np.ndarray:
        """u ``steps`` substeps later, as a new array; u itself is not
        changed.  Substep k (from 0) is substep n + k of a run from t0, and
        ends at (t0 + (n + k) dt) + dt, the time `run` steps to.

        Positivity is asserted at every substep (NaN fails too), never
        clamped: a BlowUpError at the end of the first substep that loses
        it.  One substep is tested directly.  Over more, an element-wise
        running minimum of u is kept and tested once at the end; if that
        fails, or anything raises on the way, the substeps are replayed
        from u one at a time, each tested, so that the same substep fails
        with the same error as when stepping one at a time."""
        inner, dlap, calls = self.lap.halo.inner, self.lap.out, self._calls
        np.copyto(inner, u)
        if steps == 1:
            for f, args in calls:
                f(*args)
            u_new = np.add(u, dlap)
            if not u_new.min() > 0:
                raise BlowUpError("heat solution lost positivity", t0 + n * self.dt + self.dt)
            return u_new
        low = np.full(inner.shape, np.inf)
        try:
            for _ in range(steps):
                for f, args in calls:
                    f(*args)
                np.add(inner, dlap, out=inner)
                np.minimum(low, inner, out=low)  # a NaN stays
            held = low.min() > 0
        except Exception:  # the replay raises it again at its substep, after any halt before it
            held = False
        if held:
            return inner.copy()
        for k in range(steps):
            u = self.advance(u, 1, t0, n + k)
        return u


def step_heat(
    grid: Grid,
    snap: Snapshot,
    dt: float,
    method: str = "euler",
    c_stab: float = C_STAB_DEFAULT,
) -> np.ndarray:
    """One explicit heat step du/dt = Lap_g u with the snapshot's metric.

    Positivity is asserted, never clamped: a non-positive result raises.
    The stability check and the `geometry.Laplacian` of ``snap.metric`` are
    done once per call; `run` does them once per metric, and on a static
    run steps a whole stored stride per call (`_HeatStep.advance`), with
    positivity asserted at every substep through a running minimum and the
    stride replayed one substep at a time if it fails.
    """
    return _HeatStep(grid, snap.metric, dt, method, c_stab).advance(snap.u, 1, snap.t)


def _constants(t: float, curvature: tuple) -> dict:
    """`snapshot_constants` at time t from the snapshot's `curvature_fields`."""
    lam_min, lam_max, lam_outer = curvature
    ric_min, ric_max = float(np.min(lam_min)), float(np.max(lam_max))
    return {
        "t": float(t),
        "ric_min": ric_min,
        "ric_max": ric_max,
        "k1": max(0.0, -ric_min),
        "k2": ric_max,
        "tc_phi": float(np.max(t * lam_outer)),
    }


def snapshot_constants(grid: Grid, snap: Snapshot) -> dict:
    """Empirical hypothesis bounds at one snapshot: the extremes over nodes
    of `derived.curvature_fields`, with k1 = -min lambda(Ric) clipped at 0
    from below.  `run` reduces the same fields as it steps, with each
    metric's Ricci tensor computed once.
    """
    return _constants(snap.t, curvature_fields(grid, snap, geometry.ricci(grid, snap.metric)))


def snapshot_count(span: float, dt_sub: float, stride: int) -> int:
    """Number of snapshot intervals of dt_sub * stride in a time span >= 0;
    a ValueError unless the span is an integer multiple of the interval to
    within 1e-9 of the larger of the two, and a positive span holds at
    least one whole interval."""
    dt_snap = dt_sub * stride
    ratio = span / dt_snap if span > 0 else 0.0
    tol = 1e-9 * max(span, dt_snap)
    if not math.isfinite(ratio) or abs(round(ratio) * dt_snap - span) > tol:
        raise ValueError(
            f"(t_end - t_start)={span:g} is not an integer multiple of "
            f"dt_sub*stride={dt_snap:g}"
        )
    if span > 0 and round(ratio) == 0:
        raise ValueError(f"(t_end - t_start)={span:g} holds no whole interval of "
                         f"dt_sub*stride={dt_snap:g}")
    return round(ratio)


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

    The loop state is (u, g, phi, metric).  What depends on the metric is
    built once per metric array, when a substep first needs it: the
    stability check and one `geometry.Laplacian` (`_HeatStep`), which serves
    the heat step and the map's tension.  So a static run checks stability
    and builds the Laplacian's faces once, and calls no flow step at all; a
    moving run does both once per substep (the RK2 midpoint metric builds
    its own Laplacian too), and keeps neither on a stored snapshot.  Heat
    steps go through `_HeatStep.advance`: a static run, whose operator never
    changes, advances u a whole stored stride per call, and a moving run
    one substep per call.

    Each substep validates the new metric once (twice with RK2, whose
    midpoint metric is validated too), so an N-substep run calls
    check_metric N + 1 times with Euler and 2N + 1 times with RK2; the
    static variant shares the initial metric throughout and calls it once.
    Per substep, u is checked for positivity once and a map the flow moved
    for finiteness once; the initial snapshot was checked when it was
    constructed.  Within a static stride the positivity checks go through
    an element-wise running minimum tested at the stride's end, and a
    stride that fails it is replayed from its stored snapshot one checked
    substep at a time, so a halt names the substep, time and message of
    stepping one substep at a time.  A `Snapshot` is assembled, unchecked,
    only at each stored stride.

    The Ricci tensor of each stored snapshot's metric is computed once, for
    its constants, and reused by the next substep's flow, so an Euler run
    evaluates it N + 1 times, an RK2 run 2N + 1 times and a static run
    once.  The constants' `curvature_fields` are computed once per metric
    and map (once per static run), and their map term scaled by each
    stored snapshot's time.

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
    static = variant.kind == "static"
    steps = substride if static else 1  # per heat step: a frozen operator steps a stride
    if n_snaps:
        _check_map(variant, initial.phi)
    t, g, phi, u, metric = initial.t, initial.g, initial.phi, initial.u, initial.metric
    ric = geometry.ricci(grid, metric)  # of metric, or None
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
                for _ in range(substride // steps):
                    if heat is None:
                        heat = _HeatStep(grid, metric, dt_sub, method, c_stab)
                    u_new = heat.advance(u, steps, initial.t, step_index)
                    if not static:
                        # the flow reads g and phi only: it steps the pre-heat state
                        g, phi, metric = _flow_update(grid, variant, schedule, method, t,
                                                      dt_sub, g, phi, metric, ric, heat.lap)
                        ric = curvature = heat = None
                    u = u_new
                    step_index += steps
                    # exact time bookkeeping: t derived from the step counter
                    t = initial.t + step_index * dt_sub
                snap = Snapshot._unchecked(t, g, phi, u, metric)
                snaps.append(snap)
                if ric is None:
                    ric = geometry.ricci(grid, metric)
                if curvature is None:
                    curvature = curvature_fields(grid, snap, ric)
                constants.append(_constants(t, curvature))
                alphas.append(float(schedule(t)))
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
