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

`run` steps a frozen metric's u a whole stored stride per call, and a
moving metric and map in one per-run workspace of bound in-place calls
(`_Workspace`), and assembles a `Snapshot` only at each stored stride;
`step_heat` and `step_flow` build the same per call.  The checks read each
metric's Laplacian from ``traj.derived.laplacian``.
"""

from __future__ import annotations

import functools
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
    finite and u finite and positive everywhere.  The stepping code does
    not construct snapshots this way; it checks each field where it
    changes (u in the heat step, phi and the metric in the flow step) and
    assembles a stored snapshot with ``_unchecked``.
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
        # a NaN minimum fails the first test, an infinite maximum the second
        if not (self.u.min() > 0 and self.u.max() < np.inf):
            raise BlowUpError("heat solution is not finite and positive everywhere", self.t)

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
        return snapshot_index(self.times, t, self.dt, rtol)


def snapshot_index(times: np.ndarray, t: float, dt: float, rtol: float = 1e-9) -> int:
    """`Trajectory.snapshot_at` on a trajectory's snapshot times and
    spacing, for a caller that looks up many times in one array."""
    i = int(np.argmin(np.abs(times - t)))
    scale = max(abs(t), dt, 1e-300)
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


class _Workspace:
    """The metric and map of a moving run, and every buffer and call list
    that steps them, allocated once per run (or `step_flow` call).

    The metric is held as its components g_ij, contiguous node fields, with
    its inverse, sqrt(det g) and smallest eigenvalue, all as a
    `MetricFields` (``metric``, whose ``g`` is None) that these buffers
    back; the map phi is one contiguous array.  Around them are bound
    once: a `geometry.Curvature` (Ricci), a `geometry.MapGradient`
    (dphi (x) dphi), a `geometry.Laplacian` whose coefficients are
    refreshed in place for each new metric (the heat step and the map's
    tension, each component loaded into the nodes of its flat field ``s``
    and copied out of ``out``), and the flow's own call lists:

        rhs      dg = -2 Ric + (2 coupling) dphi (x) dphi,
                 dphi/dt = tension [- mu exp(-2 phi)]
        update   g = base + h dg, phi = base + h dphi/dt, g_ij = 1/2 (g_ij + g_ji)
                 (Euler: base the state, h = dt; RK2: base the state saved
                 at the substep's start, h = dt/2, then dt)
        check    phi finite, then g: finite, min eigenvalue > 1e-12 trace
        inverse  g^{ij}, sqrt(det g)
        eig      the eigenvalues of Ric and dphi (x) dphi against g
                 (`derived.curvature_fields`, at stored snapshots)

    each a fixed list of in-place ufunc calls with the floating-point
    operations per node, and their order, of these formulas evaluated as
    array expressions (see the ``geometry`` kernels), so every stepped
    field is bit for bit that evaluation's.  A metric that fails the check
    is stacked and passed to `geometry.check_metric`, which raises the same
    error, at the same node, as validating the stacked array would have.

    Ricci and dphi (x) dphi (`_fields`) and the Laplacian's coefficients
    (`laplacian`) are formed at most once per metric and map, when first
    needed; `snapshot` copies the state out into a `Snapshot`.  In 2-D with
    one map component it holds about 57 node fields with Euler and 62 with
    RK2 (1.9 and 2.1 MB at 64^2), freed with the run.
    """

    def __init__(self, grid: Grid, variant: FlowVariant, schedule: AlphaSchedule, method: str,
                 dt: float, snap: Snapshot):
        self.grid, self.variant, self.schedule, self.dt = grid, variant, schedule, dt
        self.rk2 = method == "rk2"
        d, shape = grid.dim, grid.shape
        new = functools.partial(np.empty, shape)
        pairs = [(i, j) for i in range(d) for j in range(i, d)]
        src = snap.metric
        g = geometry._sym(d, lambda i, j: src.comp[i][j].copy())
        inv = geometry._sym(d, lambda i, j: src.inv[i][j].copy())
        self.metric = MetricFields._assembled(None, g, inv, src.sqrt_det.copy(),
                                              src.min_eigenvalue)
        self._g = [g[i][j] for i, j in pairs]
        self.phi = snap.phi.copy()
        self.curvature = geometry.Curvature(grid, g, inv)
        self.gradient = geometry.MapGradient(grid, self.phi)
        self.lap = geometry.Laplacian(grid, self.metric)
        self._fresh, self._fresh_lap = False, True

        # rhs
        self._coupling = np.array(0.0)  # 2 alpha(t), set per stage
        dg, tmp, tension = [new() for _ in pairs], new(), np.empty(snap.phi.shape)
        rhs = []
        for (i, j), dg_ij in zip(pairs, dg):
            rhs += [(np.multiply, (self.curvature.ric[i][j], geometry._MINUS_TWO, dg_ij)),
                    (np.multiply, (self.gradient.outer[i][j], self._coupling, tmp)),
                    (np.add, (dg_ij, tmp, dg_ij))]
        lap_s, lap_out = (self.lap.layout.view(f) for f in (self.lap.s, self.lap.out))
        for m in range(snap.phi.shape[-1]):
            rhs += [(np.copyto, (lap_s, self.phi[..., m])), *self.lap.calls,
                    (np.copyto, (tension[..., m], lap_out))]
        if variant.kind == "warped_product":
            decay = np.empty(snap.phi.shape)
            rhs += [(np.multiply, (self.phi, geometry._MINUS_TWO, decay)),
                    (np.exp, (decay, decay)),
                    (np.multiply, (decay, np.array(variant.mu), decay)),
                    (np.subtract, (tension, decay, tension))]
        self._rhs = rhs

        # update: Euler in place; RK2 from a copy of the state, by dt/2 then dt
        def update(base_g, base_phi, h):
            calls = []
            for g_ij, b_ij, dg_ij in zip(self._g, base_g, dg):
                calls += [(np.multiply, (dg_ij, h, dg_ij)), (np.add, (b_ij, dg_ij, g_ij)),
                          (np.add, (g_ij, g_ij, g_ij)),
                          (np.multiply, (g_ij, geometry._HALF, g_ij))]
            return calls + [(np.multiply, (tension, h, tension)),
                            (np.add, (base_phi, tension, self.phi))]

        if self.rk2:
            saved_g, saved_phi = [new() for _ in pairs], np.empty(snap.phi.shape)
            self._save = [(np.copyto, (b, g_ij)) for b, g_ij in zip(saved_g, self._g)]
            self._save.append((np.copyto, (saved_phi, self.phi)))
            self._mid = update(saved_g, saved_phi, np.array(0.5 * dt))
            self._end = update(saved_g, saved_phi, np.array(dt))
        else:
            self._end = update(self._g, self.phi, np.array(dt))

        # check and inverse
        self._mask = np.empty(shape, dtype=bool)
        if d == 1:
            self._lam = self._tr = g[0][0]
            check = []
        else:
            self._lam, self._tr = new(), new()
            check = geometry._min_eigenvalue_calls(g, self._lam, self._tr, tmp)
        self._check = check + [(np.multiply, (self._tr, np.array(geometry.PD_RTOL), tmp)),
                               (np.less_equal, (self._lam, tmp, self._mask))]
        det = new()
        self._inverse = geometry._inverse_calls(g, inv, self.metric.sqrt_det, det, tmp)

        # curvature_fields: eigenvalues of Ric and dphi (x) dphi against g,
        # with the update's and the inverse's buffers as scratch
        scratch = dg + [tmp, det] + [new() for _ in range(3 - len(dg))]
        eig = [new() for _ in range(4)]
        self._eig = (geometry._eig_calls(self.metric, self.curvature.ric, *eig[:2], scratch)
                     + geometry._eig_calls(self.metric, self.gradient.outer, *eig[2:], scratch))
        self._lam_fields = (eig[0], eig[1 if d == 2 else 0], eig[3 if d == 2 else 2])
        self._phi_finite = np.empty(snap.phi.shape, dtype=bool)

    def _fields(self) -> None:
        """Form Ric and dphi (x) dphi of the current metric and map, once
        per metric."""
        if not self._fresh:
            self.curvature.ricci()
            self.gradient()
            self._fresh = True

    def curvature_fields(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`derived.curvature_fields` of the current metric and map, in
        buffers that the next call overwrites."""
        self._fields()
        geometry._run(self._eig)
        return self._lam_fields

    def laplacian(self) -> geometry.Laplacian:
        """The Laplacian of the current metric."""
        if not self._fresh_lap:
            self.lap.refresh()
            self._fresh_lap = True
        return self.lap

    def _stage(self, t: float) -> None:
        self._fields()
        self.laplacian()
        self._coupling[...] = 2.0 * self.variant.coupling(self.schedule, t)
        geometry._run(self._rhs)

    def step(self, t: float) -> None:
        """Step the metric and map from time t by dt.  Each new metric is
        validated once: one per Euler step, two per RK2 step (midpoint and
        end).  A BlowUpError leaves the workspace unusable."""
        dt, t_stage = self.dt, t
        if self.rk2:
            geometry._run(self._save)
            self._stage(t)
            geometry._run(self._mid)
            t_stage = t + 0.5 * dt
            self.validate(t_stage)
        self._stage(t_stage)
        geometry._run(self._end)
        if not np.isfinite(self.phi, out=self._phi_finite).all():
            raise BlowUpError("map field became non-finite", t + dt)
        self.validate(t + dt)

    def validate(self, t: float) -> None:
        """Check the metric the buffers hold, as `geometry.check_metric`
        would, and form its inverse and sqrt(det g); a degenerate metric is
        a blow-up at time t."""
        ok = all(np.isfinite(g_ij, out=self._mask).all() for g_ij in self._g)
        if ok:
            geometry._run(self._check)
            ok = not self._mask.any()
        if not ok:
            _new_metric(self._stacked(), t)  # raises the error of the stacked array
        geometry._run(self._inverse)
        self.metric.min_eigenvalue = float(np.min(self._lam))
        self._fresh = self._fresh_lap = False

    def _stacked(self) -> np.ndarray:
        d = self.grid.dim
        g = np.empty(self.grid.shape + (d, d))
        for i in range(d):
            for j in range(d):
                g[..., i, j] = self.metric.comp[i][j]
        return g

    def snapshot(self, t: float, u: np.ndarray) -> Snapshot:
        """The state at time t, with heat solution u, as a Snapshot of new
        arrays whose metric fields are copied, not validated again."""
        g, m = self._stacked(), self.metric
        d = m.dim
        metric = MetricFields._assembled(
            g, geometry._components(g), geometry._sym(d, lambda i, j: m.inv[i][j].copy()),
            m.sqrt_det.copy(), m.min_eigenvalue)
        return Snapshot._unchecked(t, g, self.phi.copy(), u, metric)


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
    are those of ``snap``.  The step is `run`'s substep: one `_Workspace`
    per call, loaded from ``snap``, whose Ricci tensor and Laplacian are
    formed once per metric.
    """
    t_new = snap.t + dt
    if variant.kind == "static":
        return Snapshot._unchecked(t_new, snap.g, snap.phi, snap.u, snap.metric)
    _check_map(variant, snap.phi)
    _require_stable(grid, snap.metric, dt, c_stab)
    _check_method(method)
    ws = _Workspace(grid, variant, schedule, method, dt, snap)
    ws.step(snap.t)
    return ws.snapshot(t_new, snap.u)


class _HeatStep:
    """The explicit heat step of one metric's `geometry.Laplacian`
    (``lap``), whose calls it binds once.  `advance` keeps u in the
    operator's flat, periodically padded field ``lap.s`` and steps it there:
    each substep is one fixed list of ufunc calls on contiguous slices into
    scratch buffers, built here, then an add in place, and makes no new
    array: refresh the periodic copies, form the fluxes and their
    differences, divide by h^2 and then by sqrt(det g), multiply by dt,
    add.  These are the same floating-point operations per node, in the
    same order, as u + dt Lap u (Euler) or u + dt Lap(u + dt/2 Lap u)
    (RK2).  The calls read the operator's coefficients as they are when
    run, so a moving run's one operator, refreshed per metric, serves one
    _HeatStep for the whole run.  ``lap.s`` holds u only within a call, so
    the operator serves other callers (the map's tension) between calls."""

    def __init__(self, lap: geometry.Laplacian, dt: float, method: str):
        _check_method(method)
        self.lap, self.dt = lap, dt
        work = lap.layout.work
        self._u, self._dlap = lap.s[work], lap.out[work]
        self._calls = list(lap.calls)
        if method == "rk2":
            mid = np.empty(lap.layout.size)
            self._calls += [(np.multiply, (self._dlap, np.array(0.5 * dt), self._dlap)),
                            (np.add, (self._u, self._dlap, mid[work])), *lap.bind(mid, lap.out)]
        self._calls.append((np.multiply, (self._dlap, np.array(dt), self._dlap)))

    def advance(self, u: np.ndarray, steps: int, t0: float, n: int = 0) -> np.ndarray:
        """u ``steps`` substeps later, as a new array; u itself is not
        changed.  Substep k (from 0) is substep n + k of a run from t0, and
        ends at (t0 + (n + k) dt) + dt, the time `run` steps to.

        Positivity is asserted at every substep (NaN fails too), never
        clamped: a BlowUpError at the end of the first substep that loses
        it.  One substep is tested directly.  Over more, an element-wise
        running minimum of u is kept and its nodes tested once at the end;
        if that fails, or anything raises on the way, the substeps are
        replayed from u one at a time, each tested, so that the same
        substep fails with the same error as when stepping one at a time."""
        lay, u_work, dlap, calls = self.lap.layout, self._u, self._dlap, self._calls
        np.copyto(lay.view(self.lap.s), u)
        if steps == 1:
            for f, args in calls:
                f(*args)
            u_new = np.add(u, lay.view(self.lap.out))
            if not u_new.min() > 0:
                raise BlowUpError("heat solution lost positivity", t0 + n * self.dt + self.dt)
            return u_new
        low = np.full(lay.size, np.inf)
        low_work = low[lay.work]
        try:
            for _ in range(steps):
                for f, args in calls:
                    f(*args)
                np.add(u_work, dlap, out=u_work)
                np.minimum(low_work, u_work, out=low_work)  # a NaN stays
            held = lay.view(low).min() > 0
        except Exception:  # the replay raises it again at its substep, after any halt before it
            held = False
        if held:
            return lay.unpad(self.lap.s)
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
    _require_stable(grid, snap.metric, dt, c_stab)
    return _HeatStep(geometry.Laplacian(grid, snap.metric), dt, method).advance(snap.u, 1, snap.t)


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
    return _constants(snap.t, curvature_fields(snap.metric, geometry._ricci(grid, snap.metric),
                                               geometry._grad_phi_outer(grid, snap.phi)))


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

    A static run checks stability and builds one `geometry.Laplacian` once,
    calls no flow step, and advances u a whole stored stride per call
    (`_HeatStep.advance`).  A moving run allocates one `_Workspace` when it
    starts, holding the metric and map and every buffer and bound call list
    of a substep; the workspace is dropped when the run returns, and stored
    snapshots share none of its arrays.  Each substep checks stability,
    refreshes the workspace Laplacian's coefficients in place for the
    current metric (the heat step and the map's tension share it; an RK2
    midpoint metric is refreshed too), steps u one substep, then steps the
    metric and map in the workspace.  The floating-point operations per
    node and their order are those of the flow's formulas evaluated as
    array expressions, so every stored field is bit for bit theirs.

    The initial snapshot was checked when it was constructed.  Each
    substep validates the new metric once in the workspace (twice with
    RK2, whose midpoint metric is validated too), so an N-substep run
    validates N metrics with Euler and 2N with RK2; the static variant
    shares the initial metric throughout.  Per substep, u is checked for
    positivity once and a map the flow moved for finiteness once.  Within
    a static stride the positivity checks go through an element-wise
    running minimum tested at the stride's end, and a stride that fails it
    is replayed from its stored snapshot one checked substep at a time, so
    a halt names the substep, time and message of stepping one substep at
    a time.  A `Snapshot` is assembled, unchecked, only at each stored
    stride, from new arrays, with the metric fields the workspace
    validated.

    The Ricci tensor and dphi (x) dphi of each metric are computed once:
    at a stored snapshot for its constants, and reused by the next
    substep's flow, so an Euler run evaluates Ricci N + 1 times, an RK2
    run 2N + 1 times and a static run once.  The constants'
    `derived.curvature_fields` are computed once per stored metric and
    map (once per static run), and their map term scaled by each stored
    snapshot's time.

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
    if n_snaps:
        _check_map(variant, initial.phi)
    t, u, metric = initial.t, initial.u, initial.metric
    if variant.kind == "static":
        ws = None
        curvature = curvature_fields(metric, geometry._ricci(grid, metric),
                                     geometry._grad_phi_outer(grid, initial.phi))
    else:
        ws = _Workspace(grid, variant, schedule, method, dt_sub, initial)
        metric = ws.metric
        curvature = ws.curvature_fields()
    heat = None  # built on first use
    snaps = [initial]
    constants = [_constants(t, curvature)]
    alphas = [float(schedule(t))]
    halt = None
    step_index = 0
    try:
        # an overflow halts the run naming the node; numpy's warning would repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(n_snaps):
                if ws is None:  # a frozen operator steps a whole stride per call
                    if heat is None:
                        _require_stable(grid, metric, dt_sub, c_stab)
                        heat = _HeatStep(geometry.Laplacian(grid, metric), dt_sub, method)
                    u = heat.advance(u, substride, initial.t, step_index)
                    step_index += substride
                    t = initial.t + step_index * dt_sub
                    snap = Snapshot._unchecked(t, initial.g, initial.phi, u, metric)
                else:
                    for _ in range(substride):
                        _require_stable(grid, metric, dt_sub, c_stab)
                        lap = ws.laplacian()
                        if heat is None:
                            heat = _HeatStep(lap, dt_sub, method)
                        u_new = heat.advance(u, 1, initial.t, step_index)
                        # the flow reads g and phi only: it steps the pre-heat state
                        ws.step(t)
                        u = u_new
                        step_index += 1
                        # exact time bookkeeping: t derived from the step counter
                        t = initial.t + step_index * dt_sub
                    snap = ws.snapshot(t, u)
                    curvature = ws.curvature_fields()
                snaps.append(snap)
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
