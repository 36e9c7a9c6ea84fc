"""Harnack inequalities: space-time path energies and pointwise floors.

Integrating a gradient estimate |grad f|^2 - A1 f_t <= A2 + A3/t along a
space-time path from (x1, t1) to (x2, t2) yields the lower bound

    u(x2, t2) >= u(x1, t1) * (t2/t1)^(-A3/A1)
                           * exp(-A1 Gamma / 4 - (A2/A1)(t2 - t1))

where Gamma = inf over paths of the integrated squared speed
int |dgamma/dt|^2_{g(t)} dt.  `gamma_field` computes Gamma on the lattice
from one source to every node by dynamic programming over time layers, and
`gamma_inf` reads one target from it; the discrete infimum is taken over a
restricted move set, so it can only overestimate the continuum value, which
lowers the floor: the verified inequality is conservative, never optimistic.

`check_harnack` runs one dynamic program per distinct (x1, t1, t2, layer
count) and reads each pair's target from it.  `gamma_fields` advances all
of a call's programs in lockstep over the floor snapshots (the snapshot
index never decreases across layers), so the edge costs are built once per
call and distinct metric array (``traj.derived.metric_class``: once in all
on a static run), then divided by each program's layer length, and only
one metric's costs are alive at a time.  Costs live in a flat,
periodically padded layout (`_Layout`), so each move of a layer is one
contiguous slice at a fixed offset: one add and one minimum per move, and
one refresh of the padding per layer.  Every program keeps the arithmetic
of the one-pair, per-layer solver: each edge cost is the same average of g,
the same products summed in the same order as that solver's einsum, and
the same division; moves only read it at another offset where that solver
rolled it, and each layer takes the same sums and minima.  So Gamma, the
floors and the margins are bit-identical to it.

Two floor recipes are wired in:
  compact   A1 = 1, A2 = sqrt(2) k n, A3 = n/2 + sqrt(2) n C alpha0, valid
            when the Ricci gate of the global estimate holds on the whole run;
  complete  A1 = beta, A2 = C' b^2 max(k1,k2) + n b^2 k1/(4(b-1)),
            A3 = C' b^2, from the rho-free form of the local estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .estimates import TOL_EIG_FACTOR, GateEmptyError, check_beta, extract_constants, tol_num
from .flow import Trajectory
from .geometry import _sum
from .grid import check_int_range

R_MAX_DEFAULT = 2
# Largest r_max accepted.  The edge costs of one floor snapshot hold
# (2 r_max + 1)^dim - 1 padded node fields, 80 at this cap on a 2-D grid;
# nothing in the package uses more than 3.
R_MAX_LIMIT = 4
SUBSTEPS_FLOOR = 32
# Largest layer count accepted.  A dynamic program's time is linear in its
# layer count; the defaults stay below 300 on every bundled scenario.
SUBSTEPS_LIMIT = 4096


def _pair_time(t) -> float:
    if isinstance(t, (int, float, np.integer, np.floating)) and not isinstance(t, bool):
        try:
            value = float(t)
        except OverflowError:
            value = np.inf
        if np.isfinite(value):
            return value
    raise ValueError(f"time {t!r} is not a finite real number")


def _parse_pair(grid, pair) -> tuple:
    """(x1, t1, x2, t2) of one Harnack pair, with wrapped nodes and float
    times, or a ValueError saying what is wrong with it."""
    if not isinstance(pair, (list, tuple)) or len(pair) != 4:
        raise ValueError(f"expected [x1, t1, x2, t2], got {pair!r}")
    x1, t1, x2, t2 = pair
    return grid.node(x1), _pair_time(t1), grid.node(x2), _pair_time(t2)


def _floor_snapshot_index(times: np.ndarray, s: float) -> int:
    idx = int(np.searchsorted(times, s + 1e-12 * (1.0 + abs(s)), side="right")) - 1
    return max(idx, 0)


def _cell_distance(grid, x1, x2) -> int:
    return max(
        abs(grid.wrap_delta(a, b, ax)) for ax, (a, b) in enumerate(zip(x1, x2))
    )


def default_substeps(grid, x1, x2, r_max: int = R_MAX_DEFAULT) -> int:
    """Layer count that keeps per-layer moves within r_max cells with slack."""
    d = _cell_distance(grid, x1, x2)
    return max(SUBSTEPS_FLOOR, int(np.ceil(4.0 * d / r_max)))


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
    times = traj.times
    total = 0.0
    for j in range(K):
        g = traj.snapshots[_floor_snapshot_index(times, t1 + j * ds)].g
        total += _segment_energy(grid, g, nodes[j], nodes[j + 1], ds)
    return total


def _layer_count(traj: Trajectory, x1, x2, t1, t2, substeps, r_max: int) -> int:
    """Validate one path-energy request between node tuples and return the
    number of layers K its dynamic program runs."""
    if not t1 < t2:
        raise ValueError("need t1 < t2")
    times = traj.times
    if t1 < times[0] - 1e-12 or t2 > times[-1] + 1e-12:
        raise ValueError(
            f"path times [{t1:g}, {t2:g}] outside stored range "
            f"[{times[0]:g}, {times[-1]:g}]"
        )
    check_int_range("r_max", r_max, 1, R_MAX_LIMIT)
    if substeps is None:
        substeps = default_substeps(traj.grid, x1, x2, r_max)
    check_int_range("substeps", substeps, 1, SUBSTEPS_LIMIT)
    K = int(substeps)
    if _cell_distance(traj.grid, x1, x2) > K * r_max:
        raise ValueError("target unreachable: cell distance exceeds K * r_max")
    return K


class _Layout:
    """Node fields padded by r_max cells of periodic copies on every axis and
    stored flat, so that for any move off of at most r_max cells per axis,
    entry y - off at every node y is one contiguous slice.

    ``work`` runs in the flat order from the first node to the last.  It
    also covers the padding cells between rows (each layer writes junk
    there, which `refresh` overwrites), and its slice shifted by any move
    stays inside the padded array, so no guard cells are needed.  On a 1-D
    grid ``work`` is exactly the nodes."""

    def __init__(self, shape: tuple, r_max: int):
        r = self.r_max = r_max
        self.padded = tuple(n + 2 * r for n in shape)
        self.strides = [math.prod(self.padded[ax + 1:]) for ax in range(len(shape))]
        self.nodes = tuple(slice(r, r + n) for n in shape)
        lo = r * sum(self.strides)
        self.work = slice(lo, lo + sum((n - 1) * s for n, s in zip(shape, self.strides)) + 1)
        # axis by axis, each over the full extent of the other axes, so the
        # corner cells are copied from padding the earlier axes filled
        self.copies = []
        for ax, n in enumerate(shape):
            lead = (slice(None),) * ax
            self.copies.append((lead + (slice(0, r),), lead + (slice(n, n + r),)))
            self.copies.append((lead + (slice(n + r, n + 2 * r),), lead + (slice(r, 2 * r),)))

    def source(self, off) -> slice:
        """The slice of a flat field holding entry y - off for each y of `work`."""
        o = sum(a * s for a, s in zip(off, self.strides))
        return slice(self.work.start - o, self.work.stop - o)

    def refresh(self, flat: np.ndarray) -> None:
        """Fill the padding of a flat field with periodic copies of its nodes."""
        a = flat.reshape(self.padded)
        for dst, src in self.copies:
            a[dst] = a[src]

    def pad(self, field: np.ndarray) -> np.ndarray:
        """A node field as a new flat array of the layout."""
        flat = np.empty(math.prod(self.padded))
        flat.reshape(self.padded)[self.nodes] = field
        self.refresh(flat)
        return flat

    def unpad(self, flat: np.ndarray) -> np.ndarray:
        return flat.reshape(self.padded)[self.nodes].copy()


def _edge_costs(grid, g, layout) -> list:
    """(off, edge) for one of every pair of opposite nonzero moves off, -off
    of at most r_max cells per axis, edge a flat field of the `_Layout`:
    edge[x] times the layer length is the energy of the move x -> x + off,
    costed with the endpoint-averaged metric g, and the energy of its
    reverse x + off -> x.

    A move and its reverse cross the same edge, so one average of g and one
    quadratic form serve both.  The form is the sum over (i, j), i outer,
    of (gbar_ij delta_i) delta_j added left to right, which is how numpy's
    einsum contracts "...ij,i,j->..." (the reversed delta flips the sign of
    both factors of each product, which leaves every rounded product
    unchanged)."""
    d = grid.dim
    padded = {(i, j): layout.pad(g[..., i, j]) for i in range(d) for j in range(i, d)}
    work = layout.work
    r = layout.r_max
    out = []
    for off in product(range(-r, r + 1), repeat=d):
        back = tuple(-o for o in off)
        if off <= back:
            continue
        delta = [h * o for h, o in zip(grid.h, off)]
        ahead = layout.source(back)  # entry x + off
        gbar = {ij: 0.5 * (gij[work] + gij[ahead]) for ij, gij in padded.items()}
        form = _sum((gbar[min(i, j), max(i, j)] * delta[i]) * delta[j]
                    for i in range(d) for j in range(d))
        edge = np.empty(math.prod(layout.padded))
        edge[work] = form
        layout.refresh(edge)
        out.append((off, edge))
    return out


def _move_costs(edges, ds: float, layout) -> list:
    """(view, cost) for every nonzero move off: cost[y] is the energy of the
    move y - off -> y over one layer of length ds, for each y of the
    layout's `work`, and view selects entry y - off of a flat field.  The
    edge of x -> x + off is stored at x, so the move off reads the scaled
    edge at y - off, and its reverse reads it at y: both are slices of one
    division of the padded edge, with no roll."""
    out = []
    for off, edge in edges:
        scaled = edge / ds
        view, back = layout.source(off), layout.source(tuple(-o for o in off))
        out.append((view, scaled[view]))
        out.append((back, scaled[layout.work]))
    return out


def gamma_fields(traj: Trajectory, programs, r_max: int = R_MAX_DEFAULT) -> list:
    """`gamma_field` of every program (x1, t1, t2, substeps), x1 a node
    tuple, all advanced in lockstep over the floor snapshots.

    The edge costs of each distinct floor metric array are built once, when
    the first program reaches a snapshot of it, and freed before the next
    metric's; programs sharing a layer length share one division of them.
    Alive at a time: one padded node field per program, one spare and one
    candidate field, and one metric's costs: half the moves' worth of
    unscaled edges and their scaled copies for one layer length.  Only
    r_max is checked here.
    """
    check_int_range("r_max", r_max, 1, R_MAX_LIMIT)
    grid = traj.grid
    times = traj.times
    layout = _Layout(grid.shape, r_max)
    work = layout.work
    costs, steps, layers = [], [], {}  # layers[snapshot][program] = count
    for p, (x1, t1, t2, K) in enumerate(programs):
        cost = np.full(grid.shape, np.inf)
        cost[x1] = 0.0
        costs.append(layout.pad(cost))
        ds = (t2 - t1) / K
        steps.append(ds)
        for k in range(K):
            at = layers.setdefault(_floor_snapshot_index(times, t1 + k * ds), {})
            at[p] = at.get(p, 0) + 1
    spare = np.empty(math.prod(layout.padded))
    cand = np.empty(work.stop - work.start)
    classes = traj.derived.metric_class
    built = None  # metric class of the snapshot whose costs are alive
    for idx in sorted(layers):
        if classes[idx] != built:
            edges = moves = None  # free the previous metric's costs first
            edges = _edge_costs(grid, traj.snapshots[idx].g, layout)
            built, step = classes[idx], None
        for p in sorted(layers[idx], key=steps.__getitem__):
            if steps[p] != step:
                moves = None
                step = steps[p]
                moves = _move_costs(edges, step, layout)
            cost = costs[p]
            for _ in range(layers[idx][p]):
                best = spare[work]
                np.copyto(best, cost[work])
                for view, move in moves:
                    np.add(cost[view], move, out=cand)
                    np.minimum(best, cand, out=best)
                layout.refresh(spare)
                cost, spare = spare, cost
            costs[p] = cost
    return [layout.unpad(cost) for cost in costs]


def gamma_field(
    traj: Trajectory,
    x1,
    t1: float,
    t2: float,
    substeps: int,
    r_max: int = R_MAX_DEFAULT,
) -> np.ndarray:
    """Infimal space-time path energy from (x1, t1) to every node at t2.

    Dynamic programming over `substeps` uniform time layers; each layer
    allows moves of up to r_max cells per axis, costed with the
    endpoint-averaged metric of the floor snapshot at the layer's start
    time.  Nodes farther than substeps * r_max cells from x1 are inf.  Only
    r_max is checked here; the other arguments are trusted: `gamma_inf` and
    `check_harnack` validate a request before they run it.

    Edge costs are built only when the floor metric changes (see
    `gamma_fields`).  Each layer refreshes the periodic padding of the cost
    once and adds each move's costs to a contiguous slice of it.
    """
    x1 = traj.grid.node(x1)
    return gamma_fields(traj, [(x1, t1, t2, int(substeps))], r_max)[0]


def gamma_inf(
    traj: Trajectory,
    x1,
    x2,
    t1: float,
    t2: float,
    substeps: int | None = None,
    r_max: int = R_MAX_DEFAULT,
) -> float:
    """Infimal space-time path energy from (x1, t1) to (x2, t2).

    The entry x2 of `gamma_field`, with `substeps` layers (default
    `default_substeps`).  On a flat 1d torus the optimum distributes the
    d-cell offset as evenly as possible, giving energy
    (d^2 + r (K - r)) h^2 / (t2 - t1) with r = d mod K: exactly
    d^2 h^2 / dt whenever K divides d.  The value never falls below the
    continuum infimum.
    """
    grid = traj.grid
    x1 = grid.node(x1)
    x2 = grid.node(x2)
    K = _layer_count(traj, x1, x2, t1, t2, substeps, r_max)
    return float(gamma_field(traj, x1, t1, t2, K, r_max)[x2])


def harnack_floor(
    u1: float,
    t1: float,
    t2: float,
    gamma: float,
    a1: float,
    a2: float,
    a3: float,
) -> float:
    """Pointwise lower bound for u(x2, t2) implied by the integrated
    gradient estimate with constants (a1, a2, a3)."""
    if not 0 < t1 < t2:
        raise ValueError("need 0 < t1 < t2")
    if a1 <= 0:
        raise ValueError("a1 must be positive")
    if u1 <= 0:
        raise ValueError("u1 must be positive")
    return (
        u1
        * (t2 / t1) ** (-a3 / a1)
        * np.exp(-a1 * gamma / 4.0 - (a2 / a1) * (t2 - t1))
    )


@dataclass
class HarnackReport:
    """Per-pair verification of a Harnack floor along a trajectory."""

    mode: str
    beta: float
    pairs: list
    tol_num: float
    c_tol: float
    scale: float
    constants: dict
    notes: dict = field(default_factory=dict)

    @property
    def min_margin(self) -> float:
        return float(min(p["margin_log"] for p in self.pairs))

    @property
    def ok(self) -> bool:
        return bool(self.pairs) and bool(self.min_margin >= -self.tol_num)

    def rows(self) -> list[dict]:
        return [dict(p) for p in self.pairs]

    def summary(self) -> dict:
        return {
            "theorem": "harnack",
            "mode": self.mode,
            "beta": self.beta,
            "ok": self.ok,
            "n_pairs": len(self.pairs),
            "min_margin": self.min_margin,
            "tol_num": self.tol_num,
            "c_tol": self.c_tol,
            "scale": self.scale,
            "constants": self.constants,
            "notes": self.notes,
        }


def check_harnack(
    traj: Trajectory,
    pairs,
    mode: str = "compact",
    beta: float = 2.0,
    cprime: float | None = None,
    c_tol: float = 10.0,
    tol_eig_factor: float = TOL_EIG_FACTOR,
    substeps: int | None = None,
    r_max: int = R_MAX_DEFAULT,
) -> HarnackReport:
    """Check u(x2, t2) >= floor for every pair ((x1, t1), (x2, t2)).

    compact mode gates on nonnegative Ricci curvature over the whole run,
    up to the tol_eig that tol_eig_factor sets (as in
    `estimates.check_global`), and uses the global-estimate constants, so a
    C' given to it is refused; complete mode has no curvature gate, so it
    takes the constants at the default factor, and needs beta > 1 and a C'
    (fit one with `estimates.fit_cprime(..., shape="harnack")`).
    Margins are compared in log domain.  Each pair is [x1, t1, x2, t2] with
    integer nodes of the grid's dimension and finite times that coincide
    with stored snapshots; a malformed pair, or one whose floor underflows
    to 0 (or overflows), is a ValueError naming its index.  Pairs that
    share (x1, t1, t2) and the layer count share one dynamic program (see
    `gamma_fields`); each row records the layer count it used as
    `substeps`.
    """
    if mode not in ("compact", "complete"):
        raise ValueError("mode must be 'compact' or 'complete'")
    if mode == "compact" and cprime is not None:
        raise ValueError(f"compact mode reads no C', got {cprime!r}")
    check_int_range("r_max", r_max, 1, R_MAX_LIMIT)
    grid = traj.grid
    if mode == "complete":
        tol_eig_factor = TOL_EIG_FACTOR
    constants = extract_constants(traj, tol_eig_factor=tol_eig_factor)
    n = grid.dim
    alpha0 = traj.schedule.alpha0
    if mode == "compact":
        if not constants.ric_nonneg:
            raise GateEmptyError(
                "compact Harnack gate requires nonnegative Ricci curvature "
                f"on the whole run (k1 = {constants.k1:g})"
            )
        a1 = 1.0
        a2 = np.sqrt(2.0) * constants.k2 * n
        a3 = n / 2.0 + np.sqrt(2.0) * n * constants.c_phi * alpha0
    else:
        check_beta(beta, strict=True)
        if cprime is None or not 0 < cprime < np.inf:
            raise ValueError(f"complete mode needs a positive C' (finite), got {cprime!r}")
        b2 = beta * beta
        kbar = max(constants.k1, constants.k2)
        a1 = beta
        a2 = cprime * b2 * kbar + n * b2 * constants.k1 / (4.0 * (beta - 1.0))
        a3 = cprime * b2

    if not isinstance(pairs, (list, tuple)):
        raise ValueError(f"pairs must be a list of [x1, t1, x2, t2], got {pairs!r}")
    requests = []
    for i, pair in enumerate(pairs):
        try:
            x1, t1, x2, t2 = _parse_pair(grid, pair)
            i1, i2 = traj.snapshot_at(t1), traj.snapshot_at(t2)
            t1, t2 = traj.snapshots[i1].t, traj.snapshots[i2].t
            K = _layer_count(traj, x1, x2, t1, t2, substeps, r_max)
            if not t1 > 0:
                raise ValueError("need 0 < t1 < t2")
        except ValueError as exc:
            raise ValueError(f"pair {i}: {exc}") from None
        requests.append((x1, i1, x2, i2, K))
    if not requests:
        raise ValueError("no pairs supplied")

    # one dynamic program per source, read at every target that shares it
    sources = {}
    for j, (x1, i1, _, i2, K) in enumerate(requests):
        sources.setdefault((x1, i1, i2, K), []).append(j)
    programs = [(x1, traj.snapshots[i1].t, traj.snapshots[i2].t, K)
                for x1, i1, i2, K in sources]
    gammas = [0.0] * len(requests)
    for field, members in zip(gamma_fields(traj, programs, r_max), sources.values()):
        for j in members:
            gammas[j] = float(field[requests[j][2]])

    results = []
    lhs_all, rhs_all = [], []
    for i, ((x1, i1, x2, i2, K), gamma) in enumerate(zip(requests, gammas)):
        s1, s2 = traj.snapshots[i1], traj.snapshots[i2]
        u1 = float(s1.u[x1])
        u2 = float(s2.u[x2])
        floor = harnack_floor(u1, s1.t, s2.t, gamma, a1, a2, a3)
        if not 0.0 < floor < np.inf:  # its log margin would not be finite
            raise ValueError(
                f"pair {i}: Harnack floor {float(floor)!r} is not a positive finite "
                f"number (gamma = {gamma:g} over {K} layers)"
            )
        lhs = np.log(u2) - np.log(u1)
        rhs = np.log(floor) - np.log(u1)
        lhs_all.append(lhs)
        rhs_all.append(rhs)
        results.append(
            {
                "x1": x1,
                "t1": float(s1.t),
                "x2": x2,
                "t2": float(s2.t),
                "u1": u1,
                "u2": u2,
                "gamma": gamma,
                "substeps": K,
                "floor": floor,
                "margin_log": float(lhs - rhs),
            }
        )
    tol, scale = tol_num(traj, c_tol, lhs_all, rhs_all)
    for p in results:
        p["ok"] = bool(p["margin_log"] >= -tol)
    return HarnackReport(
        mode=mode,
        beta=beta if mode == "complete" else 1.0,
        pairs=results,
        tol_num=tol,
        c_tol=c_tol,
        scale=scale,
        constants=constants.as_dict(),
        notes={
            "a1": a1,
            "a2": a2,
            "a3": a3,
            "cprime": cprime,
            "r_max": r_max,
            "substeps": substeps,
            "gamma_conservative": "discrete path energy >= continuum infimum; "
            "floors are never optimistic",
        },
    )
