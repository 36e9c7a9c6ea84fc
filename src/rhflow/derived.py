"""Derived fields of one trajectory, built on first use and shared by every check.

Every check reads the same fields of a run: the Ricci tensor and the
curvature bounds taken from it, f = log u with its time derivative and
gradient square, and geodesic distance fields.  ``TrajectoryFields`` computes
each of them once, when a check first asks for it, and keeps it for the
next check.  What depends on the metric alone is computed once per distinct
metric array: consecutive snapshots whose metric arrays are one object or
equal in content (``metric_class``) share it, so a static run computes it
once in all, in memory or reloaded, and a coupled run once per snapshot:

    ricci(idx)    Ricci tensor of stored snapshot idx as the symmetric
                  component list R[i][j] ([0][1] and [1][0] one array), or a
                  list of them for a sequence of indices, kept once per
                  distinct metric array; the missing ones are formed in one
                  pass
    laplacian(i)  `geometry.Laplacian` of snapshot i's metric class; only the
                  last one built is kept (a walk in order builds one per class)
    curvature     (lam_min, lam_max, t_lam_outer), each of shape (S,) + grid
                  shape: the eigenvalues of `curvature_fields` once per
                  distinct metric array whose phi is equal too, its map term
                  then scaled by each snapshot's t
    log_u(idx)    f = log u at snapshots idx
    f_t(idx)      centered difference of f at interior snapshots idx
    grad_sq(idx)  |grad f|^2 at snapshots idx
    liyau(idx, beta)
                  the Li-Yau left side |grad f|^2 - beta f_t at interior
                  snapshots idx, the quantity every estimate bounds (not
                  kept)
    distance(x0, rho)
                  geodesic distance from node x0 (`Grid.node`, so every
                  spelling of one node shares it) per snapshot, shape (S,) +
                  grid shape, exact below rho and at least rho elsewhere
                  (without rho, exact everywhere), with one
                  `distance.ball_distance` per distinct metric array; kept
                  per node with the largest radius built

A pass over the metric classes binds one `CurvatureKernel` (a
`geometry.Curvature`, a `geometry.MapGradient` and the eigenvalue calls of
both) on contiguous buffers of its own, copies each class's metric and
each distinct map into them and runs the bound calls again, so a pass
binds its 146 Ricci calls once, not once per snapshot.  The same kernel
is the one eigenvalue pass behind every hypothesis constant: a moving run
binds one on its workspace (`flow._Workspace`) and reduces its fields to
``traj.constants`` as it steps, and `curvature_fields` binds one for a
single snapshot (a static run's, `flow.snapshot_constants`).  The layer
computes them again rather than keep the run's fields, so an unchecked
trajectory holds nothing but its snapshots.

f, f_t and |grad f|^2 are kept as snapshot stacks of shape (S,) + grid
shape, whose rows are built when a check first asks for them and only for
the snapshots it asks for.  idx is one index, for one node field, or a
sequence of them, for the stack's rows there (a view where they ascend one
by one).  Missing rows are built in batched passes over runs of
consecutive snapshots, each over at most `BATCH_NODES` nodes: |grad f|^2
with one metric class's g^{ij} per pass, and f_t as a first difference
along the snapshot axis; f is one logarithm per snapshot, written into its
row (a stacked copy of u costs more).  Every node keeps the floating-point
operations, and their order, of the per-snapshot formulas, so a stack row
is bit for bit that snapshot's field.  So a check evaluates its formulas
over all its snapshots at once (in parts of ``batch`` snapshots, at most
`BATCH_NODES` nodes), not once per snapshot.

What only one check reads is built only where it is read, and not kept.
`estimates.identity_residuals` binds one `CurvatureKernel` per call and
forms in it the Christoffel field of each metric class it reads, shared
among its own terms.  `harnack.gamma_fields` builds the edge costs once
per distinct floor metric array per call (it reads ``metric_class``
too).  The local checks read distance only on the ball B(x0, rho) and
its half (constants on the ball, margins on the half ball, as in Li and
Yau's cutoff argument), so they ask for ``distance(x0, rho)``, whose 2-D
relaxation stops once every value below rho is final.

A trajectory reaches its layer as ``traj.derived``.  The layer lives as long
as the trajectory, is never saved and takes no part in equality; a copy of
the trajectory starts with an empty one.  Once every check has run it holds
at most 9 node fields per stored snapshot in 2-D (Ricci 3, curvature 3, and
the f, f_t and |grad f|^2 stacks, allocated whole with the layer and
touched at the snapshots that checks asked for) plus one per distance
centre, and one Laplacian (about 13 node fields in 2-D, most of them flat
and periodically padded); in 1-D, at most 7 plus one per centre, and a
Laplacian of about 7.  The snapshots must not be modified once it holds
any of them, nor the fields it hands out.  The run itself keeps
nothing either: the workspace a moving run steps in (about 60 node fields
in 2-D) is freed when `flow.run` returns, and the kernel of a pass (about
40 node fields in 2-D) is freed when the pass returns.
"""

from __future__ import annotations

import functools
import weakref

import numpy as np

from . import distance, geometry

# Nodes a batched pass over snapshots takes at once: 64 KiB per field of
# doubles.  Past it the pass costs more per node: |grad f|^2 over three 64x64
# snapshots at once took 2.7 times as long per snapshot as over one or two.
BATCH_NODES = 8192


class CurvatureKernel:
    """Ric and dphi (x) dphi of a metric and a map held in buffers, and
    their eigenvalues relative to the metric (`curvature_fields`): a
    `geometry.Curvature`, a `geometry.MapGradient` and the
    `geometry._eig_calls` of both, each a fixed list of in-place calls
    bound once and run for every metric and map the buffers hold.

    ``metric`` is a MetricFields whose comp, inv and sqrt_det are
    C-contiguous node fields and ``phi`` a C-contiguous map array; the calls
    read what these hold when they run.  A moving run binds one on its
    workspace's state, with five of its node fields as the eigenvalue
    calls' ``scratch``; `bound` makes one on buffers of its own, which
    `load_metric` and a copy into ``phi`` fill with a stored snapshot's
    fields.  Ric is `curvature.ric` and dphi (x) dphi `gradient.outer`; the
    eigenvalue calls read what these hold when `eigenvalues` runs them.
    """

    def __init__(self, grid, metric: geometry.MetricFields, phi: np.ndarray, scratch=None):
        self.grid, self.metric, self.phi = grid, metric, phi
        self.curvature = geometry.Curvature(grid, metric.comp, metric.inv)
        self.gradient = geometry.MapGradient(grid, phi)
        self._scratch, self._eig, self._fields = scratch, None, None

    @classmethod
    def bound(cls, grid, phi_shape: tuple) -> "CurvatureKernel":
        """A kernel on buffers of its own, for a map of shape ``phi_shape``."""
        def new(*_):
            return np.empty(grid.shape)

        metric = geometry.MetricFields._assembled(
            None, geometry._sym(grid.dim, new), geometry._sym(grid.dim, new), new(), np.nan)
        return cls(grid, metric, np.empty(phi_shape))

    def load_metric(self, metric: geometry.MetricFields) -> None:
        """Copy g_ij, g^{ij} and sqrt(det g) of ``metric`` into the buffers."""
        d = metric.dim
        for i in range(d):
            for j in range(i, d):
                np.copyto(self.metric.comp[i][j], metric.comp[i][j])
                np.copyto(self.metric.inv[i][j], metric.inv[i][j])
        np.copyto(self.metric.sqrt_det, metric.sqrt_det)

    def eigenvalues(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """lam_min(Ric), lam_max(Ric) and lam_max(dphi (x) dphi) relative to
        the metric, of what the buffers hold, in buffers that the next call
        overwrites."""
        if self._eig is None:  # bound on first use: a Christoffel field needs none
            new = functools.partial(np.empty, self.grid.shape)
            scratch = self._scratch or [new() for _ in range(5)]
            lam = [new() for _ in range(4)]
            self._eig = (
                geometry._eig_calls(self.metric, self.curvature.ric, *lam[:2], scratch)
                + geometry._eig_calls(self.metric, self.gradient.outer, *lam[2:], scratch))
            two = self.grid.dim == 2
            self._fields = (lam[0], lam[1 if two else 0], lam[3 if two else 2])
        geometry._run(self._eig)
        return self._fields


def curvature_fields(grid, metric: geometry.MetricFields,
                     phi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """lam_min(Ric), lam_max(Ric) and lam_max(dphi (x) dphi) at every node
    of one snapshot, eigenvalues relative to its metric (a MetricFields),
    as new arrays, from a `CurvatureKernel` bound for this call.  The map
    term is not yet scaled by the snapshot's time: the hypothesis constant
    c_phi bounds t times it."""
    kernel = CurvatureKernel.bound(grid, phi.shape)
    kernel.load_metric(metric)
    np.copyto(kernel.phi, phi)
    kernel.curvature.ricci()
    kernel.gradient()
    return kernel.eigenvalues()


class TrajectoryFields:
    """Lazily computed, shared derived fields of one trajectory.

    It refers to its trajectory only weakly (``owner``), so the two form no
    reference cycle and are freed together as soon as the trajectory is
    unreachable."""

    def __init__(self, traj):
        self.owner = weakref.ref(traj)
        self.grid = traj.grid
        self.snapshots = traj.snapshots
        self.times = traj.times
        self._ricci = {}
        shape = (len(self.snapshots),) + self.grid.shape
        self._f, self._f_t, self._grad_sq = _Stack(shape), _Stack(shape), _Stack(shape)
        # snapshots per batched pass
        self.batch = max(1, BATCH_NODES // int(np.prod(self.grid.shape)))
        self._distance = {}
        self._laplacian = (None, None)  # (metric class, its operator)

    @functools.cached_property
    def metric_class(self) -> list[int]:
        """For each stored snapshot, the index of the first of the
        consecutive snapshots whose metric arrays equal its own (the same
        object, or separate arrays of equal content, as a reloaded static
        run holds).  What depends on the metric alone is computed once per
        class."""
        out = []
        for i, s in enumerate(self.snapshots):
            prev = self.snapshots[i - 1].g if i else None
            same = i > 0 and (s.g is prev or np.array_equal(s.g, prev))
            out.append(out[-1] if same else i)
        return out

    def ricci(self, idx):
        """The Ricci components R[i][j] of snapshot idx ([0][1] and [1][0]
        one array), or for a sequence of indices a list of them; the
        metric classes not yet kept are formed in one pass, in one
        `CurvatureKernel`."""
        if isinstance(idx, (int, np.integer)):
            return self.ricci([idx])[0]
        keys = [self.metric_class[i] for i in idx]
        missing = sorted(set(keys) - self._ricci.keys())
        if missing:
            kernel = CurvatureKernel.bound(self.grid, self.snapshots[0].phi.shape)
            for key in missing:
                self._form_ricci(kernel, key)
        return [self._ricci[key] for key in keys]

    def _form_ricci(self, kernel: CurvatureKernel, key: int) -> None:
        """Load metric class ``key`` into the kernel and leave its Ricci
        tensor in ``kernel.curvature.ric``: formed there, and a copy kept,
        or copied in if already kept."""
        kernel.load_metric(self.snapshots[key].metric)
        ric, d = kernel.curvature.ric, self.grid.dim
        if key in self._ricci:
            for i in range(d):
                for j in range(i, d):
                    np.copyto(ric[i][j], self._ricci[key][i][j])
        else:
            kernel.curvature.ricci()
            self._ricci[key] = geometry._sym(d, lambda i, j: ric[i][j].copy())

    @functools.cached_property
    def curvature(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        shape = (len(self.snapshots),) + self.grid.shape
        lam_min, lam_max, t_lam_outer = np.empty(shape), np.empty(shape), np.empty(shape)
        kernel = CurvatureKernel.bound(self.grid, self.snapshots[0].phi.shape)
        key = phi = None  # the metric class and the map the kernel holds
        for i, s in enumerate(self.snapshots):
            c = self.metric_class[i]
            new_map = phi is None or not (s.phi is phi or np.array_equal(s.phi, phi))
            if c != key:
                self._form_ricci(kernel, c)
            if new_map:
                np.copyto(kernel.phi, s.phi)
                kernel.gradient()
                phi = s.phi
            if c != key or new_map:
                fields, key = kernel.eigenvalues(), c
            lam_min[i], lam_max[i] = fields[0], fields[1]
            np.multiply(s.t, fields[2], out=t_lam_outer[i])
        return lam_min, lam_max, t_lam_outer

    def laplacian(self, i: int) -> geometry.Laplacian:
        key = self.metric_class[i]
        if self._laplacian[0] != key:
            self._laplacian = (key, geometry.Laplacian(self.grid, self.snapshots[key].metric))
        return self._laplacian[1]

    def log_u(self, idx) -> np.ndarray:
        """f = log u at snapshots idx: one index, or a sequence of them for
        a stack of shape (len(idx),) + grid shape.  Like `f_t` and
        `grad_sq`, a view of the layer's stack where idx is one index or
        consecutive ones, which must not be modified."""
        return self._f.get(idx, self._build_f, self.batch)

    def f_t(self, idx) -> np.ndarray:
        """d/dt of f at interior snapshots idx, centered over their neighbours."""
        return self._f_t.get(idx, self._build_f_t, self.batch)

    def grad_sq(self, idx) -> np.ndarray:
        """|grad f|^2 at snapshots idx."""
        return self._grad_sq.get(idx, self._build_grad_sq, self.batch)

    def liyau(self, idx, beta: float) -> np.ndarray:
        """|grad f|^2 - beta f_t at interior snapshots idx, a new array."""
        return self.grad_sq(idx) - beta * self.f_t(idx)

    def inverse(self, rows) -> list:
        """g^{ij} of snapshots ``rows`` as component lists that broadcast
        against their stack: one metric class's own node fields, or, where
        the rows span several classes, a stack per component."""
        classes = {self.metric_class[i] for i in rows}
        if len(classes) == 1:
            return self.snapshots[classes.pop()].metric.inv
        return geometry._sym(self.grid.dim, lambda a, b: np.stack(
            [self.snapshots[i].metric.inv[a][b] for i in rows]))

    # builders: each writes snapshots lo to hi - 1 of its field into out

    def _build_f(self, lo: int, hi: int, out: np.ndarray) -> None:
        for s, row in zip(self.snapshots[lo:hi], out):  # no stacked copy of u
            np.log(s.u, out=row)

    def _build_f_t(self, lo: int, hi: int, out: np.ndarray) -> None:
        if lo < 1 or hi > len(self.snapshots) - 1:
            bad = lo if lo < 1 else hi - 1
            raise ValueError(f"f_t needs an interior snapshot, got index {bad}")
        f = self.log_u(slice(lo - 1, hi + 1))
        times = self.times
        np.subtract(f[2:], f[:-2], out=out)
        np.divide(out, (times[lo + 1:hi + 1] - times[lo - 1:hi - 1]).reshape(
            (-1,) + (1,) * self.grid.dim), out=out)

    def _build_grad_sq(self, lo: int, hi: int, out: np.ndarray) -> None:
        # one batch per run of snapshots of one metric class, with its g^{ij}
        f = self.log_u(slice(lo, hi))
        classes = self.metric_class
        start = lo
        for i in range(lo + 1, hi + 1):
            if i == hi or classes[i] != classes[start]:
                inv = self.snapshots[classes[start]].metric.inv
                out[start - lo:i - lo] = geometry._gradient_norm_sq(
                    self.grid, inv, f[start - lo:i - lo])
                start = i

    def distance(self, x0, rho: float = np.inf) -> np.ndarray:
        """Geodesic distance from node x0 per snapshot, shape (S,) + grid
        shape, exact where it is below ``rho`` and at least ``rho``
        elsewhere (`distance.ball_distance`; without ``rho``, exact
        everywhere).  One field per distinct metric array; kept per node
        with the largest radius built, which serves every smaller one."""
        key = self.grid.node(x0)
        if not rho >= 0:
            rho = 0.0  # a NaN or negative radius holds no node, as does 0
        if key not in self._distance or self._distance[key][0] < rho:
            out = []
            for i, s in enumerate(self.snapshots):
                if self.metric_class[i] == i:
                    last = distance.ball_distance(self.grid, s.metric, key, rho)
                out.append(last)
            # the 1-D ring is exact everywhere
            self._distance[key] = (rho if self.grid.dim == 2 else np.inf, np.stack(out))
        return self._distance[key][1]


def stack_rows(rows):
    """Snapshot indices (ints) as a slice where they ascend one by one, so
    that indexing a stack with them gives a view, and as an array else."""
    seq = rows.tolist() if isinstance(rows, np.ndarray) else list(rows)
    if seq and seq == list(range(seq[0], seq[0] + len(seq))):
        return slice(seq[0], seq[0] + len(seq))
    return np.asarray(rows)


class _Stack:
    """One node field of every stored snapshot as a (S,) + grid stack, its
    rows built on first use: ``build(lo, hi, out)`` writes snapshots lo to
    hi - 1 into ``out``, one batched pass per run of consecutive missing
    rows, of at most ``batch`` rows.  The stack holds no reference to its
    builder, so a layer and its stacks form no cycle."""

    def __init__(self, shape: tuple):
        self.data = np.empty(shape)
        self.have = np.zeros(shape[0], dtype=bool)
        self.index = np.arange(shape[0])

    def get(self, idx, build, batch: int) -> np.ndarray:
        """The stack at idx, an index or a sequence of them (or a slice),
        its missing rows built first; a view where idx is one index or
        consecutive ones."""
        if isinstance(idx, (int, np.integer)) and self.have[idx]:
            return self.data[idx]
        rows = self.index[idx]
        if np.ndim(rows):
            rows = stack_rows(rows)
        if not self.have[rows].all():
            want = np.zeros_like(self.have)
            want[rows] = True
            missing = np.flatnonzero(want > self.have)
            for run in np.split(missing, np.flatnonzero(np.diff(missing) != 1) + 1):
                for lo in range(int(run[0]), int(run[-1]) + 1, batch):
                    hi = min(lo + batch, int(run[-1]) + 1)
                    build(lo, hi, self.data[lo:hi])
                    self.have[lo:hi] = True
        return self.data[rows]
