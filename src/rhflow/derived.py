"""Derived fields of one trajectory, built on first use and shared by every check.

Every check reads the same fields of a run: the Ricci tensor and the
curvature bounds taken from it, f = log u with its time derivative and
gradient square, and geodesic distance fields.  ``TrajectoryFields`` computes
each of them once, when a check first asks for it, and keeps it for the
next check.  What depends on the metric alone is computed once per distinct
metric array: consecutive snapshots whose metric arrays are one object or
equal in content (``metric_class``) share it, so a static run computes it
once in all, in memory or reloaded, and a coupled run once per snapshot:

    ricci(i)      Ricci tensor of stored snapshot i as the symmetric
                  component list R[i][j] of `geometry._ricci` ([0][1] and
                  [1][0] one array), kept once per distinct metric array
    laplacian(i)  `geometry.Laplacian` of snapshot i's metric class; only the
                  last one built is kept (a walk in order builds one per class)
    curvature     (lam_min, lam_max, t_lam_outer), each of shape (S,) + grid
                  shape: `curvature_fields` once per distinct metric array
                  whose phi is equal too, its map term then scaled by each
                  snapshot's t
    log_u(idx)    f = log u at snapshots idx
    f_t(idx)      centered difference of f at interior snapshots idx
    grad_sq(idx)  |grad f|^2 at snapshots idx
    liyau(idx, beta)
                  the Li-Yau left side |grad f|^2 - beta f_t at interior
                  snapshots idx, the quantity every estimate bounds (not
                  kept)
    distance(x0)  geodesic distance from node x0 (`Grid.node`, so every
                  spelling of one node shares it) per snapshot, shape (S,) +
                  grid shape, with one `distance.geodesic_distance` per
                  distinct metric array

`curvature_fields` is the one eigenvalue pass behind every hypothesis
constant.  The run reduces the same fields to ``traj.constants`` as it
steps (`flow.snapshot_constants`), where each snapshot's Ricci tensor is at
hand (a moving run forms them with the same `geometry` eigenvalue calls,
bound in its workspace); the layer computes them again rather than keep
the run's fields, so an unchecked trajectory holds nothing but its
snapshots.

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

What only one check reads is not kept: `estimates.identity_residuals`
builds each snapshot's Christoffel field once per call and shares it
among its own terms, and `harnack.gamma_fields` builds
the edge costs once per distinct floor metric array per call (it reads
``metric_class`` too).

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
in 2-D) is freed when `flow.run` returns, and the one-shot kernels of the
Ricci tensor, Christoffel symbols and dphi (x) dphi that the layer and the
checks call free theirs with their results.
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


def curvature_fields(metric, ric, outer) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """lam_min(Ric), lam_max(Ric) and lam_max(dphi (x) dphi) at every node
    of one snapshot, eigenvalues relative to its metric (a MetricFields);
    ``ric`` and ``outer`` are the Ricci tensor of that metric and the map's
    dphi (x) dphi, as arrays or component lists (`geometry.eig_general`).
    The map term is not yet scaled by the snapshot's time: the hypothesis
    constant c_phi bounds t times it."""
    lam_ric = geometry.eig_general(ric, metric)
    lam_outer = geometry.eig_general(outer, metric)
    return lam_ric[..., 0], lam_ric[..., -1], lam_outer[..., -1]


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

    def ricci(self, i: int) -> list:
        key = self.metric_class[i]
        if key not in self._ricci:
            self._ricci[key] = geometry._ricci(self.grid, self.snapshots[key].metric)
        return self._ricci[key]

    @functools.cached_property
    def curvature(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        shape = (len(self.snapshots),) + self.grid.shape
        lam_min, lam_max, t_lam_outer = np.empty(shape), np.empty(shape), np.empty(shape)
        fields = key = phi = None  # of the last snapshot whose fields were computed
        for i, s in enumerate(self.snapshots):
            c = self.metric_class[i]
            if c != key or not (s.phi is phi or np.array_equal(s.phi, phi)):
                outer = geometry._grad_phi_outer(self.grid, s.phi)
                fields, key, phi = curvature_fields(s.metric, self.ricci(i), outer), c, s.phi
            lam_min[i], lam_max[i] = fields[0], fields[1]
            t_lam_outer[i] = s.t * fields[2]
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

    def distance(self, x0) -> np.ndarray:
        key = self.grid.node(x0)
        if key not in self._distance:
            out = []
            for i, s in enumerate(self.snapshots):
                if self.metric_class[i] == i:
                    last = distance.geodesic_distance(self.grid, s.metric, key)
                out.append(last)
            self._distance[key] = np.stack(out)
        return self._distance[key]


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
