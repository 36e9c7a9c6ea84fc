"""Derived fields of one trajectory, built on first use and shared by every check.

Every check reads the same fields of a run: the Ricci tensor and the
curvature bounds taken from it, f = log u with its time derivative and
gradient square, and geodesic distance fields.  ``TrajectoryFields`` computes
each of them once, when a check first asks for it, and keeps it for the
next check.  What depends on the metric alone is computed once per distinct
metric array: consecutive snapshots whose metric arrays are one object or
equal in content (``metric_class``) share it, so a static run computes it
once in all, in memory or reloaded, and a coupled run once per snapshot:

    ricci(i)      Ricci tensor of stored snapshot i, kept as its d(d+1)/2
                  distinct components once per distinct metric array
    laplacian(i)  `geometry.Laplacian` of snapshot i's metric class; only the
                  last one built is kept (a walk in order builds one per class)
    curvature     (lam_min, lam_max, t_lam_outer), each of shape (S,) + grid
                  shape: `curvature_fields` once per distinct metric array
                  whose phi is equal too, its map term then scaled by each
                  snapshot's t
    f_t(i)        centered difference of f = log u at interior snapshot i
    grad_sq(i)    |grad f|^2 at snapshot i
    liyau(i, beta)
                  the Li-Yau left side |grad f|^2 - beta f_t at interior
                  snapshot i, the quantity every estimate bounds (not kept)
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

``log_u(i)``, f itself, costs one logarithm per node and is not kept.
Neither is what only one check reads: `estimates.identity_residuals`
builds each snapshot's Christoffel field once per call and shares it
among its own terms, and `harnack.gamma_fields` builds
the edge costs once per distinct floor metric array per call (it reads
``metric_class`` too).

A trajectory reaches its layer as ``traj.derived``.  The layer lives as long
as the trajectory, is never saved and takes no part in equality; a copy of
the trajectory starts with an empty one.  Once every check has run it holds
at most 8 node fields per stored snapshot in 2-D (Ricci 3, curvature 3,
|grad f|^2 and f_t one each; f_t at interior snapshots only) plus one per
distance centre, and one Laplacian (about 13 node fields in 2-D, most of
them flat and periodically padded); in 1-D, at most 6 plus one per centre,
and a Laplacian of about 7.  The snapshots
must not be modified once it holds any of them.  The run itself keeps
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
        self._f_t = {}
        self._grad_sq = {}
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

    def ricci(self, i: int) -> np.ndarray:
        key = self.metric_class[i]
        kept = self._ricci.get(key)
        if kept is None:
            ric = geometry.ricci(self.grid, self.snapshots[key].metric)
            # exactly symmetric, so its upper triangle holds all of it
            d = ric.shape[-1]
            self._ricci[key] = tuple(ric[..., a, b].copy() for a in range(d) for b in range(a, d))
            return ric
        if len(kept) == 1:
            return kept[0][..., None, None]
        r00, r01, r11 = kept
        return np.stack([np.stack([r00, r01], axis=-1), np.stack([r01, r11], axis=-1)], axis=-2)

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

    def log_u(self, i: int) -> np.ndarray:
        return np.log(self.snapshots[i].u)

    def f_t(self, i: int) -> np.ndarray:
        """d/dt of f at an interior snapshot, centered over its neighbours."""
        if not 0 < i < len(self.snapshots) - 1:
            raise ValueError(f"f_t needs an interior snapshot, got index {i}")
        if i not in self._f_t:
            times = self.times
            self._f_t[i] = ((self.log_u(i + 1) - self.log_u(i - 1))
                            / (times[i + 1] - times[i - 1]))
        return self._f_t[i]

    def grad_sq(self, i: int) -> np.ndarray:
        if i not in self._grad_sq:
            s = self.snapshots[i]
            self._grad_sq[i] = geometry.gradient_norm_sq(self.grid, s.metric, self.log_u(i))
        return self._grad_sq[i]

    def liyau(self, i: int, beta: float) -> np.ndarray:
        return self.grad_sq(i) - beta * self.f_t(i)

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
