"""Geodesic distance on a discrete metric by shortest paths on the grid graph.

Nodes are grid points; edges connect each node to its 2 neighbors in 1D or
its 8 neighbors (axis plus diagonal moves) in 2D.  An edge between nodes a, b
with chart displacement delta gets the weight

    sqrt( delta^T gbar delta ),   gbar = (g[a] + g[b]) / 2,

i.e. the length of the straight chart segment in the endpoint-averaged
metric.  A label-setting shortest-path sweep (Dijkstra) then yields an
approximation of geodesic distance that is exact for axis-aligned targets on
flat tori and overestimates by at most the stencil metrication constant
(1/cos(pi/8), about 8.2%, for the 8-neighbor stencil) in general.  The
returned value never underestimates large distances by more than the
quadrature error of the edge weights, so downstream consumers treating it as
"the" distance err on the conservative side for ball masks.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .geometry import _sum, metric_fields
from .grid import Grid, shift

# Worst-case overestimation factor of the 8-neighbor stencil on flat space.
METRICATION_8 = 1.0 / np.cos(np.pi / 8.0)


def _stencil_offsets(dim: int) -> list[tuple[int, ...]]:
    if dim == 1:
        return [(1,), (-1,)]
    return [
        (di, dj)
        for di in (-1, 0, 1)
        for dj in (-1, 0, 1)
        if not (di == 0 and dj == 0)
    ]


@functools.lru_cache(maxsize=8)
def _graph_structure(shape: tuple) -> tuple:
    """Row pointers and column indices of the stencil graph on a grid of
    this shape in canonical CSR form (each row's columns ascending), and the
    per-row order that sorts a node's stencil neighbours into it."""
    dim = len(shape)
    idx = np.arange(math.prod(shape)).reshape(shape)
    offsets = _stencil_offsets(dim)
    cols = np.stack(
        [np.roll(idx, shift=[-o for o in off], axis=tuple(range(dim))).ravel()
         for off in offsets],
        axis=1,
    )
    order = np.argsort(cols, axis=1, kind="stable").astype(np.int8)
    indices = np.take_along_axis(cols, order, axis=1).ravel().astype(np.int32)
    indptr = np.arange(0, indices.size + 1, len(offsets), dtype=np.int32)
    return indptr, indices, order


def _edge_graph(grid: Grid, g: np.ndarray):
    """The weighted stencil graph as a scipy.sparse.csr_matrix, built
    directly in canonical CSR form (the form a COO assembly of the same
    edges converts to; grids have at least 8 nodes per axis, so no two
    stencil neighbours of a node coincide)."""
    from scipy.sparse import csr_matrix  # scipy loads only when a distance is taken

    indptr, indices, order = _graph_structure(grid.shape)
    weights = []
    for off in _stencil_offsets(grid.dim):
        g_nbr = g
        for ax, o in enumerate(off):
            if o:
                g_nbr = shift(g_nbr, -o, ax)  # g at the neighbour x + off
        gbar = 0.5 * (g + g_nbr)
        delta = [o * h for o, h in zip(off, grid.h)]
        # delta_i gbar_ij delta_j, i outer, products and sums left to right
        form = _sum((delta[i] * gbar[..., i, j]) * delta[j]
                    for i in range(grid.dim) for j in range(grid.dim))
        weights.append(np.sqrt(form).ravel())
    data = np.take_along_axis(np.stack(weights, axis=1), order, axis=1).ravel()
    n = grid.n_nodes
    return csr_matrix((data, indices.copy(), indptr.copy()), shape=(n, n))


def geodesic_distance(grid: Grid, g, x0) -> np.ndarray:
    """Distance field from node x0 (see `Grid.node`) in the metric ``g``, a
    MetricFields or a raw array (validated here).

    Returns an array of shape ``grid.shape``.  The graph is searched as
    directed: its weights are exactly symmetric (an edge and its reverse
    average the same two endpoint metrics, and flipping the sign of delta
    is exact), so each edge is stored once per direction already.
    """
    g = metric_fields(g).g
    source = int(np.ravel_multi_index(grid.node(x0), grid.shape))
    from scipy.sparse.csgraph import dijkstra

    graph = _edge_graph(grid, g)
    dist = dijkstra(graph, directed=True, indices=source)
    return dist.reshape(grid.shape)


def flat_torus_distance(grid: Grid, x0, x1) -> float:
    """Closed-form Euclidean distance between nodes on the flat torus."""
    x0, x1 = grid.node(x0), grid.node(x1)
    d2 = 0.0
    for ax in range(grid.dim):
        cells = grid.wrap_delta(x0[ax], x1[ax], ax)
        d2 += float(cells * grid.h[ax]) ** 2
    return float(np.sqrt(d2))
