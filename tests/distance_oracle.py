"""Reference geodesic distance: scipy's Dijkstra on the stencil graph.

The graph is assembled here, edge list first, from its own offset list and
`np.roll`, with each weight an einsum of the endpoint-averaged metric, so
the reference shares no code with `rhflow.distance` but the metric it is
given.  scipy is a test dependency only.  `flat_torus_distance` is the
closed-form distance on a flat torus.
"""

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

STENCIL = {
    1: [(1,), (-1,)],
    2: [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if (di, dj) != (0, 0)],
}


def stencil_weights(grid, g) -> list:
    """(off, w) for every stencil move off, w[x] the weight of the edge
    x -> x + off: sqrt(delta^T gbar delta), gbar the average of g at x and
    at x + off."""
    axes = tuple(range(grid.dim))
    out = []
    for off in STENCIL[grid.dim]:
        gbar = 0.5 * (g + np.roll(g, shift=[-o for o in off], axis=axes))
        delta = np.array([o * h for o, h in zip(off, grid.h)])
        out.append((off, np.sqrt(np.einsum("i,...ij,j->...", delta, gbar, delta))))
    return out


def coo_edge_graph(grid, g):
    """The stencil graph assembled edge list first, as a COO matrix converted
    to CSR."""
    n = grid.n_nodes
    idx = np.arange(n).reshape(grid.shape)
    axes = tuple(range(grid.dim))
    rows, cols, weights = [], [], []
    for off, w in stencil_weights(grid, g):
        rows.append(idx.ravel())
        cols.append(np.roll(idx, shift=[-o for o in off], axis=axes).ravel())
        weights.append(w.ravel())
    return coo_matrix((np.concatenate(weights), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n)).tocsr()


def dijkstra_distance(grid, g, x0) -> np.ndarray:
    """The distance field from node x0 by scipy's Dijkstra."""
    source = int(np.ravel_multi_index(grid.node(x0), grid.shape))
    return dijkstra(coo_edge_graph(grid, g), directed=True, indices=source).reshape(grid.shape)


def flat_torus_distance(grid, x0, x1) -> float:
    """Closed-form Euclidean distance between nodes on the flat torus."""
    x0, x1 = grid.node(x0), grid.node(x1)
    d2 = 0.0
    for ax in range(grid.dim):
        cells = grid.wrap_delta(x0[ax], x1[ax], ax)
        d2 += float(cells * grid.h[ax]) ** 2
    return float(np.sqrt(d2))
