"""Geodesic distance on a discrete metric by shortest paths on the grid graph.

Nodes are grid points; edges connect each node to its 2 neighbors in 1D or
its 8 neighbors (axis plus diagonal moves) in 2D.  An edge between nodes a, b
with chart displacement delta gets the weight

    sqrt( delta^T gbar delta ),   gbar = (g[a] + g[b]) / 2,

i.e. the length of the straight chart segment in the endpoint-averaged
metric.  The shortest-path distance over this graph is an approximation of
geodesic distance that is exact for axis-aligned targets on flat tori and
overestimates by at most the stencil metrication constant (1/cos(pi/8),
about 8.2%, for the 8-neighbor stencil) in general.  The returned value
never underestimates large distances by more than the quadrature error of
the edge weights, so downstream consumers treating it as "the" distance err
on the conservative side for ball masks.

The distance is the least fixed point of d(v) = min over edges u -> v of
fl(d(u) + w(u, v)), with d(source) = 0, which is what Dijkstra's and
Bellman-Ford's methods both compute.  Rounded addition of a nonnegative
weight is monotone and never decreases its argument, so that fixed point is
the minimum over simple paths of each path's weights added from the source
in path order, whatever order the edges are relaxed in; the in-package
methods below therefore return Dijkstra's bits:

  1-D  a ring has two simple paths to each node, so the distance is the
       elementwise minimum of two running sums (`np.cumsum`) of the edge
       weights, one each way around the ring from the source;
  2-D  Jacobi min-plus relaxation on the flat, periodically padded
       `grid.Layout` that the Harnack dynamic program and the Laplacian
       use, each of the 8 moves one add and one minimum over a contiguous
       slice, swept until a sweep changes nothing.  Sweep k can reach only
       nodes within k rows of the source, so the rows are rolled to put the
       source in the middle row and sweep k works on the flat band of rows
       within k of it.  Until the band covers every row, each sweep gives
       the rows it adds their first finite values, so a whole field's
       sweeps never stop before the band covers the grid.

A check that reads only the ball of radius rho around the source (the
local Li-Yau estimate takes its constants on B(x0, rho) and asserts it on
B(x0, rho/2)) asks `ball_distance` for it, whose 2-D relaxation stops
after the first sweep in which no node whose new value is below rho
decreased; with rho = inf that is the first sweep that changes nothing.
That is exact below rho.  No value is ever below the fixed point d, and
along a shortest path (each node's d the rounded sum of its predecessor's
d and the edge) d never decreases.  Suppose a node v with d(v) < rho
holds a value above d(v) before a sweep, and take the first node w on a
shortest path to v that does.  Its predecessor holds its final, finite
value, so w lies in the sweep's band, and the sweep lowers w to
d(w) <= d(v) < rho: a decrease below rho.  So after a sweep with none,
every node with d < rho holds Dijkstra's bits, and every other node a
value of at least its d >= rho.  On 64x64 runs with rho from 1.2 to
2.0 (the recheck benchmark's balls) the sweeps fell from 33 to 15-21.

Sweeps cost O(N^(3/2)) on an N-node square grid, against Dijkstra's
O(N log N).  Against scipy's Dijkstra on a 2-core machine (numpy 2.4.6,
scipy 1.17.1), a 64x64 field took 0.7 of its time and a 128x128 field 0.6,
but a 256x256 field 1.1 times and a 512x512 field 3.2 times as long.

The edge weights are the square roots of `_edge_costs`' quadratic forms,
which the Harnack path energies read too.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .geometry import _sum, _sym, metric_fields
from .grid import Grid, Layout

# Worst-case overestimation factor of the 8-neighbor stencil on flat space.
METRICATION_8 = 1.0 / np.cos(np.pi / 8.0)


def _edge_costs(grid, comp, layout) -> list:
    """(off, edge) for one of every pair of opposite nonzero moves off, -off
    of at most r_max cells per axis, edge a flat field of the `grid.Layout`:
    edge[x] is the quadratic form delta^T gbar delta of the move x -> x + off
    and of its reverse x + off -> x, gbar the endpoint average of the metric
    whose component node fields are ``comp`` (`MetricFields.comp`).  A
    Harnack path energy is the form over the layer length; a distance edge
    weight is its square root.

    A move and its reverse cross the same edge, so one average of g and one
    quadratic form serve both.  The form is the sum over (i, j), i outer,
    of (gbar_ij delta_i) delta_j added left to right, which is how numpy's
    einsum contracts "...ij,i,j->..." (the reversed delta flips the sign of
    both factors of each product, which leaves every rounded product
    unchanged)."""
    d = grid.dim
    padded = {(i, j): layout.pad(comp[i][j]) for i in range(d) for j in range(i, d)}
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
        edge = np.empty(layout.size)
        edge[work] = form
        layout.refresh(edge)
        out.append((off, edge))
    return out


def _ring_distance(weight: np.ndarray, s: int) -> np.ndarray:
    """Distance from node s on a ring whose edge x -> x + 1 has weight[x]:
    the smaller of the running sums of the weights each way from s."""
    ring = np.roll(weight, -s)  # ring[k]: the edge s + k -> s + k + 1
    dist = np.zeros(ring.size)
    np.cumsum(ring[:-1], out=dist[1:])
    back = dist[:0:-1]  # nodes s - 1, s - 2, ... in the order the left sum reaches them
    np.minimum(back, np.cumsum(ring[:0:-1]), out=back)
    return np.roll(dist, s)


def _banded_relaxation(layout, edges, col: int, rho: float = np.inf) -> np.ndarray:
    """The least fixed point of d(y) = min(d(y), d(x) + sqrt(edge)) over the
    8 moves x -> y of a 2-D layout with r_max = 1, as a flat field of the
    layout, from the source in column ``col`` of the middle row (rows // 2).
    Jacobi sweeps alternate between two flat buffers; sweep k rewrites only
    the rows within k of the source row, which is where every finite value
    then lies, and which the middle row keeps clear of the wrap.

    The sweeps stop after the first one in which no node whose new value
    is below ``rho`` decreased: every value below rho is then the fixed
    point's, and every other value is at least rho (see `ball_distance`);
    with rho = inf, no node changed."""
    moves = []  # (offset of d(x), weight field, offset of the weight), each from y
    for off, edge in edges:
        weight = np.sqrt(edge)
        o = layout.offset(off)
        moves += [(-o, weight, -o), (o, weight, 0)]
    rows, cols = (n - 2 * layout.r_max for n in layout.padded)
    row, stride, first = rows // 2, layout.strides[0], layout.work.start
    dist = np.full(layout.size, np.inf)
    dist[first + layout.offset((row, col))] = 0.0
    layout.refresh(dist)  # a source on the seam is seen across it from sweep 1
    spare = dist.copy()
    cand, cap = np.empty((2, layout.work.stop - first))
    fell = np.empty(cand.size, dtype=bool)
    # a shortest path has fewer than rows * cols edges, so the last sweep
    # this allows is at the fixed point even if no sweep has confirmed it
    for k in range(1, rows * cols):
        lo, hi = max(row - k, 0), min(row + k, rows - 1)
        band = slice(first + lo * stride, first + hi * stride + cols)
        best = spare[band]
        np.copyto(best, dist[band])
        part = cand[:best.size]
        for at, weight, w_at in moves:
            np.add(dist[band.start + at:band.stop + at],
                   weight[band.start + w_at:band.stop + w_at], out=part)
            np.minimum(best, part, out=best)
        layout.refresh(spare)
        dist, spare = spare, dist
        # a decrease to below rho is a new value below min(old, rho)
        limit = spare[band]
        if rho < np.inf:  # min(old, inf) is old
            limit = np.minimum(limit, rho, out=cap[:best.size])
        if not np.less(best, limit, out=fell[:best.size]).any():
            break
    return dist


def geodesic_distance(grid: Grid, g, x0) -> np.ndarray:
    """Distance field from node x0 (see `Grid.node`) in the metric ``g``, a
    MetricFields or a raw array (validated here).

    Returns an array of shape ``grid.shape``: bit for bit the distances
    Dijkstra's method gives on the same edge weights (see the module
    docstring).
    """
    return ball_distance(grid, g, x0, np.inf)


def ball_distance(grid: Grid, g, x0, rho: float) -> np.ndarray:
    """`geodesic_distance` exact only on the ball of radius ``rho``: bit
    for bit Dijkstra's value at every node whose distance is below rho,
    and a value of at least rho (inf where no sweep reached) at every
    other node, so that ``< r`` masks for any r <= rho are Dijkstra's.
    A 2-D relaxation stops once the ball is final (see the module
    docstring); the 1-D ring and rho = inf give the whole field.  A NaN
    rho is refused."""
    if np.isnan(rho):
        raise ValueError("rho must be a number, got nan")
    comp = metric_fields(g).comp
    x0 = grid.node(x0)
    layout = Layout(grid.shape, 1)
    if grid.dim == 1:
        [(_, edge)] = _edge_costs(grid, comp, layout)
        return _ring_distance(np.sqrt(edge[layout.work]), x0[0])
    # roll the rows so the source sits in the middle one: the band of rows
    # around it then stays one contiguous slice until it covers the grid
    roll = grid.shape[0] // 2 - x0[0]
    comp = _sym(grid.dim, lambda i, j: np.roll(comp[i][j], roll, axis=0))
    flat = _banded_relaxation(layout, _edge_costs(grid, comp, layout), x0[1], rho)
    return np.roll(layout.view(flat), -roll, axis=0)
