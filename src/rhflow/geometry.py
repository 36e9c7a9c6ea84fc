"""Discrete Riemannian operators on periodic grids.

Metrics are node fields ``g`` of shape ``grid.shape + (d, d)``, d in {1, 2},
stored exactly symmetric.  All derivatives are centered second-order
periodic stencils, so each operator below is a second-order-consistent
discretization of its continuum counterpart and commutes exactly with grid
translations.

Conventions
-----------
Christoffel symbols   G^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)
Ricci (contraction)   R_ij = d_k G^k_ij - d_i G^k_kj + G^k_kl G^l_ij - G^k_il G^l_kj
Laplace-Beltrami      Lap s = (det g)^{-1/2} d_i( (det g)^{1/2} g^{ij} d_j s )

The Laplacian is discretized in divergence form with face-averaged
coefficients, which makes it exactly self-adjoint in the inner product
weighted by sqrt(det g) and exactly mass conserving (both to roundoff).

Validate once: MetricFields
---------------------------
``MetricFields(g)`` runs ``check_metric`` on the array exactly once and
holds what every operator needs: the components g_ij, the closed-form
inverse g^{ij} and sqrt(det g) per node, and the smallest eigenvalue over
the nodes (which the stability bound reads).  The Laplacian's
coefficients are kept on a ``Laplacian``, built once per run (a moving
run refreshes its coefficients in place for each new metric) and, for the
checks, by ``traj.derived.laplacian``.  Every operator taking a metric
accepts either a MetricFields or a raw array; a raw array is wrapped (and
so validated) once on entry.  Code that applies several operators to one
metric builds one MetricFields and passes it to all of them.  The wrapped
array must not be modified afterwards.

Tensors are computed component by component with explicit arithmetic over
the d <= 2 index range (nested lists of node fields, with [i][j] and [j][i]
one shared array for symmetric tensors) and stacked into ``(..., d, d)``
arrays only at the public boundary.

Bound kernels
-------------
The Christoffel symbols and the Ricci tensor (`Curvature`), d phi and
dphi (x) dphi (`MapGradient`), the Laplacian, the metric's inverse and
smallest eigenvalue, and the eigenvalues of a tensor against the metric
are each one fixed list of in-place ufunc calls, bound once to buffers
(a ``(function, arguments)`` pair per call, the output last) and run any
number of times.  A moving run (`flow.run`) binds them once, into one
workspace, and runs them for every new metric; the public operators bind
them once per call.  Each list does the floating-point operations per
node, in their order, of the formulas above, left-to-right sums included,
so every result is bit for bit that of evaluating them with allocating
array expressions.  Their fields are contiguous: a first difference along
an axis is one subtraction over the flattened arrays, then the two layers
that wrap around the torus, and the Laplacian's fields are flat and
periodically padded (`grid.Layout`), so each of its differences is one
subtraction of two slices.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from .grid import Grid, Layout, shift

# Relative threshold for the positive-definiteness check: smallest eigenvalue
# must exceed PD_RTOL * trace(g) at every node.
PD_RTOL = 1e-12

# scalars as 0-d arrays multiply and divide as the floats do, with less
# overhead per call
_HALF, _ONE, _TWO, _MINUS_TWO = (np.array(v) for v in (0.5, 1.0, 2.0, -2.0))


def _run(calls) -> None:
    """Run a list of (function, arguments) calls in order."""
    for f, args in calls:
        f(*args)


class MetricDegenerateError(ValueError):
    """Raised when a metric fails the positive-definiteness check."""

    def __init__(self, message: str, node=None, eigenvalue=None):
        super().__init__(message)
        self.node = node
        self.eigenvalue = eigenvalue


def _metric_dim(g: np.ndarray) -> int:
    d = g.shape[-1] if g.ndim >= 2 else 0
    if d not in (1, 2) or g.shape[-2] != d:
        raise ValueError(f"metric must end in a 1x1 or 2x2 block, got shape {g.shape}")
    return d


def _first_node(bad: np.ndarray) -> tuple:
    """The first True node of ``bad`` as a tuple of Python ints, so that
    messages print it as (0, 1) under every numpy version."""
    return tuple(int(i) for i in np.unravel_index(int(np.argmax(bad)), bad.shape))


def min_metric_eigenvalue(g: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the metric at every node, in closed form.

    For a 2x2 block the eigenvalues are mean -/+ hypot(half difference,
    off-diagonal), which stays accurate near isotropy where the
    trace/determinant discriminant cancels.
    """
    if _metric_dim(g) == 1:
        return g[..., 0, 0]
    lam, tr, tmp = (np.empty(g.shape[:-2]) for _ in range(3))
    _run(_min_eigenvalue_calls(_components(g), lam, tr, tmp))
    return lam


def _min_eigenvalue_calls(comp: list, lam, tr, tmp) -> list:
    """The calls that write `min_metric_eigenvalue` of the 2-D metric with
    components ``comp`` into ``lam`` and its trace into ``tr``."""
    a, b, c = comp[0][0], comp[0][1], comp[1][1]
    return [(np.add, (a, c, tr)), (np.multiply, (tr, _HALF, lam)),
            (np.subtract, (a, c, tmp)), (np.multiply, (tmp, _HALF, tmp)),
            (np.hypot, (tmp, b, tmp)), (np.subtract, (lam, tmp, lam))]


def check_metric(g: np.ndarray) -> np.ndarray:
    """Validate finiteness, symmetry and positive definiteness; raise if
    degenerate.  Returns the smallest eigenvalue at every node."""
    d = _metric_dim(g)
    finite = np.isfinite(g)
    if not finite.all():
        node = _first_node(~np.all(finite, axis=(-2, -1)))
        raise MetricDegenerateError(
            f"metric has non-finite entries at node {node}: {g[node].tolist()}", node=node
        )
    if d == 2 and not np.array_equal(g[..., 0, 1], g[..., 1, 0]):
        raise ValueError("metric is not stored symmetric")
    lam = min_metric_eigenvalue(g)
    tr = g[..., 0, 0] if d == 1 else g[..., 0, 0] + g[..., 1, 1]
    bad = lam <= PD_RTOL * tr
    if bad.any():
        node = _first_node(bad)
        raise MetricDegenerateError(
            f"metric degenerate at node {node}: min eigenvalue "
            f"{lam[node]:g} <= {PD_RTOL:g} * trace {tr[node]:g}",
            node=node,
            eigenvalue=float(lam[node]),
        )
    return lam


def _components(g: np.ndarray) -> list:
    """The node fields g_ij of a metric array, as views."""
    d = g.shape[-1]
    return [[g[..., i, j] for j in range(d)] for i in range(d)]


def _inverse_calls(comp: list, inv: list, sqrt_det: np.ndarray, det=None, tmp=None) -> list:
    """The calls that write g^{ij} into ``inv`` (a nested list, [0][1] and
    [1][0] one array) and sqrt(det g) into ``sqrt_det`` from what the
    components ``comp`` hold when they run; a 2-D metric also needs the
    node fields ``det`` and ``tmp``."""
    c = comp
    if len(c) == 1:
        return [(np.divide, (_ONE, c[0][0], inv[0][0])), (np.sqrt, (c[0][0], sqrt_det))]
    return [
        (np.multiply, (c[0][0], c[1][1], det)), (np.multiply, (c[0][1], c[0][1], tmp)),
        (np.subtract, (det, tmp, det)),
        (np.negative, (c[0][1], tmp)), (np.divide, (tmp, det, inv[0][1])),
        (np.divide, (c[1][1], det, inv[0][0])), (np.divide, (c[0][0], det, inv[1][1])),
        (np.sqrt, (det, sqrt_det)),
    ]


class MetricFields:
    """One metric array, validated once, with its pointwise derived fields.

    ``comp[i][j]`` and ``inv[i][j]`` are the node fields g_ij and g^{ij},
    ``sqrt_det`` is sqrt(det g) per node and ``min_eigenvalue`` the smallest
    eigenvalue over all nodes.  A trajectory keeps one MetricFields per
    stored snapshot, so only these are kept: the Laplacian's coefficients
    live in a `Laplacian`, built per call or held by the caller.
    """

    def __init__(self, g: np.ndarray):
        self.min_eigenvalue = float(np.min(check_metric(g)))
        self.g = g
        self.dim = g.shape[-1]
        self.comp = _components(g)
        shape = g.shape[:-2]
        self.inv = _sym(self.dim, lambda i, j: np.empty(shape))
        self.sqrt_det = np.empty(shape)
        scratch = (np.empty(shape), np.empty(shape)) if self.dim == 2 else ()
        _run(_inverse_calls(self.comp, self.inv, self.sqrt_det, *scratch))

    @classmethod
    def _assembled(cls, g, comp: list, inv: list, sqrt_det: np.ndarray,
                   min_eigenvalue: float) -> "MetricFields":
        """The fields of a metric validated elsewhere, from the same
        formulas; runs no check.  ``g`` is None for a metric held only as
        components (a moving run's workspace)."""
        mf = object.__new__(cls)
        mf.__dict__.update(min_eigenvalue=min_eigenvalue, g=g, dim=len(comp), comp=comp,
                           inv=inv, sqrt_det=sqrt_det)
        return mf


def metric_fields(g) -> MetricFields:
    """``g`` itself if it is a MetricFields, else a new one built from the array."""
    return g if isinstance(g, MetricFields) else MetricFields(g)


# ---------------------------------------------------------------------------
# component helpers


def _sym(d: int, fn) -> list:
    """Symmetric d x d nested list with [i][j] = [j][i] = fn(i, j), i <= j."""
    out = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            out[i][j] = out[j][i] = fn(i, j)
    return out


def _sum(terms) -> np.ndarray:
    """Sum of node fields, added left to right."""
    return functools.reduce(operator.add, terms)


def _dot(xs, ys) -> np.ndarray:
    """sum_k xs[k] * ys[k] over node fields."""
    return _sum(x * y for x, y in zip(xs, ys))


def _trace_with(inv, t) -> np.ndarray:
    """g^{ij} t_ij over component lists."""
    return _sum(_dot(gi, ti) for gi, ti in zip(inv, t))


def _stack2(t) -> np.ndarray:
    """Nested list [i][j] of node fields -> array (..., d, d)."""
    return np.stack([np.stack(row, axis=-1) for row in t], axis=-2)


# ---------------------------------------------------------------------------
# bound kernels: fixed lists of in-place calls

class _Calls(list):
    """A list of calls, each a (function, arguments) pair whose ufunc
    writes into its last argument, built once and run any number of times
    (`_run`); calling it appends one and returns that argument."""

    def __init__(self, grid: Grid):
        super().__init__()
        self.grid = grid

    def __call__(self, f, *args):
        self.append((f, args))
        return args[-1]

    def d1(self, a: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
        """`Grid.d1` along ``axis`` of the C-contiguous field ``a`` (node
        axes first, then any trailing ones) into the C-contiguous ``out``:
        a[k + 1] - a[k - 1] as one subtraction over the flattened arrays,
        then the two layers whose neighbours lie across the periodic seam
        (also where the flat subtraction paired nodes of different rows),
        then the division by 2 h."""
        if not (a.flags.c_contiguous and out.flags.c_contiguous):
            raise ValueError("d1 calls need C-contiguous fields")
        n, s = a.shape[axis], a.strides[axis] // a.itemsize
        flat, flat_out = a.reshape(-1), out.reshape(-1)

        def layer(k):
            return (slice(None),) * axis + (slice(k, k + 1),)

        self(np.subtract, flat[2 * s:], flat[:-2 * s], flat_out[s:-s])
        self(np.subtract, a[layer(1)], a[layer(n - 1)], out[layer(0)])
        self(np.subtract, a[layer(0)], a[layer(n - 2)], out[layer(n - 1)])
        return self(np.divide, out, np.array(2.0 * self.grid.h[axis]), out)

    def dot(self, xs, ys, out, tmp) -> np.ndarray:
        """`_dot` into ``out``: the products added left to right."""
        self(np.multiply, xs[0], ys[0], out)
        for x, y in zip(xs[1:], ys[1:]):
            self(np.add, out, self(np.multiply, x, y, tmp), out)
        return out


class Curvature:
    """The Christoffel symbols and the Ricci tensor of one metric, each a
    fixed list of in-place ufunc calls bound once to its buffers.

    ``comp`` and ``inv`` hold the components g_ij and g^{ij} as
    C-contiguous node fields (nested lists, [i][j] and [j][i] one array).
    The calls read whatever these hold when they run, so the owner of a
    metric that changes in place runs them again for each new metric.
    `christoffel` returns G[k][i][j] and `ricci` R[i][j] (symmetric pairs
    one array), buffers that the next run overwrites.  Each component is
    formed by the index loops and left-to-right sums of the module
    docstring's formulas:

        G_lij  = 1/2 ((d_i g_jl + d_j g_il) - d_l g_ij)
        G^k_ij = sum_l g^{kl} G_lij
        R_ij   = ((sum_k d_k G^k_ij - t2) + sum_l tr_l G^l_ij)
                 - sum_{k,l} G^k_il G^l_kj,   tr_j = sum_k G^k_kj,

    with t2 = d_i tr_j, symmetrized as 1/2 (d_i tr_j + d_j tr_i) off the
    diagonal, the one term that is not symmetric in (i, j) on the grid; in
    1-D tr_0 is G^0_00 itself.  A 2-D metric takes 146 calls into 20 node
    fields of its own, the Christoffel symbols the first 60; the Ricci calls
    are bound on first use.
    """

    def __init__(self, grid: Grid, comp: list, inv: list):
        d, shape, p = grid.dim, grid.shape, _Calls(grid)
        axes = range(d)
        pairs = [(i, j) for i in axes for j in range(i, d)]

        def new():
            return np.empty(shape)

        s0, s1, s2 = new(), new(), new()
        dg = [_sym(d, lambda b, c, a=a: p.d1(comp[b][c], a, new())) for a in axes]
        gam = [_sym(d, lambda i, j: new()) for _ in axes]
        first = [s0, s1][:d]
        for i, j in pairs:
            for l in axes:
                p(np.add, dg[i][j][l], dg[j][i][l], first[l])
                p(np.subtract, first[l], dg[l][i][j], first[l])
                p(np.multiply, first[l], _HALF, first[l])
            for k in axes:
                p.dot(inv[k], first, gam[k][i][j], s2)
        self.gam, self.ric = gam, _sym(d, lambda i, j: new())
        self._christoffel = list(p)
        self._calls, self._ricci, self._scratch = p, None, (s0, s1)

    def _bind_ricci(self) -> list:
        """The Ricci calls after the Christoffel ones, bound on first use
        (a one-shot Christoffel field needs none of them)."""
        p, gam, (s0, s1) = self._calls, self.gam, self._scratch
        d = p.grid.dim
        axes = range(d)
        pairs = [(i, j) for i in axes for j in range(i, d)]
        tr = [gam[0][0][0]] if d == 1 else [
            p(np.add, gam[0][0][j], gam[1][1][j], np.empty(p.grid.shape)) for j in axes]
        for i, j in pairs:
            r = self.ric[i][j]
            p.d1(gam[0][i][j], 0, r)
            for k in axes[1:]:
                p(np.add, r, p.d1(gam[k][i][j], k, s0), r)
            t2 = p.d1(tr[j], i, s0)
            if i != j:
                p(np.add, t2, p.d1(tr[i], j, s1), t2)
                p(np.multiply, t2, _HALF, t2)
            p(np.subtract, r, t2, r)
            p(np.add, r, p.dot(tr, [gam[l][i][j] for l in axes], s0, s1), r)
            t4 = p.dot([gam[k][i][l] for k in axes for l in axes],
                       [gam[l][k][j] for k in axes for l in axes], s0, s1)
            p(np.subtract, r, t4, r)
        return list(p)

    def christoffel(self) -> list:
        _run(self._christoffel)
        return self.gam

    def ricci(self) -> list:
        if self._ricci is None:
            self._ricci = self._bind_ricci()
        _run(self._ricci)
        return self.ric


def _curvature(grid: Grid, mf: MetricFields) -> Curvature:
    """A one-shot `Curvature` of ``mf``, reading contiguous copies of its
    components."""
    comp = _sym(mf.dim, lambda i, j: np.ascontiguousarray(mf.comp[i][j]))
    inv = _sym(mf.dim, lambda i, j: np.ascontiguousarray(mf.inv[i][j]))
    return Curvature(grid, comp, inv)


def _christoffel(grid: Grid, mf: MetricFields) -> list:
    """G[k][i][j] as node fields; G[k][i][j] and G[k][j][i] are one array."""
    return _curvature(grid, mf).christoffel()


def _ricci(grid: Grid, mf: MetricFields) -> list:
    """Symmetric Ricci components R[i][j]."""
    return _curvature(grid, mf).ricci()


class MapGradient:
    """d phi and dphi (x) dphi of a map, as one fixed list of in-place calls.

    ``phi`` is a C-contiguous array ``grid.shape + (components,)``;
    ``dphi[i][..., m]`` is d_i phi^m and ``outer[i][j]`` (symmetric pairs
    one array) is sum_m d_i phi^m d_j phi^m, summed over the components as
    ``np.sum`` sums the last axis (it is ``np.add.reduce``).  Calling it
    runs the calls on what ``phi`` holds and returns ``outer``.
    """

    def __init__(self, grid: Grid, phi: np.ndarray):
        p = _Calls(grid)
        self.dphi = [p.d1(phi, a, np.empty(phi.shape)) for a in range(grid.dim)]
        prod = np.empty(phi.shape)
        self.outer = _sym(grid.dim, lambda i, j: p(
            np.add.reduce, p(np.multiply, self.dphi[i], self.dphi[j], prod), -1, None,
            np.empty(grid.shape)))
        self._calls = list(p)

    def __call__(self) -> list:
        _run(self._calls)
        return self.outer


def _grad_phi_outer(grid: Grid, phi: np.ndarray) -> list:
    return MapGradient(grid, np.ascontiguousarray(phi))()


def _partials(grid: Grid, s: np.ndarray) -> list:
    """First partials of a scalar node field, or of each field of a stack
    whose leading axes come before the node axes."""
    lead = s.ndim - grid.dim
    return [grid.d1(s, ax, lead) for ax in range(grid.dim)]


class Laplacian:
    """The Laplace-Beltrami operator of one metric, built once and applied
    to any number of scalar fields (see `laplace_beltrami` for the scheme).

    It holds what every application reads: the face coefficients, sqrt(det
    g), in 2-D the mixed coefficient sqrt(det g) g^{01}, the grid spacings,
    and scratch buffers.  Term (i, j) of the sum is

        (i, i)  (flux - shift(flux, 1, i)) / h_i^2,
                flux = faces[i] * (shift(s, -1, i) - s),
                faces[i] = 1/2 (a + shift(a, -1, i)), a = sqrt(det g) g^{ii},
                face k sitting between nodes k and k+1
        (i, j)  d1(sqrt(det g) g^{ij} d1(s, j), i) for j != i

    the terms are added in row-major order, and the sum is divided by
    sqrt(det g).  The coefficients are formed by a fixed list of in-place
    calls from the metric's sqrt(det g) and g^{ij} arrays, run on
    construction and again by `refresh`: an owner that changes those arrays
    in place (a moving run's workspace) refreshes one operator per new
    metric instead of building one.

    Fields live flat in a `grid.Layout` with one periodic copy per side
    (``layout``), so every ufunc acts on contiguous slices: each term's
    inner field (flux, or the mixed coefficient times d1(s, j)) is formed
    over the nodes' span ``work`` extended by one stride along i, backwards
    (two for a mixed term, one each way), and each difference is two slices
    at fixed offsets.  In 2-D the padding cells inside ``work`` get junk,
    formed from periodic copies only, that no node value reads.  `bind`
    lists the calls that refresh a flat field's periodic copies and form
    Lap of it; ``calls`` is that list from the operator's own flat field
    ``s`` into its own ``out``.  Calling the operator loads a node field
    into ``s``, runs ``calls`` and copies the nodes of ``out`` out; a caller
    may instead keep a field in ``s`` and step it there (`flow.run` steps u
    a whole stored stride so on a static run).  The floating-point
    operations per node and their order are those of the formulas above,
    so the result is bit for bit theirs.  The calls share the buffers, so
    one operator serves one caller at a time: a run holds one, the checks
    one per metric class (``traj.derived.laplacian``), and the public
    operators one per call.  A field or metric whose node shape is not the
    grid's is refused.
    """

    def __init__(self, grid: Grid, g):
        mf = self.metric = metric_fields(g)
        self.shape = grid.shape
        _check_shape("metric", mf.sqrt_det.shape, grid.shape)
        lay = self.layout = Layout(grid.shape, 1)
        work = lay.work
        p = _Calls(grid)

        def fill(flat, f, *args):  # f(*args) into the nodes of flat, then its padding
            p(f, *args, lay.view(flat))
            p.extend(lay.copies(flat))
            return flat

        self._sqrt_det = fill(np.empty(lay.size), np.positive, mf.sqrt_det)  # a copy
        if grid.dim == 2:
            mixed = fill(np.empty(lay.size), np.multiply, mf.sqrt_det, mf.inv[0][1])
        a = np.empty(lay.size)
        self._term = np.empty(work.stop - work.start)
        self._terms = []
        for i, si in enumerate(lay.strides):
            for j, (sj, h) in enumerate(zip(lay.strides, grid.h)):
                # the term's inner field spans work and one stride before it
                # along i, and for a mixed term one stride after it too
                lo, hi = work.start - si, work.stop + (si if i != j else 0)
                if i == j:  # fluxes through the faces from y to y + s_i
                    fill(a, np.multiply, mf.sqrt_det, mf.inv[i][i])
                    coef = p(np.add, a[lo:hi], a[lo + si:hi + si], np.empty(hi - lo))
                    p(np.multiply, coef, _HALF, coef)
                    ahead, behind, scale, denom = si, 0, None, h * h
                else:  # d1(s, j)
                    coef = mixed[lo:hi]
                    ahead, behind, scale, denom = sj, -sj, np.array(2.0 * h), 2.0 * grid.h[i]
                # scale and denom as 0-d arrays divide as the floats do, with
                # less overhead per call
                self._terms.append((slice(lo + ahead, hi + ahead), slice(lo + behind, hi + behind),
                                    scale, coef, np.empty(hi - lo), np.array(denom)))
        self._coefficients = list(p)
        self.refresh()
        self.s, self.out = np.empty(lay.size), np.empty(lay.size)
        self.calls = self.bind(self.s, self.out)

    def refresh(self) -> None:
        """Form the coefficients again from what the metric's sqrt(det g)
        and g^{ij} arrays hold now."""
        _run(self._coefficients)

    def bind(self, s: np.ndarray, out: np.ndarray) -> list:
        """The calls, each a (function, arguments) pair, that write Lap of
        the node values of ``s``, a flat field of ``layout``, into the
        ``work`` span of ``out``, another one: the copies of the periodic
        padding of ``s`` (`grid.Layout.copies`), then a few ufuncs per
        term, each with its output buffer as last argument, then the
        division by sqrt(det g).
        """
        calls = self.layout.copies(s)
        work = self.layout.work
        acc = total = out[work]
        n = acc.size
        for ahead, behind, scale, coef, inner, denom in self._terms:
            calls.append((np.subtract, (s[ahead], s[behind], inner)))
            if scale is not None:
                calls.append((np.divide, (inner, scale, inner)))
            # for each y of work, inner[-n:] holds the inner field at y (a
            # flux) or y + s_i (a mixed term), and inner[:n] at y - s_i
            calls += [(np.multiply, (coef, inner, inner)),
                      (np.subtract, (inner[-n:], inner[:n], acc)),
                      (np.divide, (acc, denom, acc))]
            if acc is not total:
                calls.append((np.add, (total, acc, total)))
            acc = self._term
        calls.append((np.divide, (total, self._sqrt_det[work], total)))
        return calls

    def __call__(self, s: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Lap s, written into ``out`` (a new array if None); ``out`` may be s."""
        _check_shape("field", np.shape(s), self.shape)
        np.copyto(self.layout.view(self.s), s)
        _run(self.calls)
        if out is None:
            return self.layout.unpad(self.out)
        np.copyto(out, self.layout.view(self.out))
        return out


def _check_shape(what: str, shape: tuple, grid_shape: tuple) -> None:
    if shape != grid_shape:
        raise ValueError(f"{what} has node shape {shape}, not the grid shape {grid_shape}")


# ---------------------------------------------------------------------------
# public operators


def metric_inverse(g) -> np.ndarray:
    return _stack2(metric_fields(g).inv)


def sqrt_det(g) -> np.ndarray:
    return metric_fields(g).sqrt_det


def christoffel(grid: Grid, g) -> np.ndarray:
    """Christoffel symbols, shape ``grid.shape + (d, d, d)`` indexed [k, i, j].

    Symmetric in (i, j) exactly because g is stored symmetric.
    """
    gam = _christoffel(grid, metric_fields(g))
    return np.stack([_stack2(gk) for gk in gam], axis=-3)


def ricci(grid: Grid, g) -> np.ndarray:
    """Ricci tensor from the contracted curvature of the Christoffel field.

    The raw contraction is symmetrized; centered stencils leave an
    antisymmetric O(h^2) remainder that the continuum tensor does not have.
    """
    return _stack2(_ricci(grid, metric_fields(g)))


def scalar_curvature(grid: Grid, g) -> np.ndarray:
    mf = metric_fields(g)
    return _trace_with(mf.inv, _ricci(grid, mf))


def laplace_beltrami(grid: Grid, g, s: np.ndarray) -> np.ndarray:
    """Divergence-form Laplace-Beltrami operator applied to a scalar field.

    Diagonal terms use face-averaged coefficients with forward/backward
    differences; mixed terms use nested centered differences.  Summation by
    parts then gives exact discrete self-adjointness with respect to the
    sqrt(det g)-weighted inner product, and the nodewise integral
    sum(Lap s * sqrt(det g) * h^n) telescopes to zero.  Each call builds
    one `Laplacian`.
    """
    return Laplacian(grid, g)(s)


def gradient_norm_sq(grid: Grid, g, s: np.ndarray) -> np.ndarray:
    """|grad s|^2 = g^{ij} d_i s d_j s with centered first differences."""
    return _gradient_norm_sq(grid, metric_fields(g).inv, s)


def _gradient_norm_sq(grid: Grid, inv: list, s: np.ndarray) -> np.ndarray:
    """`gradient_norm_sq` from the components g^{ij}; ``s`` may be a stack
    of fields, and ``inv`` node fields or stacks that broadcast against it."""
    ds = _partials(grid, s)
    return _trace_with(inv, _sym(grid.dim, lambda i, j: ds[i] * ds[j]))


def _hessian(grid: Grid, s: np.ndarray, ds: list, gam: list) -> list:
    """Symmetric Hessian components of s from its partials ds and the
    Christoffel field gam of the metric."""
    d = grid.dim

    def comp(i, j):
        if i == j:
            plain = grid.d2(s, i)
        else:
            plain = 0.5 * (grid.d1(ds[i], j) + grid.d1(ds[j], i))
        return plain - _dot([gam[k][i][j] for k in range(d)], ds)

    return _sym(d, comp)


def hessian(grid: Grid, g, s: np.ndarray) -> np.ndarray:
    """Covariant Hessian d_i d_j s - G^k_ij d_k s, symmetrized."""
    gam = _christoffel(grid, metric_fields(g))
    return _stack2(_hessian(grid, s, _partials(grid, s), gam))


def grad_phi_outer(grid: Grid, phi: np.ndarray) -> np.ndarray:
    """Pullback-style Gram tensor (dphi (x) dphi)_ij = sum_m d_i phi^m d_j phi^m.

    phi has shape ``grid.shape + (components,)``.  The result is symmetric
    and positive semidefinite by construction.
    """
    return _stack2(_grad_phi_outer(grid, phi))


def tension_field(grid: Grid, g, phi: np.ndarray) -> np.ndarray:
    """Tension field of a map into flat R^m: componentwise Laplace-Beltrami,
    with one `Laplacian` for all components."""
    return _tension(Laplacian(grid, g), phi)


def _tension(lap: Laplacian, phi: np.ndarray) -> np.ndarray:
    """`tension_field` with the metric's Laplacian at hand."""
    out = np.empty(phi.shape)
    for m in range(phi.shape[-1]):
        lap(phi[..., m], out=out[..., m])
    return out


def _rough_laplacian_covector(grid: Grid, mf: MetricFields, om: list, gam: list) -> list:
    """Components of the connection Laplacian of the covector with
    components om, given the Christoffel field gam of mf."""
    d = grid.dim
    # first covariant derivative: T_{b i} = d_b omega_i - G^k_{bi} omega_k
    T = [[grid.d1(om[i], b) - _dot([gam[k][b][i] for k in range(d)], om) for i in range(d)]
         for b in range(d)]
    out = []
    for i in range(d):
        # (nabla T)_{a b i} = d_a T_{bi} - G^k_{ab} T_{ki} - G^k_{ai} T_{bk},
        # contracted with g^{ab}
        def nabla_t(a, b, i=i):
            return (grid.d1(T[b][i], a)
                    - _dot([gam[k][a][b] for k in range(d)], [T[k][i] for k in range(d)])
                    - _dot([gam[k][a][i] for k in range(d)], T[b]))

        out.append(_sum(mf.inv[a][b] * nabla_t(a, b) for a in range(d) for b in range(d)))
    return out


def eig_general(A, g) -> np.ndarray:
    """Eigenvalues of a symmetric tensor A relative to the metric g, per node.

    A is an array ``grid.shape + (d, d)`` or a nested list of its node
    fields A[i][j].  Solves A v = lam g v, sorted ascending with trailing
    shape (d,).  In 2-D the pencil is reduced by the Cholesky congruence
    B = L^{-1} A L^{-T} (g = L L^T) and B's eigenvalues are taken as
    mean -/+ hypot(half difference, off-diagonal), which keeps full
    relative accuracy when A is close to a multiple of g (where
    trace^2 - 4 det would cancel).
    """
    mf = metric_fields(g)
    if isinstance(A, np.ndarray):
        A = _components(A)
    shape = mf.comp[0][0].shape
    lo, hi = np.empty(shape), np.empty(shape)
    _run(_eig_calls(mf, A, lo, hi, [np.empty(shape) for _ in range(5)]))
    return lo[..., None] if mf.dim == 1 else np.stack([lo, hi], axis=-1)


def _eig_calls(mf: MetricFields, A: list, lo: np.ndarray, hi: np.ndarray, scratch: list) -> list:
    """The calls of `eig_general`, writing the smaller and the larger
    eigenvalue of (A, g) into ``lo`` and ``hi`` (in 1-D only ``lo``), with
    five scratch node fields, from what ``A`` and ``mf`` hold when run."""
    if mf.dim == 1:
        return [(np.divide, (A[0][0], mf.comp[0][0], lo))]
    g00, g01 = mf.comp[0][0], mf.comp[0][1]
    c, b00, a01, ca00, b01 = scratch
    # L = [[l00, 0], [l10, l11]]: l00^2 = g00, l10 = c l00, l00 l11 = sqrt(det g)
    # c = g01 / g00, b00 = a00 / g00, a01 = 1/2 (A01 + A10),
    # b01 = (a01 - c a00) / sqrt(det g),
    # b11 = (a11 - c (2 a01 - c a00)) g00 / det g,
    # eigenvalues mean -/+ hypot(1/2 (b00 - b11), b01), mean = 1/2 (b00 + b11)
    b11 = ca00
    return [
        (np.divide, (g01, g00, c)), (np.divide, (A[0][0], g00, b00)),
        (np.add, (A[0][1], A[1][0], a01)), (np.multiply, (a01, _HALF, a01)),
        (np.multiply, (c, A[0][0], ca00)), (np.subtract, (a01, ca00, b01)),
        (np.divide, (b01, mf.sqrt_det, b01)),
        (np.multiply, (a01, _TWO, a01)), (np.subtract, (a01, ca00, a01)),
        (np.multiply, (c, a01, a01)), (np.subtract, (A[1][1], a01, a01)),
        (np.multiply, (a01, mf.inv[1][1], b11)),
        (np.add, (b00, b11, lo)), (np.multiply, (lo, _HALF, lo)),
        (np.subtract, (b00, b11, c)), (np.multiply, (c, _HALF, c)), (np.hypot, (c, b01, c)),
        (np.add, (lo, c, hi)), (np.subtract, (lo, c, lo)),
    ]
