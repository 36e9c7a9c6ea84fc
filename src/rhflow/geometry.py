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
coefficients are not kept on it: a caller applying many Laplacians with one
metric, like the stepping loop of a run (all the heat steps of a static run
share one metric), builds one ``Laplacian`` and applies it.  Every operator
taking a metric accepts either a MetricFields or a raw array; a raw array
is wrapped (and so validated) once on entry.  Code that applies several
operators to one metric, like a flow substep, builds one MetricFields and
passes it to all of them.  The wrapped array must not be modified
afterwards.

Tensors are computed component by component with explicit arithmetic over
the d <= 2 index range (nested lists of node fields, with [i][j] and [j][i]
one shared array for symmetric tensors) and stacked into ``(..., d, d)``
arrays only at the public boundary.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from .grid import Grid, Halo, shift

# Relative threshold for the positive-definiteness check: smallest eigenvalue
# must exceed PD_RTOL * trace(g) at every node.
PD_RTOL = 1e-12


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
    a, b, c = g[..., 0, 0], g[..., 0, 1], g[..., 1, 1]
    return 0.5 * (a + c) - np.hypot(0.5 * (a - c), b)


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
        d = self.dim = g.shape[-1]
        self.comp = [[g[..., i, j] for j in range(d)] for i in range(d)]
        c = self.comp
        det = c[0][0] if d == 1 else c[0][0] * c[1][1] - c[0][1] * c[0][1]
        if d == 1:
            self.inv = [[1.0 / det]]
        else:
            off = -c[0][1] / det
            self.inv = [[c[1][1] / det, off], [off, c[0][0] / det]]
        self.sqrt_det = np.sqrt(det)

def metric_fields(g) -> MetricFields:
    """``g`` itself if it is a MetricFields, else a new one built from the array."""
    return g if isinstance(g, MetricFields) else MetricFields(g)


def laplacian_faces(g) -> list:
    """Laplacian face coefficients, one node field per axis i: the mean
    1/2 (a_k + a_{k+1}) of a = sqrt(det g) g^{ii} over the face between
    nodes k and k+1, stored at node k."""
    mf = metric_fields(g)
    out = []
    for i in range(mf.dim):
        a = mf.sqrt_det * mf.inv[i][i]
        out.append(0.5 * (a + shift(a, -1, i)))
    return out


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


def _christoffel(grid: Grid, mf: MetricFields) -> list:
    """G[k][i][j] as node fields; G[k][i][j] and G[k][j][i] are one array."""
    d = mf.dim
    dg = [grid.d1(mf.g, ax) for ax in range(d)]  # dg[a][..., b, c] = d_a g_bc
    # first kind: G_lij = 1/2 (d_i g_jl + d_j g_il - d_l g_ij)
    first = [
        _sym(d, lambda i, j, l=l: 0.5 * (dg[i][..., j, l] + dg[j][..., i, l] - dg[l][..., i, j]))
        for l in range(d)
    ]
    return [
        _sym(d, lambda i, j, k=k: _dot(mf.inv[k], [first[l][i][j] for l in range(d)]))
        for k in range(d)
    ]


def _ricci(grid: Grid, mf: MetricFields) -> list:
    """Symmetric Ricci components R[i][j]."""
    d = mf.dim
    gam = _christoffel(grid, mf)
    tr = [_sum(gam[k][k][j] for k in range(d)) for j in range(d)]
    dtr = [[grid.d1(tr[j], i) for j in range(d)] for i in range(d)]  # dtr[i][j] = d_i G^k_kj

    def comp(i, j):
        t1 = _sum(grid.d1(gam[k][i][j], k) for k in range(d))
        # the raw contraction is symmetrized: only d_i G^k_kj is not
        # symmetric in (i, j) on the grid
        t2 = dtr[i][j] if i == j else 0.5 * (dtr[i][j] + dtr[j][i])
        t3 = _dot(tr, [gam[l][i][j] for l in range(d)])
        t4 = _dot([gam[k][i][l] for k in range(d) for l in range(d)],
                  [gam[l][k][j] for k in range(d) for l in range(d)])
        return t1 - t2 + t3 - t4

    return _sym(d, comp)


def _partials(grid: Grid, s: np.ndarray) -> list:
    return [grid.d1(s, ax) for ax in range(grid.dim)]


class Laplacian:
    """The Laplace-Beltrami operator of one metric, built once and applied
    to any number of scalar fields (see `laplace_beltrami` for the scheme).

    It holds what every application reads: the metric's `laplacian_faces`
    (or the ones passed in), sqrt(det g), in 2-D the mixed coefficient
    sqrt(det g) g^{01}, the grid spacings, and scratch buffers.  Term (i, j)
    of the sum is

        (i, i)  (flux - shift(flux, 1, i)) / h_i^2,
                flux = faces[i] * (shift(s, -1, i) - s),
                face k sitting between nodes k and k+1
        (i, j)  d1(sqrt(det g) g^{ij} d1(s, j), i) for j != i

    the terms are added in row-major order, and the sum is divided by
    sqrt(det g).  An application loads s into a `grid.Halo`, then runs a
    few ufuncs per term into the buffers: each term's inner field (flux, or
    the mixed coefficient times d1(s, j)) is formed one node beyond the
    grid along i, from the halo and a coefficient padded the same way, so
    no shifted copy is made.  The floating-point operations per node and
    their order are those of the formulas above, so the result is bit for
    bit theirs.  Calls share the buffers, so one operator serves one caller
    at a time.
    """

    def __init__(self, grid: Grid, g, faces: list | None = None):
        mf = metric_fields(g)
        faces = laplacian_faces(mf) if faces is None else faces
        self.sqrt_det = mf.sqrt_det
        self.shape = grid.shape
        self._halo = Halo(grid.shape)
        self._term = np.empty(grid.shape)
        buf = self._halo.buf
        core, whole = (slice(1, -1),) * grid.dim, (slice(None),) * grid.dim

        def along(axis, sl, base=core):
            return base[:axis] + (sl,) + base[axis + 1:]

        mixed = self.sqrt_det * mf.inv[0][1] if grid.dim == 2 else None
        self._terms = []
        for i, n in enumerate(grid.shape):
            for j, h in enumerate(grid.h):
                if i == j:  # fluxes through faces -1 .. n - 1, face -1 being n - 1
                    reach, scale, denom = 1, None, h * h
                    hi, lo = buf[along(i, slice(1, None))], buf[along(i, slice(None, -1))]
                    coef = faces[i]
                else:  # d1(s, j) at nodes -1 .. n along i
                    reach, scale, denom = 2, 2.0 * h, 2.0 * grid.h[i]
                    rows = along(i, slice(None))
                    hi = buf[along(j, slice(2, None), rows)]
                    lo = buf[along(j, slice(None, -2), rows)]
                    coef = mixed
                coef = np.take(coef, np.arange(-1, n + reach - 1), axis=i, mode="wrap")
                inner = np.empty(coef.shape)
                self._terms.append((hi, lo, scale, coef, inner,
                                    inner[along(i, slice(reach, None), whole)],
                                    inner[along(i, slice(None, -reach), whole)], denom))

    def __call__(self, s: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Lap s, written into ``out`` (a new array if None); ``out`` may be s."""
        self._halo.load(s)
        if out is None:
            out = np.empty(self.shape)
        acc = out
        for hi, lo, scale, coef, inner, inner_hi, inner_lo, denom in self._terms:
            np.subtract(hi, lo, out=inner)
            if scale is not None:
                np.divide(inner, scale, out=inner)
            np.multiply(coef, inner, out=inner)
            np.subtract(inner_hi, inner_lo, out=acc)
            np.divide(acc, denom, out=acc)
            if acc is not out:
                np.add(out, acc, out=out)
            acc = self._term
        return np.divide(out, self.sqrt_det, out=out)


def _grad_phi_outer(grid: Grid, phi: np.ndarray) -> list:
    dphi = _partials(grid, phi)  # dphi[i][..., m] = d_i phi^m
    return _sym(grid.dim, lambda i, j: np.sum(dphi[i] * dphi[j], axis=-1))


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


def laplace_beltrami(grid: Grid, g, s: np.ndarray, faces: list | None = None) -> np.ndarray:
    """Divergence-form Laplace-Beltrami operator applied to a scalar field.

    Diagonal terms use face-averaged coefficients with forward/backward
    differences; mixed terms use nested centered differences.  Summation by
    parts then gives exact discrete self-adjointness with respect to the
    sqrt(det g)-weighted inner product, and the nodewise integral
    sum(Lap s * sqrt(det g) * h^n) telescopes to zero.  ``faces`` are the
    metric's `laplacian_faces`, if the caller holds them.
    """
    return Laplacian(grid, g, faces)(s)


def gradient_norm_sq(grid: Grid, g, s: np.ndarray) -> np.ndarray:
    """|grad s|^2 = g^{ij} d_i s d_j s with centered first differences."""
    ds = _partials(grid, s)
    return _trace_with(metric_fields(g).inv, _sym(grid.dim, lambda i, j: ds[i] * ds[j]))


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


def energy_density(grid: Grid, g, phi: np.ndarray) -> np.ndarray:
    """|grad phi|^2 = g^{ij} (dphi (x) dphi)_ij."""
    return _trace_with(metric_fields(g).inv, _grad_phi_outer(grid, phi))


def s_tensor(grid: Grid, g, phi: np.ndarray, alpha: float) -> np.ndarray:
    """Coupled curvature tensor Ric - alpha * (dphi (x) dphi)."""
    return ricci(grid, g) - alpha * grad_phi_outer(grid, phi)


def s_scalar(grid: Grid, g, phi: np.ndarray, alpha: float) -> np.ndarray:
    """Trace of the coupled curvature tensor: R - alpha |grad phi|^2."""
    mf = metric_fields(g)
    return scalar_curvature(grid, mf) - alpha * energy_density(grid, mf, phi)


def tension_field(grid: Grid, g, phi: np.ndarray, faces: list | None = None) -> np.ndarray:
    """Tension field of a map into flat R^m: componentwise Laplace-Beltrami.
    ``faces`` are the metric's `laplacian_faces`, if the caller holds them."""
    return _tension(Laplacian(grid, g, faces), phi)


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


def rough_laplacian_covector(grid: Grid, g, omega: np.ndarray) -> np.ndarray:
    """Connection Laplacian g^{ab} (nabla^2 omega)_{ab i} of a covector field.

    omega has shape ``grid.shape + (d,)``.  Needed for the commutation
    identity between the Laplacian and the gradient.
    """
    mf = metric_fields(g)
    om = [omega[..., i] for i in range(grid.dim)]
    return np.stack(_rough_laplacian_covector(grid, mf, om, _christoffel(grid, mf)), axis=-1)


def eig_general(A: np.ndarray, g) -> np.ndarray:
    """Eigenvalues of a symmetric tensor A relative to the metric g, per node.

    Solves A v = lam g v, sorted ascending with trailing shape (d,).  In 2-D
    the pencil is reduced by the Cholesky congruence B = L^{-1} A L^{-T}
    (g = L L^T) and B's eigenvalues are taken as mean -/+ hypot(half
    difference, off-diagonal), which keeps full relative accuracy when A is
    close to a multiple of g (where trace^2 - 4 det would cancel).
    """
    mf = metric_fields(g)
    if mf.dim == 1:
        return A[..., 0, 0:1] / mf.g[..., 0, 0:1]
    g00, g01 = mf.comp[0][0], mf.comp[0][1]
    a00, a11 = A[..., 0, 0], A[..., 1, 1]
    a01 = 0.5 * (A[..., 0, 1] + A[..., 1, 0])
    # L = [[l00, 0], [l10, l11]]: l00^2 = g00, l10 = c l00, l00 l11 = sqrt(det g)
    c = g01 / g00
    b00 = a00 / g00
    b01 = (a01 - c * a00) / mf.sqrt_det
    b11 = (a11 - c * (2.0 * a01 - c * a00)) * mf.inv[1][1]  # g00 / det g
    mean = 0.5 * (b00 + b11)
    rad = np.hypot(0.5 * (b00 - b11), b01)
    return np.stack([mean - rad, mean + rad], axis=-1)
