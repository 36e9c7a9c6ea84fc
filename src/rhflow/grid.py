"""Periodic structured grids and second-order finite-difference stencils.

Every field in this package is a plain ndarray whose leading axes run over
grid nodes (shape ``grid.shape``) and whose trailing axes, if any, carry
tensor indices.  The grid is a flat chart on a torus: index arithmetic wraps,
so every stencil is built from ``shift``, a one-node periodic shift made of
two slice copies, or reads a field padded with periodic copies (`Layout`),
and all operators are exactly translation equivariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Cap on the total node count, checked before anything is allocated: a
# scalar node field of this size is 8 MB and a 2-D metric field 32 MB.
MAX_NODES = 1 << 20


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def check_int_range(name: str, value, lo: int, hi: int) -> None:
    """Refuse a value that is not an integer (bools refused) from lo to hi."""
    if not _is_int(value) or not lo <= value <= hi:
        raise ValueError(f"{name} must be an integer from {lo} to {hi}, got {value!r}")


def shift(a: np.ndarray, k: int, axis: int) -> np.ndarray:
    """``np.roll(a, k, axis)`` for k = +1 or -1, built from two slice copies.

    result[i] = a[i - k] along ``axis``, wrapping periodically.
    """
    out = np.empty_like(a)
    lead = (slice(None),) * axis
    if k == 1:
        out[lead + (slice(1, None),)] = a[lead + (slice(None, -1),)]
        out[lead + (0,)] = a[lead + (-1,)]
    elif k == -1:
        out[lead + (slice(None, -1),)] = a[lead + (slice(1, None),)]
        out[lead + (-1,)] = a[lead + (0,)]
    else:
        raise ValueError(f"shift moves by one node, got k={k!r}")
    return out


class Layout:
    """Node fields padded by r_max cells of periodic copies on every axis and
    stored flat, so that for any move off of at most r_max cells per axis,
    entry y - off at every node y is one contiguous slice.

    ``work`` runs in the flat order from the first node to the last.  It
    also covers the padding cells between rows, where a kernel stepping
    over ``work`` may write junk (`copies` overwrites it), and its slice
    shifted by any move stays inside the padded array, so no guard cells
    are needed.  On a 1-D grid ``work`` is exactly the nodes."""

    def __init__(self, shape: tuple, r_max: int):
        r = self.r_max = r_max
        self.padded = tuple(n + 2 * r for n in shape)
        self.size = math.prod(self.padded)
        self.strides = [math.prod(self.padded[ax + 1:]) for ax in range(len(shape))]
        self.nodes = tuple(slice(r, r + n) for n in shape)
        lo = r * sum(self.strides)
        self.work = slice(lo, lo + sum((n - 1) * s for n, s in zip(shape, self.strides)) + 1)
        # axis by axis, each over the full extent of the other axes, so the
        # corner cells are copied from padding the earlier axes filled
        self._copies = []
        for ax, n in enumerate(shape):
            lead = (slice(None),) * ax
            self._copies.append((lead + (slice(0, r),), lead + (slice(n, n + r),)))
            self._copies.append((lead + (slice(n + r, n + 2 * r),), lead + (slice(r, 2 * r),)))

    def offset(self, off) -> int:
        """How far entry y + off lies after entry y in a flat field."""
        return sum(a * s for a, s in zip(off, self.strides))

    def source(self, off) -> slice:
        """The slice of a flat field holding entry y - off for each y of `work`."""
        o = self.offset(off)
        return slice(self.work.start - o, self.work.stop - o)

    def view(self, flat: np.ndarray) -> np.ndarray:
        """The nodes of a flat field, as a view of grid shape."""
        return flat.reshape(self.padded)[self.nodes]

    def copies(self, flat: np.ndarray) -> list:
        """The calls, (``padding.__setitem__``, (..., image)) pairs of views
        in order, that fill the padding of ``flat`` with copies of its nodes."""
        a = flat.reshape(self.padded)
        return [(a[dst].__setitem__, (..., a[src])) for dst, src in self._copies]

    def refresh(self, flat: np.ndarray) -> None:
        """Fill the padding of a flat field with periodic copies of its nodes."""
        for f, args in self.copies(flat):
            f(*args)

    def pad(self, field: np.ndarray) -> np.ndarray:
        """A node field as a new flat array of the layout."""
        flat = np.empty(self.size)
        self.view(flat)[...] = field
        self.refresh(flat)
        return flat

    def unpad(self, flat: np.ndarray) -> np.ndarray:
        return self.view(flat).copy()


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on a d-torus, d in {1, 2}.

    Parameters
    ----------
    dim : spatial dimension (1 or 2).
    n_points : nodes per axis, at least 8 each and at most MAX_NODES in all.
    lengths : period per axis, so the spacing is lengths[i] / n_points[i],
              which must lie between 1e-100 and 1e100.
    """

    dim: int
    n_points: tuple[int, ...]
    lengths: tuple[float, ...]

    def __post_init__(self):
        if not _is_int(self.dim) or self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim!r}")
        if len(self.n_points) != self.dim or len(self.lengths) != self.dim:
            raise ValueError("n_points and lengths must have one entry per axis")
        # messages start with the field name, so a caller can prefix a path
        if not all(_is_int(n) for n in self.n_points):
            raise ValueError(f"n_points must be integers, got {self.n_points}")
        if any(n < 8 for n in self.n_points):
            raise ValueError(f"n_points needs at least 8 nodes per axis, got {self.n_points}")
        nodes = math.prod(int(n) for n in self.n_points)
        if nodes > MAX_NODES:
            raise ValueError(
                f"n_points {self.n_points} give {nodes} nodes, more than the limit "
                f"of {MAX_NODES}"
            )
        # the stencils, the stability bound and the check tolerances square
        # the node spacing and its inverse as Python floats
        if any(isinstance(L, bool) or not 1e-100 < L / n < 1e100
               for L, n in zip(self.lengths, self.n_points)):
            raise ValueError(f"lengths must be positive, with node spacings from 1e-100 "
                             f"to 1e100, got {self.lengths} over {self.n_points} nodes")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.n_points)

    @cached_property
    def h(self) -> tuple[float, ...]:
        return tuple(L / n for L, n in zip(self.lengths, self.n_points))

    @cached_property
    def h_min(self) -> float:
        return min(self.h)

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.n_points))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.h))

    def node(self, x) -> tuple[int, ...]:
        """x as a node: one index per axis, wrapped onto the torus.  x is an
        integer on a 1-D grid, or a sequence or array of dim integers; bools
        and fractions are refused, not truncated."""
        if isinstance(x, np.ndarray):
            coords = tuple(np.atleast_1d(x))
        elif isinstance(x, (list, tuple)):
            coords = tuple(x)
        else:
            coords = (x,)
        if len(coords) != self.dim:
            problem = f"does not match grid dimension {self.dim}"
        elif not all(_is_int(v) for v in coords):
            problem = "has non-integer coordinates"
        else:
            return tuple(int(v) % n for v, n in zip(coords, self.n_points))
        raise ValueError(f"node {x!r} {problem}: needs {self.dim} integer "
                         f"coordinate{'s' if self.dim > 1 else ''}, one per grid axis")

    def axes(self) -> list[np.ndarray]:
        """Node coordinates per axis (left edge at 0)."""
        return [np.arange(n) * h for n, h in zip(self.n_points, self.h)]

    def coords(self) -> list[np.ndarray]:
        """Coordinate arrays of shape ``grid.shape``, one per axis."""
        return list(np.meshgrid(*self.axes(), indexing="ij"))

    # ---- stencils -------------------------------------------------------
    # Fields may carry trailing tensor axes; spatial axes are always the
    # leading ones, so shifting along axis < dim acts on nodes only.

    def d1(self, a: np.ndarray, axis: int, lead: int = 0) -> np.ndarray:
        """Centered first difference along a spatial axis, O(h^2).  ``a`` may
        carry ``lead`` axes before its node axes (a stack of fields)."""
        h = self.h[axis]
        return (shift(a, -1, lead + axis) - shift(a, 1, lead + axis)) / (2.0 * h)

    def d2(self, a: np.ndarray, axis: int) -> np.ndarray:
        """Centered second difference along a spatial axis, O(h^2)."""
        h = self.h[axis]
        return (shift(a, -1, axis) - 2.0 * a + shift(a, 1, axis)) / (h * h)

    def partial(self, a: np.ndarray) -> np.ndarray:
        """Stack all first partials: result[..., i] = d1(a, i) for node-shaped a."""
        return np.stack([self.d1(a, ax) for ax in range(self.dim)], axis=-1)

    def integrate(self, a: np.ndarray, weight: np.ndarray | None = None) -> float:
        """Riemann sum over nodes; optional nodewise weight (e.g. sqrt(det g))."""
        if weight is None:
            return float(np.sum(a) * self.cell_volume)
        return float(np.sum(a * weight) * self.cell_volume)

    def wrap_delta(self, i: np.ndarray | int, j: np.ndarray | int, axis: int):
        """Shortest periodic displacement j - i in cells along one axis."""
        n = self.n_points[axis]
        d = (np.asarray(j) - np.asarray(i)) % n
        return np.where(d > n // 2, d - n, d)
