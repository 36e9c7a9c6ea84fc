"""Periodic structured grids and second-order finite-difference stencils.

Every field in this package is a plain ndarray whose leading axes run over
grid nodes (shape ``grid.shape``) and whose trailing axes, if any, carry
tensor indices.  The grid is a flat chart on a torus: index arithmetic wraps,
so every stencil is built from ``shift``, a one-node periodic shift made of
two slice copies, and all operators are exactly translation equivariant.
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


class Halo:
    """A reusable buffer holding a node field with one periodic ghost layer
    on each side of every axis, so that shifted copies of the field are
    plain slices of ``buf``: node k of the field sits at k + 1 along each
    axis, and ``buf[0]`` and ``buf[n + 1]`` along an axis hold its layers
    n - 1 and 0, corners included.
    """

    def __init__(self, shape: tuple[int, ...]):
        self.buf = np.empty(tuple(n + 2 for n in shape))
        self._inner = self.buf[(slice(1, -1),) * len(shape)]
        # axis by axis, each ghost layer spanning the earlier axes' ghosts too
        self._ghosts = []
        for axis, n in enumerate(shape):
            lead = (slice(None),) * axis
            rest = (slice(1, -1),) * (len(shape) - axis - 1)
            self._ghosts += [(lead + (0,) + rest, lead + (n,) + rest),
                             (lead + (n + 1,) + rest, lead + (1,) + rest)]

    def load(self, a: np.ndarray) -> None:
        """Copy the node field ``a`` in and fill the ghost layers."""
        buf = self.buf
        np.copyto(self._inner, a)
        for ghost, image in self._ghosts:
            buf[ghost] = buf[image]


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on a d-torus, d in {1, 2}.

    Parameters
    ----------
    dim : spatial dimension (1 or 2).
    n_points : nodes per axis, at least 8 each and at most MAX_NODES in all.
    lengths : period per axis, so the spacing is lengths[i] / n_points[i].
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
        if any(isinstance(L, bool) or not L > 0 or not math.isfinite(L) for L in self.lengths):
            raise ValueError(f"lengths must be finite and positive, got {self.lengths}")

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

    def d1(self, a: np.ndarray, axis: int) -> np.ndarray:
        """Centered first difference along a spatial axis, O(h^2)."""
        h = self.h[axis]
        return (shift(a, -1, axis) - shift(a, 1, axis)) / (2.0 * h)

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
