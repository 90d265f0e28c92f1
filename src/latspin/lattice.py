"""Periodic lattice calculus: centered differences, divergence, quadrature.

The discrete operators are chosen so that summation by parts is exact: on a
periodic grid the centered difference matrix is antisymmetric, hence

    sum_m f (D g) = - sum_m (D f) g

holds to roundoff for every pair of fields. Together with the pointwise
ad/ad* duality of the algebra kernels this makes the covariant divergence
exactly the negative L2 adjoint of the covariant differential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lie import MatrixGroup

__all__ = [
    "GridMismatchError",
    "NonFiniteError",
    "Grid",
    "AlgebraField",
    "DualField",
    "GroupField",
    "ConnectionForm",
    "DualVectorField",
    "max_row_norm",
    "cdiff_array",
    "d_alg",
    "div_dual",
    "integrate",
    "l2_pair",
    "right_log_derivative",
    "snapshot",
]

MIN_SITES_PER_AXIS = 4
# numpy raises ValueError, not MemoryError, for an array past 2**63 - 1 bytes.
# Below this many sites 32 float64 per site fit (a command's largest array holds
# 18), so Grid raises MemoryError beyond it, and an allocation does below it.
MAX_SITES = np.iinfo(np.intp).max // 256


class GridMismatchError(ValueError):
    """Fields live on different grids or groups."""


class NonFiniteError(ValueError):
    """Field values are NaN or infinite."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice with per-axis site counts and spacings.

    The cell volume prod(h_i) plays the role of the volume density in all
    quadrature; lengths are N_i * h_i per axis.
    """

    sizes: tuple
    spacing: tuple

    def __post_init__(self):
        sizes = tuple(int(n) for n in self.sizes)
        spacing = tuple(float(h) for h in self.spacing)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "spacing", spacing)
        if len(sizes) not in (1, 2):
            raise ValueError("grid dimension must be 1 or 2")
        if len(spacing) != len(sizes):
            raise ValueError("spacing must list one value per axis")
        if any(n < MIN_SITES_PER_AXIS for n in sizes):
            raise ValueError(f"each axis needs at least {MIN_SITES_PER_AXIS} sites")
        if not all(0 < h < math.inf for h in spacing):
            raise ValueError("grid spacing must be positive and finite")
        if math.prod(sizes) > MAX_SITES:
            raise MemoryError(f"{math.prod(sizes)} sites lie beyond numpy's index range")

    @property
    def dim(self) -> int:
        return len(self.sizes)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def lengths(self) -> tuple:
        return tuple(n * h for n, h in zip(self.sizes, self.spacing))

    def coordinates(self):
        """Open meshgrid of site coordinates, one array per axis (ij indexing)."""
        axes = [h * np.arange(n) for n, h in zip(self.sizes, self.spacing)]
        return np.meshgrid(*axes, indexing="ij", sparse=True)


def max_row_norm(arr) -> float:
    """Largest Euclidean norm over the last axis (0.0 for an empty array).

    In the kappa-orthonormal basis this is the largest pointwise kappa-norm.
    The squared norms are component sums from +0.0, ((0 + x0^2) + x1^2) +
    ..., in the order in which np.linalg.norm(arr, axis=-1) sums them, so
    they have its bits for any last-axis length. The largest is taken before
    the square root, which is monotone, so one root serves every row.
    """
    sq = arr * arr
    total = np.zeros(sq.shape[:-1])
    for j in range(sq.shape[-1]):
        total += sq[..., j]
    return math.sqrt(np.maximum.reduce(total, axis=None, initial=0.0))


def _check_same_grid(a, b):
    if a.grid != b.grid or a.group is not b.group:
        raise GridMismatchError("fields live on different grids or groups")


@dataclass
class _Field:
    """The body the lattice containers share: a grid, a group, and one float
    array of shape _shape(grid, group), held in the attribute named _data.

    Each container's own __post_init__ calls _check, so every class keeps a
    construction hook of its own (perfbench's field_wrap span wraps the four
    coefficient containers' hooks class by class).
    """

    grid: Grid
    group: MatrixGroup

    _data = "values"

    @staticmethod
    def _shape(grid, group) -> tuple:
        return grid.sizes + (group.algebra_dim,)

    def _check(self, finite=True):
        """Store the data as a float array of the class's shape, finite if finite."""
        arr = np.asarray(getattr(self, self._data), float)
        setattr(self, self._data, arr)
        want = self._shape(self.grid, self.group)
        if arr.shape != want:
            raise ValueError(f"{self._data} must have shape {want}, got {arr.shape}")
        if finite and not np.isfinite(arr).all():
            raise NonFiniteError(f"{type(self).__name__} {self._data} must be finite")


class _Coefficients(_Field):
    """A container of finite algebra or dual coefficients."""

    @classmethod
    def zeros(cls, grid, group):
        return cls(grid, group, np.zeros(cls._shape(grid, group)))

    def max_norm(self) -> float:
        return max_row_norm(getattr(self, self._data))


@dataclass
class AlgebraField(_Coefficients):
    """Map from the lattice into the Lie algebra, stored as coefficients (sites..., d)."""

    values: np.ndarray

    def __post_init__(self):
        self._check()


@dataclass
class DualField(_Coefficients):
    """Map from the lattice into the dual algebra (coefficients in the dual basis)."""

    values: np.ndarray

    def __post_init__(self):
        self._check()


@dataclass
class GroupField(_Field):
    """Map from the lattice into G, stored as matrices (sites..., n, n)."""

    values: np.ndarray

    @staticmethod
    def _shape(grid, group) -> tuple:
        return grid.sizes + (group.matrix_dim,) * 2

    def __post_init__(self):
        self._check(finite=False)

    @classmethod
    def identity(cls, grid, group):
        eye = np.broadcast_to(group.identity(), cls._shape(grid, group))
        return cls(grid, group, eye.copy())

    def inverse(self) -> "GroupField":
        return GroupField(self.grid, self.group, self.group.inverse_arr(self.values))

    def compose(self, other: "GroupField") -> "GroupField":
        """Pointwise product self * other."""
        _check_same_grid(self, other)
        return GroupField(self.grid, self.group, self.values @ other.values)


@dataclass
class ConnectionForm(_Coefficients):
    """Algebra-valued one-form: one coefficient field per grid axis (dim, sites..., d)."""

    comps: np.ndarray

    _data = "comps"

    @staticmethod
    def _shape(grid, group) -> tuple:
        return (grid.dim,) + grid.sizes + (group.algebra_dim,)

    def __post_init__(self):
        self._check()


@dataclass
class DualVectorField(_Coefficients):
    """Dual-algebra-valued vector field, one component per grid axis."""

    comps: np.ndarray

    _data, _shape = "comps", staticmethod(ConnectionForm._shape)

    def __post_init__(self):
        self._check()


# -- operators ---------------------------------------------------------------


def cdiff_array(arr, axis: int, h: float, out=None) -> np.ndarray:
    """Centered difference with periodic wraparound along a site axis.

    The bits of (roll(arr, -1) - roll(arr, 1)) / (2h) without the two rolled
    copies. Neighbours along the axis sit step entries apart in the flat C
    layout, so one contiguous subtraction covers every site; the first and
    last site of the axis, where that pairs entries across the wrap, are
    then overwritten in one more subtraction, from the reversed neighbour
    pairs (1, 0) and (n-1, n-2).

    The result goes into out when given (a C-contiguous float array of arr's
    shape, such as one axis slice of d_alg's result), else into a fresh
    array.
    """
    arr = np.ascontiguousarray(arr, dtype=float)
    if out is None:
        out = np.empty(arr.shape)
    elif out.shape != arr.shape or not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous array of the input's shape")
    n, step, flat = arr.shape[axis], arr.strides[axis] // arr.itemsize, arr.ravel()
    np.subtract(flat[2 * step:], flat[:-2 * step], out=out.ravel()[step:-step])
    lead = (slice(None),) * axis
    np.subtract(arr[lead + (slice(1, None, -1),)], arr[lead + (slice(None, -3, -1),)],
                out=out[lead + (slice(None, None, n - 1),)])
    out /= 2.0 * h
    return out


def d_alg(values, spacing) -> np.ndarray:
    """Plain exterior derivative of algebra coefficients (sites..., d): one
    cdiff per axis, each written into its slice of the (dim, sites..., d)
    result."""
    out = np.empty((len(spacing),) + values.shape)
    for i, h in enumerate(spacing):
        cdiff_array(values, i, h, out=out[i])
    return out


def div_dual(comps, spacing) -> np.ndarray:
    """Plain divergence of per-axis dual coefficients (dim, sites..., d): the
    sum of the cdiffs.

    The sum starts from +0.0, (0 + D_0 w_0) + D_1 w_1, which turns a -0.0 of
    the first term into +0.0; it is formed in the first term's buffer.
    """
    out = cdiff_array(comps[0], 0, spacing[0])
    out += 0.0
    for i in range(1, len(spacing)):
        out += cdiff_array(comps[i], i, spacing[i])
    return out


def integrate(grid: Grid, site_values) -> float:
    """Quadrature of a per-site scalar: cell volume times the (pairwise) site sum."""
    site_values = np.asarray(site_values, float)
    if site_values.shape != grid.sizes:
        raise ValueError("integrand shape does not match the grid")
    return grid.cell_volume * float(np.sum(site_values))


def l2_pair(a, b) -> float:
    """L2 duality pairing: pointwise contraction, then quadrature.

    DualField pairs with AlgebraField; DualVectorField with ConnectionForm
    (summing over one-form components).
    """
    if isinstance(a, DualField) and isinstance(b, AlgebraField):
        _check_same_grid(a, b)
        density = np.einsum("...a,...a->...", a.values, b.values)
    elif isinstance(a, DualVectorField) and isinstance(b, ConnectionForm):
        _check_same_grid(a, b)
        density = np.einsum("i...a,i...a->...", a.comps, b.comps)
    else:
        raise GridMismatchError(
            f"cannot pair {type(a).__name__} with {type(b).__name__}"
        )
    return integrate(a.grid, density)


def right_log_derivative(chi: GroupField) -> ConnectionForm:
    """Right logarithmic derivative (D chi) chi^-1, projected onto the algebra.

    The projection is kappa-orthogonal; right translation by a constant group
    element drops out exactly.
    """
    inv = chi.group.inverse_arr(chi.values)
    comps = []
    for i in range(chi.grid.dim):
        mats = cdiff_array(chi.values, i, chi.grid.spacing[i]) @ inv
        comps.append(chi.group.to_coeffs(mats))
    return ConnectionForm(chi.grid, chi.group, np.stack(comps))


# -- snapshots ---------------------------------------------------------------

_KINDS = {
    "algebra": AlgebraField,
    "dual": DualField,
    "connection": ConnectionForm,
    "dual_vector": DualVectorField,
}


def snapshot(f) -> dict:
    """Snapshot of a coefficient field f: its header, and its data as the flat
    row-major array of f (a view). json.dumps(snap, default=np.ndarray.tolist)
    serializes it, and a writer can encode the data chunk by chunk straight
    from the array. Snapshots are written, never read back.
    """
    for kind, cls in _KINDS.items():
        if type(f) is cls:
            return {
                "dim": f.grid.dim,
                "sizes": list(f.grid.sizes),
                "spacing": list(f.grid.spacing),
                "group": f.group.name,
                "kind": kind,
                "data": getattr(f, f._data).reshape(-1),
            }
    raise TypeError(f"cannot snapshot {type(f).__name__}")
