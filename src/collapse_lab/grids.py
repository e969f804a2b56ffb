"""Periodic sample grids and the field containers every other module shares.

A grid covers an m-complex-dimensional torus with an even number of uniform
samples per real direction.  Coordinate j occupies real axes 2j (its real
part) and 2j+1 (its imaginary part), so field arrays have one axis per real
direction, interleaved.  Patch grids (``periodic=False``) reuse the same
containers for analytically evaluated data; spectral operators refuse them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

HERMITIAN_RTOL = 1e-12


class PositivityError(ValueError):
    """A metric field failed a positive-definiteness requirement.

    Carries the offending grid index and the violating eigenvalue so solver
    call sites can report exactly where the cone was left.
    """

    def __init__(self, message, point=None, value=None):
        super().__init__(message)
        self.point = point
        self.value = value


@dataclass(frozen=True)
class GridSpec:
    """Uniform torus sampling: resolutions per complex dim, periods per real axis."""

    complex_dim: int
    resolutions: tuple
    periods: tuple = ()
    periodic: bool = True
    # samples per real axis, derived once from the resolutions
    shape: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.complex_dim < 1:
            raise ValueError("complex_dim must be >= 1")
        res = tuple(int(n) for n in np.atleast_1d(self.resolutions))
        if len(res) == 1:
            res = res * self.complex_dim
        if len(res) != self.complex_dim:
            raise ValueError("need one resolution per complex dimension")
        for n in res:
            if n < 8 or n % 2:
                raise ValueError(f"resolutions must be even and >= 8, got {n}")
        per = tuple(float(p) for p in self.periods) or (1.0,) * (2 * self.complex_dim)
        if len(per) != 2 * self.complex_dim:
            raise ValueError("need one period per real direction")
        if any(p <= 0 for p in per):
            raise ValueError("periods must be positive")
        object.__setattr__(self, "resolutions", res)
        object.__setattr__(self, "periods", per)
        object.__setattr__(self, "shape", tuple(
            res[a // 2] for a in range(2 * self.complex_dim)))

    @property
    def spacings(self):
        return tuple(self.periods[a] / self.shape[a] for a in range(len(self.shape)))

    def axis_coordinates(self, axis):
        """Sample coordinates along one real axis, broadcastable over the grid."""
        n = self.shape[axis]
        vals = np.arange(n) * (self.periods[axis] / n)
        shape = [1] * len(self.shape)
        shape[axis] = n
        return vals.reshape(shape)

    def wavenumbers(self, axis):
        """Angular wavenumbers for one real axis, broadcastable over the grid."""
        n = self.shape[axis]
        k = 2.0 * np.pi * np.fft.fftfreq(n, d=self.periods[axis] / n)
        shape = [1] * len(self.shape)
        shape[axis] = n
        return k.reshape(shape)

    def complex_coordinates(self, j):
        """Samples of complex coordinate j over the full grid."""
        return self.axis_coordinates(2 * j) + 1j * self.axis_coordinates(2 * j + 1)


@dataclass
class ScalarField:
    """Real scalar samples over a grid."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != self.grid.shape:
            vals = np.broadcast_to(vals, self.grid.shape).copy()
        self.values = vals

    def mean(self):
        return float(np.mean(self.values))

    def sup(self):
        return float(np.max(np.abs(self.values)))

    @classmethod
    def constant(cls, grid, value):
        return cls(grid, np.full(grid.shape, float(value)))


def extreme_eigenvalue(values, largest):
    """Smallest or largest eigenvalue of Hermitian matrices, pointwise.

    ``values`` is a bare coefficient array of shape (..., m, m) that the
    caller knows to be Hermitian; closed form for m <= 2.
    """
    m = values.shape[-1]
    if m == 1:
        return values[..., 0, 0].real.copy()
    if m == 2:
        tr = (values[..., 0, 0] + values[..., 1, 1]).real
        det = (values[..., 0, 0] * values[..., 1, 1]
               - values[..., 0, 1] * values[..., 1, 0]).real
        disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
        return 0.5 * (tr + disc) if largest else 0.5 * (tr - disc)
    return np.linalg.eigvalsh(values)[..., -1 if largest else 0]


@dataclass
class HermitianField:
    """Pointwise Hermitian m x m coefficient matrices of a real (1,1)-form.

    Component [j, k] holds the mixed second-derivative pairing of complex
    coordinates j and conj(k).  Hermitian symmetry is validated on entry;
    positive-definiteness is deliberately not, callers query it.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        m = self.grid.complex_dim
        vals = np.asarray(self.values, dtype=np.complex128)
        want = self.grid.shape + (m, m)
        if vals.shape != want:
            raise ValueError(f"component array must have shape {want}, got {vals.shape}")
        dev = np.max(np.abs(vals - np.conj(np.swapaxes(vals, -1, -2))))
        scale = 1.0 + np.max(np.abs(vals))
        if dev > HERMITIAN_RTOL * scale:
            raise ValueError(f"components not Hermitian: deviation {dev:.3e}")
        self.values = vals

    @property
    def complex_dim(self):
        return self.grid.complex_dim

    def component(self, j, k):
        return self.values[..., j, k]

    def min_eigenvalue(self):
        """Smallest eigenvalue at every grid point (closed form for m <= 2)."""
        return extreme_eigenvalue(self.values, largest=False)

    def max_eigenvalue(self):
        """Largest eigenvalue at every grid point (closed form for m <= 2)."""
        return extreme_eigenvalue(self.values, largest=True)

    def is_positive(self):
        return bool(np.min(self.min_eigenvalue()) > 0.0)

    def require_positive(self, context=""):
        """Raise PositivityError naming the worst grid point if not positive."""
        eig = self.min_eigenvalue()
        worst = np.unravel_index(np.argmin(eig), eig.shape)
        val = float(eig[worst])
        if val <= 0.0:
            where = " in " + context if context else ""
            raise PositivityError(
                f"metric not positive definite{where}: eigenvalue {val:.6e} "
                f"at grid point {tuple(int(i) for i in worst)}",
                point=tuple(int(i) for i in worst), value=val)

    def __add__(self, other):
        if isinstance(other, HermitianField):
            return HermitianField(self.grid, self.values + other.values)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, HermitianField):
            return HermitianField(self.grid, self.values - other.values)
        return NotImplemented

    def __rmul__(self, c):
        return HermitianField(self.grid, float(c) * self.values)

    @classmethod
    def scaled_identity(cls, grid, scale=1.0):
        m = grid.complex_dim
        vals = np.zeros(grid.shape + (m, m), dtype=np.complex128)
        idx = np.arange(m)
        vals[..., idx, idx] = np.asarray(scale, dtype=np.complex128)[..., None] \
            if np.ndim(scale) else complex(scale)
        return cls(grid, vals)
