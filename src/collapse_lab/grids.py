"""Periodic sample grids and the field containers every other module shares.

A grid covers the unit torus of complex dimension one, the fiber of the
elliptic fibrations the lab models: period 1 along both real directions of
z = x + iy, with the same even number of uniform samples along each.  Field
arrays have axis 0 along x and axis 1 along y.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


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
    """Uniform sampling of the unit torus, ``resolutions = (n,)`` samples per
    real direction.  ``complex_dim`` must be 1."""

    complex_dim: int
    resolutions: tuple
    # samples per real axis, derived once from the resolution
    shape: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.complex_dim != 1:
            raise ValueError(f"fibers have one complex dimension, got "
                             f"complex_dim {self.complex_dim}")
        res = tuple(int(n) for n in np.atleast_1d(self.resolutions))
        if len(res) != 1:
            raise ValueError(f"need one resolution, got {res}")
        n = res[0]
        if n < 8 or n % 2:
            raise ValueError(f"resolutions must be even and >= 8, got {n}")
        object.__setattr__(self, "resolutions", res)
        object.__setattr__(self, "shape", (n, n))

    @property
    def spacings(self):
        return tuple(1.0 / n for n in self.shape)

    def axis_coordinates(self, axis):
        """Sample coordinates along one real axis, broadcastable over the grid."""
        n = self.shape[axis]
        vals = np.arange(n) * (1.0 / n)
        shape = [1] * len(self.shape)
        shape[axis] = n
        return vals.reshape(shape)

    def wavenumbers(self, axis):
        """Angular wavenumbers for one real axis, broadcastable over the grid."""
        n = self.shape[axis]
        k = 2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / n)
        shape = [1] * len(self.shape)
        shape[axis] = n
        return k.reshape(shape)


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


@dataclass
class HermitianField:
    """A real (1,1)-form i g dz ^ dzbar, held as its coefficient samples g.

    In one complex dimension the Hermitian coefficient matrix is the single
    real number g, so a metric is a positive scalar field and g is its only
    eigenvalue.  Realness is validated on entry; positivity is deliberately
    not, callers query it.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.values):
            raise ValueError("coefficients of a real (1,1)-form must be real")
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != self.grid.shape:
            raise ValueError(f"coefficient array must have shape "
                             f"{self.grid.shape}, got {vals.shape}")
        self.values = vals

    def is_positive(self):
        return bool(np.min(self.values) > 0.0)

    def require_positive(self, context=""):
        """Raise PositivityError naming the worst grid point if not positive."""
        worst = np.unravel_index(np.argmin(self.values), self.values.shape)
        val = float(self.values[worst])
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

    @classmethod
    def scaled_identity(cls, grid, scale=1.0):
        return cls(grid, np.full(grid.shape, float(scale)))
