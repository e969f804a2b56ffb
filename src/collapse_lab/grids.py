"""Periodic sample grids, the positivity check of metric samples, and the
validated sample container of the specs' inputs.

A grid covers the unit torus of complex dimension one, the fiber of the
elliptic fibrations the lab models: period 1 along both real directions of
z = x + iy, with the same even number of uniform samples along each.  Field
arrays have axis 0 along x and axis 1 along y.  A field constant along y
may be held as its y-profile, the (n, 1) column of its samples at y = 0,
and numpy broadcasting widens a profile where it meets a full field.  The
width is fixed where the samples are built: a constant is a profile.  The
geometry operators take bare sample arrays; ``ScalarField`` validates the
real samples a spec is given and a solve returns.  The package no longer
uses ``HermitianField``: only the benchmark's tracer hooks it.
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


def _samples(grid, values):
    """``values`` as float samples over the grid or a y-profile of them;
    complex samples raise ``ValueError``, their imaginary part unread."""
    if np.iscomplexobj(values):
        raise ValueError("samples must be real, got complex values")
    vals = np.asarray(values, dtype=np.float64)
    if vals.shape not in (grid.shape, (grid.shape[0], 1)):
        raise ValueError(f"samples must have shape {grid.shape} or "
                         f"{(grid.shape[0], 1)}, got {vals.shape}")
    return vals


def require_positive(values, context=""):
    """Raise PositivityError at the worst grid point of the first metric, in
    a stack of coefficient samples over their last two axes, that is not
    positive; a NaN sample is the worst point and is not positive."""
    flat = values.reshape(-1, values.shape[-2] * values.shape[-1])
    worst = np.argmin(flat, axis=1)
    lows = flat[np.arange(len(flat)), worst]
    if np.all(lows > 0.0):
        return
    k = int(np.argmin(lows > 0.0))
    point = tuple(int(i) for i in np.unravel_index(worst[k],
                                                   values.shape[-2:]))
    where = " in " + context if context else ""
    raise PositivityError(
        f"metric not positive definite{where}: eigenvalue {lows[k]:.6e} "
        f"at grid point {point}", point=point, value=float(lows[k]))


@dataclass
class ScalarField:
    """Real scalar samples over a grid, or their y-profile."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = _samples(self.grid, self.values)

    def mean(self):
        return float(np.mean(self.values))

    def sup(self):
        return float(np.max(np.abs(self.values)))

    @classmethod
    def constant(cls, grid, value):
        return cls(grid, np.full((grid.shape[0], 1), float(value)))


@dataclass
class HermitianField:
    """A real (1,1)-form i g dz ^ dzbar, held as its coefficient samples g,
    realness and shape validated on entry.  No code of the package builds
    one: its operators take bare samples.  It stays only because the
    benchmark's tracer (``perfbench/tracing.py``) hooks its
    ``__post_init__``, until that hook is retired."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = _samples(self.grid, self.values)
