"""Model fibrations with exactly computable collapsing behaviour.

Four families, in increasing order of structure:

* ``ProductModelSpec``: a rigid base times a shrinking flat fiber, where the
  evolving scales solve scalar ODEs in closed form.
* ``FiberFlowSpec``: a flat torus fiber driven by the same base scales, the
  smallest setting in which the potential genuinely moves.
* ``GkeTestbedSpec``: data for the fiberwise elliptic volume equation on a
  torus base patch with positive density.
* ``SemiFlatSpec``: a polynomial-modulus torus family over an affine base
  patch, carrying the degenerate form whose rescaling identity is exact.

Patch quantities (semi-flat form, modulus variation) are evaluated from
analytic formulas at sample points, never spectrally, so the periodic FFT
machinery in :mod:`collapse_lab.geometry` stays out of their error budget.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .grids import GridSpec, HermitianField, ScalarField
from .geometry import ddbar, ma_density

MEAN_FREE_TOL = 1e-12


# ------------------------------------------------------------ product model

@dataclass(frozen=True)
class ProductModelSpec:
    """Rigid product: base scale relaxes to 1, fiber scale decays to 0.

    The base factor carries the constant-negative-curvature metric scaled by
    ``a(t) = 1 + (a0 - 1) exp(-t)`` and the flat fiber carries
    ``b(t) = b0 exp(-t)``; these are the closed-form solutions of
    ``a' = 1 - a`` and ``b' = -b``.
    """

    a0: float
    b0: float
    base_dim: int = 1
    fiber_dim: int = 1

    def __post_init__(self):
        if self.a0 <= 0 or self.b0 <= 0:
            raise ValueError("scale coefficients a0, b0 must be positive")
        if self.base_dim < 1 or self.fiber_dim < 1:
            raise ValueError("dimensions must be >= 1")

    def base_scale(self, t):
        return 1.0 + (self.a0 - 1.0) * math.exp(-t)

    def closed_form(self, t):
        return self.base_scale(t), self.b0 * math.exp(-t)

    def base_curvature_norm(self, t):
        # each hyperbolic factor contributes 1/a^2 to the squared norm
        return math.sqrt(self.base_dim) / self.base_scale(t)


# -------------------------------------------------------------- fiber model

@dataclass
class FiberFlowSpec:
    """Flat torus fiber with an evolving potential, driven by base scales.

    ``initial_potential`` must be mean-free (constants are gauge) and small
    enough that ``b0 * id + ddbar(potential)`` starts inside the positive
    cone.
    """

    grid: GridSpec
    b0: float
    a0: float = 1.0
    initial_potential: ScalarField = None
    base_dim: int = 1

    def __post_init__(self):
        if self.b0 <= 0 or self.a0 <= 0:
            raise ValueError("scale coefficients a0, b0 must be positive")
        if self.base_dim < 1:
            raise ValueError("base_dim must be >= 1")
        if self.initial_potential is None:
            self.initial_potential = ScalarField.constant(self.grid, 0.0)
        if abs(self.initial_potential.mean()) > MEAN_FREE_TOL:
            raise ValueError(
                f"initial potential must be mean-free, got mean "
                f"{self.initial_potential.mean():.3e}")
        self._initial_form = (HermitianField.scaled_identity(self.grid, self.b0)
                              + ddbar(self.initial_potential))
        self._initial_form.require_positive("initial fiber metric")

    def initial_form(self):
        return self._initial_form


# ------------------------------------------------------------- gke testbed

@dataclass
class GkeTestbedSpec:
    """Fiberwise volume-equation data on a flat torus background.

    Exactly one of ``density`` (the positive right-hand density) or
    ``manufactured`` (a potential whose induced density makes it the exact
    solution) should be supplied; with neither, the density defaults to 1.
    """

    grid: GridSpec
    eta: ScalarField = None
    density: ScalarField = None
    manufactured: ScalarField = None
    flat_scale: float = 1.0

    def __post_init__(self):
        if self.density is not None and self.manufactured is not None:
            raise ValueError("supply either a density or a manufactured "
                             "solution, not both")
        if self.flat_scale <= 0:
            raise ValueError("flat_scale must be positive")
        if self.eta is None:
            self.eta = ScalarField.constant(self.grid, 0.0)
        self._sigma = (HermitianField.scaled_identity(self.grid, self.flat_scale)
                       + ddbar(self.eta))
        self._sigma.require_positive("background metric")
        if self.density is None and self.manufactured is None:
            self.density = ScalarField.constant(self.grid, 1.0)
        if self.density is not None and np.min(self.density.values) <= 0.0:
            raise ValueError(
                f"density must be positive, min {np.min(self.density.values):.3e}")
        if self.manufactured is not None:
            (self._sigma + ddbar(self.manufactured)).require_positive(
                "manufactured metric")

    def sigma_form(self):
        return self._sigma

    def density_field(self):
        """The density the solver sees; induced from u* in manufactured mode."""
        if self.manufactured is not None:
            ratio = (ma_density(self._sigma + ddbar(self.manufactured)).values
                     / ma_density(self._sigma).values)
            return ScalarField(self.grid,
                               ratio * np.exp(-self.manufactured.values))
        return self.density


# ---------------------------------------------------------------- semi-flat

@dataclass
class SemiFlatSpec:
    """Torus family over an affine base patch with polynomial modulus.

    ``tau_coeffs`` are ascending coefficients of the modulus map; the default
    ``i + 0.2 z`` varies genuinely but keeps Im(modulus) > 0 on the patch.
    The base patch is the centered square of side ``base_extent`` sampled at
    ``base_n`` points per real direction.
    """

    fiber_grid: GridSpec
    tau_coeffs: tuple = (1j, 0.2)
    base_n: int = 24
    base_extent: float = 1.0

    def __post_init__(self):
        if self.fiber_grid.complex_dim != 1:
            raise ValueError("fiber must have one complex dimension")
        if self.base_n < 4:
            raise ValueError("base_n must be >= 4")
        if self.base_extent <= 0:
            raise ValueError("base_extent must be positive")
        tmin = float(np.min(self.modulus(self.base_points()).imag))
        if tmin <= 0.0:
            raise ValueError(
                f"modulus must stay in the upper half plane on the patch, "
                f"min imaginary part {tmin:.3e}")

    def modulus(self, z):
        return P.polyval(z, np.asarray(self.tau_coeffs, dtype=complex))

    def modulus_derivative(self, z):
        dc = P.polyder(np.asarray(self.tau_coeffs, dtype=complex))
        return P.polyval(z, dc)

    def base_points(self):
        n = self.base_n
        x = (np.arange(n) / n - 0.5) * self.base_extent
        return x[:, None] + 1j * x[None, :]

    def fiber_points(self):
        g = self.fiber_grid
        return np.broadcast_to(g.complex_coordinates(0), g.shape).copy()

    def base_grid(self):
        ext = (self.base_extent, self.base_extent)
        return GridSpec(1, (self.base_n,), periods=ext, periodic=False)

    def patch_grid(self):
        ext = (self.base_extent, self.base_extent)
        return GridSpec(2, (self.base_n, self.fiber_grid.resolutions[0]),
                        periods=ext + self.fiber_grid.periods, periodic=False)


def semiflat_potential(spec, z, xi):
    """(Im xi)^2 / Im(modulus at z), quadratic along fibers."""
    return np.imag(xi) ** 2 / np.imag(spec.modulus(z))


def _semiflat_components(spec, z, xi):
    # mixed second derivatives of the semi-flat potential, by hand
    T = np.imag(spec.modulus(z))
    tp = spec.modulus_derivative(z)
    y = np.imag(xi)
    h00 = (y * y * np.abs(tp) ** 2 / (2.0 * T ** 3)).astype(complex)
    h01 = -y * tp / (2.0 * T * T)
    h11 = (1.0 / (2.0 * T)).astype(complex) * np.ones_like(y)
    return ((h00, h01), (np.conj(h01), h11))


def _patch_samples(spec):
    z = spec.base_points()[..., None, None]
    xi = spec.fiber_points()[None, None, ...]
    return z, xi


def _assemble(grid, comps):
    vals = np.zeros(grid.shape + (2, 2), dtype=complex)
    for j in range(2):
        for k in range(2):
            vals[..., j, k] = np.broadcast_to(comps[j][k], grid.shape)
    return vals


def semiflat_form(spec):
    """The degenerate semi-flat form sampled over the product patch."""
    z, xi = _patch_samples(spec)
    grid = spec.patch_grid()
    return HermitianField(grid, _assemble(grid, _semiflat_components(spec, z, xi)))


def rescaling_check(spec, t, _components=None):
    """Sup-relative defect of the fiber-rescaling identity at time t.

    Pulls the form back under the fiber dilation by exp(t/2), multiplies by
    exp(-t) and compares with the original; for the genuine semi-flat form
    this is an algebraic identity.
    """
    comps = _components or _semiflat_components
    z, xi = _patch_samples(spec)
    lam = math.exp(0.5 * t)
    h = comps(spec, z, xi)
    hl = comps(spec, z, lam * xi)
    scale = (1.0, lam)
    defect = 0.0
    ref = max(np.max(np.abs(h[j][k])) for j in range(2) for k in range(2))
    for j in range(2):
        for k in range(2):
            pulled = math.exp(-t) * scale[j] * scale[k] * hl[j][k]
            defect = max(defect, float(np.max(np.abs(pulled - h[j][k]))))
    return defect / ref


def weil_petersson(spec):
    """Variation form of the modulus over the base patch."""
    z = spec.base_points()
    T = np.imag(spec.modulus(z))
    tp = spec.modulus_derivative(z)
    vals = (np.abs(tp) ** 2 / (4.0 * T * T)).astype(complex)[..., None, None]
    return HermitianField(spec.base_grid(), vals)


def density_F(spec, omega):
    """Fiberwise density of a volume form against the split reference.

    ``omega`` holds positive volume samples over the product patch. The
    reference is the wedge of the flat unit base form with the semi-flat
    form; with one base and one fiber direction its density is twice the
    fiber component.
    """
    omega = np.asarray(omega, dtype=float)
    if np.min(omega) <= 0.0:
        raise ValueError("volume density must be positive")
    z, xi = _patch_samples(spec)
    h11 = _semiflat_components(spec, z, xi)[1][1].real
    return omega / (2.0 * h11)


def fiber_constancy(values):
    """Largest relative spread of a patch quantity along the fibers.

    The fibers are the last two axes of a patch array.
    """
    mean = np.mean(values, axis=(-2, -1))
    std = np.std(values, axis=(-2, -1))
    return float(np.max(std / np.abs(mean)))


def fiberwise_cy_potential(eta, b0):
    """Potential moving the start fiber metric to the flat one.

    Returns -eta plus the constant that makes the result mean-free against
    the start metric's volume density.
    """
    start = HermitianField.scaled_identity(eta.grid, b0) + ddbar(eta)
    start.require_positive("start fiber metric")
    weight = ma_density(start).values
    shift = float(np.sum(eta.values * weight) / np.sum(weight))
    return ScalarField(eta.grid, -eta.values + shift)
