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
analytic formulas at sample points and returned as plain arrays of shape
``(base_n, base_n, fiber_n)``, base axes first, then the fiber height
Im xi; the form does not depend on Re xi, so that axis is never sampled.
The base patch is not a torus, so the FFT machinery in
:mod:`collapse_lab.geometry` never touches them.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .grids import GridSpec, ScalarField, require_positive
from .geometry import ddbar

MEAN_FREE_TOL = 1e-12


def _base_scale(a0, t):
    """The base scale a(t) = 1 + (a0 - 1) exp(-t) and its log.

    log1p keeps the relative precision of log a once exp(-t) nears the
    floating-point floor.  For a0 below about 1.1e-16, a0 - 1 rounds to -1
    and that formula reads a(0) = 0; there, while a < 1/2, a is taken as
    a0 exp(-t) - expm1(-t), whose terms do not cancel.
    """
    decay = math.exp(-t)
    if a0 - 1.0 == -1.0 and decay > 0.5:
        a = a0 * decay - math.expm1(-t)
        return a, math.log(a)
    shift = (a0 - 1.0) * decay
    return 1.0 + shift, math.log1p(shift)


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

    def __post_init__(self):
        if self.a0 <= 0 or self.b0 <= 0:
            raise ValueError("scale coefficients a0, b0 must be positive")
        if self.base_dim < 1:
            raise ValueError("base_dim must be >= 1")

    def base_scale(self, t):
        return _base_scale(self.a0, t)[0]

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
    enough that ``b0 + ddbar(potential)`` starts inside the positive
    cone.
    """

    grid: GridSpec
    b0: float
    initial_potential: ScalarField
    a0: float = 1.0
    base_dim: int = 1

    def __post_init__(self):
        if self.b0 <= 0 or self.a0 <= 0:
            raise ValueError("scale coefficients a0, b0 must be positive")
        if self.base_dim < 1:
            raise ValueError("base_dim must be >= 1")
        # relative to the sup, since the roundoff of the mean scales with it
        pot = self.initial_potential
        if abs(pot.mean()) > MEAN_FREE_TOL * pot.sup():
            raise ValueError(
                f"initial potential must be mean-free, got mean "
                f"{pot.mean():.3e}")
        self._initial_form = self.b0 + ddbar(self.grid, pot.values)
        require_positive(self._initial_form, "initial fiber metric")

    def initial_form(self):
        """Coefficient samples of the start metric b0 + ddbar(potential)."""
        return self._initial_form


# ------------------------------------------------------------- gke testbed

@dataclass
class GkeTestbedSpec:
    """Fiberwise volume-equation data on a flat torus background.

    Takes exactly one of ``density`` (the positive right-hand density) or
    ``manufactured`` (a potential whose induced density makes it the exact
    solution), and raises ``ValueError`` otherwise; a density with a
    sample that is not positive, NaN included, raises too.  ``eta``
    (default 0) bends the background ``flat_scale + ddbar(eta)``.  The
    forms and the density are kept as bare sample arrays.
    """

    grid: GridSpec
    eta: ScalarField = None
    density: ScalarField = None
    manufactured: ScalarField = None
    flat_scale: float = 1.0

    def __post_init__(self):
        if (self.density is None) == (self.manufactured is None):
            raise ValueError("supply exactly one of a density or a "
                             "manufactured solution")
        if self.flat_scale <= 0:
            raise ValueError("flat_scale must be positive")
        if self.eta is None:
            self.eta = ScalarField.constant(self.grid, 0.0)
        self._sigma = self.flat_scale + ddbar(self.grid, self.eta.values)
        require_positive(self._sigma, "background metric")
        if self.density is not None:
            low = np.min(self.density.values)
            if not low > 0.0:
                raise ValueError(f"density must be positive, min {low:.3e}")
            self._density = self.density.values
        else:
            u = self.manufactured.values
            solved = self._sigma + ddbar(self.grid, u)
            require_positive(solved, "manufactured metric")
            self._density = solved / self._sigma * np.exp(-u)

    def sigma_form(self):
        """Coefficient samples of the background metric."""
        return self._sigma

    def density_field(self):
        """Samples of the density the solver sees; induced from u* in
        manufactured mode."""
        return self._density


# ---------------------------------------------------------------- semi-flat

@dataclass
class SemiFlatSpec:
    """Torus family over an affine base patch with polynomial modulus.

    ``tau_coeffs`` are ascending coefficients of the modulus map; the default
    ``i + 0.2 z`` varies genuinely but keeps Im(modulus) > 0 on the patch.
    The base patch is the centered square of side ``base_extent`` sampled at
    ``base_n`` points per real direction; the fiber is sampled at the
    ``fiber_n`` heights Im xi = k / fiber_n.
    """

    fiber_n: int
    tau_coeffs: tuple = (1j, 0.2)
    base_n: int = 24
    base_extent: float = 1.0

    def __post_init__(self):
        if self.base_n < 4 or self.fiber_n < 1:
            raise ValueError("need base_n >= 4 and fiber_n >= 1")
        if self.base_extent <= 0:
            raise ValueError("base_extent must be positive")
        tmin = float(np.min(self.modulus(self.base_points()).imag))
        if tmin <= 0.0:
            raise ValueError(
                f"modulus must stay in the upper half plane on the patch, "
                f"min imaginary part {tmin:.3e}")

    @classmethod
    def from_model(cls, model):
        """The spec of a ``semiflat-identities`` config's model section,
        whose ``tau_coeffs`` are (re, im) pairs."""
        return cls(model["fiber_n"],
                   tuple(complex(re, im) for re, im in model["tau_coeffs"]),
                   model["base_n"], model["base_extent"])

    def modulus(self, z):
        return P.polyval(z, np.asarray(self.tau_coeffs, dtype=complex))

    def modulus_derivative(self, z):
        dc = P.polyder(np.asarray(self.tau_coeffs, dtype=complex))
        return P.polyval(z, dc)

    def base_points(self):
        n = self.base_n
        x = (np.arange(n) / n - 0.5) * self.base_extent
        return x[:, None] + 1j * x[None, :]

    def patch(self):
        """Base points and fiber heights, broadcasting to
        ``(base_n, base_n, fiber_n)``."""
        return (self.base_points()[..., None],
                np.arange(self.fiber_n) * (1.0 / self.fiber_n))


def semiflat_potential(spec, z, xi):
    """(Im xi)^2 / Im(modulus at z), quadratic along fibers."""
    return np.imag(xi) ** 2 / np.imag(spec.modulus(z))


def semiflat_components(spec, z, y):
    """The semi-flat form at base point z and fiber height y = Im xi.

    Returns the mixed second derivatives of the potential, by hand: real
    g_zz, complex g_zxi and real g_xixi (g_xiz is the conjugate of g_zxi).
    Each broadcasts z against y; g_xixi depends on z alone.
    """
    T = np.imag(spec.modulus(z))
    tp = spec.modulus_derivative(z)
    return (y * y * np.abs(tp) ** 2 / (2.0 * T ** 3), -y * tp / (2.0 * T * T),
            1.0 / (2.0 * T))


def rescaling_check(spec, t):
    """Sup-relative defect of the fiber-rescaling identity at time t.

    Pulls the form back under the fiber dilation by exp(t/2), multiplies by
    exp(-t) and compares with the original; for the genuine semi-flat form
    this is an algebraic identity.
    """
    z, y = spec.patch()
    lam = math.exp(0.5 * t)
    h = semiflat_components(spec, z, y)
    hl = semiflat_components(spec, z, lam * y)
    # pull-back factors exp(-t) s_j s_k with s = (1, lam)
    e = math.exp(-t)
    pulled = (e * hl[0], e * lam * hl[1], e * lam * lam * hl[2])
    ref = max(np.max(np.abs(c)) for c in h)
    return max(float(np.max(np.abs(p - c)))
               for p, c in zip(pulled, h)) / ref


def weil_petersson(spec):
    """Variation form of the modulus over the base patch.

    The real array |modulus'|^2 / (4 Im(modulus)^2), the single coefficient
    of ddbar(-log Im modulus), at the base points.
    """
    z = spec.base_points()
    T = np.imag(spec.modulus(z))
    tp = spec.modulus_derivative(z)
    return np.abs(tp) ** 2 / (4.0 * T * T)


def density_F(spec, omega):
    """Fiberwise density of a volume form against the split reference.

    ``omega`` holds positive volume samples over the patch, shape
    ``(base_n, base_n, fiber_n)``. The reference is the wedge of the flat
    unit base form with the semi-flat form; with one base and one fiber
    direction its density is twice the fiber component.
    """
    omega = np.asarray(omega, dtype=float)
    if np.min(omega) <= 0.0:
        raise ValueError("volume density must be positive")
    z, y = spec.patch()
    return omega / (2.0 * semiflat_components(spec, z, y)[2])


def fiber_constancy(values):
    """Largest relative spread of a patch quantity along the fibers.

    The fiber is the last axis of a patch array.
    """
    mean = np.mean(values, axis=-1)
    std = np.std(values, axis=-1)
    return float(np.max(std / np.abs(mean)))
