"""The collapsing fiber flow and its monitor suite.

The evolving metric is a rigid base part with relaxing scale times a
shrinking torus fiber whose potential carries all the dynamics.  In mode
space the stiff part of the velocity is the rescaled quarter-Laplacian
minus the identity, whose antiderivative is elementary, so the march runs
in the exponential frame of :mod:`collapse_lab.timestep` and survives the
exponentially growing stiffness of the collapse.

Every monitor recorded here is dimensionless or has a stated limit:
volume ratios against the reference family, eigenvalue ratios of the
rescaled fiber metric, the blown-up potential, the trace defect against
the initial metric, the curvature norm of the product, and the graph
diameter of the shrinking fiber.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grids import HermitianField, ScalarField
from .geometry import (MongeAmpereFlow, ddbar_symbol, fiber_diameter,
                       half_modes, log_volume_ratio, real_samples,
                       riemann_norm, trace_wrt)
from .models import _base_scale
from .timestep import integrate_lawson


def relaxation_potential(a0, t):
    """Mean potential of the relaxation flow, in closed form.

    Solves d(phi)/dt = log a(t) - phi from zero initial data, with
    a(t) = 1 + (a0 - 1) exp(-t); the integral has an elementary
    antiderivative.
    """
    c = a0 - 1.0
    if c == 0.0:
        return 0.0
    x = math.exp(t)
    if c == -1.0:
        # a0 - 1 has rounded to -1, so log1p(c) reads log 0: the same
        # antiderivative with x + c = x a(t) and 1 + c = a0
        a, log_a = _base_scale(a0, t)
        return math.exp(-t) * (x * a * log_a + c * t - a0 * math.log(a0))
    upper = x * math.log1p(c / x) + c * math.log(x + c)
    lower = math.log1p(c) + c * math.log1p(c)
    return math.exp(-t) * (upper - lower)


def _velocity(spec, t, twisted):
    """Pointwise velocity of the potential, less the potential itself."""
    return _base_scale(spec.a0, t)[1] + log_volume_ratio(twisted, spec.b0)


def spectral_problem(spec):
    """The flow in mode space: omega = b0 + exp(t) ddbar(phi), scale b0.
    Returns the problem and the modes of the start potential at its width:
    a y-profile start marches on profiles, which the flow keeps constant
    along y; a start over the whole grid marches at full width."""
    u0 = half_modes(spec.grid, spec.initial_potential.values)
    problem = MongeAmpereFlow(spec.grid, spec.b0, lambda t: spec.b0,
                              functools.partial(_velocity, spec),
                              stiffening=True, width=u0.shape[-1])
    return problem, u0


def normalized_potential(spec, t, potential):
    """Blow-up of the potential against its relaxing mean, exp(t)(phi - mean)."""
    shift = relaxation_potential(spec.a0, t)
    return ScalarField(spec.grid, math.exp(t) * (potential.values - shift))


@dataclass(frozen=True)
class Diagnostics:
    """Monitor snapshot at one sample time."""

    t: float
    phi_sup: float
    dphi_sup: float
    volume_ratio_min: float
    volume_ratio_max: float
    base_trace: float
    eig_ratio_min: float
    eig_ratio_max: float
    vtilde_sup: float
    q_sup: float
    curvature_sup: float
    mode_low: float
    diameter: float


def diagnostics_for(spec, t, modes, with_diameter=True):
    """Evaluate the full monitor suite for one state of the flow, given the
    half-spectrum modes of its potential, as the march holds them: a
    y-profile's monitors are read on the profile."""
    g = spec.grid
    p = spec.base_dim
    et = math.exp(t)
    a_hat = _base_scale(spec.a0, t)[0]
    lap = ddbar_symbol(g)[:, :modes.shape[-1]]
    phi, hess = real_samples(g, np.stack([modes, lap * modes]))
    potential = ScalarField(g, phi)

    twisted = HermitianField(g, spec.b0 + et * hess)
    twisted.require_positive("evolving fiber metric")
    # the velocity of the potential, from the twisted metric built above
    dphi = _velocity(spec, t, twisted.values) - potential.values

    vol = a_hat ** p * twisted.values / spec.b0
    eig = twisted.values / spec.b0
    vt = normalized_potential(spec, t, potential).values

    # trace of the initial metric in the evolving one, rescaled to its limit
    qfield = np.log(math.exp(-t) * p * spec.a0 / a_hat
                    + trace_wrt(twisted, spec.initial_form()).values) - vt

    fiber_curv = et * float(np.max(riemann_norm(twisted).values))
    curvature = math.hypot(math.sqrt(p) / a_hat, fiber_curv)

    # the relaxation shift of vt moves only the zero mode
    mode_low = et * abs(modes[1, 0]) / math.prod(g.shape)

    diam = math.nan
    if with_diameter:
        diam = fiber_diameter(HermitianField(g, math.exp(-t) * twisted.values))

    return Diagnostics(
        t=float(t),
        phi_sup=potential.sup(),
        dphi_sup=float(np.max(np.abs(dphi))),
        volume_ratio_min=float(np.min(vol)),
        volume_ratio_max=float(np.max(vol)),
        base_trace=1.0 / a_hat,
        eig_ratio_min=float(np.min(eig)),
        eig_ratio_max=float(np.max(eig)),
        vtilde_sup=float(np.max(np.abs(vt))),
        q_sup=float(np.max(np.abs(qfield))),
        curvature_sup=curvature,
        mode_low=float(mode_low),
        diameter=diam,
    )


def evolve(spec, sample_times, tol=1e-8, with_diameter=True):
    """March the flow from 0 to its last sample time; return the monitors at
    each sample time."""
    problem, u0 = spectral_problem(spec)
    res = integrate_lawson(problem, u0, 0.0, sample_times, tol=tol)
    return [diagnostics_for(spec, s, modes, with_diameter=with_diameter)
            for s, modes in zip(sample_times, res.sample_modes)]
