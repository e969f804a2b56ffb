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
from .geometry import (MongeAmpereFlow, ddbar_modes, fiber_diameter,
                       log_volume_ratio, real_samples, riemann_norm,
                       trace_wrt)
from .timestep import integrate_lawson


def relaxation_potential(a0, t):
    """Mean potential of the relaxation flow, in closed form.

    Solves d(phi)/dt = log(1 + (a0 - 1) exp(-t)) - phi from zero initial
    data; the integral has an elementary antiderivative.
    """
    c = a0 - 1.0
    if c == 0.0:
        return 0.0
    x = math.exp(t)
    upper = x * math.log1p(c / x) + c * math.log(x + c)
    lower = math.log1p(c) + c * math.log1p(c)
    return math.exp(-t) * (upper - lower)


def _velocity(spec, t, twisted):
    """Pointwise velocity of the potential, less the potential itself.

    log1p keeps the relative precision of the base term once exp(-t) nears
    the floating-point floor.
    """
    return (math.log1p((spec.a0 - 1.0) * math.exp(-t))
            + log_volume_ratio(twisted, spec.b0))


def spectral_problem(spec):
    """The flow in mode space: omega = b0 + exp(t) ddbar(phi), scale b0."""
    return MongeAmpereFlow(spec.grid, spec.b0, lambda t: spec.b0,
                           functools.partial(_velocity, spec), stiffening=True)


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
    half-spectrum modes of its potential, as the march holds them."""
    g = spec.grid
    p = spec.base_dim
    et = math.exp(t)
    a_hat = 1.0 + (spec.a0 - 1.0) * math.exp(-t)
    potential = ScalarField(g, real_samples(g, modes))

    twisted = HermitianField(g, spec.b0 + et * ddbar_modes(g, modes))
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
    mode_low = et * abs(modes[1, 0]) / vt.size

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


def evolve(spec, t_end, sample_times, tol=1e-8, with_diameter=True):
    """March the flow to t_end; return the monitors at each sample time."""
    u0 = np.fft.rfftn(spec.initial_potential.values)
    res = integrate_lawson(spectral_problem(spec), u0, 0.0, float(t_end),
                           sample_times=sample_times, tol=tol)
    return [diagnostics_for(spec, s, modes, with_diameter=with_diameter)
            for s, modes in zip(res.sample_times, res.sample_modes)]
