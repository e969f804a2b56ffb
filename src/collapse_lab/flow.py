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

import math

import numpy as np

from .grids import require_positive
from .geometry import (MongeAmpereFlow, fiber_diameter, half_modes,
                       riemann_norm)
from .models import _base_scale
from .timestep import integrate_lawson


def relaxation_potential(a0, t):
    """Mean potential of the relaxation flow, in closed form.

    Solves d(phi)/dt = log a(t) - phi from zero initial data, with
    a(t) = 1 + (a0 - 1) exp(-t); the integral has an elementary
    antiderivative.
    """
    c = a0 - 1.0
    x = math.exp(t)
    if c == -1.0:
        # a0 - 1 has rounded to -1, so log1p(c) reads log 0: the same
        # antiderivative with x + c = x a(t) and 1 + c = a0
        a, log_a = _base_scale(a0, t)
        return math.exp(-t) * (x * a * log_a + c * t - a0 * math.log(a0))
    upper = x * math.log1p(c / x) + c * math.log(x + c)
    lower = math.log1p(c) + c * math.log1p(c)
    return math.exp(-t) * (upper - lower)


def spectral_problem(spec):
    """The flow in mode space: omega = b0 + exp(t) ddbar(phi) and
    V = log(omega / b0) + log a(t).  Returns the problem and the start's
    modes at its width: a y-profile start marches on profiles, which the
    flow keeps constant along y, and a full-grid one at full width."""
    u0 = half_modes(spec.grid, spec.initial_potential.values)
    problem = MongeAmpereFlow(spec.grid, spec.b0, 0.0,
                              lambda t: _base_scale(spec.a0, t)[1],
                              stiffening=True, width=u0.shape[-1])
    return problem, u0


def diagnostics_for(spec, problem, times, modes, with_diameter=True):
    """The fiber-flow table, a length-S array per column, at the S sample
    times of a march, from its problem and the (S, n, w) stack of its
    potential's modes there: phi, the twisted metric and the velocity are
    the problem's ``read``, and the rest is one call over the stack, the
    diameter included, but the curvature's hypot and the lowest mode.  Each
    sample's e^t, e^-t, base scale and relaxation shift are from ``math``,
    so every sample reads bit for bit as it would alone."""
    g, p = spec.grid, spec.base_dim
    times = np.array(times, dtype=float)
    ts = times.tolist()
    et = [math.exp(t) for t in ts]
    a_hat = [_base_scale(spec.a0, t)[0] for t in ts]

    def per_sample(values):
        return np.array(values)[:, None, None]

    phi, twisted, dphi = problem.read(times, modes)
    require_positive(twisted, "evolving fiber metric")

    vol = per_sample([a ** p for a in a_hat]) * twisted / spec.b0
    eig = twisted / spec.b0
    # the potential blown up against its relaxing mean, exp(t)(phi - mean)
    shift = [relaxation_potential(spec.a0, t) for t in ts]
    vt = per_sample(et) * (phi - per_sample(shift))

    # trace of the initial metric in the evolving one, rescaled to its limit
    offset = [math.exp(-t) * p * spec.a0 / a for t, a in zip(ts, a_hat)]
    qfield = np.log(per_sample(offset)
                    + spec.initial_form() * (1.0 / twisted)) - vt

    fiber = np.max(riemann_norm(g, twisted), axis=(1, 2))
    curvature = [math.hypot(math.sqrt(p) / a, e * float(f))
                 for a, e, f in zip(a_hat, et, fiber)]

    # the relaxation shift of vt moves only the zero mode
    mode_low = [e * abs(m) / math.prod(g.shape)
                for e, m in zip(et, modes[:, 1, 0])]

    diameter = (fiber_diameter(g, per_sample([math.exp(-t) for t in ts])
                               * twisted)
                if with_diameter else np.full(len(ts), math.nan))

    return {
        "t": times,
        "phi_sup": np.max(np.abs(phi), axis=(1, 2)),
        "dphi_sup": np.max(np.abs(dphi), axis=(1, 2)),
        "volume_ratio_min": np.min(vol, axis=(1, 2)),
        "volume_ratio_max": np.max(vol, axis=(1, 2)),
        "base_trace": np.array([1.0 / a for a in a_hat]),
        "eig_ratio_min": np.min(eig, axis=(1, 2)),
        "eig_ratio_max": np.max(eig, axis=(1, 2)),
        "vtilde_sup": np.max(np.abs(vt), axis=(1, 2)),
        "q_sup": np.max(np.abs(qfield), axis=(1, 2)),
        "curvature_sup": np.array(curvature),
        "mode_low": np.array(mode_low),
        "diameter": diameter,
    }


def evolve(spec, sample_times, tol=1e-8, with_diameter=True):
    """March the flow from 0 to its last sample time; return the fiber-flow
    table of the monitors at the sample times."""
    problem, u0 = spectral_problem(spec)
    res = integrate_lawson(problem, u0, 0.0, sample_times, tol=tol)
    return diagnostics_for(spec, problem, sample_times, res.sample_modes,
                           with_diameter=with_diameter)
