"""Fiberwise volume equation: damped Newton solver and its parabolic twin.

The elliptic problem asks for a potential u with

    log(sigma + ddbar u) - log sigma - log F - u = 0,

whose linearization at u is the metric Laplacian of the current form minus
the identity: strictly negative, hence the unique solvability the Newton
iteration leans on.  Times the metric coefficient g it is ddbar - g, so
each Newton step is one symmetric conjugate-gradient solve, and every
trial update is damped back into the positive cone if it has to be.  The
solver works on bare sample arrays, sigma, the density and the potential
at their width; each inner product is numpy's pairwise sum, which calls no
BLAS, so the iterates do not depend on the thread count.  It starts from
zero, whose metric is sigma, checked positive where the testbed forms it;
the damping keeps each later metric positive.

The parabolic variant relaxes the same equation on a flat sigma and a
constant density F along a decaying transient background, from zero to
the last of its fixed sample times, and reads at each sample the sup gap A
to the limit -log F and its right derivative: the largest velocity
V - phi over the points where the max is attained (Danskin, SIAM J. Appl.
Math. 14, 1966), exact and blind to the steps the march took.  The
read-out is the march problem's own ``read`` of its whole sample stack.
"""

from dataclasses import dataclass

import numpy as np

from .grids import ScalarField, require_positive
from .geometry import (MongeAmpereFlow, ddbar, ddbar_symbol, half_modes,
                       log_volume_ratio, real_samples)
from .timestep import integrate_lawson

NEWTON_FORCING_CAP = 1e-3
NEWTON_FORCING_FLOOR = 1e-6
PSD_SLACK = 1e-12


def gke_residual(testbed, u):
    """Scalar defect of the volume equation at the potential samples u,
    NaN wherever sigma + ddbar(u) has left the positive cone."""
    sigma = testbed.sigma_form()
    defect = (log_volume_ratio(sigma + ddbar(testbed.grid, u), sigma)
              - np.log(testbed.density_field()))
    return defect - u


@dataclass
class GkeSolution:
    potential: ScalarField
    iterations: int
    residuals: list


def krylov_matvec(grid, omega, v):
    """The Newton linearisation (laplacian_omega - 1) applied to the
    samples v at their width, the grid's or a y-profile's, which a profile
    omega broadcasts against: the trace of ddbar(v) against omega, its
    product with the inverse metric 1/g, less v.  Every conjugate-gradient
    iteration of the solve passes through here."""
    return ddbar(grid, v) * (1.0 / omega) - v


def _linear_step(grid, omega, rhs, forcing):
    """Solve (laplacian_omega - 1) v = rhs at the width of rhs: conjugate
    gradients (Hestenes & Stiefel, J. Res. NBS 49, 1952) on it times -g,
    the positive definite g - ddbar, preconditioned by (mean g - ddbar)^-1,
    until the residual's norm is at most ``forcing`` times the right-hand
    side's; it gives up after 500 iterations."""
    g = np.broadcast_to(omega, rhs.shape)
    symbol = np.mean(g) - ddbar_symbol(grid)[:, :rhs.shape[-1]]
    v, r = np.zeros(rhs.shape), -g * rhs
    stop = forcing * np.sqrt(np.sum(r * r))
    p = rho = None
    for _ in range(500):
        if np.sqrt(np.sum(r * r)) <= stop:
            return v
        z = real_samples(grid, half_modes(grid, r) / symbol)
        rho, last = np.sum(r * z), rho
        p = z if p is None else z + (rho / last) * p
        q = -g * krylov_matvec(grid, omega, p)
        alpha = rho / np.sum(p * q)
        v, r = v + alpha * p, r - alpha * q
    raise RuntimeError("linearized solve stalled (500 cg iterations)")


def _sup(values):
    return float(np.max(np.abs(values)))


def solve_gke(testbed, tol=1e-11, max_iter=20):
    """Damped inexact Newton iteration from zero; the solution is a
    ``ScalarField``."""
    grid = testbed.grid
    sigma = testbed.sigma_form()
    u = np.zeros((grid.shape[0], 1))

    res = gke_residual(testbed, u)
    sup = _sup(res)
    history = [sup]
    iterations = 0
    while sup > tol and iterations < max_iter:
        omega = sigma + ddbar(grid, u)
        # Krylov tolerance is relative to the shrinking right-hand side, so
        # a fixed floor still leaves the overall contraction quadratic
        forcing = max(NEWTON_FORCING_FLOOR, min(NEWTON_FORCING_CAP, sup))
        v = _linear_step(grid, omega, -res, forcing)
        alpha = 1.0
        while True:
            trial = u + alpha * v
            # the residual is NaN outside the cone and infinite at its edge,
            # so the comparison rejects a trial that leaves the cone
            trial_res = gke_residual(testbed, trial)
            trial_sup = _sup(trial_res)
            if trial_sup < sup:
                break
            alpha *= 0.5
            if alpha < 2.0 ** -30:
                raise RuntimeError("newton damping failed to find a decrease")
        u, res, sup = trial, trial_res, trial_sup
        history.append(sup)
        iterations += 1
    return GkeSolution(potential=ScalarField(grid, u), iterations=iterations,
                       residuals=history)


def twisted_einstein_residual(testbed, u):
    """Sup defect of the curvature identity satisfied by the solved metric.

    The solved form omega = sigma + ddbar(u), for potential samples u, must
    pull the twisted combination Ric + omega onto the background value
    corrected by the density, Ric(sigma) + sigma - ddbar log F; each Ricci
    form is -ddbar log g, scale invariant, and the defect is measured on
    coefficient samples.
    """
    grid, sigma = testbed.grid, testbed.sigma_form()
    omega = sigma + ddbar(grid, u)
    require_positive(omega, "twisted identity")
    lhs = ddbar(grid, -np.log(omega)) + omega
    rhs = (ddbar(grid, -np.log(sigma)) + sigma
           - ddbar(grid, np.log(testbed.density_field())))
    return _sup(lhs - rhs)


# ------------------------------------------------------------ parabolic run

def parabolic_problem(grid, flat_scale, density, rho):
    """The relaxation in mode space: omega = sigma + exp(-t) rho + ddbar(u)
    and V = log(omega / sigma) - log F on the flat sigma = ``flat_scale``
    with the constant ``density`` F, from u = 0.  Returns the problem and
    the start's modes at the width of rho, 1 for a profile or a constant."""
    u0 = half_modes(grid, np.zeros_like(rho + np.zeros((grid.shape[0], 1))))
    shift = -np.log(density)
    problem = MongeAmpereFlow(grid, flat_scale, rho, lambda t: shift,
                              stiffening=False, width=u0.shape[-1])
    return problem, u0


def parabolic_gke(grid, flat_scale, density, rho, sample_times, tol=1e-8):
    """Run the transient relaxation from zero and track the gap to the
    limit, the closed form -log F on the flat sigma = ``flat_scale`` with
    the constant ``density`` F that every config the schema admits runs.
    ``rho`` (samples, or a constant, of the decaying excess) must be
    nonnegative so the background only ever shrinks toward its limit; a NaN
    sample is not.  Returns gke-parabolic's table, a length-S array per
    column: the sorted ``sample_times`` (the march ends at the last), and
    the gap's max, min and right derivative there, from one ``read`` of
    the march's (S, n, w) sample stack."""
    if not float(np.min(rho)) >= -PSD_SLACK:
        raise ValueError("transient excess must be positive semidefinite")
    if not (flat_scale > 0.0 and density > 0.0):
        raise ValueError("flat_scale and density must be positive")

    problem, u0 = parabolic_problem(grid, flat_scale, density, rho)
    times = np.array(sample_times, dtype=float)
    modes = integrate_lawson(problem, u0, 0.0, times, tol=tol).sample_modes
    phi, _, speed = problem.read(times, modes)
    # omega = sigma at the limit, where the velocity vanishes: phi = shift
    gap = phi - problem.shift(0.0)
    peak = np.max(gap, axis=(1, 2), keepdims=True)
    return {
        "t": times,
        "gap_max": peak[:, 0, 0],
        "gap_min": np.min(gap, axis=(1, 2)),
        "dgap": np.max(np.where(gap == peak, speed, -np.inf), axis=(1, 2)),
    }
