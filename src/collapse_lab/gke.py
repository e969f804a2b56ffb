"""Fiberwise volume equation: damped Newton solver and its parabolic twin.

The elliptic problem asks for a potential u with

    log(sigma + ddbar u) - log sigma - log F - u = 0,

whose linearization at u is the metric Laplacian of the current form minus
the identity: strictly negative, hence the unique solvability the Newton
iteration leans on.  Linear systems are solved matrix-free with a stabilized
Krylov method preconditioned by the flat-background symbol, and every trial
update is damped back into the positive cone if it has to be.

The parabolic variant relaxes the same equation along a decaying transient
background, from zero to the last of its fixed sample times, and reads at
each sample the sup gap A to the elliptic limit and its right derivative:
the largest velocity V - phi over the points where the max is attained
(Danskin, SIAM J. Appl. Math. 14, 1966), exact and blind to the steps the
march took.  The largest rescaled envelope slack at the samples gives the
reported constant, and the constant fitted on the first half of the
samples is held out against the second.
"""

import math
from dataclasses import dataclass

import numpy as np

from .grids import ScalarField
from .geometry import (MongeAmpereFlow, ddbar, ddbar_modes, ddbar_symbol,
                       log_volume_ratio, real_samples, ricci_form, trace_wrt)
from .timestep import integrate_lawson

NEWTON_FORCING_CAP = 1e-3
NEWTON_FORCING_FLOOR = 1e-6
PSD_SLACK = 1e-12


def _volume_defect(testbed):
    """The pointwise map omega -> log(omega / sigma) - log F.

    NaN wherever omega has left the positive cone.
    """
    sigma = testbed.sigma_form().values
    log_f = np.log(testbed.density_field().values)
    return lambda omega: log_volume_ratio(omega, sigma) - log_f


def gke_residual(testbed, u):
    """Scalar defect of the volume equation at the potential u."""
    omega = testbed.sigma_form() + ddbar(u)
    return ScalarField(testbed.grid,
                       _volume_defect(testbed)(omega.values) - u.values)


@dataclass
class GkeSolution:
    potential: ScalarField
    iterations: int
    residuals: list


def krylov_matvec(omega, v):
    """The Newton linearisation (laplacian_omega - 1) applied to the flat
    samples v; every Krylov iteration of the solve passes through here."""
    f = ScalarField(omega.grid, v.reshape(omega.grid.shape))
    return (trace_wrt(omega, ddbar(f)).values - f.values).ravel()


def _linear_step(grid, omega, rhs_field, forcing, flat_scale):
    """Solve (laplacian_omega - 1) v = rhs to the requested relative tolerance."""
    from scipy.sparse.linalg import LinearOperator, bicgstab
    size = rhs_field.size
    symbol = ddbar_symbol(grid) / flat_scale

    def matvec(v):
        return krylov_matvec(omega, v)

    def precond(v):
        spec = np.fft.rfftn(v.reshape(grid.shape))
        return real_samples(grid, spec / (symbol - 1.0)).ravel()

    op = LinearOperator((size, size), matvec=matvec, dtype=float)
    pre = LinearOperator((size, size), matvec=precond, dtype=float)
    v, info = bicgstab(op, rhs_field.ravel(), rtol=forcing, atol=0.0,
                       M=pre, maxiter=500)
    if info != 0:
        raise RuntimeError(f"linearized solve stalled (bicgstab info {info})")
    return v.reshape(grid.shape)


def solve_gke(testbed, tol=1e-11, max_iter=20, start=None):
    """Damped inexact Newton iteration from zero (or a supplied start)."""
    grid = testbed.grid
    sigma = testbed.sigma_form()
    u = ScalarField.constant(grid, 0.0) if start is None \
        else ScalarField(grid, np.array(start.values))
    (sigma + ddbar(u)).require_positive("newton start")

    res = gke_residual(testbed, u)
    sup = res.sup()
    history = [sup]
    iterations = 0
    while sup > tol and iterations < max_iter:
        omega = sigma + ddbar(u)
        # Krylov tolerance is relative to the shrinking right-hand side, so
        # a fixed floor still leaves the overall contraction quadratic
        forcing = max(NEWTON_FORCING_FLOOR, min(NEWTON_FORCING_CAP, sup))
        v = _linear_step(grid, omega, -res.values, forcing,
                         flat_scale=testbed.flat_scale)
        alpha = 1.0
        while True:
            trial = ScalarField(grid, u.values + alpha * v)
            if (sigma + ddbar(trial)).is_positive():
                trial_res = gke_residual(testbed, trial)
                if trial_res.sup() < sup:
                    break
            alpha *= 0.5
            if alpha < 2.0 ** -30:
                raise RuntimeError("newton damping failed to find a decrease")
        u, res, sup = trial, trial_res, trial_res.sup()
        history.append(sup)
        iterations += 1
    return GkeSolution(potential=u, iterations=iterations, residuals=history)


def twisted_einstein_residual(testbed, u):
    """Sup defect of the curvature identity satisfied by the solved metric.

    The solved form must pull the twisted combination Ric + omega onto the
    background value corrected by the density; the defect is measured on
    coefficient fields.
    """
    sigma = testbed.sigma_form()
    omega = sigma + ddbar(u)
    omega.require_positive("twisted identity")
    logf = ScalarField(testbed.grid,
                       np.log(testbed.density_field().values))
    lhs = ricci_form(omega) + omega
    rhs = ricci_form(sigma) + sigma - ddbar(logf)
    return float(np.max(np.abs((lhs - rhs).values)))


# ------------------------------------------------------------ parabolic run

@dataclass
class ParabolicResult:
    times: np.ndarray
    gap_max: np.ndarray
    gap_min: np.ndarray
    dgap: np.ndarray
    empirical_constant: float
    envelope_defect: float
    holdout_defect: float


def parabolic_problem(testbed, rho):
    """The relaxation in mode space: omega = sigma + exp(-t) rho + ddbar(u)."""
    sigma = testbed.sigma_form().values
    defect = _volume_defect(testbed)
    return MongeAmpereFlow(testbed.grid, testbed.flat_scale,
                           lambda t: sigma + math.exp(-t) * rho,
                           lambda t, omega: defect(omega), stiffening=False)


def _envelope(times, gaps, dgaps):
    """Fit the envelope d(gap)/dt <= C exp(-t) - gap at the samples.

    Returns the smallest such C >= 0, the largest defect
    dgap - (C exp(-t) - gap) left at the samples with it, and the hold-out
    defect: the largest defect at the later half of the samples against the
    C fitted on the earlier half.  The first defect is <= 0 up to rounding;
    the hold-out one is positive when the gap rises late.
    """
    samples = list(zip(times, gaps, dgaps))

    def fit(part):
        return max([0.0] + [math.exp(t) * (dg + g) for t, g, dg in part])

    def worst(c, part):
        return max([-math.inf] + [dg - (c * math.exp(-t) - g)
                                  for t, g, dg in part])

    constant, half = fit(samples), len(samples) // 2
    return (constant, worst(constant, samples),
            worst(fit(samples[:half]), samples[half:]))


def parabolic_gke(testbed, rho, limit, sample_times, tol=1e-8):
    """Run the transient relaxation from zero and track the gap to the limit.

    ``rho`` (coefficient samples, or a constant, of the decaying background
    excess) must be nonnegative so the background only ever shrinks toward
    its limit; ``limit`` is the solved elliptic potential.  Returns the gap
    and its right derivative at each of the sorted ``sample_times`` (the
    march ends at the last), and their envelope fit.
    """
    grid = testbed.grid
    if float(np.min(rho)) < -PSD_SLACK:
        raise ValueError("transient excess must be positive semidefinite")

    problem = parabolic_problem(testbed, rho)
    march = integrate_lawson(problem, np.fft.rfftn(np.zeros(grid.shape)),
                             0.0, sample_times, tol=tol)
    rows = []
    for t, modes in zip(sample_times, march.sample_modes):
        phi = real_samples(grid, modes)
        gap = phi - limit.values
        omega = problem.background(t) + ddbar_modes(grid, modes)
        peak = np.max(gap)
        speed = problem.velocity(t, omega) - phi
        rows.append((peak, np.min(gap), np.max(speed[gap == peak])))
    times = np.asarray(sample_times, dtype=float)
    gap_max, gap_min, dgap = np.array(rows).T
    return ParabolicResult(times, gap_max, gap_min, dgap,
                           *_envelope(times, gap_max, dgap))
