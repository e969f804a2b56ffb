"""Fiberwise volume equation: damped Newton solver and its parabolic twin.

The elliptic problem asks for a potential u with

    log det(sigma + ddbar u) - log det sigma - log F - u = 0,

whose linearization at u is the metric Laplacian of the current form minus
the identity: strictly negative, hence the unique solvability the Newton
iteration leans on.  Linear systems are solved matrix-free with a stabilized
Krylov method preconditioned by the flat-background symbol, and every trial
update is damped back into the positive cone if it has to be.

The parabolic variant relaxes the same equation along a decaying transient
background and records the sup gap to the elliptic limit after every
accepted step; the largest rescaled envelope slack observed on the way gives
the reported constant.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, bicgstab

from .grids import HermitianField, ScalarField
from .geometry import (MongeAmpereFlow, ddbar, ddbar_trace_symbol,
                       log_volume_ratio, ma_density, real_samples, ricci_form,
                       trace_wrt)
from .timestep import integrate_lawson

NEWTON_FORCING_CAP = 1e-3
NEWTON_FORCING_FLOOR = 1e-6
PSD_SLACK = 1e-12


def _volume_defect(testbed):
    """The pointwise map omega -> log(det omega / det sigma) - log F.

    NaN wherever omega has left the positive cone.
    """
    det_sigma = ma_density(testbed.sigma_form()).values
    log_f = np.log(testbed.density_field().values)
    return lambda omega: log_volume_ratio(omega, det_sigma) - log_f


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
    converged: bool


def _linear_step(grid, omega, rhs_field, forcing, flat_scale=1.0):
    """Solve (laplacian_omega - 1) v = rhs to the requested relative tolerance."""
    size = rhs_field.size
    symbol = ddbar_trace_symbol(grid) / flat_scale

    def matvec(v):
        f = ScalarField(grid, v.reshape(grid.shape))
        return (trace_wrt(omega, ddbar(f)).values - f.values).ravel()

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
    return GkeSolution(potential=u, iterations=iterations,
                       residuals=history, converged=sup <= tol)


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
    potential: ScalarField
    empirical_constant: float
    envelope_defect: float
    accepted: int
    rejected: int


def parabolic_problem(testbed, rho=None):
    """The relaxation in mode space: omega = sigma + exp(-t) rho + ddbar(u)."""
    sigma = testbed.sigma_form().values
    excess = 0.0 if rho is None else rho
    defect = _volume_defect(testbed)
    return MongeAmpereFlow(testbed.grid, testbed.flat_scale,
                           lambda t: sigma + math.exp(-t) * excess,
                           lambda t, omega: defect(omega), stiffening=False)


def _envelope(times, gaps):
    """Fit the envelope d(gap)/dt <= C exp(-t) - gap at interval midpoints.

    Returns the smallest such C >= 0 and the largest defect
    d(gap)/dt - (C exp(-t) - gap) left at the midpoints with it.
    """
    mids = []
    for k in range(len(times) - 1):
        dt = times[k + 1] - times[k]
        if dt <= 0:
            continue
        dgap = (gaps[k + 1] - gaps[k]) / dt
        mid_t = 0.5 * (times[k] + times[k + 1])
        mid_g = 0.5 * (gaps[k] + gaps[k + 1])
        mids.append((dgap, mid_t, mid_g))
    constant = max([0.0] + [math.exp(mid_t) * (dgap + mid_g)
                            for dgap, mid_t, mid_g in mids])
    defect = max([-math.inf] + [dgap - (constant * math.exp(-mid_t) - mid_g)
                                for dgap, mid_t, mid_g in mids])
    return constant, defect


def parabolic_gke(testbed, rho=None, t_end=4.0, start=None, controls=None,
                  limit=None):
    """Run the transient relaxation and track the gap to the elliptic limit.

    ``rho`` (coefficient array of the decaying background excess) must be
    positive semidefinite so the background only ever shrinks toward its
    limit.  Returns the gap record at every accepted step.
    """
    grid = testbed.grid
    if rho is not None:
        rho = np.asarray(rho, dtype=complex)
        probe = HermitianField(
            grid, np.broadcast_to(
                rho, grid.shape + rho.shape[-2:]).copy())
        if float(np.min(probe.min_eigenvalue())) < -PSD_SLACK:
            raise ValueError("transient excess must be positive semidefinite")

    u_limit = limit if limit is not None else solve_gke(testbed).potential
    problem = parabolic_problem(testbed, rho)
    u0 = ScalarField.constant(grid, 0.0) if start is None else start

    times = [0.0]
    gap_max = [float(np.max(u0.values - u_limit.values))]
    gap_min = [float(np.min(u0.values - u_limit.values))]

    def record(t, modes):
        phi = real_samples(grid, modes)
        times.append(t)
        gap_max.append(float(np.max(phi - u_limit.values)))
        gap_min.append(float(np.min(phi - u_limit.values)))

    res = integrate_lawson(problem, np.fft.rfftn(u0.values), 0.0,
                           float(t_end), controls=controls, on_accept=record)
    final = ScalarField(grid, real_samples(grid, res.final_modes))
    t_arr = np.asarray(times)
    gmax = np.asarray(gap_max)
    constant, defect = _envelope(t_arr, gmax)
    return ParabolicResult(times=t_arr, gap_max=gmax,
                           gap_min=np.asarray(gap_min), potential=final,
                           empirical_constant=constant, envelope_defect=defect,
                           accepted=res.accepted, rejected=res.rejected)
