"""Oracle tests for the fiberwise volume equation.

Constant data has the exact solution -log(density); manufactured data pins
the Newton solver against a known potential; the twisted curvature identity
is checked through two independently computed curvature forms.
"""

import math

import numpy as np
import pytest

from collapse_lab.grids import GridSpec, HermitianField, ScalarField
from collapse_lab.geometry import ddbar, ma_density, ricci_form
from collapse_lab.models import GkeTestbedSpec
from collapse_lab.gke import (
    GkeSolution,
    _envelope,
    gke_residual,
    parabolic_gke,
    parabolic_problem,
    solve_gke,
    twisted_einstein_residual,
)


def coords(grid):
    return np.broadcast_arrays(grid.axis_coordinates(0) * np.ones(grid.shape),
                               grid.axis_coordinates(1) * np.ones(grid.shape))


# ---------------------------------------------------------------- residual

def test_residual_vanishes_on_flat_data():
    g = GridSpec(1, (16,))
    tb = GkeTestbedSpec(grid=g, density=ScalarField.constant(g, 1.0))
    r = gke_residual(tb, ScalarField.constant(g, 0.0))
    assert r.sup() == 0.0


def test_residual_matches_hand_formula():
    g = GridSpec(1, (32,))
    x, _ = coords(g)
    tb = GkeTestbedSpec(grid=g, density=ScalarField.constant(g, 1.0))
    u = ScalarField(g, 0.03 * np.sin(2 * np.pi * x))
    r = gke_residual(tb, u).values
    want = np.log1p(-0.03 * np.pi**2 * np.sin(2 * np.pi * x)) - u.values
    assert np.max(np.abs(r - want)) < 1e-12


# ------------------------------------------------------------------ newton

def test_constant_density_solved_in_one_step():
    g = GridSpec(1, (16,))
    tb = GkeTestbedSpec(grid=g, density=ScalarField.constant(g, 2.0))
    sol = solve_gke(tb, tol=1e-11)
    assert sol.converged
    assert sol.iterations <= 2
    assert np.max(np.abs(sol.potential.values + math.log(2.0))) < 1e-11


def test_manufactured_solution_recovered_quadratically():
    g = GridSpec(1, (64,))
    x, y = coords(g)
    ustar = ScalarField(g, 0.04 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y))
    tb = GkeTestbedSpec(grid=g, manufactured=ustar)
    sol = solve_gke(tb, tol=1e-11)
    assert sol.converged
    assert sol.iterations <= 10
    assert np.max(np.abs(sol.potential.values - ustar.values)) <= 1e-7
    # once inside the basin the residual contracts at second order
    hist = sol.residuals
    assert all(b < a for a, b in zip(hist, hist[1:]))
    small = [(a, b) for a, b in zip(hist, hist[1:]) if 1e-8 < a < 1e-3]
    assert small
    assert all(b <= 1e3 * a * a for a, b in small)


def test_manufactured_at_reference_scale_four():
    # amplitude 0.1 needs a background above 2 pi^2 * 0.1 to stay Kaehler
    g = GridSpec(1, (64,))
    x, y = coords(g)
    ustar = ScalarField(g, 0.1 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y))
    with pytest.raises(ValueError, match="positive"):
        GkeTestbedSpec(grid=g, manufactured=ustar)
    tb = GkeTestbedSpec(grid=g, manufactured=ustar, flat_scale=4.0)
    sol = solve_gke(tb, tol=1e-11)
    assert sol.converged
    assert sol.iterations <= 10
    assert np.max(np.abs(sol.potential.values - ustar.values)) <= 1e-7


def test_solution_independent_of_start():
    g = GridSpec(1, (32,))
    x, y = coords(g)
    ustar = ScalarField(g, 0.04 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y))
    tb = GkeTestbedSpec(grid=g, manufactured=ustar)
    a = solve_gke(tb, tol=1e-12)
    start = ScalarField(g, ustar.values + 0.03 * np.cos(2 * np.pi * x))
    b = solve_gke(tb, tol=1e-12, start=start)
    assert a.converged and b.converged
    assert np.max(np.abs(a.potential.values - b.potential.values)) < 1e-9


# -------------------------------------------------------- twisted identity

def test_twisted_identity_after_solving():
    g = GridSpec(1, (32,))
    x, y = coords(g)
    eta = ScalarField(g, 0.03 * np.cos(2 * np.pi * x))
    dens = ScalarField(g, 1.0 + 0.3 * np.cos(2 * np.pi * y))
    tb = GkeTestbedSpec(grid=g, eta=eta, density=dens)
    sol = solve_gke(tb, tol=1e-11)
    assert sol.converged
    gap = twisted_einstein_residual(tb, sol.potential)
    assert gap <= 1e-6

    # the defect form is exactly -ddbar of the scalar residual
    sigma = tb.sigma_form()
    omega_u = sigma + ddbar(sol.potential)
    lhs = ricci_form(omega_u) + omega_u
    rhs = (ricci_form(sigma) + sigma
           - ddbar(ScalarField(g, np.log(dens.values))))
    defect = (lhs - rhs).values
    via_residual = -ddbar(gke_residual(tb, sol.potential)).values
    assert np.max(np.abs(defect - via_residual)) < 1e-10
    assert abs(gap - np.max(np.abs(defect))) < 1e-12


# --------------------------------------------------------------- parabolic

def test_parabolic_static_gap_decays_exactly():
    g = GridSpec(1, (16,))
    tb = GkeTestbedSpec(grid=g, density=ScalarField.constant(g, 2.0))
    start = ScalarField.constant(g, -math.log(2.0) + 0.1)
    res = parabolic_gke(tb, t_end=3.0, start=start)
    assert res.times[0] == 0.0
    assert res.times[-1] == 3.0
    want = 0.1 * np.exp(-res.times)
    assert np.max(np.abs(res.gap_max - want)) < 1e-7
    slope = np.polyfit(res.times, np.log(res.gap_max), 1)[0]
    assert abs(slope + 1.0) < 1e-4


def test_parabolic_transient_settles_onto_limit():
    g = GridSpec(1, (16,))
    x, _ = coords(g)
    tb = GkeTestbedSpec(grid=g, density=ScalarField.constant(g, 1.0))
    rho = (0.25 * np.eye(1, dtype=complex)
           + ddbar(ScalarField(g, 0.02 * np.cos(2 * np.pi * x))).values)
    res = parabolic_gke(tb, rho=rho, t_end=6.0)
    assert np.max(res.gap_max) > 1e-3
    assert res.gap_max[-1] < 0.05 * np.max(res.gap_max)
    assert 0.0 <= res.empirical_constant < 20.0


def test_envelope_constant_and_defect_by_hand():
    # intervals [0, 1] and [1, 3]; the repeated time 1 is skipped.  The
    # first midpoint (0.5, gap 1.5, slope -1) binds: C = e^0.5 (-1 + 1.5),
    # where its defect is 0; the second (2, gap 0.5, slope -0.5) needs no
    # C and is left a defect of -0.5 e^-1.5 < 0
    constant, defect = _envelope([0.0, 1.0, 1.0, 3.0], [2.0, 1.0, 1.0, 0.0])
    assert constant == pytest.approx(0.5 * math.exp(0.5), rel=1e-15)
    assert abs(defect) < 1e-15
    assert _envelope([0.0], [1.0]) == (0.0, -math.inf)


def test_parabolic_rejects_indefinite_transient():
    g = GridSpec(1, (16,))
    x, _ = coords(g)
    tb = GkeTestbedSpec(grid=g, density=ScalarField.constant(g, 1.0))
    rho = ddbar(ScalarField(g, 0.2 * np.cos(2 * np.pi * x))).values
    with pytest.raises(ValueError, match="semidefinite"):
        parabolic_gke(tb, rho=rho, t_end=1.0)


def _parabolic_case(m):
    g = GridSpec(m, (8,) if m == 2 else (16,))
    x, y = (g.axis_coordinates(ax) * np.ones(g.shape) for ax in range(2))
    eta = ScalarField(g, 0.01 * np.cos(2 * np.pi * x))
    dens = ScalarField(g, 1.0 + 0.2 * np.cos(2 * np.pi * y))
    tb = GkeTestbedSpec(grid=g, eta=eta, density=dens, flat_scale=1.5)
    rho = (0.25 * np.eye(m, dtype=complex)
           + ddbar(ScalarField(g, 0.02 * np.sin(2 * np.pi * y))).values)
    return tb, rho, ScalarField(g, 0.03 * np.sin(2 * np.pi * (x + y)))


@pytest.mark.parametrize("m", [1, 2])
def test_parabolic_mode_space_rhs_is_velocity_less_linear_part(m):
    tb, rho, phi = _parabolic_case(m)
    t = 0.7
    sigma = tb.sigma_form()
    omega = (HermitianField(tb.grid, sigma.values + math.exp(-t) * rho)
             + ddbar(phi))
    velocity = (np.log(ma_density(omega).values / ma_density(sigma).values)
                - np.log(tb.density_field().values) - phi.values)
    lap = np.einsum("...kk->...", ddbar(phi).values).real
    linear = lap / tb.flat_scale - phi.values
    want = np.fft.rfftn(velocity - linear)
    got = parabolic_problem(tb, rho).nonlinear_modes(t, np.fft.rfftn(phi.values))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    # without the transient the velocity is the static residual
    want = np.fft.rfftn(gke_residual(tb, phi).values - linear)
    got = parabolic_problem(tb).nonlinear_modes(t, np.fft.rfftn(phi.values))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("m", [1, 2])
def test_parabolic_mode_space_rhs_is_nan_outside_the_cone(m):
    tb, rho, phi = _parabolic_case(m)
    steep = np.fft.rfftn(40.0 * phi.values)
    assert np.isnan(parabolic_problem(tb, rho).nonlinear_modes(0.0, steep)).all()
