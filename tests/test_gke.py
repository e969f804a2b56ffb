"""Oracle tests for the fiberwise volume equation.

Constant data has the exact solution -log(density); manufactured data pins
the Newton solver against a known potential; the twisted curvature identity
is checked through two independently computed curvature forms.
"""

import math

import numpy as np
import pytest

from collapse_lab.grids import GridSpec, HermitianField, ScalarField
from collapse_lab.geometry import ddbar, ricci_form
from collapse_lab.models import GkeTestbedSpec
from collapse_lab.gke import (
    _envelope,
    gke_residual,
    krylov_matvec,
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
    assert sol.residuals[-1] <= 1e-11
    assert sol.iterations <= 2
    assert np.max(np.abs(sol.potential.values + math.log(2.0))) < 1e-11


def test_manufactured_solution_recovered_quadratically():
    g = GridSpec(1, (64,))
    x, y = coords(g)
    ustar = ScalarField(g, 0.04 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y))
    tb = GkeTestbedSpec(grid=g, manufactured=ustar)
    sol = solve_gke(tb, tol=1e-11)
    assert sol.residuals[-1] <= 1e-11
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
    assert sol.residuals[-1] <= 1e-11
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
    assert a.residuals[-1] <= 1e-12 and b.residuals[-1] <= 1e-12
    assert np.max(np.abs(a.potential.values - b.potential.values)) < 1e-9


def test_krylov_matvec_times_metric_is_symmetric_negative_definite():
    # g (laplacian_omega - 1) = ddbar - g: a real even symbol plus a negative
    # diagonal, the property a conjugate-gradient solve would lean on
    g = GridSpec(1, (16,))
    x, _ = coords(g)
    omega = (HermitianField.scaled_identity(g)
             + ddbar(ScalarField(g, 0.04 * np.sin(2 * np.pi * x))))
    assert omega.is_positive()
    ones = np.ones(g.shape).ravel()
    np.testing.assert_allclose(krylov_matvec(omega, 3.0 * ones), -3.0 * ones,
                               rtol=0.0, atol=1e-15)

    def metric_times(v):
        return omega.values.ravel() * krylov_matvec(omega, v)

    rng = np.random.default_rng(0)
    for _ in range(5):
        v, w = rng.standard_normal((2, ones.size))
        gv, gw = metric_times(v), metric_times(w)
        scale = np.linalg.norm(gv) * np.linalg.norm(w)
        assert abs(gv @ w - v @ gw) <= 1e-12 * scale
        assert gv @ v < 0.0


# -------------------------------------------------------- twisted identity

def test_twisted_identity_after_solving():
    g = GridSpec(1, (32,))
    x, y = coords(g)
    eta = ScalarField(g, 0.03 * np.cos(2 * np.pi * x))
    dens = ScalarField(g, 1.0 + 0.3 * np.cos(2 * np.pi * y))
    tb = GkeTestbedSpec(grid=g, eta=eta, density=dens)
    sol = solve_gke(tb, tol=1e-11)
    assert sol.residuals[-1] <= 1e-11
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
    # from zero the constant mode relaxes onto -log 2 along
    # u' = -log 2 - u, so the gap is log 2 exp(-t)
    g = GridSpec(1, (16,))
    tb = GkeTestbedSpec(grid=g, density=ScalarField.constant(g, 2.0))
    limit = ScalarField.constant(g, -math.log(2.0))
    res = parabolic_gke(tb, 0.0, limit, np.linspace(0.0, 3.0, 13))
    assert res.times[0] == 0.0
    assert res.times[-1] == 3.0
    want = math.log(2.0) * np.exp(-res.times)
    assert np.max(np.abs(res.gap_max - want)) < 1e-7
    slope = np.polyfit(res.times, np.log(res.gap_max), 1)[0]
    assert abs(slope + 1.0) < 1e-4
    # the gap is constant in space, so its derivative is -gap everywhere
    assert np.max(np.abs(res.dgap + res.gap_max)) < 1e-12


def _transient_case():
    g = GridSpec(1, (16,))
    x, _ = coords(g)
    tb = GkeTestbedSpec(grid=g, density=ScalarField.constant(g, 1.0))
    rho = 0.25 + ddbar(ScalarField(g, 0.02 * np.cos(2 * np.pi * x))).values
    return tb, rho, solve_gke(tb).potential


def test_parabolic_transient_settles_onto_limit():
    tb, rho, limit = _transient_case()
    res = parabolic_gke(tb, rho, limit, np.linspace(0.0, 6.0, 13))
    assert np.max(res.gap_max) > 1e-3
    assert res.gap_max[-1] < 0.05 * np.max(res.gap_max)
    assert 0.0 <= res.empirical_constant < 20.0


def test_envelope_constant_and_defect_by_hand():
    # the sample at t = 1 (gap 1, dgap -0.5) binds: C = e (-0.5 + 1), where
    # its defect is 0; the one at t = 0 (gap 2, dgap -1.5) needs only
    # C = 0.5 and is left a defect of 0.5 - C < 0, the one at t = 3 none
    constant, defect, _ = _envelope([0.0, 1.0, 3.0], [2.0, 1.0, 0.0],
                                    [-1.5, -0.5, 0.0])
    assert constant == pytest.approx(0.5 * math.e, rel=1e-15)
    assert abs(defect) < 1e-15
    assert _envelope([], [], []) == (0.0, -math.inf, -math.inf)


def test_envelope_holdout_sees_a_late_rise():
    # gap (2 + t) e^-t solves dgap = e^-t - gap, so every sample gives
    # e^t (dgap + gap) = 1, and the C fitted on the first half of the
    # samples leaves the second half a hold-out defect of zero
    times = [0.0, 1.0, 2.0, 3.0]
    gaps = [(2.0 + t) * math.exp(-t) for t in times]
    dgaps = [math.exp(-t) - g for t, g in zip(times, gaps)]
    constant, defect, holdout = _envelope(times, gaps, dgaps)
    assert constant == pytest.approx(1.0, rel=1e-14)
    assert abs(defect) < 1e-15 and abs(holdout) < 1e-15
    # a gap held flat at t = 3 (dgap 0) leaves it the hold-out defect
    # gap - e^-3 = 4 e^-3; the C refitted on every sample, 5, hides the
    # rise in-sample
    constant, defect, holdout = _envelope(times, gaps, dgaps[:3] + [0.0])
    assert constant == pytest.approx(5.0, rel=1e-14)
    assert abs(defect) < 1e-15
    assert holdout == pytest.approx(4.0 * math.exp(-3.0), rel=1e-13)


def test_gap_derivative_matches_a_centred_difference():
    # dgap is read from the velocity at the argmax of the gap field; the
    # centred difference of gap_max over t +- 1e-4 must agree
    tb, rho, limit = _transient_case()
    h = 1e-4
    for t in (0.5, 3.0):
        res = parabolic_gke(tb, rho, limit, (t - h, t, t + h))
        centred = (res.gap_max[2] - res.gap_max[0]) / (2.0 * h)
        assert res.dgap[1] == pytest.approx(centred, rel=1e-5)


def test_parabolic_rejects_indefinite_transient():
    g = GridSpec(1, (16,))
    x, _ = coords(g)
    tb = GkeTestbedSpec(grid=g, density=ScalarField.constant(g, 1.0))
    rho = ddbar(ScalarField(g, 0.2 * np.cos(2 * np.pi * x))).values
    with pytest.raises(ValueError, match="semidefinite"):
        parabolic_gke(tb, rho, ScalarField.constant(g, 0.0), (1.0,))


def _parabolic_case():
    g = GridSpec(1, (16,))
    x, y = coords(g)
    eta = ScalarField(g, 0.01 * np.cos(2 * np.pi * x))
    dens = ScalarField(g, 1.0 + 0.2 * np.cos(2 * np.pi * y))
    tb = GkeTestbedSpec(grid=g, eta=eta, density=dens, flat_scale=1.5)
    rho = 0.25 + ddbar(ScalarField(g, 0.02 * np.sin(2 * np.pi * y))).values
    return tb, rho, ScalarField(g, 0.03 * np.sin(2 * np.pi * (x + y)))


def test_parabolic_mode_space_rhs_is_velocity_less_linear_part():
    tb, rho, phi = _parabolic_case()
    t = 0.7
    sigma = tb.sigma_form().values
    omega = sigma + math.exp(-t) * rho + ddbar(phi).values
    velocity = (np.log(omega / sigma) - np.log(tb.density_field().values)
                - phi.values)
    linear = ddbar(phi).values / tb.flat_scale - phi.values
    want = np.fft.rfftn(velocity - linear)
    got = parabolic_problem(tb, rho).nonlinear_modes(t, np.fft.rfftn(phi.values))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    # without the transient the velocity is the static residual
    want = np.fft.rfftn(gke_residual(tb, phi).values - linear)
    got = parabolic_problem(tb, np.zeros_like(rho)).nonlinear_modes(
        t, np.fft.rfftn(phi.values))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_parabolic_mode_space_rhs_is_nan_outside_the_cone():
    tb, rho, phi = _parabolic_case()
    steep = np.fft.rfftn(40.0 * phi.values)
    assert np.isnan(parabolic_problem(tb, rho).nonlinear_modes(0.0, steep)).all()
