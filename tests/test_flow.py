"""Oracle tests for the collapsing fiber flow.

The right-hand side is pinned against a hand-written trigonometric formula,
the mean mode against a quadrature of its closed-form solution, and the full
march against an off-the-shelf Runge-Kutta integration of the same vector
field, which shares no code with the exponential-frame stepper.
"""

import math
from dataclasses import asdict

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from collapse_lab.config import validate_config
from collapse_lab.experiments import run_experiment
from collapse_lab.grids import GridSpec, HermitianField, ScalarField
from collapse_lab import geometry
from collapse_lab.geometry import (ddbar, fiber_diameter, real_samples,
                                   riemann_norm, trace_wrt)
from collapse_lab.models import FiberFlowSpec
from collapse_lab.timestep import integrate_lawson
from collapse_lab.flow import (
    _velocity,
    diagnostics_for,
    evolve,
    normalized_potential,
    relaxation_potential,
    spectral_problem,
)


def sine_spec(n=16, b0=1.0, a0=1.0, amp=0.01):
    grid = GridSpec(1, (n,))
    x = grid.axis_coordinates(0) * np.ones(grid.shape)
    return FiberFlowSpec(grid=grid, b0=b0, a0=a0,
                         initial_potential=ScalarField(grid, amp * np.sin(2 * np.pi * x)))


# ------------------------------------------------------------- rhs oracles

def map_rhs(spec, t, potential):
    """Velocity of the potential at time t, composed on the grid from the
    public ddbar: the reference for the mode-space RHS.

    Entries are NaN wherever the twisted fiber metric has left the positive
    cone, which the adaptive stepper treats as a rejected step.
    """
    twisted = spec.b0 + math.exp(t) * ddbar(potential).values
    return ScalarField(spec.grid,
                       _velocity(spec, t, twisted) - potential.values)


def test_map_rhs_matches_hand_formula_on_sine():
    spec = sine_spec(n=32, b0=2.0, a0=3.0, amp=0.05)
    t = 0.7
    x = spec.grid.axis_coordinates(0) * np.ones(spec.grid.shape)
    s = np.sin(2 * np.pi * x)
    rhs = map_rhs(spec, t, spec.initial_potential).values
    a_hat = 1.0 + 2.0 * np.exp(-t)
    want = (np.log(a_hat)
            + np.log((2.0 - 0.05 * np.pi**2 * np.exp(t) * s) / 2.0)
            - 0.05 * s)
    assert np.max(np.abs(rhs - want)) < 1e-12


def test_map_rhs_stationary_point_is_exactly_zero():
    spec = sine_spec(a0=1.0, amp=0.0)
    rhs = map_rhs(spec, 0.8, spec.initial_potential)
    assert rhs.sup() == 0.0


def test_map_rhs_constant_potential_reduces_to_relaxation():
    spec = sine_spec(a0=3.0, amp=0.0)
    c = ScalarField.constant(spec.grid, 0.25)
    rhs = map_rhs(spec, math.log(2.0), c).values
    want = math.log(2.0) - 0.25
    assert np.max(np.abs(rhs - want)) < 1e-15


def quarter_laplacian(grid, values):
    """Independent Delta/4 from the wavenumbers of every real axis."""
    ksq = sum(grid.wavenumbers(ax) ** 2 for ax in range(len(grid.shape)))
    return np.fft.ifftn(-0.25 * ksq * np.fft.fftn(values)).real


def test_mode_space_rhs_is_map_rhs_less_its_linear_part():
    spec = sine_spec(n=32, b0=2.0, a0=3.0, amp=0.05)
    t = 0.9
    phi = spec.initial_potential
    linear = (math.exp(t) / spec.b0) * quarter_laplacian(spec.grid, phi.values)
    want = np.fft.rfftn(map_rhs(spec, t, phi).values - (linear - phi.values))
    got = spectral_problem(spec).nonlinear_modes(t, np.fft.rfftn(phi.values))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_mode_space_rhs_is_nan_outside_the_cone():
    # exp(2.5) * amp * pi^2 exceeds b0 somewhere: the twisted metric is
    # indefinite there, and NaN is what makes the stepper reject the step
    spec = sine_spec(amp=0.05)
    t = 2.5
    modes = np.fft.rfftn(spec.initial_potential.values)
    assert np.isnan(map_rhs(spec, t, spec.initial_potential).values).any()
    assert np.isnan(spectral_problem(spec).nonlinear_modes(t, modes)).all()


def test_march_builds_one_ddbar_per_rhs_evaluation(monkeypatch):
    # an attempt's last stage, the new state's margin and the next step's
    # first stage share one ddbar, as do the initial margin and first stage
    spec = sine_spec(n=16, b0=1.0, a0=1.3, amp=0.02)
    problem = spectral_problem(spec)
    calls = {"ddbar": 0, "rhs": 0}
    ddbar_modes, rhs = geometry.ddbar_modes, problem.nonlinear_modes

    def counted_ddbar(*args):
        calls["ddbar"] += 1
        return ddbar_modes(*args)

    def counted_rhs(t, u):
        calls["rhs"] += 1
        return rhs(t, u)

    monkeypatch.setattr(geometry, "ddbar_modes", counted_ddbar)
    problem.nonlinear_modes = counted_rhs
    res = integrate_lawson(problem, np.fft.rfftn(spec.initial_potential.values),
                           0.0, (2.0,))
    assert res.accepted > 1
    assert calls["rhs"] == 1 + 6 * (res.accepted + res.rejected)
    assert calls["ddbar"] == calls["rhs"]


# --------------------------------------------------- mean-mode closed form

def test_relaxation_potential_against_quadrature():
    for a0 in (0.3, 2.0, 5.0):
        for t in (0.4, 1.0, 3.0):
            val, err = quad(lambda s: np.exp(s) * np.log1p((a0 - 1.0) * np.exp(-s)),
                            0.0, t, epsabs=1e-14, epsrel=1e-13)
            assert err < 1e-12
            assert abs(relaxation_potential(a0, t) - math.exp(-t) * val) < 1e-11


def test_relaxation_potential_solves_its_ode():
    h = 1e-5
    for a0, t in ((2.5, 0.2), (0.4, 1.0), (6.0, 2.5)):
        d = (relaxation_potential(a0, t + h) - relaxation_potential(a0, t - h)) / (2 * h)
        want = math.log(1.0 + (a0 - 1.0) * math.exp(-t)) - relaxation_potential(a0, t)
        assert abs(d - want) < 1e-9


def test_relaxation_potential_trivial_at_unit_scale():
    assert relaxation_potential(1.0, 2.0) == 0.0


# ------------------------------------------------------------------ evolve

def march(spec, t_end, tol=1e-8):
    """Potential samples at t_end of the mode-space march that evolve runs."""
    res = integrate_lawson(spectral_problem(spec),
                           np.fft.rfftn(spec.initial_potential.values),
                           0.0, (t_end,), tol=tol)
    return real_samples(spec.grid, res.sample_modes[-1])


def test_evolve_keeps_stationary_state_exactly():
    spec = sine_spec(a0=1.0, amp=0.0)
    assert np.max(np.abs(march(spec, 1.0))) == 0.0


def test_evolve_mean_mode_tracks_relaxation_potential():
    spec = sine_spec(a0=2.0, amp=0.0)
    final = march(spec, 1.5)
    assert np.max(final) - np.min(final) < 1e-13
    assert abs(np.mean(final) - relaxation_potential(2.0, 1.5)) < 1e-8


def test_evolve_matches_independent_rk45():
    spec = sine_spec(n=16, b0=1.0, a0=1.3, amp=0.02)
    got = march(spec, 2.0, tol=1e-10)

    shape = spec.grid.shape

    def rhs(t, y):
        return map_rhs(spec, t, ScalarField(spec.grid, y.reshape(shape))).values.ravel()

    sol = solve_ivp(rhs, (0.0, 2.0), spec.initial_potential.values.ravel(),
                    method="RK45", rtol=1e-11, atol=1e-13)
    assert sol.success
    want = sol.y[:, -1].reshape(shape)
    assert np.max(np.abs(got - want)) < 1e-7


def test_horizon_forty_passes_every_check():
    # exp(-40) is below machine epsilon relative to 1: the base term of the
    # velocity keeps its precision only through log1p
    cfg = validate_config({"experiment": "fiber-flow", "model": {"n": 16},
                           "solver": {"horizon": 40.0,
                                      "with_diameter": False}})
    report = run_experiment(cfg)
    assert len(report.checks) == 10
    assert [c.name for c in report.checks if not c.passed] == []


# -------------------------------------------------------------- diagnostics

def test_normalized_potential_inverts_the_scaling():
    spec = sine_spec(a0=2.0, amp=0.0)
    t = 1.2
    x = spec.grid.axis_coordinates(0) * np.ones(spec.grid.shape)
    phi = ScalarField(spec.grid,
                      relaxation_potential(2.0, t)
                      + math.exp(-t) * 0.3 * np.sin(2 * np.pi * x))
    vt = normalized_potential(spec, t, phi).values
    assert np.max(np.abs(vt - 0.3 * np.sin(2 * np.pi * x))) < 1e-13


def test_diagnostics_hand_values_at_start():
    spec = sine_spec(n=16, b0=1.0, a0=2.0, amp=0.01)
    d = diagnostics_for(spec, 0.0, np.fft.rfftn(spec.initial_potential.values))
    bump = 0.01 * np.pi**2
    assert d.phi_sup == pytest.approx(0.01, abs=1e-15)
    # velocity peaks in the trough of the potential, where density is largest
    assert d.dphi_sup == pytest.approx(math.log(2.0) + math.log1p(bump) + 0.01,
                                       abs=1e-12)
    assert d.base_trace == pytest.approx(0.5, abs=1e-15)
    assert d.eig_ratio_max == pytest.approx(1.0 + bump, abs=1e-12)
    assert d.eig_ratio_min == pytest.approx(1.0 - bump, abs=1e-12)
    assert d.volume_ratio_max == pytest.approx(2.0 * (1.0 + bump), abs=1e-12)
    assert d.volume_ratio_min == pytest.approx(2.0 * (1.0 - bump), abs=1e-12)
    assert d.vtilde_sup == pytest.approx(0.01, abs=1e-15)
    assert d.q_sup == pytest.approx(math.log(2.0) + 0.01, abs=1e-12)
    assert d.mode_low == pytest.approx(0.005, abs=1e-15)
    assert 0.6 < d.diameter < 0.8

    # curvature splits into the rigid base part and the fiber part
    twisted = (HermitianField.scaled_identity(spec.grid, 1.0)
               + ddbar(spec.initial_potential))
    fiber = float(np.max(riemann_norm(twisted).values))
    assert d.curvature_sup == pytest.approx(math.hypot(0.5, fiber), rel=1e-12)
    assert 1.0 < d.curvature_sup < 1.4


def field_space_diagnostics(spec, t, potential):
    """The monitor suite composed on the grid from the potential's samples,
    through the public ddbar and an rfftn of the normalized potential: the
    reference for diagnostics_for, which reads the march's modes."""
    g, p = spec.grid, spec.base_dim
    et = math.exp(t)
    a_hat = 1.0 + (spec.a0 - 1.0) * math.exp(-t)
    twisted = (HermitianField.scaled_identity(g, spec.b0)
               + HermitianField(g, et * ddbar(potential).values))
    dphi = _velocity(spec, t, twisted.values) - potential.values
    vol = a_hat ** p * twisted.values / spec.b0
    vt = normalized_potential(spec, t, potential).values
    qfield = np.log(math.exp(-t) * p * spec.a0 / a_hat
                    + trace_wrt(twisted, spec.initial_form()).values) - vt
    fiber = et * float(np.max(riemann_norm(twisted).values))
    return {
        "phi_sup": potential.sup(),
        "dphi_sup": np.max(np.abs(dphi)),
        "volume_ratio_min": np.min(vol),
        "volume_ratio_max": np.max(vol),
        "base_trace": 1.0 / a_hat,
        "eig_ratio_min": np.min(twisted.values) / spec.b0,
        "eig_ratio_max": np.max(twisted.values) / spec.b0,
        "vtilde_sup": np.max(np.abs(vt)),
        "q_sup": np.max(np.abs(qfield)),
        "curvature_sup": math.hypot(math.sqrt(p) / a_hat, fiber),
        "mode_low": abs(np.fft.rfftn(vt)[1, 0]) / vt.size,
        "diameter": fiber_diameter(
            HermitianField(g, math.exp(-t) * twisted.values)),
    }


def test_diagnostics_from_modes_match_the_field_space_reference():
    spec = sine_spec(n=16, b0=1.0, a0=2.0, amp=0.01)
    times = (0.5, 1.5, 3.0)
    res = integrate_lawson(spectral_problem(spec),
                           np.fft.rfftn(spec.initial_potential.values),
                           0.0, times)
    for t, modes in zip(times, res.sample_modes):
        got = asdict(diagnostics_for(spec, t, modes))
        want = field_space_diagnostics(
            spec, t, ScalarField(spec.grid, real_samples(spec.grid, modes)))
        assert got.pop("t") == t
        # the reference rounds the lowest mode against the relaxing mean
        assert abs(got.pop("mode_low") - want.pop("mode_low")) <= 2e-16
        assert got == pytest.approx(want, rel=1e-11, abs=0.0)


def test_evolve_samples_align_and_monitors_settle():
    spec = sine_spec(n=16, b0=1.0, a0=2.0, amp=0.01)
    times = tuple(np.linspace(0.0, 3.0, 7))
    diags = evolve(spec, times)
    assert tuple(d.t for d in diags) == times

    first, last = diags[0], diags[-1]
    assert last.vtilde_sup < first.vtilde_sup
    a3 = 1.0 + math.exp(-3.0)
    assert abs(last.curvature_sup - 1.0 / a3) < 1e-8
    assert abs(last.eig_ratio_max - 1.0) < 1e-8
    assert abs(last.eig_ratio_min - 1.0) < 1e-8
    assert abs(last.volume_ratio_max - a3) < 1e-7
    assert all(np.isfinite(d.q_sup) for d in diags)
    # trace defect settles onto its hand-computable tail: the decaying base
    # term plus the frozen initial fiber bump
    q_tail = math.log(math.exp(-3.0) * 2.0 / a3 + 1.0 + 0.01 * np.pi**2)
    assert abs(last.q_sup - q_tail) < 1e-3
    # collapsing diameter: ratio over e^{3/2} below its flat start
    assert last.diameter < first.diameter
