"""Oracle tests for the collapsing fiber flow.

The right-hand side is pinned against a hand-written trigonometric formula,
the mean mode against a quadrature of its closed-form solution, and the full
march against an off-the-shelf Runge-Kutta integration of the same vector
field, which shares no code with the exponential-frame stepper.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad, solve_ivp

from collapse_lab.config import validate_config
from collapse_lab.experiments import CSV_COLUMNS, run_experiment
from collapse_lab.grids import (GridSpec, PositivityError, ScalarField,
                                require_positive)
from collapse_lab import flow, geometry
from collapse_lab.geometry import (ddbar, fiber_diameter, half_modes,
                                   log_volume_ratio, real_samples,
                                   riemann_norm)
from collapse_lab.models import FiberFlowSpec
from collapse_lab.timestep import integrate_lawson
from collapse_lab.flow import (
    diagnostics_for,
    evolve,
    relaxation_potential,
    spectral_problem,
)


def sine_spec(n=16, b0=1.0, a0=1.0, amp=0.01, profile=True):
    """A sine start along x, as its y-profile, which marches on profiles,
    or over the whole grid, which marches at full width."""
    grid = GridSpec(1, (n,))
    x = grid.axis_coordinates(0)
    if not profile:
        x = x * np.ones(grid.shape)
    return FiberFlowSpec(grid=grid, b0=b0, a0=a0,
                         initial_potential=ScalarField(grid, amp * np.sin(2 * np.pi * x)))


def full_width(grid, modes):
    """Modes widened to the grid's whole half spectrum with exact-zero
    ky != 0 columns, as a y-profile leaves them out."""
    full = np.zeros(modes.shape[:-1] + (grid.shape[1] // 2 + 1,),
                    dtype=complex)
    full[..., :modes.shape[-1]] = modes
    return full


def sample_rows(table):
    """The rows of a fiber-flow table, each a dict of its columns' floats."""
    return [dict(zip(table, map(float, row))) for row in zip(*table.values())]


def monitors(spec, times, modes, **kwargs):
    """diagnostics_for through the problem a march of ``spec`` runs."""
    return diagnostics_for(spec, spectral_problem(spec)[0], times, modes,
                           **kwargs)


# ------------------------------------------------------------- rhs oracles

def velocity(spec, t, twisted):
    """The flow's velocity log a(t) + log(twisted / b0), by hand; NaN
    wherever the twisted metric has left the positive cone."""
    return (math.log1p((spec.a0 - 1.0) * math.exp(-t))
            + log_volume_ratio(twisted, spec.b0))


def map_rhs(spec, t, potential):
    """Velocity of the potential at time t, composed on the grid from the
    public ddbar: the reference for the mode-space RHS.

    Entries are NaN wherever the twisted fiber metric has left the positive
    cone, which the adaptive stepper treats as a rejected step.
    """
    twisted = spec.b0 + math.exp(t) * ddbar(spec.grid, potential.values)
    return ScalarField(spec.grid,
                       velocity(spec, t, twisted) - potential.values)


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
    # the reference works on the whole grid, the problem on the profile
    spec = sine_spec(n=32, b0=2.0, a0=3.0, amp=0.05, profile=False)
    t = 0.9
    phi = spec.initial_potential
    linear = (math.exp(t) / spec.b0) * quarter_laplacian(spec.grid, phi.values)
    want = np.fft.rfftn(map_rhs(spec, t, phi).values - (linear - phi.values))
    problem, modes = spectral_problem(sine_spec(n=32, b0=2.0, a0=3.0,
                                                amp=0.05))
    assert modes.shape == (32, 1)
    got = full_width(spec.grid, problem.nonlinear_modes(t, modes))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_mode_space_rhs_is_nan_outside_the_cone():
    # exp(2.5) * amp * pi^2 exceeds b0 somewhere: the twisted metric is
    # indefinite there, and NaN is what makes the stepper reject the step
    spec = sine_spec(amp=0.05)
    t = 2.5
    problem, modes = spectral_problem(spec)
    assert np.isnan(map_rhs(spec, t, spec.initial_potential).values).any()
    # the march's errstate, which a remainder evaluated alone lacks
    with np.errstate(invalid="ignore", divide="ignore"):
        assert np.isnan(problem.nonlinear_modes(t, modes)).all()
    with pytest.warns(RuntimeWarning, match="invalid value"):
        problem.nonlinear_modes(t, modes)


@pytest.mark.parametrize("profile", [True, False],
                         ids=["y_profile", "full_width"])
def test_remainder_written_into_out_is_the_remainder(profile):
    # at width 1 and at full width; each problem builds its own form
    spec = sine_spec(n=16, b0=1.5, a0=2.0, amp=0.01, profile=profile)
    problem, u0 = spectral_problem(spec)
    kept = u0.copy()
    want = problem.nonlinear_modes(0.7, u0)
    buf = np.full_like(u0, np.nan)
    assert spectral_problem(spec)[0].nonlinear_modes(0.7, u0, out=buf) is buf
    assert buf.tobytes() == want.tobytes()
    assert u0.tobytes() == kept.tobytes()


@pytest.mark.parametrize("profile", [False, True],
                         ids=["full_width", "y_profile"])
def test_march_builds_one_ddbar_per_rhs_evaluation(monkeypatch, profile):
    # an attempt's last stage, the new state's margin and the next step's
    # first stage share one ddbar, as do the initial margin and first stage
    spec = sine_spec(n=16, b0=1.0, a0=1.3, amp=0.02, profile=profile)
    problem, u0 = spectral_problem(spec)
    assert u0.shape == ((16, 1) if profile else (16, 9))
    calls = {"ddbar": 0, "rhs": 0}
    inverse, rhs = geometry.real_samples, problem.nonlinear_modes

    # the form's ddbar is its one inverse transform
    def counted_ddbar(*args, **kwargs):
        calls["ddbar"] += 1
        return inverse(*args, **kwargs)

    def counted_rhs(t, u, out=None):
        calls["rhs"] += 1
        return rhs(t, u, out=out)

    monkeypatch.setattr(geometry, "real_samples", counted_ddbar)
    problem.nonlinear_modes = counted_rhs
    res = integrate_lawson(problem, u0, 0.0, (2.0,))
    assert res.accepted > 1
    assert calls["rhs"] == 1 + 6 * (res.accepted + res.rejected)
    assert calls["ddbar"] == calls["rhs"]


def product_spec(n=16):
    """A start potential that varies along y, sin(2 pi x) cos(2 pi y)."""
    grid = GridSpec(1, (n,))
    x, y = grid.axis_coordinates(0), grid.axis_coordinates(1)
    phi = 0.01 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
    return FiberFlowSpec(grid=grid, b0=1.0, a0=2.0,
                         initial_potential=ScalarField(grid, phi))


def test_modes_of_another_width_than_the_problem_raise():
    # an (n, n/2 + 1) symbol times (n, 1) modes would broadcast silently
    profile, u0 = spectral_problem(sine_spec())
    full, w0 = spectral_problem(product_spec())
    with pytest.raises(ValueError, match="width 1 on a problem of width 9"):
        full.nonlinear_modes(0.0, u0)
    with pytest.raises(ValueError, match="width 9 on a problem of width 1"):
        profile.kaehler_margin(0.0, w0)
    with pytest.raises(ValueError, match="width 9 on a problem of width 1"):
        integrate_lawson(profile, w0, 0.0, (1.0,))
    with pytest.raises(ValueError, match="width 1 on a problem of width 9"):
        full.read((0.0,), u0[None])


@pytest.mark.parametrize("profile", [True, False],
                         ids=["y_profile", "full_width"])
def test_read_is_the_form_the_march_evaluates(profile):
    # each sample of one read over the stack is bit for bit the form the
    # march's problem builds at that time
    spec = sine_spec(n=16, b0=1.5, a0=2.0, amp=0.01, profile=profile)
    problem, u0 = spectral_problem(spec)
    times = (0.0, 0.7, 2.5)
    stack = integrate_lawson(problem, u0, 0.0, times).sample_modes
    phi, omega, dphi = problem.read(times, stack)
    width = 1 if profile else 16
    assert phi.shape == omega.shape == dphi.shape == (3, 16, width)
    for k, (t, modes) in enumerate(zip(times, stack)):
        assert omega[k].tobytes() == problem._form(t, modes)[2].tobytes()
        assert problem.kaehler_margin(t, modes) == np.min(omega[k]) / 1.5


@pytest.mark.parametrize("n", [16, 64])
def test_profile_march_is_the_full_width_march_bit_for_bit(n):
    # the same start, held as its profile and over the whole grid
    times = (0.5, 1.5, 3.0)
    prof, full = (integrate_lawson(*spectral_problem(
        sine_spec(n=n, b0=1.0, a0=2.0, amp=0.01, profile=profile)),
        0.0, times) for profile in (True, False))
    assert (prof.accepted, prof.rejected) == (full.accepted, full.rejected)
    for got, want in zip(prof.sample_modes, full.sample_modes):
        assert (got.shape, want.shape) == ((n, 1), (n, n // 2 + 1))
        assert got.tobytes() == want[:, :1].tobytes()
        assert not np.any(want[:, 1:])


def test_two_dimensional_start_marches_full_width(monkeypatch):
    spec = product_spec()
    widths = []

    def spy(problem, u0, *args, **kwargs):
        widths.append(u0.shape)
        return integrate_lawson(problem, u0, *args, **kwargs)

    monkeypatch.setattr(flow, "integrate_lawson", spy)
    rows = [tuple(row.values())
            for row in sample_rows(evolve(spec, (0.0, 1.0, 3.0)))]
    assert widths == [(16, 9)]
    # frozen from the full-width march (numpy 2.4.6): a start that varies
    # along y keeps that path, bit for bit; the t = 1 diameter is frozen
    # with every node a source, the metric there being flat only to 4e-15
    assert rows == [
        (0.0, 0.010000000000000002, 0.8832931124155171, 1.6052158239564256,
         2.3947841760435753, 0.5, 0.8026079119782128, 1.1973920880217876,
         0.010000000000000002, 0.7031471805599453, 6.0691994381239915,
         2.7957054829092434e-19, 0.7408605734897228),
        (1.0, 0.2863490367318424, 0.026912650786384884, 1.3678794411714363,
         1.3678794411714483, 0.7310585786300049, 0.9999999999999956,
         1.0000000000000044, 0.0001234959866144107, 0.551289358365899,
         0.7310585786300049, 6.360854171995564e-19, 0.42888194248035355),
        (3.0, 0.13134189783832856, 0.0827545462645865, 1.0497870683678638,
         1.0497870683678638, 0.9525741268224334, 1.0, 1.0,
         0.00012349589485761352, 0.2565036097466269, 0.9525741268224334,
         1.0157194549065534e-85, 0.15777684932819505),
    ]


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


def test_relaxation_potential_where_a0_minus_one_rounds_to_minus_one():
    # there log1p(a0 - 1) reads log 0; the base scale comes from a0 itself
    a0 = 1e-17
    assert a0 - 1.0 == -1.0
    assert relaxation_potential(a0, 0.0) == 0.0
    for t in (1e-3, 0.4, 3.0):
        val, err = quad(lambda s: np.exp(s) * np.log(a0 * np.exp(-s)
                                                     - np.expm1(-s)),
                        0.0, t, epsabs=1e-14, epsrel=1e-13)
        assert err < 1e-12
        assert abs(relaxation_potential(a0, t) - math.exp(-t) * val) < 1e-13


def test_relaxation_potential_trivial_at_unit_scale():
    # the general formula reads exactly 0 at a0 = 1, with no branch for it
    for t in (0.0, 1e-300, 2.0, 40.0):
        assert relaxation_potential(1.0, t) == 0.0


# ------------------------------------------------------------------ evolve

def march(spec, t_end, tol=1e-8):
    """Potential samples at t_end of the mode-space march that evolve runs."""
    res = integrate_lawson(*spectral_problem(spec), 0.0, (t_end,), tol=tol)
    return real_samples(spec.grid, full_width(spec.grid,
                                              res.sample_modes[-1]))


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

    start = np.broadcast_to(spec.initial_potential.values, shape)
    sol = solve_ivp(rhs, (0.0, 2.0), start.ravel(),
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


@pytest.mark.parametrize("a0", [2.0, 0.5])
def test_late_monitors_hold_their_digits_to_horizon_forty(a0):
    # exp(-t) passes below machine epsilon relative to 1 before t = 40; the
    # settled monitors must not drift there, which the base term's log1p
    # and the closed-form relaxation shift guarantee by formulation
    cfg = validate_config({"experiment": "fiber-flow", "model": {"a0": a0},
                           "solver": {"horizon": 40.0,
                                      "with_diameter": False}})
    table = run_experiment(cfg).table
    late = table["t"] >= 30.0
    assert np.count_nonzero(late) == 21
    for col in ("vtilde_sup", "q_sup"):
        values = table[col][late]
        spread = (np.max(values) - np.min(values)) / np.max(np.abs(values))
        assert spread <= 1e-10, col


# -------------------------------------------------------------- diagnostics

def normalized_potential(spec, t, potential):
    """Blow-up of the potential against its relaxing mean, exp(t)(phi - mean),
    composed on the grid."""
    shift = relaxation_potential(spec.a0, t)
    return ScalarField(spec.grid, math.exp(t) * (potential.values - shift))


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
    spec = sine_spec(n=16, b0=1.0, a0=2.0, amp=0.01, profile=False)
    modes = np.fft.rfftn(spec.initial_potential.values)
    [d] = sample_rows(monitors(spec, [0.0], modes[None]))
    bump = 0.01 * np.pi**2
    assert d["phi_sup"] == pytest.approx(0.01, abs=1e-15)
    # velocity peaks in the trough of the potential, where density is largest
    assert d["dphi_sup"] == pytest.approx(
        math.log(2.0) + math.log1p(bump) + 0.01, abs=1e-12)
    assert d["base_trace"] == pytest.approx(0.5, abs=1e-15)
    assert d["eig_ratio_max"] == pytest.approx(1.0 + bump, abs=1e-12)
    assert d["eig_ratio_min"] == pytest.approx(1.0 - bump, abs=1e-12)
    assert d["volume_ratio_max"] == pytest.approx(2.0 * (1.0 + bump),
                                                  abs=1e-12)
    assert d["volume_ratio_min"] == pytest.approx(2.0 * (1.0 - bump),
                                                  abs=1e-12)
    assert d["vtilde_sup"] == pytest.approx(0.01, abs=1e-15)
    assert d["q_sup"] == pytest.approx(math.log(2.0) + 0.01, abs=1e-12)
    assert d["mode_low"] == pytest.approx(0.005, abs=1e-15)
    assert 0.6 < d["diameter"] < 0.8

    # curvature splits into the rigid base part and the fiber part
    twisted = 1.0 + ddbar(spec.grid, spec.initial_potential.values)
    fiber = float(np.max(riemann_norm(spec.grid, twisted)))
    assert d["curvature_sup"] == pytest.approx(math.hypot(0.5, fiber),
                                               rel=1e-12)
    assert 1.0 < d["curvature_sup"] < 1.4


def field_space_diagnostics(spec, t, potential):
    """The monitor suite composed on the grid from the potential's samples,
    through the public ddbar and an rfftn of the normalized potential: the
    reference for diagnostics_for, which reads the march's modes."""
    g, p = spec.grid, spec.base_dim
    et = math.exp(t)
    a_hat = 1.0 + (spec.a0 - 1.0) * math.exp(-t)
    twisted = spec.b0 + et * ddbar(g, potential.values)
    dphi = velocity(spec, t, twisted) - potential.values
    vol = a_hat ** p * twisted / spec.b0
    vt = normalized_potential(spec, t, potential).values
    # the trace of the initial metric in the twisted one, 1/g contracted
    qfield = np.log(math.exp(-t) * p * spec.a0 / a_hat
                    + spec.initial_form() / twisted) - vt
    fiber = et * float(np.max(riemann_norm(g, twisted)))
    return {
        "phi_sup": potential.sup(),
        "dphi_sup": np.max(np.abs(dphi)),
        "volume_ratio_min": np.min(vol),
        "volume_ratio_max": np.max(vol),
        "base_trace": 1.0 / a_hat,
        "eig_ratio_min": np.min(twisted) / spec.b0,
        "eig_ratio_max": np.max(twisted) / spec.b0,
        "vtilde_sup": np.max(np.abs(vt)),
        "q_sup": np.max(np.abs(qfield)),
        "curvature_sup": math.hypot(math.sqrt(p) / a_hat, fiber),
        "mode_low": abs(np.fft.rfftn(vt)[1, 0]) / vt.size,
        "diameter": fiber_diameter(g, math.exp(-t) * twisted),
    }


def sample_stack(spec, times):
    """The (S, n, w) stack of the march's modes at the sample times."""
    return integrate_lawson(*spectral_problem(spec), 0.0, times).sample_modes


def test_diagnostics_from_modes_match_the_field_space_reference():
    # the monitors read the profile modes the march holds; the reference
    # reads the whole grid
    spec = sine_spec(n=16, b0=1.0, a0=2.0, amp=0.01)
    times = (0.5, 1.5, 3.0)
    stack = sample_stack(spec, times)
    assert stack.shape == (3, 16, 1)
    rows = sample_rows(monitors(spec, times, stack))
    for t, modes, got in zip(times, stack, rows):
        samples = real_samples(spec.grid, full_width(spec.grid, modes))
        want = field_space_diagnostics(spec, t,
                                       ScalarField(spec.grid, samples))
        assert got.pop("t") == t
        # the reference rounds the lowest mode against the relaxing mean
        assert abs(got.pop("mode_low") - want.pop("mode_low")) <= 2e-16
        assert got == pytest.approx(want, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("n", [16, 64])
def test_diagnostics_of_profile_modes_are_those_of_widened_ones(n):
    # bit for bit, mode_low included, so it must divide by n^2 on either
    # width; the diameter is left out, its sources depend on exact symmetry.
    # The widened modes are read by the problem of the full-width start
    spec = sine_spec(n=n, b0=1.0, a0=2.0, amp=0.01)
    times = (0.5, 1.5, 3.0)
    stack = sample_stack(spec, times)
    assert stack.shape == (3, n, 1)
    wide = spectral_problem(sine_spec(n=n, b0=1.0, a0=2.0, amp=0.01,
                                      profile=False))[0]
    got, want = (diagnostics_for(spec, problem, times, m,
                                 with_diameter=False)
                 for problem, m in ((spectral_problem(spec)[0], stack),
                                    (wide, full_width(spec.grid, stack))))
    del got["diameter"], want["diameter"]
    assert tuple(got) == tuple(want)
    for col in got:
        assert got[col].tobytes() == want[col].tobytes(), col


@settings(max_examples=25, deadline=None)
@given(samples=st.integers(1, 5), half_n=st.integers(4, 8),
       profile=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_stacked_monitors_are_those_of_each_sample_alone(samples, half_n,
                                                          profile, seed):
    # every column of one call over the stack, bit for bit that of the same
    # call on each sample as a one-sample stack
    rng = np.random.default_rng(seed)
    n = 2 * half_n
    spec = sine_spec(n=n, b0=rng.uniform(0.5, 2.0), a0=rng.uniform(0.5, 3.0),
                     amp=0.01 / n, profile=profile)
    width = 1 if profile else n
    times = np.sort(rng.uniform(0.0, 3.0, samples))
    # small enough that b0 + e^t ddbar(phi) stays positive up to t = 3
    phi = rng.uniform(-1e-5, 1e-5, (samples, n, width)) * 64 / n ** 2
    stack = half_modes(spec.grid, phi)
    table = monitors(spec, times, stack)
    for k, (t, modes) in enumerate(zip(times, stack)):
        alone = monitors(spec, [t], modes[None])
        for col, values in table.items():
            assert values[k:k + 1].tobytes() == alone[col].tobytes(), col


def cone_stack(spec, times, amps):
    """The modes of sin(2 pi x) cos(2 pi y) at the given amplitudes, stacked,
    and the twisted metric b0 + e^t ddbar(phi) of each on the grid."""
    g = spec.grid
    wave = (np.sin(2 * np.pi * g.axis_coordinates(0))
            * np.cos(2 * np.pi * g.axis_coordinates(1)))
    phis = [a * wave for a in amps]
    metrics = [spec.b0 + math.exp(t) * ddbar(g, phi)
               for t, phi in zip(times, phis)]
    return half_modes(g, np.stack(phis)), metrics


def test_stack_raises_at_the_first_sample_that_leaves_the_cone():
    # the 2nd and 3rd samples leave the cone; the error is the 2nd's, as a
    # check of that sample alone gives it
    spec = sine_spec(n=16, profile=False)
    times = (0.0, 0.5, 1.0)
    stack, metrics = cone_stack(spec, times, (0.01, 0.2, -0.3))
    assert np.min(metrics[0]) > 0.0 > np.min(metrics[1])
    with pytest.raises(PositivityError) as want:
        require_positive(metrics[1], "evolving fiber metric")
    with pytest.raises(PositivityError) as got:
        monitors(spec, times, stack)
    assert "in evolving fiber metric" in str(got.value)
    assert str(got.value) == str(want.value)
    assert got.value.point == want.value.point
    assert len(got.value.point) == 2
    assert got.value.value == want.value.value < 0.0


def test_stack_with_a_nan_sample_raises_at_its_first_nan():
    spec = sine_spec(n=16, profile=False)
    times = (0.0, 0.5, 1.0)
    stack, _ = cone_stack(spec, times, (0.01, 0.01, 0.01))
    stack[1, 2, 3] = math.nan
    with pytest.raises(PositivityError, match="evolving fiber metric") as err:
        monitors(spec, times, stack)
    # a NaN mode makes every sample of its metric NaN; the first is the worst
    assert err.value.point == (0, 0)
    assert math.isnan(err.value.value)


def test_evolve_reads_its_monitors_in_one_call(monkeypatch):
    spec = sine_spec(n=16, b0=1.0, a0=2.0, amp=0.01)
    calls = []

    def spy(spec, problem, times, modes, **kwargs):
        calls.append(modes.shape)
        return diagnostics_for(spec, problem, times, modes, **kwargs)

    monkeypatch.setattr(flow, "diagnostics_for", spy)
    table = evolve(spec, tuple(np.linspace(0.0, 3.0, 7)), with_diameter=False)
    assert calls == [(7, 16, 1)]
    assert tuple(table) == CSV_COLUMNS["fiber-flow"]


def test_evolve_samples_align_and_monitors_settle():
    spec = sine_spec(n=16, b0=1.0, a0=2.0, amp=0.01)
    times = tuple(np.linspace(0.0, 3.0, 7))
    table = evolve(spec, times)
    assert tuple(table["t"]) == times
    diags = sample_rows(table)

    first, last = diags[0], diags[-1]
    assert last["vtilde_sup"] < first["vtilde_sup"]
    a3 = 1.0 + math.exp(-3.0)
    assert abs(last["curvature_sup"] - 1.0 / a3) < 1e-8
    assert abs(last["eig_ratio_max"] - 1.0) < 1e-8
    assert abs(last["eig_ratio_min"] - 1.0) < 1e-8
    assert abs(last["volume_ratio_max"] - a3) < 1e-7
    assert all(np.isfinite(d["q_sup"]) for d in diags)
    # trace defect settles onto its hand-computable tail: the decaying base
    # term plus the frozen initial fiber bump
    q_tail = math.log(math.exp(-3.0) * 2.0 / a3 + 1.0 + 0.01 * np.pi**2)
    assert abs(last["q_sup"] - q_tail) < 1e-3
    # collapsing diameter: ratio over e^{3/2} below its flat start
    assert last["diameter"] < first["diameter"]
