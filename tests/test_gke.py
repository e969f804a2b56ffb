"""Oracle tests for the fiberwise volume equation.

Constant data has the exact solution -log(density); manufactured data pins
the Newton solver against a known potential; the twisted curvature identity
is checked through two independently computed curvature forms.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from collapse_lab import gke
from collapse_lab.config import load_config
from collapse_lab.experiments import _envelope, run_experiment
from collapse_lab.grids import GridSpec, ScalarField
from collapse_lab.geometry import (ddbar, ddbar_modes, ddbar_symbol,
                                   half_modes, log_volume_ratio,
                                   real_samples)
from collapse_lab.models import GkeTestbedSpec
from collapse_lab.timestep import integrate_lawson
from collapse_lab.gke import (
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
    r = gke_residual(tb, np.zeros((16, 1)))
    assert np.max(np.abs(r)) == 0.0


def test_residual_matches_hand_formula():
    g = GridSpec(1, (32,))
    x, _ = coords(g)
    tb = GkeTestbedSpec(grid=g, density=ScalarField.constant(g, 1.0))
    u = 0.03 * np.sin(2 * np.pi * x)
    r = gke_residual(tb, u)
    want = np.log1p(-0.03 * np.pi**2 * np.sin(2 * np.pi * x)) - u
    assert np.max(np.abs(r - want)) < 1e-12


# ------------------------------------------------------------------ newton

def test_constant_density_solved_in_one_step():
    g = GridSpec(1, (16,))
    tb = GkeTestbedSpec(grid=g, density=ScalarField.constant(g, 2.0))
    sol = solve_gke(tb, tol=1e-11)
    assert sol.residuals[-1] <= 1e-11
    assert sol.iterations <= 2
    assert np.max(np.abs(sol.potential.values + math.log(2.0))) < 1e-11


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([8, 10, 16, 32, 64]),
       log_density=st.floats(-3.0, 3.0), log_scale=st.floats(-2.0, 2.0))
@example(n=8, log_density=4e-13, log_scale=0.0)
def test_closed_form_limit_is_the_newton_solution(n, log_density,
                                                  log_scale):
    # gke-parabolic's limit is -log F, not a Newton solve: on flat sigma a
    # constant density F is solved by that constant, at any flat scale.
    # At a constant u the residual is -log F - u, so the solve lies within
    # its own final residual of -log F: the iteration stops at zero when
    # |log F| is already below tol
    g = GridSpec(1, (n,))
    tb = GkeTestbedSpec(grid=g, flat_scale=10.0 ** log_scale,
                        density=ScalarField.constant(g, 10.0 ** log_density))
    limit = -np.log(tb.density_field())
    sol = solve_gke(tb, tol=1e-11)
    assert (np.max(np.abs(sol.potential.values - limit))
            <= sol.residuals[-1] + 1e-14)
    assert np.max(np.abs(gke_residual(tb, limit))) <= 1e-11


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


@pytest.mark.parametrize("amp", [0.0, 0.3], ids=["constant", "along_x"])
@pytest.mark.parametrize("n", [16, 10])
def test_newton_on_profiles_is_the_full_width_solve(n, amp):
    # y-profile data make a Newton solve on n-vectors; the same data over
    # the whole grid make one on n*n-vectors
    g = GridSpec(1, (n,))
    profile = 2.0 + amp * np.cos(2 * np.pi * g.axis_coordinates(0))
    prof, full = (solve_gke(GkeTestbedSpec(grid=g,
                                           density=ScalarField(g, dens)),
                            tol=1e-12)
                  for dens in (profile, profile * np.ones(g.shape)))
    assert prof.potential.values.shape == (n, 1)
    assert full.potential.values.shape == g.shape
    assert prof.iterations == full.iterations
    assert np.max(np.abs(prof.potential.values
                         - full.potential.values)) <= 1e-14


def test_krylov_matvec_times_metric_is_symmetric_negative_definite():
    # g (laplacian_omega - 1) = ddbar - g: a real even symbol plus a negative
    # diagonal, the property the Newton step's conjugate-gradient solve
    # leans on
    g = GridSpec(1, (16,))
    x, _ = coords(g)
    omega = 1.0 + ddbar(g, 0.04 * np.sin(2 * np.pi * x))
    assert np.min(omega) > 0.0
    ones = np.ones(g.shape)
    np.testing.assert_allclose(krylov_matvec(g, omega, 3.0 * ones),
                               -3.0 * ones, rtol=0.0, atol=1e-15)

    def metric_times(v):
        return omega * krylov_matvec(g, omega, v)

    rng = np.random.default_rng(0)
    for _ in range(5):
        v, w = rng.standard_normal((2, *g.shape))
        gv, gw = metric_times(v), metric_times(w)
        scale = np.linalg.norm(gv) * np.linalg.norm(w)
        assert abs(np.sum(gv * w) - np.sum(v * gw)) <= 1e-12 * scale
        assert np.sum(gv * v) < 0.0


@pytest.mark.parametrize("amp", [0.19, 0.195, -0.19])
def test_manufactured_near_the_edge_of_the_cone(amp):
    # the metric 4 - 2 pi^2 amp sin cos dips to 0.15 at amp 0.195; the
    # solve's residual floor at n=128 is near 1e-11 there
    g = GridSpec(1, (128,))
    x, y = coords(g)
    ustar = ScalarField(g, amp * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y))
    tb = GkeTestbedSpec(grid=g, manufactured=ustar, flat_scale=4.0)
    sol = solve_gke(tb, tol=1e-11)
    assert sol.residuals[-1] <= 1e-11
    assert np.max(np.abs(sol.potential.values - ustar.values)) <= 1e-13


@pytest.mark.parametrize("width", [16, 1])
def test_linear_step_is_scipy_cg_on_the_same_system(width, monkeypatch):
    # the reference is scipy's preconditioned cg on the flat vectors: the
    # same Krylov iterates summed in another order, so as many operator
    # applications and the same solution to a few hundred ulps
    from scipy.sparse.linalg import LinearOperator, cg
    g = GridSpec(1, (16,))
    x, _ = coords(g)
    omega = (1.5 + ddbar(g, 0.05 * np.sin(2 * np.pi * x)))[:, :width]
    rhs = np.random.default_rng(3).standard_normal((16, width))
    forcing = 1e-10
    calls = []

    def spy(grid, om, v):
        calls.append(v.size)
        return krylov_matvec(grid, om, v)

    monkeypatch.setattr(gke, "krylov_matvec", spy)
    got = gke._linear_step(g, omega, rhs, forcing)
    b = -omega * rhs
    resid = -omega * krylov_matvec(g, omega, got) - b
    assert np.linalg.norm(resid) <= forcing * np.linalg.norm(b)

    symbol = np.mean(omega) - ddbar_symbol(g)[:, :width]
    size = rhs.size
    op = LinearOperator((size, size), dtype=float, matvec=lambda v: (
        -omega * spy(g, omega, v.reshape(rhs.shape))).ravel())
    pre = LinearOperator((size, size), dtype=float, matvec=lambda v: (
        real_samples(g, half_modes(g, v.reshape(rhs.shape)) / symbol)
        .ravel()))
    ours = len(calls)
    want, info = cg(op, b.ravel(), rtol=forcing, M=pre, maxiter=500)
    assert info == 0
    assert len(calls) == 2 * ours and ours > 1
    assert np.max(np.abs(got.ravel() - want)) <= 1e-13 * np.max(np.abs(want))


EDGE_SOLVE = """
import hashlib
import numpy as np
from collapse_lab.grids import GridSpec, ScalarField
from collapse_lab.gke import solve_gke
from collapse_lab.models import GkeTestbedSpec
g = GridSpec(1, (128,))
x = g.axis_coordinates(0) * np.ones(g.shape)
y = g.axis_coordinates(1) * np.ones(g.shape)
ustar = ScalarField(g, 0.195 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y))
tb = GkeTestbedSpec(grid=g, manufactured=ustar, flat_scale=4.0)
sol = solve_gke(tb, tol=1e-11)
print(repr(sol.residuals))
print(hashlib.sha256(sol.potential.values.tobytes()).hexdigest())
"""


def test_newton_iterates_do_not_depend_on_the_blas_thread_count():
    # the cone-edge solve ends at the residual's roundoff floor, so a sum
    # whose order follows the thread count would decide whether it converges
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src),
                                         os.environ.get("PYTHONPATH")]))
    runs = [subprocess.run([sys.executable, "-c", EDGE_SOLVE],
                           capture_output=True, text=True, check=True,
                           env=dict(os.environ, PYTHONPATH=path,
                                    OPENBLAS_NUM_THREADS=threads)).stdout
            for threads in ("1", "2")]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("stem", ["gke_elliptic", "semiflat_identities"])
def test_shipped_newton_solves_take_one_matvec_per_krylov_step(
        stem, monkeypatch):
    # CG applies the operator once per iteration (13 and 12 calls); a
    # two-matvec method such as bicgstab took 30 and 38
    calls = []

    def spy(grid, omega, v):
        calls.append(v.size)
        return krylov_matvec(grid, omega, v)

    monkeypatch.setattr(gke, "krylov_matvec", spy)
    config = Path(__file__).resolve().parent.parent / "configs" / f"{stem}.json"
    assert run_experiment(load_config(config)).passed
    assert 0 < len(calls) <= 15


# -------------------------------------------------------- twisted identity

def test_twisted_identity_after_solving():
    g = GridSpec(1, (32,))
    x, y = coords(g)
    eta = ScalarField(g, 0.03 * np.cos(2 * np.pi * x))
    dens = ScalarField(g, 1.0 + 0.3 * np.cos(2 * np.pi * y))
    tb = GkeTestbedSpec(grid=g, eta=eta, density=dens)
    sol = solve_gke(tb, tol=1e-11)
    assert sol.residuals[-1] <= 1e-11
    u = sol.potential.values
    gap = twisted_einstein_residual(tb, u)
    assert gap <= 1e-6

    # the defect form is exactly -ddbar of the scalar residual; each Ricci
    # form is -ddbar log g
    sigma = tb.sigma_form()
    omega_u = sigma + ddbar(g, u)
    lhs = ddbar(g, -np.log(omega_u)) + omega_u
    rhs = ddbar(g, -np.log(sigma)) + sigma - ddbar(g, np.log(dens.values))
    defect = lhs - rhs
    via_residual = -ddbar(g, gke_residual(tb, u))
    assert np.max(np.abs(defect - via_residual)) < 1e-10
    assert abs(gap - np.max(np.abs(defect))) < 1e-12


# --------------------------------------------------------------- parabolic

def test_parabolic_static_gap_decays_exactly():
    # from zero the constant mode relaxes onto -log 2 along
    # u' = -log 2 - u, so the gap is log 2 exp(-t)
    g = GridSpec(1, (16,))
    res = parabolic_gke(g, 1.0, 2.0, 0.0, np.linspace(0.0, 3.0, 13))
    times, gap_max = res["t"], res["gap_max"]
    assert times[0] == 0.0
    assert times[-1] == 3.0
    want = math.log(2.0) * np.exp(-times)
    assert np.max(np.abs(gap_max - want)) < 1e-7
    slope = np.polyfit(times, np.log(gap_max), 1)[0]
    assert abs(slope + 1.0) < 1e-4
    # the gap is constant in space, so its derivative is -gap everywhere
    assert np.max(np.abs(res["dgap"] + gap_max)) < 1e-12


def _transient_case():
    # rho is a y-profile, so the march runs on profiles
    g = GridSpec(1, (16,))
    x = g.axis_coordinates(0)
    return g, 0.25 + ddbar(g, 0.02 * np.cos(2 * np.pi * x))


def test_parabolic_transient_settles_onto_limit():
    g, rho = _transient_case()
    res = parabolic_gke(g, 1.0, 1.0, rho, np.linspace(0.0, 6.0, 13))
    gap_max = res["gap_max"]
    assert np.max(gap_max) > 1e-3
    assert gap_max[-1] < 0.05 * np.max(gap_max)
    constant = _envelope(res["t"], gap_max, res["dgap"])[0]
    assert 0.0 <= constant < 20.0


def test_parabolic_problem_marches_profiles_only_when_all_data_are():
    g, rho = _transient_case()
    assert parabolic_problem(g, 1.0, 1.0, rho)[1].shape == (16, 1)
    assert parabolic_problem(g, 1.0, 1.0, 0.25)[1].shape == (16, 1)
    # a rho that varies along y keeps every column
    y_rho = _parabolic_case()[1]
    assert parabolic_problem(g, 1.0, 1.0, y_rho)[1].shape == (16, 9)


def test_parabolic_profile_march_matches_the_full_width_one():
    g, rho = _transient_case()
    times = np.linspace(0.0, 4.0, 9)
    prof = parabolic_gke(g, 1.0, 1.0, rho, times)
    wide = rho * np.ones(g.shape)
    assert parabolic_problem(g, 1.0, 1.0, wide)[1].shape == (16, 9)
    full = parabolic_gke(g, 1.0, 1.0, wide, times)
    for name in ("gap_max", "gap_min", "dgap"):
        assert prof[name].tobytes() == full[name].tobytes()


def _read_each_sample(g, flat_scale, density, rho, times):
    """The gap read-out one sample at a time, with the form and velocity
    composed by hand from the public ddbar of the march's modes: the
    reference the stacked read must equal."""
    problem, u0 = parabolic_problem(g, flat_scale, density, rho)
    march = integrate_lawson(problem, u0, 0.0, times)
    rows = []
    for t, modes in zip(times, march.sample_modes):
        phi = real_samples(g, modes)
        omega = flat_scale + math.exp(-t) * rho + ddbar_modes(g, modes)
        speed = log_volume_ratio(omega, flat_scale) - np.log(density) - phi
        gap = phi + np.log(density)
        peak = np.max(gap)
        rows.append((peak, np.min(gap), np.max(speed[gap == peak])))
    return dict(zip(("gap_max", "gap_min", "dgap"), np.array(rows).T))


@pytest.mark.parametrize("case", ["profile", "full_width",
                                  "transient_along_y", "constant_limit"])
def test_stacked_gap_read_is_that_of_each_sample_alone(case):
    # bit for bit, the Danskin read included: the constant-limit case ties
    # the max at every grid point
    (g, rho), flat_scale, density = _transient_case(), 1.0, 1.0
    times = np.linspace(0.0, 4.0, 9)
    if case == "full_width":
        rho = rho * np.ones(g.shape)
    elif case == "transient_along_y":
        flat_scale, density = 1.5, 1.3
        rho = _parabolic_case()[1]
    elif case == "constant_limit":
        rho, density = 0.0, 2.0
    table = parabolic_gke(g, flat_scale, density, rho, times)
    assert list(table) == ["t", "gap_max", "gap_min", "dgap"]
    assert table["t"].tobytes() == times.tobytes()
    for name, want in _read_each_sample(g, flat_scale, density, rho,
                                        times).items():
        assert table[name].tobytes() == want.tobytes(), name


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
    g, rho = _transient_case()
    h = 1e-4
    for t in (0.5, 3.0):
        res = parabolic_gke(g, 1.0, 1.0, rho, (t - h, t, t + h))
        centred = (res["gap_max"][2] - res["gap_max"][0]) / (2.0 * h)
        assert res["dgap"][1] == pytest.approx(centred, rel=1e-5)


@pytest.mark.parametrize("datum", ["density", "transient"])
def test_a_nan_sample_is_rejected_where_the_data_are_checked(datum):
    # NaN compares false both ways, so a `<= 0` test let it through: the
    # solve then stopped at once on a NaN residual, and the march failed
    # at t = 0
    g = GridSpec(1, (16,))
    data = np.full((16, 1), 0.25)
    data[5] = math.nan
    if datum == "density":
        with pytest.raises(ValueError, match="density must be positive"):
            GkeTestbedSpec(grid=g, density=ScalarField(g, data))
        return
    with pytest.raises(ValueError, match="semidefinite"):
        parabolic_gke(g, 1.0, 1.0, data, (1.0,))


def test_parabolic_rejects_indefinite_transient():
    g = GridSpec(1, (16,))
    x, _ = coords(g)
    rho = ddbar(g, 0.2 * np.cos(2 * np.pi * x))
    with pytest.raises(ValueError, match="semidefinite"):
        parabolic_gke(g, 1.0, 1.0, rho, (1.0,))


@pytest.mark.parametrize("flat_scale, density", [
    (0.0, 1.0), (1.0, -2.0), (1.0, math.nan)])
def test_parabolic_rejects_a_scale_or_density_that_is_not_positive(
        flat_scale, density):
    g = GridSpec(1, (16,))
    with pytest.raises(ValueError, match="must be positive"):
        parabolic_gke(g, flat_scale, density, 0.25, (1.0,))


def _parabolic_case():
    # a transient that varies along y and a potential over the whole grid
    g = GridSpec(1, (16,))
    x, y = coords(g)
    rho = 0.25 + ddbar(g, 0.02 * np.sin(2 * np.pi * y))
    return g, rho, 0.03 * np.sin(2 * np.pi * (x + y))


def test_parabolic_mode_space_rhs_is_velocity_less_linear_part():
    g, rho, phi = _parabolic_case()
    t = 0.7
    omega = 1.5 + math.exp(-t) * rho + ddbar(g, phi)
    velocity = np.log(omega / 1.5) - math.log(1.3) - phi
    linear = ddbar(g, phi) / 1.5 - phi
    want = np.fft.rfftn(velocity - linear)
    got = parabolic_problem(g, 1.5, 1.3, rho)[0].nonlinear_modes(
        t, np.fft.rfftn(phi))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    # without the transient the velocity is the static residual
    tb = GkeTestbedSpec(grid=g, density=ScalarField.constant(g, 1.3),
                        flat_scale=1.5)
    want = np.fft.rfftn(gke_residual(tb, phi) - linear)
    got = parabolic_problem(g, 1.5, 1.3, np.zeros_like(rho))[0] \
        .nonlinear_modes(t, np.fft.rfftn(phi))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_parabolic_mode_space_rhs_is_nan_outside_the_cone():
    g, rho, phi = _parabolic_case()
    steep = np.fft.rfftn(40.0 * phi)
    problem = parabolic_problem(g, 1.5, 1.3, rho)[0]
    assert np.isnan(problem.nonlinear_modes(0.0, steep)).all()
