"""Oracle tests for the model fibrations.

Closed forms are differentiated by hand and residuals pinned at zero; patch
quantities are checked against small-step finite differences of the analytic
evaluators, which is an independent route because the patch is never sampled
spectrally.
"""

import re

import numpy as np
import pytest

from collapse_lab import models
from collapse_lab.grids import GridSpec, ScalarField, require_positive
from collapse_lab.geometry import ddbar
from collapse_lab.models import (
    FiberFlowSpec,
    GkeTestbedSpec,
    ProductModelSpec,
    SemiFlatSpec,
    density_F,
    fiber_constancy,
    rescaling_check,
    semiflat_components,
    semiflat_potential,
    weil_petersson,
)


# ------------------------------------------------------------ product model

def test_product_closed_form_satisfies_flow_ode():
    # substitute a(t), b(t) into a' = 1 - a, b' = -b using hand derivatives
    model = ProductModelSpec(a0=0.3, b0=2.0)
    for t in np.linspace(0.0, 12.0, 25):
        a, b = model.closed_form(t)
        da = -(model.a0 - 1.0) * np.exp(-t)
        db = -model.b0 * np.exp(-t)
        assert abs(da - (1.0 - a)) < 1e-14
        assert abs(db - (-b)) < 1e-14


def test_product_fixed_point_is_exact():
    model = ProductModelSpec(a0=1.0, b0=1.0)
    for t in (0.0, 1.0, 7.5):
        a, _ = model.closed_form(t)
        assert a == 1.0


def test_product_base_curvature_norm_frozen_values():
    # Poincare-type factor: norm 1 at unit scale, 1/a scaled, sqrt(p) factors
    model = ProductModelSpec(a0=2.0, b0=1.0)
    assert model.base_curvature_norm(0.0) == pytest.approx(0.5, rel=1e-15)
    assert model.base_curvature_norm(50.0) == pytest.approx(1.0, rel=1e-12)
    wide = ProductModelSpec(a0=2.0, b0=1.0, base_dim=2)
    assert wide.base_curvature_norm(0.0) == pytest.approx(np.sqrt(2.0) / 2.0, rel=1e-15)


def test_product_spec_rejects_nonpositive_scales():
    with pytest.raises(ValueError):
        ProductModelSpec(a0=-1.0, b0=1.0)
    with pytest.raises(ValueError):
        ProductModelSpec(a0=1.0, b0=0.0)


# -------------------------------------------------------------- fiber model

def fib_grid(n=16):
    return GridSpec(1, (n,))


def test_fiber_flow_spec_requires_mean_free_and_kaehler():
    g = fib_grid()
    x = g.axis_coordinates(0) * np.ones(g.shape)
    ok = FiberFlowSpec(grid=g, b0=1.0, initial_potential=ScalarField(g, 0.05 * np.sin(2*np.pi*x)))
    assert np.min(ok.initial_form()) > 0.0
    with pytest.raises(ValueError, match="mean"):
        FiberFlowSpec(grid=g, b0=1.0, initial_potential=ScalarField.constant(g, 0.2))
    # the mean is judged against the sup: roundoff at a huge amplitude
    # passes, a mean of 1e-6 of the sup does not
    sine = 1e7 * np.sin(2 * np.pi * x)
    FiberFlowSpec(grid=g, b0=1e9, initial_potential=ScalarField(g, sine + 1e-6))
    with pytest.raises(ValueError, match="mean-free"):
        FiberFlowSpec(grid=g, b0=1e9,
                      initial_potential=ScalarField(g, sine + 10.0))
    with pytest.raises(ValueError, match="positiv"):
        FiberFlowSpec(grid=g, b0=0.5, initial_potential=ScalarField(g, 0.2 * np.sin(2*np.pi*x)))


# ---------------------------------------------------------------- semi-flat

def sf_spec(eps=0.2, nf=16):
    return SemiFlatSpec(fiber_n=nf, tau_coeffs=(1j, eps))


def patch_shape(spec):
    # base axes first, then the fiber height, as every patch array is laid out
    return (spec.base_n, spec.base_n, spec.fiber_n)


def patch_components(spec):
    return semiflat_components(spec, *spec.patch())


def test_semiflat_potential_frozen_values():
    spec = sf_spec(eps=0.0)
    assert semiflat_potential(spec, 0.0 + 0.0j, 0.5j) == pytest.approx(0.25, abs=1e-15)
    assert semiflat_potential(spec, 0.3 + 0.1j, 0.7 + 0.0j) == 0.0


def test_semiflat_potential_quadratic_scaling():
    spec = sf_spec()
    rng = np.random.default_rng(21)
    z = rng.uniform(-0.5, 0.5, 6) + 1j * rng.uniform(-0.5, 0.5, 6)
    xi = rng.uniform(-0.5, 0.5, 6) + 1j * rng.uniform(-0.5, 0.5, 6)
    for lam in (-2.0, 0.5, np.exp(2.5)):
        lhs = semiflat_potential(spec, z, lam * xi)
        rhs = lam**2 * semiflat_potential(spec, z, xi)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))


def test_semiflat_form_constant_modulus_block():
    spec = sf_spec(eps=0.0)
    g_zz, g_zxi, g_xixi = patch_components(spec)
    assert g_zz.shape == g_zxi.shape == patch_shape(spec)
    assert not np.iscomplexobj(g_zz) and not np.iscomplexobj(g_xixi)
    assert np.max(np.abs(g_zz)) < 1e-15
    assert np.max(np.abs(g_zxi)) < 1e-15
    assert np.max(np.abs(g_xixi - 0.5)) < 1e-15


def test_semiflat_form_fiber_component_is_fiber_independent():
    spec = sf_spec(eps=0.2)
    ff = np.broadcast_to(patch_components(spec)[2], patch_shape(spec))
    spread = np.max(ff, axis=-1) - np.min(ff, axis=-1)
    assert np.max(spread) <= 1e-12
    tau = spec.modulus(spec.base_points())
    want = 1.0 / (2.0 * tau.imag)
    assert np.max(np.abs(ff[..., 0] - want)) < 1e-14


def test_semiflat_form_is_degenerate_but_nonnegative():
    spec = sf_spec(eps=0.3)
    g_zz, g_zxi, g_xixi = np.broadcast_arrays(*patch_components(spec))
    det = g_zz * g_xixi - np.abs(g_zxi) ** 2
    assert np.max(np.abs(det)) < 1e-15
    # the 2x2 Hermitian matrix of the form, index 0 base and 1 fiber
    h = np.stack([np.stack([g_zz, g_zxi], -1),
                  np.stack([np.conj(g_zxi), g_xixi], -1)], -2)
    assert np.min(np.linalg.eigvalsh(h)[..., 0]) > -1e-13


def test_semiflat_form_closedness_by_fd():
    # d(omega) = 0 for a ddbar potential: d_xi g_zz must equal d_z g_xiz;
    # finite differences of the analytic evaluator make this non-circular
    spec = sf_spec(eps=0.25)
    rng = np.random.default_rng(3)
    zs = rng.uniform(-0.4, 0.4, 5) + 1j * rng.uniform(-0.4, 0.4, 5)
    xis = rng.uniform(0.05, 0.45, 5) + 1j * rng.uniform(0.05, 0.45, 5)
    h = 1e-3

    def g_zz(z, xi):
        return semiflat_components(spec, z, np.imag(xi))[0]

    def g_xiz(z, xi):
        return np.conj(semiflat_components(spec, z, np.imag(xi))[1])

    def wirtinger(fn, w0, holo=True):
        # 4th-order stencil for (d/dx -+ i d/dy)/2 of fn at w0
        def stencil(step):
            return (-fn(w0 + 2*step) + 8*fn(w0 + step)
                    - 8*fn(w0 - step) + fn(w0 - 2*step)) / (12.0 * h)
        fx, fy = stencil(h), stencil(1j * h)
        return (fx - 1j * fy) / 2.0 if holo else (fx + 1j * fy) / 2.0

    for z0, xi0 in zip(zs, xis):
        lhs = wirtinger(lambda xi: g_zz(z0, xi), xi0)   # d_xi g_zz
        rhs = wirtinger(lambda z: g_xiz(z, xi0), z0)    # d_z g_xiz
        assert abs(lhs - rhs) < 1e-10


def _quartic_control_components(spec, z, y):
    # same construction for the quartic potential (Im xi)^4 / Im(modulus);
    # kaehler, but deliberately without the rescaling symmetry
    T = np.imag(spec.modulus(z))
    tp = spec.modulus_derivative(z)
    return (y ** 4 * np.abs(tp) ** 2 / (2.0 * T ** 3), -(y ** 3) * tp / (T * T),
            3.0 * y * y / T)


def test_rescaling_identity_holds_and_control_fails(monkeypatch):
    spec = sf_spec(eps=0.2)
    assert rescaling_check(spec, 0.0) == 0.0
    for t in (1.0, 5.0):
        assert rescaling_check(spec, t) <= 1e-12
    monkeypatch.setattr(models, "semiflat_components",
                        _quartic_control_components)
    assert rescaling_check(spec, 1.0) > 0.1


def test_weil_petersson_frozen_and_fd_oracle():
    spec = sf_spec(eps=0.2)
    wp = weil_petersson(spec)
    z = spec.base_points()
    tau = spec.modulus(z)
    want = 0.2**2 / (4.0 * tau.imag**2)
    assert np.max(np.abs(wp - want)) < 1e-12
    assert np.min(wp) > 0.0

    # independent route: ddbar of -log Im tau via 4th-order stencils
    h = 1e-2
    f = lambda w: -np.log(spec.modulus(w).imag)
    z0 = 0.21 - 0.13j

    def d2(fn, w0):
        pts_x = [fn(w0 + s) for s in (2*h, h, -h, -2*h)]
        pts_y = [fn(w0 + 1j*s) for s in (2*h, h, -h, -2*h)]
        f0 = fn(w0)
        fxx = (-pts_x[0] + 16*pts_x[1] - 30*f0 + 16*pts_x[2] - pts_x[3]) / (12*h*h)
        fyy = (-pts_y[0] + 16*pts_y[1] - 30*f0 + 16*pts_y[2] - pts_y[3]) / (12*h*h)
        return (fxx + fyy) / 4.0

    tau0 = spec.modulus(z0)
    assert abs(d2(f, z0) - 0.2**2 / (4.0 * tau0.imag**2)) < 1e-8


def test_weil_petersson_vanishes_for_constant_modulus():
    spec = sf_spec(eps=0.0)
    assert np.max(np.abs(weil_petersson(spec))) == 0.0


def test_density_F_fiberwise_constant_and_frozen_form():
    spec = sf_spec(eps=0.2)
    z, _ = spec.patch()
    omega = np.exp(np.abs(z) ** 2) * np.ones(patch_shape(spec))
    F = density_F(spec, omega)
    assert F.shape == patch_shape(spec)
    assert fiber_constancy(F) <= 1e-10
    tau = spec.modulus(z)
    want = np.exp(np.abs(z) ** 2) * tau.imag * np.ones_like(F)
    assert np.max(np.abs(F - want)) < 1e-12 * np.max(want)


def test_density_F_negative_control_sees_fiber_dependence():
    spec = sf_spec(eps=0.2)
    z, y = spec.patch()
    omega = np.exp(np.abs(z) ** 2) * (1.0 + 0.3 * np.sin(2*np.pi*y))
    assert fiber_constancy(density_F(spec, omega)) > 0.01


def fiberwise_cy_potential(eta, b0):
    """Potential moving the start fiber metric to the flat one.

    Returns -eta plus the constant that makes the result mean-free against
    the start metric's volume density.
    """
    weight = b0 + ddbar(eta.grid, eta.values)
    require_positive(weight, "start fiber metric")
    shift = float(np.sum(eta.values * weight) / np.sum(weight))
    return ScalarField(eta.grid, -eta.values + shift)


def test_fiberwise_cy_potential_zero_and_sine():
    g = fib_grid(16)
    b0 = 0.8
    zero = fiberwise_cy_potential(ScalarField.constant(g, 0.0), b0)
    assert np.max(np.abs(zero.values)) == 0.0

    x = g.axis_coordinates(0) * np.ones(g.shape)
    eta = ScalarField(g, 0.05 * np.sin(2*np.pi*x))
    psi = fiberwise_cy_potential(eta, b0)
    # settles the fiber to the flat metric of total coefficient b0
    flat = b0 + ddbar(g, eta.values + psi.values)
    assert np.max(np.abs(flat - b0)) < 1e-10
    # weighted normalization against the start metric density
    dens = b0 + ddbar(g, eta.values)
    assert abs(np.mean(psi.values * dens)) <= 1e-12


# ------------------------------------------------------------- gke testbed

def test_gke_testbed_validation_and_sigma():
    g = GridSpec(1, (16,))
    x = g.axis_coordinates(0) * np.ones(g.shape)
    eta = ScalarField(g, 0.05 * np.cos(2*np.pi*x))
    tb = GkeTestbedSpec(grid=g, eta=eta, density=ScalarField.constant(g, 2.0))
    sig = tb.sigma_form()
    assert np.min(sig) > 0.0
    want = 1.0 - 0.05 * np.pi**2 * np.cos(2*np.pi*x)
    assert np.max(np.abs(sig - want)) < 1e-12

    with pytest.raises(ValueError, match="positiv"):
        GkeTestbedSpec(grid=g, density=ScalarField.constant(g, -1.0))
    with pytest.raises(ValueError, match="positiv"):
        GkeTestbedSpec(grid=g, eta=ScalarField(g, 0.5 * np.cos(2*np.pi*x)),
                       density=ScalarField.constant(g, 1.0))


def test_gke_testbed_takes_exactly_one_of_density_and_manufactured():
    g = GridSpec(1, (16,))
    with pytest.raises(ValueError, match="exactly one"):
        GkeTestbedSpec(grid=g)
    with pytest.raises(ValueError, match="exactly one"):
        GkeTestbedSpec(grid=g, density=ScalarField.constant(g, 1.0),
                       manufactured=ScalarField.constant(g, 0.0))


def test_gke_testbed_manufactured_density_zeroes_residual():
    g = GridSpec(1, (32,))
    x, y = np.broadcast_arrays(g.axis_coordinates(0), g.axis_coordinates(1))
    ustar = ScalarField(g, 0.04 * np.sin(2*np.pi*x) * np.cos(2*np.pi*y))
    tb = GkeTestbedSpec(grid=g, manufactured=ustar)
    sig = tb.sigma_form()
    F = tb.density_field()
    lhs = sig + ddbar(g, ustar.values)
    rhs = sig * F * np.exp(ustar.values)
    assert np.max(np.abs(lhs - rhs)) < 1e-13


# ---------------------------------------------------------- malformed input

def _flow_spec(a0=1.0, base_dim=1):
    g = fib_grid()
    return FiberFlowSpec(grid=g, b0=1.0, a0=a0, base_dim=base_dim,
                         initial_potential=ScalarField.constant(g, 0.0))


def _testbed(flat_scale):
    g = fib_grid()
    return GkeTestbedSpec(grid=g, density=ScalarField.constant(g, 1.0),
                          flat_scale=flat_scale)


def _patch_volume(value):
    spec = sf_spec()
    return density_F(spec, np.full(patch_shape(spec), value))


# no shipped config and no other test reaches these rejections
@pytest.mark.parametrize("build, why", [
    (lambda: _flow_spec(a0=0.0), "scale coefficients a0, b0 must be positive"),
    (lambda: _flow_spec(base_dim=0), "base_dim must be >= 1"),
    (lambda: _testbed(0.0), "flat_scale must be positive"),
    (lambda: SemiFlatSpec(fiber_n=16, base_n=3),
     "need base_n >= 4 and fiber_n >= 1"),
    (lambda: SemiFlatSpec(fiber_n=0), "need base_n >= 4 and fiber_n >= 1"),
    (lambda: SemiFlatSpec(fiber_n=16, base_extent=0.0),
     "base_extent must be positive"),
    (lambda: GridSpec(1, (9,)), "resolutions must be even and >= 8, got 9"),
    (lambda: _patch_volume(0.0), "volume density must be positive"),
], ids=["flow-a0", "flow-base-dim", "testbed-scale", "semiflat-base-n",
        "semiflat-fiber-n", "semiflat-extent", "grid-odd", "density-volume"])
def test_malformed_input_is_rejected_with_its_message(build, why):
    with pytest.raises(ValueError, match=re.escape(why)):
        build()
