"""Oracle tests for the spectral geometry kernel.

Expected values are frozen from independent routes: trigonometric identities,
finite-difference stencils on the sampled data, cofactor expansions, explicit
inverses, and lattice shortest-path reasoning.  The module under test must
reproduce them, not the other way around.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from collapse_lab.grids import GridSpec, HermitianField, PositivityError, ScalarField
from collapse_lab.geometry import (
    ddbar,
    fiber_diameter,
    ma_density,
    ricci_form,
    riemann_norm,
    trace_wrt,
)


def grid1(n=64, periods=()):
    return GridSpec(1, (n,), periods)


def grid2(n=16):
    return GridSpec(2, (n, n))


def coords(grid):
    axes = [grid.axis_coordinates(a) for a in range(2 * grid.complex_dim)]
    return np.broadcast_arrays(*axes)


# ---------------------------------------------------------------- FD oracles

def fd4_d1(vals, axis, h):
    """Fourth-order periodic central first derivative."""
    r = lambda s: np.roll(vals, -s, axis=axis)
    return (-r(2) + 8 * r(1) - 8 * r(-1) + r(-2)) / (12.0 * h)


def fd4_d2(vals, axis, h):
    """Fourth-order periodic central second derivative."""
    r = lambda s: np.roll(vals, -s, axis=axis)
    return (-r(2) + 16 * r(1) - 30 * vals + 16 * r(-1) - r(-2)) / (12.0 * h * h)


def fd_ddbar_component(vals, grid, j, k):
    """FD oracle for the (j, k) mixed Wirtinger second derivative."""
    hx, hy = grid.spacings[2 * j], grid.spacings[2 * j + 1]
    gx, gy = grid.spacings[2 * k], grid.spacings[2 * k + 1]
    if j == k:
        return (fd4_d2(vals, 2 * j, hx) + fd4_d2(vals, 2 * j + 1, hy)) / 4.0
    dj = (fd4_d1(vals, 2 * j, hx) - 1j * fd4_d1(vals, 2 * j + 1, hy)) / 2.0
    return (fd4_d1(dj, 2 * k, gx) + 1j * fd4_d1(dj, 2 * k + 1, gy)) / 2.0


# -------------------------------------------------------------------- ddbar

def test_ddbar_single_cosine_frozen_value():
    g = grid1(64)
    x, _ = coords(g)
    f = ScalarField(g, np.cos(2 * np.pi * x))
    out = ddbar(f).component(0, 0).real
    expected = -np.pi**2 * np.cos(2 * np.pi * x)  # (1/4)(fxx+fyy) of cos(2 pi x)
    assert np.max(np.abs(out - np.broadcast_to(expected, g.shape))) < 1e-12 * np.pi**2


def test_ddbar_product_mode_frozen_value_and_fd():
    g = grid1(256)
    x, y = coords(g)
    vals = np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
    out = ddbar(ScalarField(g, vals)).component(0, 0).real
    expected = -2.0 * np.pi**2 * vals  # symbolic: (1/4)(-4pi^2 - 4pi^2) f
    assert np.max(np.abs(out - expected)) < 1e-10
    fd = fd_ddbar_component(vals, g, 0, 0).real
    rng = np.random.default_rng(7)
    for _ in range(5):
        i, j = rng.integers(0, 256, size=2)
        assert abs(out[i, j] - fd[i, j]) < 1e-6


def test_ddbar_constant_is_zero_and_mean_free():
    g = grid1(32)
    out = ddbar(ScalarField.constant(g, 4.2)).values
    assert np.max(np.abs(out)) == 0.0
    rng = np.random.default_rng(3)
    f = ScalarField(g, rng.standard_normal(g.shape))
    comp = ddbar(f).component(0, 0)
    assert abs(np.mean(comp)) < 1e-13


def test_ddbar_respects_periods():
    g = grid1(64, periods=(2.0, 0.5))
    x, _ = coords(g)
    out = ddbar(ScalarField(g, np.cos(2 * np.pi * x / 2.0))).component(0, 0).real
    expected = -(np.pi / 2.0) ** 2 * np.cos(np.pi * x)
    assert np.max(np.abs(out - np.broadcast_to(expected, g.shape))) < 1e-12 * np.pi**2


def test_ddbar_two_dim_cross_component_vs_fd():
    g = grid2(32)
    x1, _, x2, _ = coords(g)
    vals = np.sin(2 * np.pi * x1) * np.sin(2 * np.pi * x2)
    H = ddbar(ScalarField(g, vals))
    expected = np.pi**2 * np.cos(2 * np.pi * x1) * np.cos(2 * np.pi * x2)
    got = H.component(0, 1)
    assert np.max(np.abs(got - expected)) < 1e-10
    assert np.max(np.abs(H.component(1, 0) - np.conj(got))) < 1e-12
    fd = fd_ddbar_component(vals, g, 0, 1)
    assert np.max(np.abs(got - fd)) < 2e-3  # 32 samples per axis, fd4 floor


def full_spectrum_ddbar(grid, vals):
    """Independent ddbar through fftn and fftfreq wavenumbers.

    Off the diagonal the odd first-derivative factors are zeroed at their
    Nyquist entry, the mode that is its own mirror image.
    """
    m = grid.complex_dim
    spec = np.fft.fftn(vals)

    def k(ax, odd):
        n = grid.shape[ax]
        kk = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.periods[ax] / n)
        if odd:
            kk[n // 2] = 0.0
        shape = [1] * (2 * m)
        shape[ax] = n
        return kk.reshape(shape)

    out = np.empty(grid.shape + (m, m), dtype=complex)
    for j in range(m):
        for l in range(m):
            odd = j != l
            d = (1j * k(2 * j, odd) + k(2 * j + 1, odd)) / 2.0
            dbar = (1j * k(2 * l, odd) - k(2 * l + 1, odd)) / 2.0
            out[..., j, l] = np.fft.ifftn(d * dbar * spec)
    return out


@pytest.mark.parametrize("grid", [GridSpec(1, (16,), (1.0, 0.5)),
                                  GridSpec(2, (8,), (1.0, 2.0, 0.5, 1.0))],
                         ids=["m1", "m2"])
def test_ddbar_half_spectrum_matches_full_spectrum_with_nyquist(grid):
    # white noise carries Nyquist content on every axis
    vals = np.random.default_rng(11).standard_normal(grid.shape)
    want = full_spectrum_ddbar(grid, vals)
    got = ddbar(ScalarField(grid, vals)).values
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# --------------------------------------------------------------- ma_density

def test_ma_density_identity_and_diagonal():
    g = grid2(16)
    assert np.allclose(ma_density(HermitianField.scaled_identity(g)).values, 1.0)
    vals = np.zeros(g.shape + (2, 2), dtype=complex)
    vals[..., 0, 0] = 2.0
    vals[..., 1, 1] = 1.0
    assert np.allclose(ma_density(HermitianField(g, vals)).values, 2.0)


def test_ma_density_matches_cofactor_oracle_m3():
    g = GridSpec(3, (8, 8, 8))
    rng = np.random.default_rng(11)
    a = rng.standard_normal(g.shape + (3, 3)) + 1j * rng.standard_normal(g.shape + (3, 3))
    h = a @ np.conj(np.swapaxes(a, -1, -2)) + 3.0 * np.eye(3)
    fld = HermitianField(g, h)
    det = ma_density(fld).values
    c = h[..., 0, 0] * (h[..., 1, 1] * h[..., 2, 2] - h[..., 1, 2] * h[..., 2, 1]) \
        - h[..., 0, 1] * (h[..., 1, 0] * h[..., 2, 2] - h[..., 1, 2] * h[..., 2, 0]) \
        + h[..., 0, 2] * (h[..., 1, 0] * h[..., 2, 1] - h[..., 1, 1] * h[..., 2, 0])
    assert np.max(np.abs(det - c.real)) < 1e-12 * np.max(np.abs(c.real))


@settings(max_examples=25, deadline=None)
@given(st.floats(0.05, 20.0))
def test_ma_density_scaling_law(c):
    g = grid2(8)
    rng = np.random.default_rng(5)
    a = rng.standard_normal(g.shape + (2, 2)) + 1j * rng.standard_normal(g.shape + (2, 2))
    h = a @ np.conj(np.swapaxes(a, -1, -2)) + np.eye(2)
    fld = HermitianField(g, h)
    scaled = ma_density(HermitianField(g, c * h)).values
    assert np.allclose(scaled, c**2 * ma_density(fld).values, rtol=1e-12)


# ---------------------------------------------------------------- trace_wrt

def test_trace_of_metric_against_itself_is_dimension():
    for g in (grid1(16), grid2(8)):
        rng = np.random.default_rng(2)
        m = g.complex_dim
        a = rng.standard_normal(g.shape + (m, m)) + 1j * rng.standard_normal(g.shape + (m, m))
        h = a @ np.conj(np.swapaxes(a, -1, -2)) + 2.0 * np.eye(m)
        fld = HermitianField(g, h)
        tr = trace_wrt(fld, fld).values
        assert np.max(np.abs(tr - m)) < 1e-12


def test_trace_diagonal_frozen_value():
    g = grid2(8)
    vals = np.zeros(g.shape + (2, 2), dtype=complex)
    vals[..., 0, 0], vals[..., 1, 1] = 2.0, 1.0
    om = HermitianField(g, vals)
    eta = HermitianField.scaled_identity(g)
    assert np.allclose(trace_wrt(om, eta).values, 0.5 + 1.0)


def test_trace_matches_explicit_inverse_oracle():
    g = grid2(8)
    rng = np.random.default_rng(9)
    a = rng.standard_normal(g.shape + (2, 2)) + 1j * rng.standard_normal(g.shape + (2, 2))
    h = a @ np.conj(np.swapaxes(a, -1, -2)) + 2.0 * np.eye(2)
    b = rng.standard_normal(g.shape + (2, 2)) + 1j * rng.standard_normal(g.shape + (2, 2))
    e = 0.5 * (b + np.conj(np.swapaxes(b, -1, -2)))
    om, eta = HermitianField(g, h), HermitianField(g, e)
    # oracle: invert the 2x2 by hand, contract, take the real part
    det = h[..., 0, 0] * h[..., 1, 1] - h[..., 0, 1] * h[..., 1, 0]
    inv = np.empty_like(h)
    inv[..., 0, 0], inv[..., 1, 1] = h[..., 1, 1] / det, h[..., 0, 0] / det
    inv[..., 0, 1], inv[..., 1, 0] = -h[..., 0, 1] / det, -h[..., 1, 0] / det
    want = np.einsum("...jk,...kj->...", inv, e).real
    got = trace_wrt(om, eta).values
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def test_trace_linearity_in_second_argument():
    g = grid1(16)
    rng = np.random.default_rng(4)
    h = HermitianField(g, (1.0 + 0.2 * rng.random(g.shape))[..., None, None] + 0j)
    e1 = HermitianField(g, rng.standard_normal(g.shape)[..., None, None] + 0j)
    e2 = HermitianField(g, rng.standard_normal(g.shape)[..., None, None] + 0j)
    lhs = trace_wrt(h, HermitianField(g, 2.0 * e1.values + 3.0 * e2.values)).values
    rhs = 2.0 * trace_wrt(h, e1).values + 3.0 * trace_wrt(h, e2).values
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * (1 + np.max(np.abs(rhs)))


def test_trace_rejects_nonpositive_metric_naming_the_point():
    g = grid1(16)
    vals = np.ones(g.shape + (1, 1), dtype=complex)
    vals[3, 5, 0, 0] = -2.0
    om = HermitianField(g, vals)
    with pytest.raises(PositivityError) as err:
        trace_wrt(om, HermitianField.scaled_identity(g))
    assert "(3, 5)" in str(err.value)
    assert err.value.point == (3, 5)


# --------------------------------------------------------------- ricci_form

def test_ricci_of_flat_metric_vanishes():
    g = grid1(32)
    out = ricci_form(HermitianField.scaled_identity(g, 2.5)).values
    assert np.max(np.abs(out)) < 1e-12


def test_ricci_conformal_oracle():
    # metric e^f * flat has Ricci component -ddbar f; f is low-mode so the
    # spectral truncation error sits at machine precision
    g = grid1(64)
    x, y = coords(g)
    f = 0.1 * np.cos(2 * np.pi * x) + 0.07 * np.sin(2 * np.pi * y)
    om = HermitianField(g, np.exp(f)[..., None, None].astype(complex))
    ric = ricci_form(om).component(0, 0).real
    expected = -ddbar(ScalarField(g, f)).component(0, 0).real
    assert np.max(np.abs(ric - expected)) < 1e-8


def test_ricci_scale_invariance():
    g = grid1(32)
    x, _ = coords(g)
    f = np.exp(0.05 * np.cos(2 * np.pi * x)) * np.ones(g.shape)
    om = HermitianField(g, f[..., None, None].astype(complex))
    r1 = ricci_form(om).values
    r2 = ricci_form(HermitianField(g, 7.0 * om.values)).values
    assert np.max(np.abs(r1 - r2)) < 1e-12


def test_ricci_rejects_nonpositive_density():
    g = grid1(16)
    vals = np.ones(g.shape + (1, 1), dtype=complex)
    vals[0, 0, 0, 0] = -1.0
    with pytest.raises(PositivityError):
        ricci_form(HermitianField(g, vals))


# ------------------------------------------------------------- riemann_norm

def test_riemann_flat_is_zero():
    g = grid1(32)
    out = riemann_norm(HermitianField.scaled_identity(g, 3.0)).values
    assert np.max(np.abs(out)) < 1e-12


def test_riemann_conformal_analytic_oracle():
    # for g = e^f in one complex dimension the norm is |ddbar f| * e^{-f};
    # with f a single cosine that is pi^2 * a * |cos| * e^{-f}
    g = grid1(64)
    x, _ = coords(g)
    a = 0.1
    f = a * np.cos(2 * np.pi * x) * np.ones(g.shape)
    om = HermitianField(g, np.exp(f)[..., None, None].astype(complex))
    got = riemann_norm(om).values
    expected = np.pi**2 * a * np.abs(np.cos(2 * np.pi * x)) * np.exp(-f) * np.ones(g.shape)
    assert np.max(np.abs(got - expected)) < 1e-9


def test_riemann_matches_fd4_oracle_on_perturbed_flat():
    g = grid1(128)
    x, y = coords(g)
    gv = 1.0 + 0.05 * np.cos(2 * np.pi * x) + 0.03 * np.sin(2 * np.pi * y) \
        + 0.02 * np.cos(2 * np.pi * (x + y))
    gv = gv * np.ones(g.shape)
    om = HermitianField(g, gv[..., None, None].astype(complex))
    got = riemann_norm(om).values
    hx, hy = g.spacings
    dg = (fd4_d1(gv, 0, hx) - 1j * fd4_d1(gv, 1, hy)) / 2.0
    dbg = (fd4_d1(gv, 0, hx) + 1j * fd4_d1(gv, 1, hy)) / 2.0
    ddg = (fd4_d2(gv, 0, hx) + fd4_d2(gv, 1, hy)) / 4.0
    r = -ddg + dg * dbg / gv
    want = np.abs(r) / gv**2
    rng = np.random.default_rng(13)
    for _ in range(8):
        i, j = rng.integers(0, 128, size=2)
        assert abs(got[i, j] - want[i, j]) < 1e-4


@settings(max_examples=20, deadline=None)
@given(st.floats(0.1, 10.0))
def test_riemann_inverse_scaling_law(c):
    g = grid1(32)
    x, _ = coords(g)
    f = np.exp(0.1 * np.cos(2 * np.pi * x)) * np.ones(g.shape)
    om = HermitianField(g, f[..., None, None].astype(complex))
    base = riemann_norm(om).values
    scaled = riemann_norm(HermitianField(g, c * om.values)).values
    assert np.max(np.abs(scaled - base / c)) < 1e-10 * np.max(base / c)


def test_riemann_block_product_adds_in_quadrature():
    n = 16
    g2 = GridSpec(2, (n, n))
    g1 = GridSpec(1, (n,))
    x1 = g2.axis_coordinates(0) * np.ones(g2.shape)
    x2 = g2.axis_coordinates(2) * np.ones(g2.shape)
    f1, f2 = 0.1 * np.cos(2 * np.pi * x1), 0.08 * np.sin(2 * np.pi * x2)
    vals = np.zeros(g2.shape + (2, 2), dtype=complex)
    vals[..., 0, 0] = np.exp(f1)
    vals[..., 1, 1] = np.exp(f2)
    got = riemann_norm(HermitianField(g2, vals)).values

    def factor_norm(fvals):
        om = HermitianField(g1, np.exp(fvals)[..., None, None].astype(complex))
        return riemann_norm(om).values

    xa = g1.axis_coordinates(0) * np.ones(g1.shape)
    n1 = factor_norm(0.1 * np.cos(2 * np.pi * xa))   # varies along x only
    n2 = factor_norm(0.08 * np.sin(2 * np.pi * xa))
    want = np.sqrt(n1[:, 0][:, None, None, None] ** 2 + n2[:, 0][None, None, :, None] ** 2)
    want = np.broadcast_to(want, g2.shape)
    assert np.max(np.abs(got - want)) < 1e-8


# ------------------------------------------------------------ fiber_diameter

def test_diameter_flat_unit_torus():
    g = grid1(32)
    d = fiber_diameter(HermitianField.scaled_identity(g))
    assert abs(d - np.sqrt(2.0) / 2.0) < 1e-9          # lattice-exact here
    assert abs(d - np.sqrt(2.0) / 2.0) < 0.05 * d      # contract tolerance


@settings(max_examples=15, deadline=None)
@given(st.floats(0.01, 50.0))
def test_diameter_sqrt_scaling(c):
    g = grid1(16)
    x, _ = np.broadcast_arrays(g.axis_coordinates(0), g.axis_coordinates(1))
    gv = (1.0 + 0.3 * np.cos(2 * np.pi * x)) * np.ones(g.shape)
    om = HermitianField(g, gv[..., None, None].astype(complex))
    d1 = fiber_diameter(om)
    d2 = fiber_diameter(HermitianField(g, c * om.values))
    assert abs(d2 - np.sqrt(c) * d1) < 1e-12 * max(1.0, d2)


def test_diameter_anisotropic_periods_lattice_oracle():
    g = grid1(32, periods=(2.0, 1.0))
    d = fiber_diameter(HermitianField.scaled_identity(g))
    want = np.sqrt(1.0**2 + 0.5**2)  # farthest wrap point of the 2x1 torus
    assert abs(d - want) < 1e-9
    assert abs(d - want) < 0.05 * want


def test_diameter_large_grid_uses_subset_of_sources():
    g = grid1(128)
    d = fiber_diameter(HermitianField.scaled_identity(g, 4.0))
    assert abs(d - 2.0 * np.sqrt(2.0) / 2.0) < 0.05 * d


def test_diameter_rejects_nonpositive_metric():
    g = grid1(16)
    vals = np.ones(g.shape + (1, 1), dtype=complex)
    vals[1, 1, 0, 0] = 0.0
    with pytest.raises(PositivityError):
        fiber_diameter(HermitianField(g, vals))
