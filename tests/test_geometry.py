"""Oracle tests for the spectral geometry kernel.

Expected values are frozen from independent routes: trigonometric identities,
finite-difference stencils on the sampled data, closed-form curvatures,
lattice shortest-path reasoning, and an all-sources Dijkstra on a graph built
edge by edge.  The module under test must reproduce them, not the
other way around.  The operators take bare sample arrays; the trace and
Ricci arithmetic their callers write inline is tested where it runs, in the
Newton linearisation, the fiber-flow monitors and the twisted identity.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from collapse_lab import geometry, grids

from collapse_lab.flow import diagnostics_for, spectral_problem
from collapse_lab.grids import GridSpec, HermitianField, PositivityError, ScalarField
from collapse_lab.geometry import (
    ddbar,
    fiber_diameter,
    half_modes,
    real_samples,
    riemann_norm,
)
from collapse_lab.gke import (
    gke_residual,
    krylov_matvec,
    twisted_einstein_residual,
)
from collapse_lab.models import FiberFlowSpec, GkeTestbedSpec


def grid1(n=64):
    return GridSpec(1, (n,))


def coords(grid):
    return np.broadcast_arrays(grid.axis_coordinates(0),
                               grid.axis_coordinates(1))


def test_grid_and_metric_have_one_complex_dimension():
    with pytest.raises(ValueError, match="one complex dimension"):
        GridSpec(2, (8,))
    with pytest.raises(ValueError, match="one resolution"):
        GridSpec(1, (8, 8))
    assert GridSpec(1, (8,)).shape == (8, 8)
    g = grid1(8)
    with pytest.raises(ValueError, match="real"):
        HermitianField(g, np.ones(g.shape, dtype=complex))
    # samples over the grid or a y-profile of them, nothing else
    for field in (ScalarField, HermitianField):
        for shape in (g.shape, (8, 1)):
            assert field(g, np.ones(shape)).values.shape == shape
        for shape in (g.shape + (1, 1), (1, 8), (8, 2)):
            with pytest.raises(ValueError, match="shape"):
                field(g, np.ones(shape))
    with pytest.raises(ValueError, match="shape"):
        ScalarField(g, 2.0)


def test_scalar_samples_must_be_real():
    # casting would drop the imaginary part, with at most a warning
    g = grid1(8)
    for values in (np.ones(g.shape) + 1e-3j, [[1.0 + 0.0j]] * 8):
        with pytest.raises(ValueError, match="real"):
            ScalarField(g, values)


def test_a_constant_is_a_y_profile():
    g = grid1(8)
    field = ScalarField.constant(g, 2.5)
    assert field.values.shape == (8, 1)
    assert np.all(field.values == 2.5)
    # so is the flat background metric a testbed builds without eta
    sigma = GkeTestbedSpec(g, density=field, flat_scale=2.5).sigma_form()
    assert sigma.shape == (8, 1)
    assert np.all(sigma == 2.5)


def test_a_profile_plus_a_full_field_is_the_widened_sum():
    # profile data (background and density) meeting a full-width potential
    # in the residual's sums read as their widened copies, bit for bit
    g = grid1(8)
    x, y = coords(g)
    dens = 1.0 + 0.1 * np.cos(2 * np.pi * x[:, :1])
    u = 0.002 * np.sin(2 * np.pi * (x + y))
    profile = GkeTestbedSpec(g, density=ScalarField(g, dens))
    widened = GkeTestbedSpec(g, eta=ScalarField(g, np.zeros(g.shape)),
                             density=ScalarField(g, dens * np.ones(g.shape)))
    assert profile.sigma_form().shape == (8, 1)
    assert widened.sigma_form().shape == g.shape
    got, want = (gke_residual(tb, u) for tb in (profile, widened))
    assert got.shape == g.shape
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------- FD oracles

def fd4_d1(vals, axis, h):
    """Fourth-order periodic central first derivative."""
    r = lambda s: np.roll(vals, -s, axis=axis)
    return (-r(2) + 8 * r(1) - 8 * r(-1) + r(-2)) / (12.0 * h)


def fd4_d2(vals, axis, h):
    """Fourth-order periodic central second derivative."""
    r = lambda s: np.roll(vals, -s, axis=axis)
    return (-r(2) + 16 * r(1) - 30 * vals + 16 * r(-1) - r(-2)) / (12.0 * h * h)


def fd_ddbar(vals, grid):
    """FD oracle for the mixed Wirtinger second derivative, Delta/4."""
    hx, hy = grid.spacings
    return (fd4_d2(vals, 0, hx) + fd4_d2(vals, 1, hy)) / 4.0


# -------------------------------------------------------------------- ddbar

def test_ddbar_single_cosine_frozen_value():
    g = grid1(64)
    x, _ = coords(g)
    out = ddbar(g, np.cos(2 * np.pi * x))
    expected = -np.pi**2 * np.cos(2 * np.pi * x)  # (1/4)(fxx+fyy) of cos(2 pi x)
    assert np.max(np.abs(out - np.broadcast_to(expected, g.shape))) < 1e-12 * np.pi**2


def test_ddbar_product_mode_frozen_value_and_fd():
    g = grid1(256)
    x, y = coords(g)
    vals = np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
    out = ddbar(g, vals)
    expected = -2.0 * np.pi**2 * vals  # symbolic: (1/4)(-4pi^2 - 4pi^2) f
    assert np.max(np.abs(out - expected)) < 1e-10
    fd = fd_ddbar(vals, g)
    rng = np.random.default_rng(7)
    for _ in range(5):
        i, j = rng.integers(0, 256, size=2)
        assert abs(out[i, j] - fd[i, j]) < 1e-6


def test_ddbar_constant_is_zero_and_mean_free():
    g = grid1(32)
    out = ddbar(g, np.full((32, 1), 4.2))
    assert np.max(np.abs(out)) == 0.0
    rng = np.random.default_rng(3)
    assert abs(np.mean(ddbar(g, rng.standard_normal(g.shape)))) < 1e-13


def full_spectrum_ddbar(grid, vals):
    """Independent ddbar through fftn and fftfreq wavenumbers."""
    k = [2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / n) for n in grid.shape]
    d = (1j * k[0][:, None] + k[1][None, :]) / 2.0
    dbar = (1j * k[0][:, None] - k[1][None, :]) / 2.0
    return np.fft.ifftn(d * dbar * np.fft.fftn(vals)).real


def test_ddbar_half_spectrum_matches_full_spectrum_with_nyquist():
    # white noise carries Nyquist content on every axis
    grid = GridSpec(1, (16,))
    vals = np.random.default_rng(11).standard_normal(grid.shape)
    want = full_spectrum_ddbar(grid, vals)
    got = ddbar(grid, vals)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [8, 16, 64, 128])
def test_transform_pair_is_rfftn_bit_for_bit_on_a_field_and_a_stack(n):
    grid = GridSpec(1, (n,))
    fields = np.random.default_rng(n).standard_normal((3,) + grid.shape)
    want = np.stack([np.fft.rfftn(f) for f in fields])
    for got, ref in ((half_modes(grid, fields[0]), want[0]),
                     (half_modes(grid, fields), want)):
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
    back = np.stack([np.fft.irfftn(m, s=grid.shape, axes=(0, 1))
                     for m in want])
    for got, ref in ((real_samples(grid, want[0]), back[0]),
                     (real_samples(grid, want), back)):
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


def full_width(grid, modes):
    """Modes widened to the grid's whole half spectrum with exact-zero
    ky != 0 columns, as a y-profile leaves them out."""
    full = np.zeros(modes.shape[:-1] + (grid.shape[1] // 2 + 1,),
                    dtype=complex)
    full[..., :modes.shape[-1]] = modes
    return full


def profile_pair_cases(n):
    """Three fields constant along y on an n-grid, their ky = 0 columns of
    rfftn, and what irfftn makes of those columns with zeros beside them."""
    grid = GridSpec(1, (n,))
    cols = np.random.default_rng(n).standard_normal((3, n, 1))
    fields = np.broadcast_to(cols, (3,) + grid.shape)
    modes = np.stack([np.fft.rfftn(f) for f in fields])[..., :1]
    back = np.stack([np.fft.irfftn(full_width(grid, m), s=grid.shape,
                                   axes=(0, 1))
                     for m in modes])[..., :1]
    return grid, cols, modes, back


@pytest.mark.parametrize("n", [8, 12, 16, 24, 32, 64, 96, 128])
def test_profile_pair_is_the_ky0_column_bit_for_bit(n):
    grid, cols, modes, back = profile_pair_cases(n)
    for got, ref in ((half_modes(grid, cols[0]), modes[0]),
                     (half_modes(grid, cols), modes),
                     (real_samples(grid, modes[0]), back[0]),
                     (real_samples(grid, modes), back)):
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", [10, 18, 20, 50])
def test_profile_pair_is_the_ky0_column_to_roundoff_at_other_n(n):
    # pocketfft's sum of n equal values need not be n times the value here
    grid, cols, modes, back = profile_pair_cases(n)
    for got, ref in ((half_modes(grid, cols), modes),
                     (real_samples(grid, modes), back)):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


# -------------------------------------------------------------------- trace
# The trace of a form against a metric, its product with the inverse metric
# 1/g, runs inline: in the q monitor and in the Newton linearisation
# krylov_matvec, the trace of ddbar(v) less v.

def positive_field(g, seed, lo=0.5, hi=2.0):
    return np.random.default_rng(seed).uniform(lo, hi, g.shape)


def test_trace_of_metric_against_itself_is_dimension():
    # at t = 0 the evolving fiber metric is the initial one, so the q
    # monitor's trace of one in the other is 1 and, with a0 = 1 (no base
    # relaxation, no mean shift), q = log(1 + 1) - phi
    g = grid1(16)
    x, _ = coords(g)
    phi = 0.01 * np.sin(2 * np.pi * x)
    spec = FiberFlowSpec(grid=g, b0=1.5, initial_potential=ScalarField(g, phi))
    table = diagnostics_for(spec, spectral_problem(spec)[0], [0.0],
                            half_modes(g, phi)[None], with_diameter=False)
    want = np.max(np.abs(math.log(2.0) - phi))
    assert abs(table["q_sup"][0] - want) < 1e-15


def test_trace_diagonal_frozen_value():
    # ddbar cos(2 pi x) = -pi^2 cos(2 pi x), traced against g = 2
    g = grid1(8)
    c = np.cos(2 * np.pi * g.axis_coordinates(0))
    got = krylov_matvec(g, np.full((8, 1), 2.0), c)
    want = (-0.5 * np.pi**2 - 1.0) * c
    assert np.max(np.abs(got - want)) < 1e-12 * np.pi**2


def test_trace_matches_explicit_inverse_oracle():
    # oracle: divide by the metric coefficient, the inverse of a 1x1 matrix
    g = grid1(8)
    om = positive_field(g, 9)
    v = np.random.default_rng(10).standard_normal(g.shape)
    want = ddbar(g, v) / om - v
    got = krylov_matvec(g, om, v)
    assert np.max(np.abs(got - want)) < 1e-15 * np.max(np.abs(want))


def test_trace_linearity_in_second_argument():
    g = grid1(16)
    rng = np.random.default_rng(4)
    h = 1.0 + 0.2 * rng.random(g.shape)
    e1, e2 = rng.standard_normal((2, *g.shape))
    lhs = krylov_matvec(g, h, 2.0 * e1 + 3.0 * e2)
    rhs = 2.0 * krylov_matvec(g, h, e1) + 3.0 * krylov_matvec(g, h, e2)
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * (1 + np.max(np.abs(rhs)))


def spike(g, point, height):
    """Samples zero but at one grid point: their ddbar dips most there."""
    vals = np.zeros(g.shape)
    vals[point] = height
    return vals


def test_background_rejects_nonpositive_metric_naming_the_point():
    # the Newton solve starts from zero, on the background 1 + ddbar(eta),
    # which is checked where the testbed forms it.  At its own point the
    # ddbar of a spike of height h is h times the mean of the symbol
    # -(kx^2 + ky^2)/4 over the grid
    g = grid1(16)
    k = 2 * np.pi * np.fft.fftfreq(16, d=1.0 / 16)
    want = 1.0 - 0.01 * np.mean(k ** 2) / 2.0
    with pytest.raises(PositivityError) as err:
        GkeTestbedSpec(g, eta=ScalarField(g, spike(g, (3, 5), 0.01)),
                       density=ScalarField.constant(g, 1.0))
    assert "in background metric" in str(err.value)
    assert "(3, 5)" in str(err.value)
    assert err.value.point == (3, 5)
    assert err.value.value == pytest.approx(want, rel=1e-12)


# -------------------------------------------------------------------- ricci
# The Ricci form -ddbar log g runs inline in the twisted identity.

def test_ricci_of_flat_metric_vanishes():
    # flat data solved by a constant: every Ricci form of the identity
    # vanishes and its defect with them
    g = grid1(32)
    tb = GkeTestbedSpec(g, density=ScalarField.constant(g, 2.0),
                        flat_scale=2.5)
    assert np.max(np.abs(ddbar(g, -np.log(tb.sigma_form())))) < 1e-12
    u = np.full((32, 1), -math.log(2.0))
    assert twisted_einstein_residual(tb, u) < 1e-12


def test_ricci_conformal_oracle():
    # metric e^f * flat has Ricci component -ddbar f; f is low-mode so the
    # spectral truncation error sits at machine precision
    g = grid1(64)
    x, y = coords(g)
    f = 0.1 * np.cos(2 * np.pi * x) + 0.07 * np.sin(2 * np.pi * y)
    ric = ddbar(g, -np.log(np.exp(f)))
    expected = -ddbar(g, f)
    assert np.max(np.abs(ric - expected)) < 1e-8


def test_ricci_scale_invariance():
    g = grid1(32)
    x, _ = coords(g)
    om = np.exp(0.05 * np.cos(2 * np.pi * x)) * np.ones(g.shape)
    r1 = ddbar(g, -np.log(om))
    r2 = ddbar(g, -np.log(7.0 * om))
    assert np.max(np.abs(r1 - r2)) < 1e-12


def test_positivity_of_a_stack_names_its_first_failing_metric():
    # the 2nd and 3rd metrics leave the cone; the error is the 2nd's, at its
    # worst point, as the check of that metric alone gives it
    g = grid1(8)
    stack = np.ones((3,) + g.shape)
    stack[1, 3, 4], stack[1, 6, 1] = -2.0, -0.5
    stack[2, 0, 0] = -9.0
    with pytest.raises(PositivityError) as alone:
        grids.require_positive(stack[1], "stack")
    with pytest.raises(PositivityError) as err:
        grids.require_positive(stack, "stack")
    assert err.value.point == alone.value.point == (3, 4)
    assert err.value.value == alone.value.value == -2.0
    assert str(err.value) == str(alone.value)
    # a NaN sample is the worst point of its metric and is not positive
    stack[1, 5, 2] = math.nan
    with pytest.raises(PositivityError) as err:
        grids.require_positive(stack, "stack")
    assert err.value.point == (5, 2) and math.isnan(err.value.value)
    grids.require_positive(stack[:1], "stack")


def test_ricci_rejects_nonpositive_density():
    # a potential whose metric leaves the cone has no Ricci form
    g = grid1(16)
    tb = GkeTestbedSpec(g, density=ScalarField.constant(g, 1.0))
    with pytest.raises(PositivityError) as err:
        twisted_einstein_residual(tb, spike(g, (0, 0), 0.01))
    assert "in twisted identity" in str(err.value)
    assert err.value.point == (0, 0)


# ------------------------------------------------------------- riemann_norm

def test_riemann_flat_is_zero():
    g = grid1(32)
    out = riemann_norm(g, np.full((32, 1), 3.0))
    assert np.max(np.abs(out)) < 1e-12


@pytest.mark.parametrize("width", [1, 16])
def test_curvature_norm_of_a_stack_is_riemann_norm_of_each(width):
    # the monitors read the norm over a stack of metrics, bit for bit
    g = grid1(16)
    rng = np.random.default_rng(3)
    stack = 1.0 + 0.1 * rng.uniform(-1.0, 1.0, (3, 16, width))
    got = riemann_norm(g, stack)
    for metric, norm in zip(stack, got):
        want = riemann_norm(g, metric)
        assert norm.tobytes() == want.tobytes()


def test_riemann_conformal_analytic_oracle():
    # for g = e^f in one complex dimension the norm is |ddbar f| * e^{-f};
    # with f a single cosine that is pi^2 * a * |cos| * e^{-f}
    g = grid1(64)
    x, _ = coords(g)
    a = 0.1
    f = a * np.cos(2 * np.pi * x) * np.ones(g.shape)
    got = riemann_norm(g, np.exp(f))
    expected = np.pi**2 * a * np.abs(np.cos(2 * np.pi * x)) * np.exp(-f) * np.ones(g.shape)
    assert np.max(np.abs(got - expected)) < 1e-9


def test_riemann_matches_fd4_oracle_on_perturbed_flat():
    g = grid1(128)
    x, y = coords(g)
    gv = 1.0 + 0.05 * np.cos(2 * np.pi * x) + 0.03 * np.sin(2 * np.pi * y) \
        + 0.02 * np.cos(2 * np.pi * (x + y))
    gv = gv * np.ones(g.shape)
    got = riemann_norm(g, gv)
    hx, hy = g.spacings
    dg = (fd4_d1(gv, 0, hx) - 1j * fd4_d1(gv, 1, hy)) / 2.0
    dbg = (fd4_d1(gv, 0, hx) + 1j * fd4_d1(gv, 1, hy)) / 2.0
    r = -fd_ddbar(gv, g) + dg * dbg / gv
    want = np.abs(r) / gv**2
    assert np.max(np.abs(got - want)) < 1e-4


@pytest.mark.parametrize("b0", [1.0, 3.0])
def test_riemann_single_mode_closed_form(b0):
    # the fiber-flow start metric g = b0 (1 - pi^2 eps sin 2 pi x) has
    # ddbar g = b0 pi^4 eps sin and |dg|^2 = b0^2 pi^6 eps^2 cos^2, so
    # R = -ddbar g + |dg|^2 / g in closed form; -ddbar log g is R / g too,
    # but log g is not band-limited and its spectral ddbar at n = 16 misses
    # by 1e-2 relative
    g, eps = grid1(16), 0.08
    x, _ = coords(g)
    s, c = np.sin(2 * np.pi * x), np.cos(2 * np.pi * x)
    gv = b0 * (1.0 - np.pi**2 * eps * s) * np.ones(g.shape)
    r = -b0 * np.pi**4 * eps * s + (b0 * np.pi**3 * eps * c) ** 2 / gv
    want = np.abs(r) / gv**2
    got = riemann_norm(g, gv)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)
    log_route = np.abs(ddbar(g, np.log(gv))) / gv
    assert np.max(np.abs(log_route - want)) > 1e-3 * np.max(want)


@settings(max_examples=20, deadline=None)
@given(st.floats(0.1, 10.0))
def test_riemann_inverse_scaling_law(c):
    g = grid1(32)
    x, _ = coords(g)
    om = np.exp(0.1 * np.cos(2 * np.pi * x)) * np.ones(g.shape)
    base = riemann_norm(g, om)
    scaled = riemann_norm(g, c * om)
    assert np.max(np.abs(scaled - base / c)) < 1e-10 * np.max(base / c)


# ------------------------------------------------------------ fiber_diameter

def test_diameter_flat_unit_torus():
    g = grid1(32)
    d = fiber_diameter(g, np.ones((32, 1)))
    assert abs(d - np.sqrt(2.0) / 2.0) < 1e-9          # lattice-exact here
    assert abs(d - np.sqrt(2.0) / 2.0) < 0.05 * d      # contract tolerance


@settings(max_examples=15, deadline=None)
@given(st.floats(0.01, 50.0))
def test_diameter_sqrt_scaling(c):
    g = grid1(16)
    x, _ = np.broadcast_arrays(g.axis_coordinates(0), g.axis_coordinates(1))
    gv = (1.0 + 0.3 * np.cos(2 * np.pi * x)) * np.ones(g.shape)
    d1 = fiber_diameter(g, gv)
    d2 = fiber_diameter(g, c * gv)
    assert abs(d2 - np.sqrt(c) * d1) < 1e-12 * max(1.0, d2)


def test_diameter_large_grid_is_exact():
    g = grid1(128)
    d = fiber_diameter(g, np.full((128, 1), 4.0))
    assert abs(d - np.sqrt(2.0)) < 1e-12


def test_diameter_fiber_flow_initial_form_at_n128():
    # a 16-source farthest-point sample gave 0.7473278517029077 here
    g = grid1(128)
    d = fiber_diameter(g, sine_metric(g))
    assert abs(d - 0.7474029912114724) < 1e-12 * d


def test_diameter_fiber_flow_initial_profile_at_n128():
    # the layered sweep of the profile reads what Dijkstra reads on the grid
    g = grid1(128)
    d = fiber_diameter(g, sine_metric(g, profile=True))
    assert abs(d - 0.7474029912114724) < 1e-12 * d


def all_sources_diameter(grid, omega):
    """Exhaustive oracle: the king-move graph built edge by edge, every node
    a Dijkstra source."""
    shape, (hx, hy) = grid.shape, grid.spacings
    values = np.broadcast_to(omega, shape)
    nodes = list(np.ndindex(*shape))
    index = {p: k for k, p in enumerate(nodes)}
    rows, cols, data = [], [], []
    for p in nodes:
        for off in itertools.product((-1, 0, 1), repeat=len(shape)):
            if not any(off):
                continue
            q = tuple((a + o) % n for a, o, n in zip(p, off, shape))
            w = off[0] * hx + 1j * off[1] * hy
            form = [values[x] * abs(w) ** 2 for x in (p, q)]
            rows.append(index[p])
            cols.append(index[q])
            data.append(np.sqrt(0.5 * (form[0] + form[1])))
    graph = csr_matrix((data, (rows, cols)), shape=(len(nodes),) * 2)
    return float(np.max(dijkstra(graph, directed=True)))


def sine_metric(g, amp=0.05, profile=False):
    """The fiber-flow initial form: flat plus ddbar of a sine along x, over
    the grid or as its y-profile."""
    x = g.axis_coordinates(0) if profile else coords(g)[0]
    return 1.0 + ddbar(g, amp * np.sin(2 * np.pi * x))


def perturbed(omega, delta, seed=0):
    noise = np.random.default_rng(seed).uniform(-1.0, 1.0, omega.shape)
    return omega * (1.0 + delta * noise)


@pytest.fixture
def source_counts(monkeypatch):
    """Number of Dijkstra sources of each fiber_diameter call."""
    counts = []

    def counting(graph, **kwargs):
        counts.append(np.size(kwargs["indices"]))
        return dijkstra(graph, **kwargs)

    monkeypatch.setattr(geometry, "_dijkstra", counting)
    return counts


def test_diameter_invariant_metric_matches_all_sources(source_counts):
    g = grid1(16)
    om = sine_metric(g)
    want = all_sources_diameter(g, om)
    assert abs(fiber_diameter(g, om) - want) < 1e-12 * want
    assert source_counts == [16]


def test_diameter_perturbed_metric_takes_every_source(source_counts):
    # an axis is free only under an exact symmetry, so relative noise as
    # small as 1e-13 leaves none
    g = grid1(16)
    for delta in (1e-13, 1e-6):
        om = perturbed(sine_metric(g), delta)
        want = all_sources_diameter(g, om)
        assert abs(fiber_diameter(g, om) - want) < 1e-12 * want
    assert source_counts == [16 * 16] * 2


@settings(max_examples=10, deadline=None)
@given(st.sampled_from((8, 10, 12)), st.integers(0, 2**32 - 1))
def test_diameter_random_metric_matches_all_sources(n, seed):
    g = grid1(n)
    rng = np.random.default_rng(seed)
    om = np.exp(rng.uniform(-1.0, 1.0, g.shape))
    want = all_sources_diameter(g, om)
    assert abs(fiber_diameter(g, om) - want) < 1e-12 * want


def test_diameter_flat_torus_profile_runs_no_dijkstra(source_counts):
    g, om = grid1(32), np.full((32, 1), 2.0)
    d = fiber_diameter(g, om)
    assert source_counts == []
    want = all_sources_diameter(g, om)
    assert abs(d - want) < 1e-12 * want


@pytest.mark.parametrize("n", [16, 66])
def test_diameter_fiber_flow_profile_runs_no_dijkstra(n, source_counts):
    # a profile is swept in layers; its broadcast copy is free along y, so
    # Dijkstra runs from one source per row, and the two agree bit for bit
    g = grid1(n)
    om = sine_metric(g, profile=True)
    d = fiber_diameter(g, om)
    assert source_counts == []
    assert d == fiber_diameter(g, np.broadcast_to(om, g.shape))
    assert source_counts == [n]
    if n <= 16:
        want = all_sources_diameter(g, om)
        assert abs(d - want) < 1e-12 * want


@settings(max_examples=25, deadline=None)
@given(st.sampled_from((8, 10, 12, 16, 24)), st.integers(1, 3),
       st.floats(-8.0, 4.0), st.integers(0, 2**32 - 1))
def test_diameter_of_a_profile_stack_is_dijkstras_bit_for_bit(n, size, decade,
                                                              seed):
    g = grid1(n)
    rng = np.random.default_rng(seed)
    stack = 10.0 ** decade * np.exp(rng.uniform(-3.0, 3.0, (size, n, 1)))
    got = fiber_diameter(g, stack)
    assert got.shape == (size,)
    for metric, d in zip(stack, got):
        assert d == fiber_diameter(g, np.broadcast_to(metric, g.shape))
        want = all_sources_diameter(g, metric)
        assert abs(d - want) <= 1e-12 * want


@pytest.mark.parametrize("width", [1, 16])
def test_diameter_of_a_stack_is_that_of_each_metric(width):
    g = grid1(16)
    rng = np.random.default_rng(5)
    stack = np.exp(rng.uniform(-1.0, 1.0, (3, 16, width)))
    got = fiber_diameter(g, stack)
    assert [float(d) for d in got] == [fiber_diameter(g, m) for m in stack]


@pytest.mark.parametrize("n", [16, 66])
def test_diameter_of_a_profile_is_that_of_its_broadcast_copy(n):
    g = grid1(n)
    om = sine_metric(g, profile=True)
    wide = np.broadcast_to(om, g.shape)
    assert fiber_diameter(g, om) == fiber_diameter(g, wide)


def sweep_budget(samples, n):
    """A profile sweep budget of ``samples`` samples' worth at size n."""
    return samples * 8 * n ** 2 * 8


def test_a_chunked_profile_sweep_is_one_sweep_bit_for_bit(monkeypatch):
    # a budget of three samples' worth cuts ten samples into 3, 3, 3 and 1
    g = grid1(16)
    stack = np.exp(np.random.default_rng(11).uniform(-2.0, 2.0, (10, 16, 1)))
    whole = geometry._sweep_diameters(g, stack[:, :, 0])
    assert fiber_diameter(g, stack).tobytes() == whole.tobytes()
    chunks, sweep = [], geometry._sweep_diameters

    def recorded(grid, g):
        chunks.append(len(g))
        return sweep(grid, g)

    monkeypatch.setattr(geometry, "_SWEEP_BYTES", sweep_budget(3, 16))
    monkeypatch.setattr(geometry, "_sweep_diameters", recorded)
    assert fiber_diameter(g, stack).tobytes() == whole.tobytes()
    assert chunks == [3, 3, 3, 1]


def test_the_profile_sweep_peak_stops_growing_with_the_sample_count(
        monkeypatch):
    # with a budget of four samples' worth, 16 samples and 64 peak alike,
    # where one sweep of 64 would hold four times what one of 16 holds
    n = 32
    monkeypatch.setattr(geometry, "_SWEEP_BYTES", sweep_budget(4, n))
    peaks = []
    for size in (16, 64):
        rng = np.random.default_rng(size)
        stack = np.exp(rng.uniform(-1.0, 1.0, (size, n, 1)))
        tracemalloc.start()
        try:
            fiber_diameter(grid1(n), stack)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.1 * peaks[0]


def nonpositive_metric_error(operator):
    g = grid1(16)
    vals = np.ones(g.shape)
    vals[1, 1] = 0.0
    with pytest.raises(PositivityError) as err:
        operator(g, vals)
    assert err.value.point == (1, 1) and err.value.value == 0.0
    return str(err.value)


def test_diameter_rejects_nonpositive_metric():
    assert "in fiber_diameter" in nonpositive_metric_error(fiber_diameter)


def test_diameter_of_a_profile_stack_names_its_first_nonpositive_metric():
    stack = np.ones((3, 16, 1))
    stack[1, 5, 0] = 0.0
    stack[2, 3, 0] = -1.0
    with pytest.raises(PositivityError, match="in fiber_diameter") as err:
        fiber_diameter(grid1(16), stack)
    assert err.value.point == (5, 0) and err.value.value == 0.0


def test_riemann_rejects_nonpositive_metric():
    # the two metric operators check their samples once, on entry
    assert "in riemann_norm" in nonpositive_metric_error(riemann_norm)
