"""Spectral differential geometry on sampled tori.

All derivatives are exact on the resolved Fourier modes.  The mixed Wirtinger
second derivative acting on a single complex coordinate z = x + iy is one
quarter of the real Laplacian; on the unit torus the lowest cosine mode maps
to minus pi^2 times itself, which pins every sign convention used here.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .grids import (HermitianField, PositivityError, ScalarField,
                    extreme_eigenvalue)

# relative spread of edge lengths below which fiber_diameter takes an axis as
# free; FFT roundoff leaves 9.2e-14 on the y-invariant flow metric at n=66
_SYMMETRY_TOL = 1e-12


def _grid_axes(grid):
    return tuple(range(2 * grid.complex_dim))


def _nyquist_zeroed(k):
    """An odd wavenumber factor with its Nyquist entry set to zero.

    The Nyquist mode of an even grid is its own mirror image, so an odd
    derivative there has no real-valued meaning; zeroing it keeps a product
    of two such factors even, as the symbol of a real operator must be.
    """
    k = k.copy()
    k.flat[k.size // 2] = 0.0
    return k


@functools.lru_cache(maxsize=None)
def _wirtinger(grid):
    """Fourier multipliers of the Wirtinger derivatives on one grid, cached.

    Returns ``(dz, mixed, half, trace)``.  On the full spectrum of
    ``fftn``, for complex fields: ``dz[j]`` is the symbol of d/dz_j and
    ``mixed[j][k]`` that of d/dz_j d/dzbar_k.  On the half spectrum of
    ``rfftn``, for real potentials: ``half[j][k]`` (j <= k) lists the real
    symbols whose inverse transforms make up component [j, k] of ddbar, the
    diagonal one with its Nyquist value (so ``trace``, their sum, is the
    true quarter-Laplacian -|k|^2/4) and, off the diagonal, the real and
    imaginary parts built from Nyquist-zeroed odd factors.  The arrays are
    shared by every caller, so they are frozen read-only.
    """
    m = grid.complex_dim
    kx = [grid.wavenumbers(2 * j) for j in range(m)]
    ky = [grid.wavenumbers(2 * j + 1) for j in range(m)]
    dz = [(1j * kx[j] + ky[j]) / 2.0 for j in range(m)]
    dzbar = [(1j * kx[j] - ky[j]) / 2.0 for j in range(m)]
    mixed = [[dz[j] * dzbar[k] for k in range(m)] for j in range(m)]

    cut = grid.shape[-1] // 2 + 1

    def halved(sym):
        return np.ascontiguousarray(sym[..., :cut])

    ox = [_nyquist_zeroed(k) for k in kx]
    oy = [_nyquist_zeroed(k) for k in ky]
    half = [[None] * m for _ in range(m)]
    for j in range(m):
        half[j][j] = [halved(mixed[j][j].real)]
        for k in range(j + 1, m):
            odd = (1j * ox[j] + oy[j]) * (1j * ox[k] - oy[k]) / 4.0
            half[j][k] = [halved(odd.real), halved(odd.imag)]
    trace = sum(half[j][j][0] for j in range(m))
    syms = dz + [s for row in mixed for s in row] + [trace]
    syms += [s for j in range(m) for k in range(j, m) for s in half[j][k]]
    for sym in syms:
        sym.setflags(write=False)
    return dz, mixed, half, trace


@functools.lru_cache(maxsize=None)
def _lattice(grid):
    """Topology of the king-move lattice graph on one grid, cached.

    Returns the nonzero offsets, the node index of every grid point and the
    endpoints ``rows``, ``cols`` of every edge, offset-major, frozen
    read-only since every caller shares them.
    """
    offsets = [o for o in itertools.product((-1, 0, 1),
                                            repeat=len(grid.shape)) if any(o)]
    idx = np.arange(math.prod(grid.shape)).reshape(grid.shape)
    rows = np.tile(idx.ravel(), len(offsets))
    cols = np.concatenate([
        np.roll(idx, shift=[-o for o in off], axis=_grid_axes(grid)).ravel()
        for off in offsets])
    for arr in (idx, rows, cols):
        arr.setflags(write=False)
    return offsets, idx, rows, cols


def real_samples(grid, modes):
    """Samples of a real field from its half-spectrum modes, inverse of rfftn."""
    return np.fft.irfftn(modes, s=grid.shape, axes=_grid_axes(grid))


def ddbar_modes(grid, modes):
    """Coefficient array of i*ddbar(f) from the half-spectrum modes of f.

    One inverse real transform per diagonal entry and two per off-diagonal
    pair (one in all when m = 1).  The array is Hermitian by construction,
    so it is returned bare, without the validation of a HermitianField.
    """
    half = _wirtinger(grid)[2]
    m = grid.complex_dim
    out = np.empty(grid.shape + (m, m), dtype=np.complex128)
    for j in range(m):
        out[..., j, j] = real_samples(grid, half[j][j][0] * modes)
        for k in range(j + 1, m):
            re, im = (real_samples(grid, sym * modes) for sym in half[j][k])
            out[..., j, k] = re + 1j * im
            out[..., k, j] = re - 1j * im
    return out


def ddbar_trace_symbol(grid):
    """Half-spectrum multiplier of the trace of ddbar, the quarter-Laplacian."""
    return _wirtinger(grid)[3]


def ddbar(f: ScalarField) -> HermitianField:
    """Mixed complex Hessian of a real potential, computed spectrally.

    Returns the Hermitian coefficient field of i*ddbar(f).  Every component
    is grid-mean-free because the zero mode carries no derivative.
    """
    return HermitianField(f.grid, ddbar_modes(f.grid, np.fft.rfftn(f.values)))


def _det(values):
    if values.shape[-1] == 1:
        return values[..., 0, 0].real.copy()
    return np.linalg.det(values).real


def ma_density(omega: HermitianField) -> ScalarField:
    """Pointwise determinant of the coefficient matrix (top wedge density).

    May be non-positive for indefinite input; callers decide what that means.
    """
    return ScalarField(omega.grid, _det(omega.values))


def log_volume_ratio(values, reference):
    """Pointwise log(det(values) / reference) of a coefficient array.

    NaN wherever the determinant is negative, that is wherever the form has
    left the positive cone; the adaptive stepper rejects such a step.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.log(_det(values) / reference)


class MongeAmpereFlow:
    """Mode-space face of  d(phi)/dt = V(t, omega) - phi  for the stepper.

    The form is omega = B(t) + s(t) ddbar(phi), with ``background(t)``
    giving B, s(t) = exp(t) when ``stiffening`` (a collapsing fiber, whose
    stiffness grows like exp(t)) and 1 otherwise, and ``velocity(t, omega)``
    the pointwise log-volume velocity.  The stiff part handed to the
    exponential frame is (s(t)/scale) times the quarter-Laplacian, minus the
    identity; ``scale`` is the flat part of B.  Modes are the half spectrum
    of ``rfftn``.

    The last form built is kept with the (t, u) it was built for, so an
    attempt's last stage, the margin of its new state and the next step's
    first stage share one ddbar.  The state is matched by identity: the
    stepper never mutates a state after handing it to the problem.
    """

    def __init__(self, grid, scale, background, velocity, stiffening):
        self.grid = grid
        self.scale = scale
        self.background = background
        self.velocity = velocity
        self.stiffening = stiffening
        self._trace_symbol = ddbar_trace_symbol(grid)
        self._last = (None, None, None)

    def symbol_integral(self, t0, t1):
        sweep = math.exp(t1) - math.exp(t0) if self.stiffening else t1 - t0
        return self._trace_symbol * (sweep / self.scale) - (t1 - t0)

    def _form(self, t, u):
        """s(t), ddbar(phi) and omega for the modes u of phi."""
        last_t, last_u, form = self._last
        if last_u is u and last_t == t:
            return form
        s = math.exp(t) if self.stiffening else 1.0
        hess = ddbar_modes(self.grid, u)
        form = s, hess, self.background(t) + s * hess
        self._last = (t, u, form)
        return form

    def nonlinear_modes(self, t, u):
        # the potential itself cancels against the identity in the stiff part;
        # the quarter-Laplacian is the trace of the same ddbar array
        s, hess, omega = self._form(t, u)
        lap = np.einsum("...kk->...", hess).real
        return np.fft.rfftn(self.velocity(t, omega) - (s / self.scale) * lap)

    def kaehler_margin(self, t, u):
        """Smallest eigenvalue of omega relative to the flat scale."""
        eig = extreme_eigenvalue(self._form(t, u)[2], largest=False)
        return float(np.min(eig)) / self.scale


def trace_wrt(omega: HermitianField, eta: HermitianField) -> ScalarField:
    """Trace of eta against the metric omega, pointwise g^{jk} eta_{jk}."""
    omega.require_positive("trace_wrt")
    x = np.linalg.solve(omega.values, eta.values)
    tr = np.einsum("...kk->...", x).real
    return ScalarField(omega.grid, tr)


def ricci_form(omega: HermitianField) -> HermitianField:
    """Ricci form -ddbar log det(g), spectral, scale invariant."""
    dens = ma_density(omega)
    worst = np.unravel_index(np.argmin(dens.values), dens.values.shape)
    if dens.values[worst] <= 0.0:
        raise PositivityError(
            f"ricci_form needs positive density: {dens.values[worst]:.6e} "
            f"at grid point {tuple(int(i) for i in worst)}",
            point=tuple(int(i) for i in worst), value=float(dens.values[worst]))
    return ddbar(ScalarField(omega.grid, -np.log(dens.values)))


def riemann_norm(omega: HermitianField) -> ScalarField:
    """Pointwise norm of the curvature tensor of a Kaehler metric.

    Components R[j,a,l,m] = -d_a dbar_l g_{jm} + g^{pq} (d_a g_{jq})(dbar_l g_{pm})
    are contracted in an orthonormal frame on every slot (Frobenius norm), so
    scaling the metric by c scales the result by 1/c.
    """
    grid = omega.grid
    dz, mixed, _, _ = _wirtinger(grid)
    omega.require_positive("riemann_norm")
    m = grid.complex_dim
    axes = _grid_axes(grid)
    g = omega.values
    spec = np.fft.fftn(g, axes=axes)

    dg = np.stack([np.fft.ifftn(dz[a][..., None, None] * spec, axes=axes)
                   for a in range(m)], axis=-3)
    # dbar_l g_{jq} = conj(d_l g_{qj}) by Hermitian symmetry of the metric
    dbg = np.conj(np.swapaxes(dg, -1, -2))
    ddg = np.stack([
        np.stack([np.fft.ifftn(mixed[a][l][..., None, None] * spec, axes=axes)
                  for l in range(m)], axis=-3)
        for a in range(m)], axis=-4)

    gup = np.conj(np.linalg.inv(g))  # gup[p,q] = g^{pq}
    second = np.einsum("...pq,...ajq,...lpm->...jalm", gup, dg, dbg)
    riem = -np.einsum("...aljm->...jalm", ddg) + second

    chol = np.linalg.cholesky(g)
    frame = np.conj(np.swapaxes(np.linalg.inv(chol), -1, -2))
    s = np.einsum("...jalm,...jA,...aB,...lC,...mD->...ABCD",
                  riem, frame, frame, np.conj(frame), np.conj(frame))
    norm = np.sqrt(np.sum(np.abs(s) ** 2, axis=(-4, -3, -2, -1)))
    return ScalarField(grid, norm)


def fiber_diameter(omega: HermitianField) -> float:
    """Graph-metric diameter of the torus under the given metric field.

    Edges are king moves, each as long as the mean quadratic form of its
    endpoints.  An axis is free when every edge length is constant along it
    within a relative ``_SYMMETRY_TOL``; Dijkstra runs from one source per
    orbit of the translations along free axes, from every node if none is.
    Such a translation stretches each edge, hence each eccentricity, by at
    most r, the product over free axes of the largest max/min edge ratio
    along it, so the largest distance D found obeys D <= diameter <= r D,
    with r <= 1 + 1e-12 per free axis and r = 1 for an exact symmetry.
    Scaling the metric by c scales the result by sqrt(c) exactly.
    """
    omega.require_positive("fiber_diameter")
    h = omega.grid.spacings
    axes = _grid_axes(omega.grid)
    offsets, idx, rows, cols = _lattice(omega.grid)
    weights = []
    for off in offsets:
        w = np.array([off[a] * h[a] + 1j * off[a + 1] * h[a + 1]
                      for a in axes[::2]])
        q = np.einsum("...jk,j,k->...", omega.values, w, np.conj(w)).real
        q_nb = np.roll(q, shift=[-o for o in off], axis=axes)
        weights.append(np.sqrt(0.5 * (q + q_nb)))
    weights = np.stack(weights)
    free = [np.all(weights.max(axis=a + 1)
                   <= (1.0 + _SYMMETRY_TOL) * weights.min(axis=a + 1))
            for a in axes]
    sources = idx[tuple(slice(0, 1) if f else slice(None) for f in free)]
    graph = csr_matrix((weights.ravel(), (rows, cols)), shape=(idx.size,) * 2)
    return float(np.max(dijkstra(graph, directed=True,
                                 indices=sources.ravel())))
