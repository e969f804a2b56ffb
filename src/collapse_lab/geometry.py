"""Spectral differential geometry on periodic grids.

All derivatives are exact on the resolved Fourier modes.  The mixed Wirtinger
second derivative acting on a single complex coordinate z = x + iy is one
quarter of the real Laplacian; on the unit torus the lowest cosine mode maps
to minus pi^2 times itself, which pins every sign convention used here.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

from .grids import (GridSpec, HermitianField, PositivityError, ScalarField,
                    extreme_eigenvalue)

# graphs up to this many nodes get the exhaustive all-sources diameter
_ALL_SOURCES_LIMIT = 4096
_FPS_SOURCES = 16


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
    if not grid.periodic:
        raise ValueError("spectral operator called on a non-periodic patch grid")
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

    The last form built is kept with the (t, u) it was built for, so the
    margin of an accepted step and the next step's first stage share one
    ddbar.  The state is matched by identity: the stepper never mutates a
    state after handing it to the problem.
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


def _edge_offsets(m):
    """All nonzero king-move offsets on the 2m-dimensional lattice."""
    ranges = [(-1, 0, 1)] * (2 * m)
    grids = np.meshgrid(*ranges, indexing="ij")
    offs = np.stack([a.ravel() for a in grids], axis=1)
    return [tuple(int(v) for v in o) for o in offs if any(o)]


def _metric_graph(omega: HermitianField):
    """Sparse edge-weight matrix of the 8-neighbour (king move) lattice graph."""
    grid = omega.grid
    m = grid.complex_dim
    h = grid.spacings
    n = int(np.prod(grid.shape))
    idx = np.arange(n).reshape(grid.shape)
    rows, cols, data = [], [], []
    for off in _edge_offsets(m):
        w = np.array([off[2 * j] * h[2 * j] + 1j * off[2 * j + 1] * h[2 * j + 1]
                      for j in range(m)])
        q = np.einsum("...jk,j,k->...", omega.values, w, np.conj(w)).real
        q_nb = np.roll(q, shift=[-o for o in off], axis=_grid_axes(grid))
        weight = np.sqrt(0.5 * (q + q_nb))
        rows.append(idx.ravel())
        cols.append(np.roll(idx, shift=[-o for o in off], axis=_grid_axes(grid)).ravel())
        data.append(weight.ravel())
    mat = coo_matrix((np.concatenate(data),
                      (np.concatenate(rows), np.concatenate(cols))), shape=(n, n))
    return mat.tocsr()


def _farthest_point_sources(graph, count):
    """Deterministic farthest-point sampling in the graph metric itself."""
    sources = [0]
    dist = dijkstra(graph, directed=True, indices=0)
    while len(sources) < count:
        nxt = int(np.argmax(dist))
        if nxt in sources:
            break
        sources.append(nxt)
        dist = np.minimum(dist, dijkstra(graph, directed=True, indices=nxt))
    return sources


def fiber_diameter(omega: HermitianField) -> float:
    """Graph-metric diameter of the torus under the given metric field.

    Edge lengths average the quadratic form of the two endpoints; the source
    set is exhaustive on small grids and farthest-point sampled on large
    ones.  Scaling the metric by c scales the result by sqrt(c) exactly.
    """
    omega.require_positive("fiber_diameter")
    graph = _metric_graph(omega)
    n = graph.shape[0]
    if n <= _ALL_SOURCES_LIMIT:
        dist = dijkstra(graph, directed=True)
    else:
        sources = _farthest_point_sources(graph, _FPS_SOURCES)
        dist = dijkstra(graph, directed=True, indices=sources)
    return float(np.max(dist))
