"""Spectral differential geometry on the sampled torus fiber.

All derivatives are exact on the resolved Fourier modes.  The mixed Wirtinger
second derivative d/dz d/dzbar of z = x + iy is one quarter of the real
Laplacian; on the unit torus the lowest cosine mode maps to minus pi^2 times
itself, which pins every sign convention used here.  A metric is the positive
coefficient g of i g dz ^ dzbar (see :mod:`collapse_lab.grids`), so its
determinant, inverse and traces are pointwise scalar arithmetic, which
callers write inline.

A field that is constant along y may be held as its y-profile: the (n, 1)
column of its samples at y = 0, whose modes are the (n, 1) ky = 0 column of
the half spectrum.  The transform pair and every operator here work at the
width of the data they are given, so a march whose data are all profiles
runs on profiles, and its monitors read them as they are.  Every operator
takes bare sample arrays, with the grid wherever it differentiates, and a
transform takes a stack of fields at once; the two metric operators,
``riemann_norm`` and ``fiber_diameter``, take a stack of metrics and check
positivity once on entry.

``fiber_diameter`` measures the king-move lattice graph of a metric.  On a
y-profile it runs an exact layered sweep by net y-offset, in numpy alone
and for a stack at once, a chunk of samples at a time under a fixed
memory budget, whose distances match Dijkstra's bit for bit; a full-width
metric keeps scipy's Dijkstra, imported on first use.
"""

import functools
import itertools
import math

import numpy as np

from .grids import require_positive


def _nyquist_zeroed(k):
    """An odd wavenumber factor with its Nyquist entry set to zero.

    The Nyquist mode of an even grid is its own mirror image, so an odd
    derivative there has no real-valued meaning.
    """
    k = k.copy()
    k.flat[k.size // 2] = 0.0
    return k


@functools.lru_cache(maxsize=None)
def _symbols(grid):
    """Fourier multipliers on the half spectrum of ``half_modes``, cached.

    Returns ``(lap, dx, dy)``: ``lap`` is the symbol of d/dz d/dzbar, the
    quarter-Laplacian -|k|^2/4 with its Nyquist value, formed as the product
    of the symbols (i kx + ky)/2 of d/dz and (i kx - ky)/2 of d/dzbar; ``dx``
    and ``dy`` are those of the real first derivatives, Nyquist-zeroed.  The
    arrays are shared by every caller, so they are frozen read-only.
    """
    kx, ky = grid.wavenumbers(0), grid.wavenumbers(1)
    cut = grid.shape[1] // 2 + 1
    lap = np.ascontiguousarray(((1j * kx + ky) * (1j * kx - ky)).real
                               [:, :cut] / 4.0)
    dx = 1j * _nyquist_zeroed(kx)
    dy = 1j * _nyquist_zeroed(ky)[:, :cut]
    for sym in (lap, dx, dy):
        sym.setflags(write=False)
    return lap, dx, dy


@functools.lru_cache(maxsize=None)
def _lattice(grid):
    """Topology of the king-move lattice graph on one grid, cached.

    Returns the nonzero offsets, the node index of every grid point and the
    endpoints ``rows``, ``cols`` of every edge, offset-major, frozen
    read-only since every caller shares them.
    """
    offsets = [o for o in itertools.product((-1, 0, 1), repeat=2) if any(o)]
    idx = np.arange(math.prod(grid.shape)).reshape(grid.shape)
    rows = np.tile(idx.ravel(), len(offsets))
    cols = np.concatenate([
        np.roll(idx, shift=(-off[0], -off[1]), axis=(0, 1)).ravel()
        for off in offsets])
    for arr in (idx, rows, cols):
        arr.setflags(write=False)
    return offsets, idx, rows, cols


def half_modes(grid, values, out=None):
    """Half-spectrum modes of real samples over their last two axes.

    These are the modes ``np.fft.rfftn`` gives over axes (0, 1), bit for
    bit: a real pass along y, then a complex one along x.  A y-profile,
    samples of width 1, maps to the ky = 0 column of those modes with one
    pass along x of n times itself, the sum of its n equal values along y.
    A stack of fields is transformed in one call.  Given ``out``, a complex
    array of the modes' shape, the pass along x is written there, and
    ``out`` holds the modes.  With ``real_samples`` this is the lab's one
    real transform pair.
    """
    if values.shape[-1] == 1:
        return np.fft.fft(grid.shape[1] * values, axis=-2, out=out)
    return np.fft.fft(np.fft.rfft(values, axis=-1), axis=-2, out=out)


def real_samples(grid, modes, out=None):
    """Samples of real fields from their half-spectrum modes over the last
    two axes, the inverse of ``half_modes``: a complex pass along x, then a
    real one along y, bit for bit ``np.fft.irfftn`` over axes (0, 1).  The
    ky = 0 column alone gives the y-profile, the real part of its pass
    along x over n.  Given ``out``, a complex array of the modes' shape,
    ``modes`` itself included, the pass along x is written there, and a
    y-profile's samples are its real part, scaled in place."""
    passed = np.fft.ifft(modes, axis=-2, out=out)
    if modes.shape[-1] == 1:
        return np.multiply(passed.real, 1.0 / grid.shape[1],
                           out=None if out is None else passed.real)
    return np.fft.irfft(passed, n=grid.shape[1], axis=-1)


def ddbar_modes(grid, modes):
    """Coefficient samples of i*ddbar(f) from the half-spectrum modes of f.

    One inverse real transform, at the width of ``modes``; the result is
    real by construction.
    """
    return real_samples(grid, _symbols(grid)[0][:, :modes.shape[-1]] * modes)


def ddbar_symbol(grid):
    """Half-spectrum multiplier of ddbar, the quarter-Laplacian."""
    return _symbols(grid)[0]


def ddbar(grid, values):
    """Mixed complex Hessian of real potential samples, computed spectrally.

    Returns the coefficient samples of i*ddbar(f), at the width of
    ``values``, a stack at once.  They are grid-mean-free because the zero
    mode carries no derivative.
    """
    return ddbar_modes(grid, half_modes(grid, values))


def log_volume_ratio(values, reference):
    """Pointwise log(values / reference) of metric coefficient samples.

    NaN wherever the coefficient is negative, that is wherever the form has
    left the positive cone; the adaptive stepper rejects such a step.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.log(values / reference)


class MongeAmpereFlow:
    """Mode-space face of  d(phi)/dt = V - phi  for the stepper, held as data.

    The form is omega = sigma + exp(-t) rho + s(t) ddbar(phi), on a flat
    ``sigma`` > 0 with ``rho`` the samples, or a constant, of a decaying
    excess, and s(t) = exp(t) when ``stiffening`` (a collapsing fiber, whose
    stiffness grows like exp(t)) and 1 otherwise; the velocity is
    V = log(omega / sigma) + shift(t), ``shift`` a float of t.  Each is one
    expression, ``_omega`` and ``_velocity``, which the march evaluates at
    one t and ``read`` over a stack with (S, 1, 1) columns of the same
    ``math`` scalars, so a read sample is bit for bit what the march saw.
    The stiff part handed to the exponential frame is (s(t)/sigma) times
    the quarter-Laplacian, minus the identity.  Modes are the half spectrum
    of ``half_modes``, cut to its first ``width`` columns: all n/2 + 1 of
    them, or 1 for a march on y-profiles, where rho is a profile or a
    constant.  Modes of another width raise ``ValueError``.

    The last form built is kept with the (t, u) it was built for, so an
    attempt's last stage, the margin of its new state and the next step's
    first stage share one ddbar.  The state is matched by identity: the
    stepper never mutates a state after handing it to the problem.  Its
    ddbar goes through one scratch array of the problem's: the symbol's
    product with u, then the inverse transform's pass along x, in place,
    whose real part is ddbar at width 1, so the kept form's ddbar lives
    there until the next form is built.  ``nonlinear_modes(t, u, out)``
    writes the remainder's modes into ``out``, the march's stage row.
    Outside the positive cone the velocity is NaN; the march's errstate
    keeps that silent, and ``read`` enters one of its own.
    """

    def __init__(self, grid, sigma, rho, shift, stiffening, width):
        self.grid, self.sigma, self.rho, self.shift = grid, sigma, rho, shift
        self.stiffening = stiffening
        self._symbol = ddbar_symbol(grid)[:, :width]
        # ddbar's modes, then its pass along x, for the form being built
        self._scratch = np.empty(self._symbol.shape, dtype=complex)
        self._last = (None, None, None)

    def _stiffness(self, t):
        return math.exp(t) if self.stiffening else 1.0

    def _omega(self, decay, s, hess):
        return self.sigma + decay * self.rho + s * hess

    def _velocity(self, omega, shift):
        velocity = np.log(omega / self.sigma)
        velocity += shift
        return velocity

    def _check_width(self, u):
        if u.shape[-1] != self._symbol.shape[-1]:
            raise ValueError(f"modes of width {u.shape[-1]} on a problem of "
                             f"width {self._symbol.shape[-1]}")

    def symbol_integral(self, t0, t1):
        sweep = math.exp(t1) - math.exp(t0) if self.stiffening else t1 - t0
        return self._symbol * (sweep / self.sigma) - (t1 - t0)

    def _form(self, t, u):
        """s(t), ddbar(phi) and omega for the modes u of phi."""
        last_t, last_u, form = self._last
        if last_u is u and last_t == t:
            return form
        self._check_width(u)
        s = self._stiffness(t)
        modes = np.multiply(self._symbol, u, out=self._scratch)
        hess = real_samples(self.grid, modes, out=modes)
        form = s, hess, self._omega(math.exp(-t), s, hess)
        self._last = (t, u, form)
        return form

    def nonlinear_modes(self, t, u, out=None):
        # the potential itself cancels against the identity in the stiff part;
        # the quarter-Laplacian is the same ddbar array
        s, hess, omega = self._form(t, u)
        velocity = self._velocity(omega, self.shift(t))
        velocity -= (s / self.sigma) * hess
        return half_modes(self.grid, velocity, out=out)

    def kaehler_margin(self, t, u):
        """Smallest metric coefficient of omega relative to sigma."""
        return float(self._form(t, u)[2].min()) / self.sigma

    def read(self, times, modes):
        """phi, omega and V - phi at the S sample times of a march, from the
        (S, n, w) stack of its modes there, in one inverse transform."""
        self._check_width(modes)
        ts = np.asarray(times, dtype=float).tolist()
        decay, s, shift = (np.array([fn(t) for t in ts])[:, None, None]
                           for fn in (lambda t: math.exp(-t), self._stiffness,
                                      self.shift))
        phi, hess = real_samples(self.grid,
                                 np.stack([modes, self._symbol * modes]))
        omega = self._omega(decay, s, hess)
        # NaN where omega has left the cone, as the march reads it
        with np.errstate(invalid="ignore", divide="ignore"):
            velocity = self._velocity(omega, shift)
        return phi, omega, velocity - phi


def riemann_norm(grid, g):
    """Pointwise norm of the curvature tensor of a Kaehler metric.

    ``g`` holds the coefficient samples of the metric over its last two
    axes, a stack of metrics at once.  The one component is
    R = -ddbar g + |dg|^2 / g, with |dg|^2 = (g_x^2 + g_y^2) / 4, and its
    norm in a unit frame is |R| / g^2, so scaling the metric by c scales the
    result by 1/c.  Every derivative is taken of g itself: R / g is also
    -ddbar log g, but log g carries modes that g does not, and at n = 16
    their truncation moves the norm by 1e-2 relative.  The symbols are cut
    to the width of the modes of g, so a y-profile's y-derivative is
    exactly zero.
    """
    require_positive(g, "riemann_norm")
    modes = half_modes(grid, g)
    lap, dx, dy = (sym[:, :modes.shape[-1]] for sym in _symbols(grid))
    gx, gy, hess = real_samples(grid, np.stack([dx * modes, dy * modes,
                                                lap * modes]))
    curv = 0.25 * (gx * gx + gy * gy) / g - hess
    return np.abs(curv) / (g * g)


def _edge_lengths(g, g_nb, off, spacings):
    """Lengths of the king move ``off`` between samples g and g_nb at its
    ends: the square root of the mean of g |dz|^2 there.  Both paths of
    ``fiber_diameter`` take every length from this one expression."""
    step = (off[0] * spacings[0]) ** 2 + (off[1] * spacings[1]) ** 2
    return np.sqrt(0.5 * (g * step + g_nb * step))


def _dijkstra(graph, **kwargs):
    """scipy's shortest paths, imported on first use so that importing the
    package loads numpy and nothing heavier."""
    from scipy.sparse.csgraph import dijkstra
    return dijkstra(graph, **kwargs)


def _dijkstra_diameter(grid, g):
    """Diameter of one full-width metric: Dijkstra from one source per
    orbit of the translations along the free axes."""
    from scipy.sparse import csr_matrix
    offsets, idx, rows, cols = _lattice(grid)
    weights = np.stack([
        _edge_lengths(g, np.roll(g, shift=(-off[0], -off[1]), axis=(0, 1)),
                      off, grid.spacings)
        for off in offsets])
    free = [np.all(weights.max(axis=a + 1) == weights.min(axis=a + 1))
            for a in (0, 1)]
    sources = idx[tuple(slice(0, 1) if f else slice(None) for f in free)]
    graph = csr_matrix((weights.ravel(), (rows, cols)), shape=(idx.size,) * 2)
    return np.max(_dijkstra(graph, directed=True, indices=sources.ravel()))


# the memory budget of one layered sweep of y-profiles (_profile_diameters)
_SWEEP_BYTES = 64 * 2 ** 20


def _profile_diameters(grid, g):
    """Diameters of a stack of y-profiles, from the (S, n) array of their
    samples along x, by the layered sweep of ``fiber_diameter``, a chunk of
    samples at a time.  The sweep holds about six n x n float arrays per
    sample at its peak; a chunk takes as many samples as fit in
    ``_SWEEP_BYTES``, 64 MiB, at eight such arrays each, and at least one:
    64 samples at n = 128, whose sweep peaks near 50 MiB.  The samples do
    not mix, so the diameters are those of one sweep over the whole stack,
    bit for bit."""
    chunk = max(1, _SWEEP_BYTES // (8 * g.shape[-1] ** 2 * g.itemsize))
    diameters = np.empty(len(g))
    for i in range(0, len(g), chunk):
        diameters[i:i + chunk] = _sweep_diameters(grid, g[i:i + chunk])
    return diameters


def _sweep_diameters(grid, g):
    """Diameters of the (S, n) stack of y-profiles g by the layered sweep,
    in one pass.  A layer is laid out (row, sample, source row), so that
    one row is one block.  Within a layer a shortest path runs along x one
    way only, as one that turns back repeats a node, so the closure runs
    forward on one copy and backward on a copy with its rows reversed,
    each twice around the circle, and keeps the smaller."""
    n, width = grid.shape
    up = np.roll(g, -1, axis=-1)

    def lengths(g_nb, off):
        return _edge_lengths(g, g_nb, off, grid.spacings).T[:, :, None]

    along_y, along_x, diagonal = (lengths(g, (0, 1)), lengths(up, (1, 0)),
                                  lengths(up, (1, 1)))
    # the x-move into row i from row i - 1, forward and on the reversed copy
    into = np.stack([np.roll(along_x, 1, axis=0), along_x[::-1]], axis=1)
    layer = np.full((n, len(g), n), np.inf)
    layer[np.arange(n), :, np.arange(n)] = 0.0
    sweep = np.empty((n, 2) + layer.shape[1:])
    step = np.empty(sweep.shape[1:])
    diameter = np.zeros(len(g))
    for k in range(width // 2 + 1):
        if k:
            entered = layer + along_y
            np.minimum(entered, np.roll(layer + diagonal, 1, axis=0),
                       out=entered)
            np.minimum(entered, np.roll(layer, -1, axis=0) + diagonal,
                       out=entered)
            layer = entered
        sweep[:, 0], sweep[:, 1] = layer, layer[::-1]
        for i in itertools.chain(range(n), range(n)):
            np.add(sweep[i - 1], into[i], out=step)
            np.minimum(sweep[i], step, out=sweep[i])
        layer = np.minimum(sweep[:, 0], sweep[::-1, 1])
        np.maximum(diameter, np.max(layer, axis=(0, 2)), out=diameter)
    return diameter


def fiber_diameter(grid, g):
    """Graph-metric diameter of the torus under the metric samples g.

    Edges are king moves, each as long as the mean of g |dz|^2 at its
    endpoints.  ``g`` holds the samples over its last two axes, a stack of
    metrics at once: one metric gives a float, a stack an array of the
    diameters.  Scaling the metric by c scales the result by sqrt(c).

    A y-profile is swept in layers, in numpy alone.  Every edge length
    depends only on the rows it joins, so a shortest path never moves both
    up and down in y: taking the y-part out of one move each way keeps its
    end and shortens it, a y-move vanishing and a diagonal becoming an
    x-move.  A net y-offset k beyond n/2 has a shorter twin of offset
    k - n, which turns n - k of the y-parts round and takes the others
    out.  So layer k, the distances at offset k from every source row, is
    entered from layer k - 1 by a y-move or a diagonal and closed under
    x-moves around the x circle, for k = 0 ... n/2, and the diameter is
    the max over the layers.  The removals only drop or shorten terms of a
    left-to-right sum, which rounding keeps monotone, so this holds in
    floating point too.  Each relaxation is min(d[v], d[u] + w(u, v)) with
    the lengths of ``_edge_lengths``, so every distance is the one
    floating-point fixpoint d[v] = min over u of d[u] + w(u, v), which
    scipy's Dijkstra reaches too: the result is the same bit for bit.  A
    stack costs about (n/2 + 1) 4n small numpy calls per chunk of samples
    (``_profile_diameters``), whatever the chunk's size.

    A full-width metric keeps scipy's Dijkstra, metric by metric.  An axis
    is free when every edge length is exactly equal along it, and Dijkstra
    runs from one source per orbit of the translations along free axes,
    from every node if none is, so that result is the exact graph diameter
    too.
    """
    require_positive(g, "fiber_diameter")
    stack = g.reshape((-1,) + g.shape[-2:])
    if g.shape[-1] == 1:
        diameters = _profile_diameters(grid, stack[:, :, 0])
    else:
        diameters = np.array([_dijkstra_diameter(grid, metric)
                              for metric in stack])
    return float(diameters[0]) if g.ndim == 2 else \
        diameters.reshape(g.shape[:-2])
