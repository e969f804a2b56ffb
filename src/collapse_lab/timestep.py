"""Adaptive time stepping in an exponential frame.

The flows integrated here have a stiff linear part whose mode-wise
antiderivative is available in closed form, and a smooth nonlinear
remainder. Conjugating an explicit Runge-Kutta pair by the exact linear
propagator removes the stiffness from the stability constraint:
pure exponential decay is reproduced to rounding at any step size, and
modes that collapse below the floating-point floor land on exact zeros
instead of oscillating.

Problems supply ``symbol_integral(t0, t1)`` (the integral of the linear
symbol per mode), ``nonlinear_modes(t, u, out=None)`` (the remainder in
mode space, an array of u's shape, zeros where there is none; given
``out``, a complex array of that shape, it is written there and ``out``
is returned), and optionally ``kaehler_margin(t, u)``; when a margin is
exposed, steps that slash it by more than a factor of ten are rejected so
the state cannot jump out of the positive cone between samples.  A
remainder that has left its domain, the log of a metric outside the
positive cone say, reads NaN, and the attempt is rejected for it.  The
march takes every remainder, propagator and margin under one
``np.errstate(invalid="ignore", divide="ignore")``, entered once per
march and restored when it returns or raises, so a problem enters none of
its own, and a caller who evaluates a remainder outside a march supplies
its own if it wants that NaN silent.

The scheme is the Lawson transform of the Dormand-Prince 5(4) pair
(Dormand & Prince, J. Comput. Appl. Math. 6, 1980; Hochbruck & Ostermann,
Acta Numerica 19, 2010): the fifth-order solution is kept, and the error
is the max-abs of h * sum_j e_j E(c_j -> 1) N_j, where N_j are the stages,
E(c_j -> 1) the propagator from stage j's node to the end of the step and
e = b - b_hat.  So it also sees the quadrature error of the integrating
factor when the remainder does not depend on the state.  The seventh
stage is the remainder at the new state, so it is the next step's first
(FSAL).

The tolerance ``tol`` bounds that max-abs in the units of the state: for
the potential flows, the unnormalised half-spectrum modes of
:func:`collapse_lab.geometry.half_modes` (``rfftn``'s, no 1/n^2), or
their ky = 0 column for a march on y-profiles.  On an n x n grid a single
Fourier mode of sample amplitude A reads A n^2 / 2 there and the mean
reads n^2 times itself, so one ``tol`` asks n = 64 for 16 times the
sample-space accuracy it asks of n = 16.

Step sizes follow the elementary controller of a 5(4) pair (Hairer,
Norsett & Wanner, Solving ODEs I, section II.4): after a step of length h
with error estimate err, the next is h * fac with
fac = min(5, max(0.2, 0.9 * (tol / err)**(1/5))), and fac = 5 when err is
0.  That holds after an acceptance and after a rejection for error alike;
a rejection for the Kaehler margin halves h instead.  The exponential frame
absorbs the stiffness, so on the collapsing flows err falls far below tol
at late times and the step is bounded only by the sample times it must
land on.  A march ends at its last sample time, and the states at the
sample times are its only output.

Cost: a march of n attempts makes 1 + 6n remainder evaluations: one at
its start, then 6 per attempt, accepted or rejected.  Each attempt takes 5
propagators, one per interval between the consecutive nodes 0, 1/5, 3/10,
4/5, 8/9 and 1.  The state and the earlier stages are carried from node to
node by multiplying by each interval's propagator, never by dividing, so
stiff modes stay exact zeros once they underflow.  The seven stages of an
attempt are one (7, *shape) stack: each interval's propagator rescales the
earlier stages with one in-place multiply, each stage's state is one
contraction over the stack, scaled by h and added to the carried state in
place, and its remainder is written straight into its row of the stack;
the error is one more contraction.  All of it is elementwise over the
state's shape, so the work of an attempt scales with the state's size.
For the potential flows of :class:`collapse_lab.geometry.MongeAmpereFlow`
on the torus fiber one evaluation is one transform pair: ``real_samples``
for ddbar of the potential, through a scratch array of the problem's, and
``half_modes`` back to mode space, into the stage's row.  The state is
the n x (n/2 + 1) half spectrum, or its n x 1 ky = 0 column for a march
whose data are y-profiles; then each transform is one pass along x, and
the stages, propagators and pointwise arithmetic are n/2 + 1 times
smaller.  At those sizes an evaluation costs its numpy calls, not their
arithmetic, so the march makes as few as the operations allow: every
floating-point operation is the one a direct transcription of the scheme
makes, in the same order and on the same operands.

The stepper never mutates a state after handing it to the problem, so a
problem may recognise a state it has seen by identity.
"""

from dataclasses import dataclass

import numpy as np

# safety factor and bounds of the step-size ratio (module docstring)
SAFETY = 0.9
FAC_MIN = 0.2
FAC_MAX = 5.0
# first step size and stiffness-breakdown floor of the step size
DT_INIT = 1e-2
DT_MIN = 1e-12


class StiffnessError(RuntimeError):
    """Step size collapsed below the floor without an acceptable step."""


@dataclass
class IntegrationResult:
    sample_modes: np.ndarray  # (S, *shape): the state at each sample time
    accepted: int
    rejected: int


# Dormand-Prince 5(4): the nodes of the seven stages, the rows of stages
# 2..7 (the last row is the fifth-order weights b) and e = b - b_hat
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525,
      -1 / 40)
# the rows of _A and then e, zero-padded to 7 x 7: row k - 1 weighs the
# stages 0..k-1 that the state of stage k is built from, and the last row
# weighs all seven into the error
_WEIGHTS = np.array([row + (0.0,) * (7 - len(row)) for row in _A + (_E,)])


def _attempt(problem, t, end, u, n1):
    """One step from (t, u) to end; n1 is the remainder at (t, u).

    Returns the fifth-order state, the remainder there and the error
    estimate.  Both stages at node 1 are taken at ``end`` itself, not at
    t + h, so the last one sees the new state at the time it is kept for.
    Each contraction over the stage stack's real view adds the weighted
    stages in stage order, as a sum over a list of them would.
    """
    h = end - t
    here, base = t, u
    stages = np.empty((7,) + u.shape, dtype=complex)
    real = stages.view(float)
    stages[0] = n1
    for k, (c, c_prev) in enumerate(zip(_C[1:], _C), start=1):
        if c != c_prev:
            there = end if c == 1.0 else t + c * h
            prop = np.exp(problem.symbol_integral(here, there))
            base = prop * base
            stages[:k] *= prop
            here = there
        state = np.einsum("j,j...->...", _WEIGHTS[k - 1, :k],
                          real[:k]).view(complex)
        state *= h
        state += base
        problem.nonlinear_modes(here, state, out=stages[k])
    mix = np.einsum("j,j...->...", _WEIGHTS[-1], real)
    err = h * float(np.abs(mix.view(complex)).max())
    return state, stages[-1], err


def _step_factor(err, tol):
    """What the controller scales a step by after its error estimate err:
    FAC_MAX when err is 0 and FAC_MIN when err is not finite."""
    if err == 0.0:
        return FAC_MAX
    if not np.isfinite(err):
        return FAC_MIN
    return min(FAC_MAX, max(FAC_MIN, SAFETY * (tol / err) ** 0.2))


# the march's one errstate: a remainder outside its domain reads NaN
# silently, and the attempt is rejected for it (module docstring)
@np.errstate(invalid="ignore", divide="ignore")
def integrate_lawson(problem, u0, t0, sample_times, tol=1e-8):
    """March modes from t0 through the sorted sample times; return the
    (S, *shape) stack of the states there.  The march ends at the last
    sample time.

    Each attempt costs 6 remainder evaluations and 5 propagators; the first
    stage is the last stage of the step before, and a rejected attempt
    keeps it for the retry. The controller of the module docstring sizes
    each step. Sample times are landed on exactly; a step cut short to land
    on one is followed by the larger of the step it was cut from and
    h * fac, so a landing does not shrink the next step. A step that would
    stop less than ``DT_MIN`` short of a sample time is stretched onto it,
    so no accepted step is shorter than ``DT_MIN`` unless t0 and the sample
    times themselves lie closer together than that.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    u = np.array(u0, dtype=complex)
    t = float(t0)
    req = [float(s) for s in sample_times]
    if not req or req != sorted(req) or req[0] < t or req[-1] <= t:
        raise ValueError(f"sample times must be sorted, none before t0={t0} "
                         "and the last after it")

    margin_fn = getattr(problem, "kaehler_margin", None)
    prev_margin = margin_fn(t, u) if margin_fn else None
    dt = DT_INIT
    accepted = rejected = 0
    n1 = problem.nonlinear_modes(t, u)

    out = np.empty((len(req),) + u.shape, dtype=complex)
    for i, target in enumerate(req):
        while t < target:
            short = target - t < dt
            end = target if dt >= target - t - DT_MIN else t + dt

            new, n_new, err = _attempt(problem, t, end, u, n1)
            h, fac = end - t, _step_factor(err, tol)
            ok = err <= tol
            new_margin = None
            if ok and margin_fn is not None:
                new_margin = margin_fn(end, new)
                ok = new_margin > 0.1 * prev_margin
            if not ok:
                rejected += 1
                # an error rejection retries at h * fac, a margin one at h / 2
                dt = h * (0.5 if err <= tol else fac)
                if dt < DT_MIN:
                    raise StiffnessError(
                        f"stiffness breakdown: step size {dt:.3e} fell below "
                        f"{DT_MIN:.3e} at t={t:.6f}")
                continue

            t, u, n1 = end, new, n_new
            accepted += 1
            prev_margin = new_margin
            # a step cut short to land on a sample does not shrink the next
            dt = max(dt, h * fac) if short else h * fac
        out[i] = u

    return IntegrationResult(sample_modes=out, accepted=accepted,
                             rejected=rejected)
