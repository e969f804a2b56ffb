"""Adaptive time stepping in an exponential frame.

The flows integrated here have a stiff linear part whose mode-wise
antiderivative is available in closed form, and a smooth nonlinear
remainder. Conjugating an explicit Runge-Kutta pair by the exact linear
propagator removes the stiffness from the stability constraint:
pure exponential decay is reproduced to rounding at any step size, and
modes that collapse below the floating-point floor land on exact zeros
instead of oscillating.

Problems supply ``symbol_integral(t0, t1)`` (the integral of the linear
symbol per mode), ``nonlinear_modes(t, u)`` (the remainder in mode space,
always an array, or 0.0 where there is none), and optionally
``kaehler_margin(t, u)``; when a margin is exposed, steps that slash it by
more than a factor of ten are rejected so the state cannot jump out of the
positive cone between samples.

The scheme is the Lawson transform of the Dormand-Prince 5(4) pair
(Dormand & Prince, J. Comput. Appl. Math. 6, 1980; Hochbruck & Ostermann,
Acta Numerica 19, 2010): the fifth-order solution is kept, and the error
is the max-abs of h * sum_j e_j E(c_j -> 1) N_j, where N_j are the stages,
E(c_j -> 1) the propagator from stage j's node to the end of the step and
e = b - b_hat.  So it also sees the quadrature error of the integrating
factor when the remainder does not depend on the state.  The seventh stage is the
remainder at the new state, so it is the next step's first (FSAL).

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
stiff modes stay exact zeros once they underflow.  For the potential
flows of :class:`collapse_lab.geometry.MongeAmpereFlow` on the torus fiber
one evaluation is one real-to-complex FFT pair: an inverse one for ddbar of
the potential and a forward one back to mode space.

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
    sample_modes: list
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


def _attempt(problem, t, end, u, n1):
    """One step from (t, u) to end; n1 is the remainder at (t, u).

    Returns the fifth-order state, the remainder there and the error
    estimate.  Both stages at node 1 are taken at ``end`` itself, not at
    t + h, so the last one sees the new state at the time it is kept for.
    """
    h = end - t
    here, base, stages = t, u, [n1]
    for c, c_prev, row in zip(_C[1:], _C, _A):
        if c != c_prev:
            there = end if c == 1.0 else t + c * h
            prop = np.exp(problem.symbol_integral(here, there))
            base = prop * base
            stages = [prop * n for n in stages]
            here = there
        state = base + h * sum(a * n for a, n in zip(row, stages) if a)
        stages.append(problem.nonlinear_modes(here, state))
    err = h * float(np.max(np.abs(sum(e * n for e, n in zip(_E, stages)
                                      if e))))
    return state, stages[-1], err


def _step_factor(err, tol):
    """What the controller scales a step by after its error estimate err:
    FAC_MAX when err is 0 and FAC_MIN when err is not finite."""
    if err == 0.0:
        return FAC_MAX
    if not np.isfinite(err):
        return FAC_MIN
    return min(FAC_MAX, max(FAC_MIN, SAFETY * (tol / err) ** 0.2))


def integrate_lawson(problem, u0, t0, sample_times, tol=1e-8):
    """March modes from t0 through the sorted sample times; return the state
    at each.  The march ends at the last sample time.

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

    out = []
    for target in req:
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
        out.append(u.copy())

    return IntegrationResult(sample_modes=out, accepted=accepted,
                             rejected=rejected)
