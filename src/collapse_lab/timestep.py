"""Adaptive time stepping in an exponential frame.

The flows integrated here have a stiff linear part whose mode-wise
antiderivative is available in closed form, and a smooth nonlinear
remainder. Conjugating the classical fourth-order scheme by the exact
linear propagator removes the stiffness from the stability constraint:
pure exponential decay is reproduced to rounding at any step size, and
modes that collapse below the floating-point floor land on exact zeros
instead of oscillating.

Problems supply ``symbol_integral(t0, t1)`` (the integral of the linear
symbol per mode), ``nonlinear_modes(t, u)`` (the remainder in mode space,
always an array, or 0.0 where there is none), and optionally
``kaehler_margin(t, u)``; when a margin is exposed, steps that slash it by
more than a factor of ten are rejected so the state cannot jump out of the
positive cone between samples.

Cost: an accepted step takes 11 remainder evaluations (4 for the full
step and 4 for each half step, less the first stage the full step and the
first half step share) and a rejected one 10, since the first stage at the
unchanged (t, u) is kept for the retry. Each attempt takes 4 propagators,
one per quarter interval; the full step's are their products. For the
potential flows of :class:`collapse_lab.geometry.MongeAmpereFlow` one
evaluation is one real-to-complex FFT pair at complex dimension 1: an
inverse one for ddbar of the potential and a forward one back to mode
space.

The stepper never mutates a state after handing it to the problem, so a
problem may recognise a state it has seen by identity.
"""

from dataclasses import dataclass

import numpy as np

# a step whose error estimate is this many times below tol doubles dt
GROW_MARGIN = 50.0
# first step size, stiffness-breakdown floor and ceiling of the step size
DT_INIT = 1e-2
DT_MIN = 1e-12
DT_MAX = 0.25


class StiffnessError(RuntimeError):
    """Step size collapsed below the floor without an acceptable step."""


@dataclass
class IntegrationResult:
    final_modes: np.ndarray
    sample_times: tuple
    sample_modes: list
    accepted: int
    rejected: int


def _propagators(problem, t, h):
    """Linear propagators over the two halves of the interval [t, t + h]."""
    return (np.exp(problem.symbol_integral(t, t + 0.5 * h)),
            np.exp(problem.symbol_integral(t + 0.5 * h, t + h)))


def lawson_step(problem, t, u, h, n1=None, props=None):
    """One fourth-order step of size h in the exponential frame.

    ``n1`` is the first stage, the remainder at (t, u); pass it when it is
    already known, since it does not depend on h.  ``props`` are the
    propagators of ``_propagators(problem, t, h)``, when already known.
    """
    e1, e3 = _propagators(problem, t, h) if props is None else props
    e2 = e1 * e3
    if n1 is None:
        n1 = problem.nonlinear_modes(t, u)
    n2 = problem.nonlinear_modes(t + 0.5 * h, e1 * (u + 0.5 * h * n1))
    n3 = problem.nonlinear_modes(t + 0.5 * h, e1 * u + 0.5 * h * n2)
    e2u = e2 * u
    n4 = problem.nonlinear_modes(t + h, e2u + h * e3 * n3)
    return e2u + (h / 6.0) * (e2 * n1 + 2.0 * e3 * (n2 + n3) + n4)


def integrate_lawson(problem, u0, t0, t1, sample_times=(), tol=1e-8,
                     on_accept=None):
    """March modes from t0 to t1 with step doubling and margin guarding.

    The error estimate compares one full step against two half steps; the
    half-step result is the one kept; the full step and the first half step
    share their first stage, which a rejected attempt also keeps for the
    retry. Requested sample times are landed on exactly.
    ``on_accept(t, modes)`` fires after every accepted step.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    u = np.array(u0, dtype=complex)
    t = float(t0)
    if t1 <= t:
        raise ValueError("need t1 > t0")
    req = tuple(float(s) for s in sample_times)
    if any(s < t0 or s > t1 for s in req):
        raise ValueError(f"sample times must lie in [{t0}, {t1}]")
    if list(req) != sorted(req):
        raise ValueError("sample times must be sorted")

    out = []
    idx = 0
    while idx < len(req) and req[idx] <= t:
        out.append(u.copy())
        idx += 1

    margin_fn = getattr(problem, "kaehler_margin", None)
    prev_margin = margin_fn(t, u) if margin_fn else None
    dt = DT_INIT
    accepted = rejected = 0
    n1 = None

    while t < t1:
        target = req[idx] if idx < len(req) else t1
        remaining = target - t
        lands = dt >= remaining
        h = remaining if lands else dt
        end = target if lands else t + h

        if n1 is None:
            n1 = problem.nonlinear_modes(t, u)
        mid_props = _propagators(problem, t, 0.5 * h)
        fine_props = _propagators(problem, t + 0.5 * h, 0.5 * h)
        full_props = (mid_props[0] * mid_props[1],
                      fine_props[0] * fine_props[1])
        full = lawson_step(problem, t, u, h, n1, full_props)
        mid = lawson_step(problem, t, u, 0.5 * h, n1, mid_props)
        fine = lawson_step(problem, t + 0.5 * h, mid, 0.5 * h,
                           props=fine_props)
        err = float(np.max(np.abs(full - fine))) / 15.0

        ok = err <= tol
        new_margin = None
        if ok and margin_fn is not None:
            new_margin = margin_fn(end, fine)
            ok = new_margin > 0.1 * prev_margin
        if not ok:
            rejected += 1
            dt *= 0.5
            if dt < DT_MIN:
                raise StiffnessError(
                    f"stiffness breakdown: step size {dt:.3e} fell below "
                    f"{DT_MIN:.3e} at t={t:.6f}")
            continue

        t = end
        u = fine
        n1 = None
        accepted += 1
        prev_margin = new_margin
        if on_accept is not None:
            on_accept(t, u)
        while idx < len(req) and req[idx] <= t:
            out.append(u.copy())
            idx += 1
        if err < tol / GROW_MARGIN:
            dt = min(2.0 * dt, DT_MAX)

    return IntegrationResult(final_modes=u, sample_times=req,
                             sample_modes=out, accepted=accepted,
                             rejected=rejected)
