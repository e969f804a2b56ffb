"""Contract tests for the exponential-frame integrator.

All oracles are closed-form solutions: pure exponentials (which the scheme
must reproduce to rounding, whatever the step size), a Bernoulli equation
with a known solution for the nonlinear path, and a local-error ratio that
pins the classical order of the tableau.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapse_lab.timestep import (
    IntegrationResult,
    StepControls,
    StiffnessError,
    integrate_lawson,
    lawson_step,
)


class LinearProblem:
    """u' = rate * u with constant (possibly per-mode) rate."""

    def __init__(self, rate):
        self.rate = np.asarray(rate, dtype=complex)

    def symbol_integral(self, t0, t1):
        return self.rate * (t1 - t0)

    def nonlinear_modes(self, t, u):
        return None


class SweepProblem:
    """u' = -exp(t) * u, so u(t) = u0 * exp(-(exp(t) - 1))."""

    def symbol_integral(self, t0, t1):
        return np.array([-(np.exp(t1) - np.exp(t0))], dtype=complex)

    def nonlinear_modes(self, t, u):
        return None


class BernoulliProblem:
    """u' = -u + u^2, solved by u(t) = 1 / (1 + (1/u0 - 1) exp(t))."""

    def symbol_integral(self, t0, t1):
        return np.array([-(t1 - t0)], dtype=complex)

    def nonlinear_modes(self, t, u):
        return u * u


class GrowthWithMargin:
    """Exponential growth that eventually exhausts its positivity margin."""

    def symbol_integral(self, t0, t1):
        return np.array([t1 - t0], dtype=complex)

    def nonlinear_modes(self, t, u):
        return None

    def kaehler_margin(self, t, u):
        return 1.0 - float(np.max(np.abs(u)))


class CountingProblem:
    """Bernoulli equation per mode, counting remainder and symbol evaluations."""

    def __init__(self):
        self.calls = 0
        self.symbol_calls = 0

    def symbol_integral(self, t0, t1):
        self.symbol_calls += 1
        return np.array([-1.0, -3.0]) * (t1 - t0)

    def nonlinear_modes(self, t, u):
        self.calls += 1
        return u * u


def bernoulli_exact(u0, t):
    return 1.0 / (1.0 + (1.0 / u0 - 1.0) * np.exp(t))


def test_pure_exponential_is_exact_in_few_steps():
    res = integrate_lawson(LinearProblem(-1.0), np.array([2.0 + 0j]), 0.0, 3.0)
    assert abs(res.final_modes[0] - 2.0 * np.exp(-3.0)) < 1e-14
    assert res.rejected == 0
    # zero error estimate doubles the step, so the budget stays small
    assert res.accepted < 60


def test_time_dependent_exponential_exact_at_strong_decay():
    res = integrate_lawson(SweepProblem(), np.array([1.0 + 0j]), 0.0, 5.0)
    want = np.exp(-(np.exp(5.0) - 1.0))
    assert abs(res.final_modes[0] - want) < 1e-13 * want


def test_decay_floors_to_exact_zero():
    res = integrate_lawson(LinearProblem(-5000.0), np.array([1.0 + 0j]), 0.0, 1.0)
    assert res.final_modes[0] == 0.0


def test_per_mode_rates_integrate_elementwise():
    rates = np.array([[-0.5, -1.0], [-2.0, -200.0]])
    u0 = np.full((2, 2), 1.0, dtype=complex)
    res = integrate_lawson(LinearProblem(rates), u0, 0.0, 1.0)
    want = np.exp(rates)
    assert np.max(np.abs(res.final_modes - want) / want) < 1e-12


def test_nonlinear_path_matches_closed_form():
    res = integrate_lawson(BernoulliProblem(), np.array([0.5 + 0j]), 0.0, 2.0,
                           controls=StepControls(tol=1e-10))
    assert abs(res.final_modes[0] - bernoulli_exact(0.5, 2.0)) < 1e-9


def test_single_step_has_classical_order():
    # local error ratio under step halving pins the 5th-order truncation
    prob = BernoulliProblem()
    u0 = np.array([0.5 + 0j])
    errs = []
    for h in (0.2, 0.1):
        got = lawson_step(prob, 0.0, u0, h)[0]
        errs.append(abs(got - bernoulli_exact(0.5, h)))
    ratio = errs[0] / errs[1]
    assert 24.0 < ratio < 40.0


def test_step_doubling_costs_eleven_evaluations_per_accepted_ten_per_rejected():
    # a rejected attempt keeps its first stage for the retry, and every
    # attempt takes one propagator per quarter interval
    prob = CountingProblem()
    res = integrate_lawson(prob, np.array([0.5 + 0j, 0.3 + 0j]), 0.0, 2.0,
                           controls=StepControls(tol=1e-12, dt_init=0.25))
    assert res.rejected > 0
    assert prob.calls == 11 * res.accepted + 10 * res.rejected
    assert prob.symbol_calls == 4 * (res.accepted + res.rejected)


def test_shared_first_stage_is_bit_identical_to_independent_steps():
    prob = CountingProblem()
    u0 = np.array([0.5 + 0j, 0.3 + 0j])
    h = 0.2
    res = integrate_lawson(prob, u0, 0.0, h,
                           controls=StepControls(tol=1.0, dt_init=h, dt_max=h))
    assert (res.accepted, res.rejected) == (1, 0)
    mid = lawson_step(prob, 0.0, u0, 0.5 * h)
    fine = lawson_step(prob, 0.5 * h, mid, 0.5 * h)
    assert np.array_equal(res.final_modes, fine)
    n1 = prob.nonlinear_modes(0.0, u0)
    assert np.array_equal(lawson_step(prob, 0.0, u0, h, n1),
                          lawson_step(prob, 0.0, u0, h))


def test_tolerance_trades_steps_for_error():
    u0 = np.array([0.5 + 0j])
    loose = integrate_lawson(BernoulliProblem(), u0, 0.0, 2.0,
                             controls=StepControls(tol=1e-6, dt_init=1e-3))
    tight = integrate_lawson(BernoulliProblem(), u0, 0.0, 2.0,
                             controls=StepControls(tol=1e-12, dt_init=1e-3))
    exact = bernoulli_exact(0.5, 2.0)
    assert abs(loose.final_modes[0] - exact) < 1e-4
    assert abs(tight.final_modes[0] - exact) < 1e-10
    assert loose.accepted < tight.accepted


def test_sample_times_are_hit_exactly():
    req = (0.0, 0.3, 0.7, 1.0)
    res = integrate_lawson(SweepProblem(), np.array([1.0 + 0j]), 0.0, 1.0,
                           sample_times=req)
    assert tuple(res.sample_times) == req
    for s, u in zip(res.sample_times, res.sample_modes):
        want = np.exp(-(np.exp(s) - 1.0))
        assert abs(u[0] - want) < 1e-12 * want


def test_sample_times_outside_span_are_rejected():
    with pytest.raises(ValueError, match="sample"):
        integrate_lawson(SweepProblem(), np.array([1.0 + 0j]), 0.0, 1.0,
                         sample_times=(1.5,))


def test_on_accept_sees_every_accepted_step():
    seen = []
    res = integrate_lawson(BernoulliProblem(), np.array([0.5 + 0j]), 0.0, 1.0,
                           on_accept=lambda t, u: seen.append(t))
    assert len(seen) == res.accepted
    assert all(b > a for a, b in zip(seen, seen[1:]))
    assert seen[-1] == 1.0


def test_margin_exhaustion_raises_stiffness_error():
    with pytest.raises(StiffnessError, match="stiffness breakdown"):
        integrate_lawson(GrowthWithMargin(), np.array([0.95 + 0j]), 0.0, 2.0)


def test_controls_reject_bad_values():
    with pytest.raises(ValueError):
        StepControls(tol=0.0)
    with pytest.raises(ValueError):
        StepControls(dt_init=1e-15, dt_min=1e-12)


@settings(max_examples=25, deadline=None)
@given(re=st.floats(-10, 10), im=st.floats(-10, 10),
       rate=st.floats(-3.0, -0.1))
def test_linear_integration_is_linear_in_the_state(re, im, rate):
    u0 = complex(re, im)
    if abs(u0) < 1e-3:
        u0 += 1.0
    res = integrate_lawson(LinearProblem(rate), np.array([u0]), 0.0, 1.7)
    want = u0 * np.exp(rate * 1.7)
    assert abs(res.final_modes[0] - want) <= 1e-12 * abs(want)
