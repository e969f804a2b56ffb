"""Contract tests for the exponential-frame integrator.

All oracles are closed-form solutions: pure exponentials (which the scheme
must reproduce to rounding, whatever the step size), a Bernoulli equation
with a known solution for the nonlinear path, a state-independent remainder
whose only error is the quadrature of the integrating factor, and a
local-error ratio that pins the order of the tableau, whose order
conditions are also checked directly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapse_lab import timestep
from collapse_lab.timestep import StiffnessError, integrate_lawson


class LinearProblem:
    """u' = rate * u with constant (possibly per-mode) rate."""

    def __init__(self, rate):
        self.rate = np.asarray(rate, dtype=complex)

    def symbol_integral(self, t0, t1):
        return self.rate * (t1 - t0)

    def nonlinear_modes(self, t, u):
        return 0.0


class SweepProblem:
    """u' = -exp(t) * u, so u(t) = u0 * exp(-(exp(t) - 1))."""

    def symbol_integral(self, t0, t1):
        return np.array([-(np.exp(t1) - np.exp(t0))], dtype=complex)

    def nonlinear_modes(self, t, u):
        return 0.0


class SweepWithSource:
    """u' = -exp(t) * (1, 1e4) * u + (1, 0): a sweep with a constant
    remainder, beside a mode ten thousand times stiffer."""

    def symbol_integral(self, t0, t1):
        return -(np.exp(t1) - np.exp(t0)) * np.array([1.0, 1e4], dtype=complex)

    def nonlinear_modes(self, t, u):
        return np.array([1.0, 0.0], dtype=complex)


class RelaxationProblem:
    """u' = -u + 1, solved by u(t) = 1 + (u0 - 1) exp(-t).

    The remainder does not depend on the state, so the only error is the
    quadrature of the integrating factor."""

    def symbol_integral(self, t0, t1):
        return np.array([-(t1 - t0)], dtype=complex)

    def nonlinear_modes(self, t, u):
        return np.ones_like(u)


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
        return 0.0

    def kaehler_margin(self, t, u):
        return 1.0 - float(np.max(np.abs(u)))


class StepProbe(LinearProblem):
    """u' = -u, whose constant Kähler margin records the time of every state
    it is asked about: the start, then the end of each accepted step."""

    def __init__(self):
        super().__init__(-1.0)
        self.times = []

    def kaehler_margin(self, t, u):
        self.times.append(t)
        return 1.0

    def accepted_steps(self, res, t1):
        """The lengths of the accepted steps of the march ``res`` to t1."""
        assert len(self.times) == res.accepted + 1
        assert all(b > a for a, b in zip(self.times, self.times[1:]))
        assert self.times[-1] == t1
        return np.diff(self.times)


class CountingProblem:
    """Bernoulli equation per mode, counting remainder and symbol evaluations."""

    def __init__(self):
        self.calls = 0
        self.symbol_calls = 0
        self.seen = []

    def symbol_integral(self, t0, t1):
        self.symbol_calls += 1
        return np.array([-1.0, -3.0]) * (t1 - t0)

    def nonlinear_modes(self, t, u):
        self.calls += 1
        self.seen.append((t, u))
        return u * u


def bernoulli_exact(u0, t):
    return 1.0 / (1.0 + (1.0 / u0 - 1.0) * np.exp(t))


def test_pure_exponential_is_exact_in_few_steps():
    res = integrate_lawson(LinearProblem(-1.0), np.array([2.0 + 0j]), 0.0,
                           (3.0,))
    assert abs(res.sample_modes[-1][0] - 2.0 * np.exp(-3.0)) < 1e-14
    assert res.rejected == 0
    # a zero error estimate grows the step fivefold, so the budget stays
    # small
    assert res.accepted < 60


def test_time_dependent_exponential_exact_at_strong_decay():
    res = integrate_lawson(SweepProblem(), np.array([1.0 + 0j]), 0.0, (5.0,))
    want = np.exp(-(np.exp(5.0) - 1.0))
    assert abs(res.sample_modes[-1][0] - want) < 1e-13 * want


def test_stiff_sweep_with_source_underflows_cleanly():
    # by t=8 the stiff mode's propagators over the longer node intervals
    # underflow to exact zeros; carried stages must stay finite, with no
    # 0/0 warning
    prob = SweepWithSource()
    underflowed = []
    symbol_integral = prob.symbol_integral

    def recorded(t0, t1):
        sym = symbol_integral(t0, t1)
        underflowed.append(np.exp(sym)[1] == 0.0)
        return sym

    prob.symbol_integral = recorded
    res = integrate_lawson(prob, np.array([1.0 + 0j, 1.0 + 0j]), 0.0, (8.0,),
                           tol=1e-6)
    assert np.all(np.isfinite(res.sample_modes[-1]))
    assert res.sample_modes[-1][1] == 0.0
    assert any(underflowed)


def test_decay_floors_to_exact_zero():
    res = integrate_lawson(LinearProblem(-5000.0), np.array([1.0 + 0j]), 0.0,
                           (1.0,))
    assert res.sample_modes[-1][0] == 0.0


def test_per_mode_rates_integrate_elementwise():
    rates = np.array([[-0.5, -1.0], [-2.0, -200.0]])
    u0 = np.full((2, 2), 1.0, dtype=complex)
    res = integrate_lawson(LinearProblem(rates), u0, 0.0, (1.0,))
    want = np.exp(rates)
    assert np.max(np.abs(res.sample_modes[-1] - want) / want) < 1e-12


def test_nonlinear_path_matches_closed_form():
    res = integrate_lawson(BernoulliProblem(), np.array([0.5 + 0j]), 0.0,
                           (2.0,), tol=1e-10)
    assert abs(res.sample_modes[-1][0] - bernoulli_exact(0.5, 2.0)) < 1e-9


def test_tableau_meets_the_fifth_order_conditions():
    c = np.array(timestep._C)
    b = np.array(timestep._A[-1] + (0.0,))
    e = np.array(timestep._E)
    for i, row in enumerate(timestep._A, start=1):
        assert abs(sum(row) - c[i]) < 1e-14
    assert abs(b.sum() - 1.0) < 1e-14
    assert abs(e.sum()) < 1e-15
    for k in range(1, 5):
        assert abs(b @ c**k - 1.0 / (k + 1)) < 1e-14


def test_single_step_has_classical_order(monkeypatch):
    # local error ratio under step halving pins the 6th-order local
    # truncation of the 5th-order solution: 2**6 = 64
    u0 = np.array([0.5 + 0j])
    errs = []
    for h in (0.2, 0.1):
        monkeypatch.setattr(timestep, "DT_INIT", h)
        res = integrate_lawson(BernoulliProblem(), u0, 0.0, (h,), tol=1.0)
        assert (res.accepted, res.rejected) == (1, 0)
        errs.append(abs(res.sample_modes[-1][0] - bernoulli_exact(0.5, h)))
    ratio = errs[0] / errs[1]
    assert 48.0 < ratio < 80.0


def test_embedded_pair_costs_six_evaluations_and_five_propagators_per_attempt(
        monkeypatch):
    # the first stage of the march is the only one no attempt pays for; a
    # rejected attempt keeps it for the retry
    monkeypatch.setattr(timestep, "DT_INIT", 0.25)
    prob = CountingProblem()
    res = integrate_lawson(prob, np.array([0.5 + 0j, 0.3 + 0j]), 0.0, (2.0,),
                           tol=1e-12)
    assert res.rejected > 0
    attempts = res.accepted + res.rejected
    assert prob.calls == 1 + 6 * attempts
    assert prob.symbol_calls == 5 * attempts


def test_last_stage_is_the_next_first_stage_bit_for_bit(monkeypatch):
    prob = CountingProblem()
    u0 = np.array([0.5 + 0j, 0.3 + 0j])
    h = 0.2
    monkeypatch.setattr(timestep, "DT_INIT", h)
    two = integrate_lawson(prob, u0, 0.0, (2 * h,), tol=1.0)
    assert (two.accepted, two.rejected) == (2, 0)
    assert prob.calls == 13
    one = integrate_lawson(CountingProblem(), u0, 0.0, (h,), tol=1.0)
    t7, u7 = prob.seen[6]
    assert t7 == h
    assert np.array_equal(u7, one.sample_modes[-1])
    # a fresh march from the first step's end evaluates its own first stage
    again = integrate_lawson(CountingProblem(), one.sample_modes[-1], h,
                             (2 * h,), tol=1.0)
    assert np.array_equal(again.sample_modes[-1], two.sample_modes[-1])


@pytest.mark.parametrize("tol", [1e-6, 1e-10])
def test_error_estimate_sees_the_integrating_factor_quadrature(tol):
    # an estimate blind to the quadrature of exp(-(t1 - s)) would read zero
    # here and let the first steps grow fivefold unchecked
    u0 = np.array([3.0 + 0j])
    res = integrate_lawson(RelaxationProblem(), u0, 0.0, (5.0,), tol=tol)
    want = 1.0 + 2.0 * np.exp(-5.0)
    assert abs(res.sample_modes[-1][0] - want) <= 10.0 * tol


def test_tolerance_trades_steps_for_error(monkeypatch):
    monkeypatch.setattr(timestep, "DT_INIT", 1e-3)
    u0 = np.array([0.5 + 0j])
    loose = integrate_lawson(BernoulliProblem(), u0, 0.0, (2.0,), tol=1e-6)
    tight = integrate_lawson(BernoulliProblem(), u0, 0.0, (2.0,), tol=1e-12)
    exact = bernoulli_exact(0.5, 2.0)
    assert abs(loose.sample_modes[-1][0] - exact) < 1e-4
    assert abs(tight.sample_modes[-1][0] - exact) < 1e-10
    assert loose.accepted < tight.accepted


def test_sample_times_are_hit_exactly():
    req = (0.0, 0.3, 0.7, 1.0)
    res = integrate_lawson(SweepProblem(), np.array([1.0 + 0j]), 0.0, req)
    assert len(res.sample_modes) == len(req)
    for s, u in zip(req, res.sample_modes):
        want = np.exp(-(np.exp(s) - 1.0))
        assert abs(u[0] - want) < 1e-12 * want


def test_no_accepted_step_is_shorter_than_the_step_floor(monkeypatch):
    # held at 0.01, the march runs in steps of 0.01 whose rounded sums
    # fall about 1e-14 short of some sample times; it lands on them instead
    # of spending an attempt on each gap (16 more without the stretch)
    monkeypatch.setattr(timestep, "DT_INIT", 0.01)
    monkeypatch.setattr(timestep, "_step_factor", lambda err, tol: 1.0)
    probe = StepProbe()
    times = np.linspace(0.0, 10.0, 21)
    res = integrate_lawson(probe, np.array([2.0 + 0j]), 0.0, times)
    assert (res.accepted, res.rejected) == (1000, 0)
    assert min(probe.accepted_steps(res, 10.0)) >= timestep.DT_MIN
    for s, u in zip(times, res.sample_modes):
        assert abs(u[0] - 2.0 * np.exp(-s)) < 1e-14


def _record_attempts(monkeypatch, errors=()):
    """Record the length of every attempted step; the attempts report the
    scripted error estimates in turn, then their own."""
    steps, script = [], list(errors)
    attempt = timestep._attempt

    def recorded(problem, t, end, u, n1):
        steps.append(end - t)
        new, n_new, err = attempt(problem, t, end, u, n1)
        return new, n_new, script.pop(0) if script else err

    monkeypatch.setattr(timestep, "_attempt", recorded)
    return steps


def test_zero_error_grows_the_step_fivefold():
    probe = StepProbe()
    res = integrate_lawson(probe, np.array([1.0 + 0j]), 0.0, (3.0,))
    # 0.01, 0.05, 0.25, 1.25, then 1.44 to land on t1
    assert (res.accepted, res.rejected) == (5, 0)
    want = [0.01, 0.05, 0.25, 1.25, 1.44]
    assert np.allclose(probe.accepted_steps(res, 3.0), want, rtol=0.0,
                       atol=1e-14)


def test_a_sample_landing_does_not_shorten_the_next_step():
    # the landing step on 0.0105 is 0.0005 long; the next is the 0.05 the
    # step before it earned, not 5 * 0.0005
    probe = StepProbe()
    res = integrate_lawson(probe, np.array([1.0 + 0j]), 0.0, (0.0105, 1.0))
    want = [0.01, 0.0005, 0.05, 0.25, 0.6895]
    assert np.allclose(probe.accepted_steps(res, 1.0), want, rtol=0.0,
                       atol=1e-14)


def test_error_rejection_scales_the_step_by_the_controller_factor(
        monkeypatch):
    # an estimate 100 times tol shrinks by 0.9 / 100**(1/5); one 1e9 times
    # tol, and a NaN one, by the floor 0.2
    tol = 1e-8
    steps = _record_attempts(monkeypatch,
                             errors=(100 * tol, 1e9 * tol, float("nan")))
    res = integrate_lawson(LinearProblem(-1.0), np.array([1.0 + 0j]), 0.0,
                           (1.0,), tol=tol)
    assert res.rejected == 3
    first = 0.01 * timestep.SAFETY * 100 ** -0.2
    want = [0.01, first, first * 0.2, first * 0.04]
    assert np.allclose(steps[:4], want, rtol=1e-12, atol=0.0)
    # the first accepted step, whose error is zero, grows fivefold
    assert steps[4] == pytest.approx(5.0 * want[3], rel=1e-12)


class ScriptedMargin(LinearProblem):
    """A constant state whose Kähler margin reads from a script."""

    def __init__(self, margins):
        super().__init__(0.0)
        self.margins = iter(margins)

    def kaehler_margin(self, t, u):
        return next(self.margins)


def test_margin_rejection_halves_the_step(monkeypatch):
    # the error estimate is zero throughout; only the margin rejects
    steps = _record_attempts(monkeypatch)
    margins = [1.0, 0.05] + [1.0] * 10
    res = integrate_lawson(ScriptedMargin(margins), np.array([1.0 + 0j]),
                           0.0, (0.05,))
    assert (res.accepted, res.rejected) == (3, 1)
    assert np.allclose(steps, [0.01, 0.005, 0.025, 0.02], rtol=0.0,
                       atol=1e-15)


def test_sample_times_outside_span_are_rejected():
    # the sample times must be sorted, start no earlier than t0 and end
    # after it, since the last of them ends the march
    for times in ((), (0.7, 0.3), (-0.1, 1.0), (0.0,), (0.0, 0.0)):
        with pytest.raises(ValueError, match="sample"):
            integrate_lawson(SweepProblem(), np.array([1.0 + 0j]), 0.0,
                             times)


class TimeProbe(BernoulliProblem):
    """Bernoulli equation that records the time of every question the
    march asks it: remainder, propagator and Kähler margin."""

    def __init__(self):
        self.times = []

    def symbol_integral(self, t0, t1):
        self.times += [t0, t1]
        return super().symbol_integral(t0, t1)

    def nonlinear_modes(self, t, u):
        self.times.append(t)
        return super().nonlinear_modes(t, u)

    def kaehler_margin(self, t, u):
        self.times.append(t)
        return 1.0


def test_the_march_asks_about_no_time_past_its_last_sample():
    probe = TimeProbe()
    res = integrate_lawson(probe, np.array([0.5 + 0j]), 0.0, (0.3, 0.7, 1.3),
                           tol=1e-10)
    assert res.accepted > 3
    assert max(probe.times) == 1.3
    assert abs(res.sample_modes[-1][0] - bernoulli_exact(0.5, 1.3)) < 1e-9


def test_margin_exhaustion_raises_stiffness_error():
    with pytest.raises(StiffnessError, match="stiffness breakdown"):
        integrate_lawson(GrowthWithMargin(), np.array([0.95 + 0j]), 0.0,
                         (2.0,))


def test_zero_tolerance_is_rejected_and_step_limits_are_ordered():
    with pytest.raises(ValueError, match="tol must be positive"):
        integrate_lawson(BernoulliProblem(), np.array([0.5 + 0j]), 0.0,
                         (1.0,), tol=0.0)
    assert 0 < timestep.DT_MIN <= timestep.DT_INIT


@settings(max_examples=25, deadline=None)
@given(re=st.floats(-10, 10), im=st.floats(-10, 10),
       rate=st.floats(-3.0, -0.1))
def test_linear_integration_is_linear_in_the_state(re, im, rate):
    u0 = complex(re, im)
    if abs(u0) < 1e-3:
        u0 += 1.0
    res = integrate_lawson(LinearProblem(rate), np.array([u0]), 0.0, (1.7,))
    want = u0 * np.exp(rate * 1.7)
    assert abs(res.sample_modes[-1][0] - want) <= 1e-12 * abs(want)
