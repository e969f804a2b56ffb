"""Tests for decay-rate extraction.

Synthetic exact exponentials pin slope and intercept to rounding; window
handling is checked with data whose early half fits a different law.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapse_lab.rates import RateFit, rate_fit


def test_plain_exponential_recovered_exactly():
    t = np.linspace(0.0, 4.0, 12)
    y = 3.0 * np.exp(-t)
    fit = rate_fit(t, y)
    assert abs(fit.slope + 1.0) < 1e-13
    assert abs(fit.intercept - np.log(3.0)) < 1e-12
    assert fit.max_abs_residual < 1e-13


def test_exp_abscissa_recovers_superexponential_rate():
    t = np.linspace(0.0, 2.0, 15)
    y = 2.0 * np.exp(-0.7 * (np.exp(t) - 1.0))
    fit = rate_fit(t, y, abscissa="exp_t")
    assert fit.abscissa == "exp_t"
    assert abs(fit.slope + 0.7) < 1e-12


def test_default_window_is_the_last_half():
    t = np.linspace(0.0, 6.0, 10)
    y = np.exp(-2.0 * t)
    y[:5] = 1.0  # early plateau that a full fit would average in
    fit = rate_fit(t, y)
    assert fit.count == 5
    assert abs(fit.slope + 2.0) < 1e-12


def test_explicit_window_selects_by_time():
    t = np.linspace(0.0, 6.0, 13)
    y = np.exp(-0.5 * t)
    y[t < 2.0] = 7.0
    fit = rate_fit(t, y, window=(2.0, 6.0))
    assert abs(fit.slope + 0.5) < 1e-12
    assert fit.count == int(np.sum((t >= 2.0) & (t <= 6.0)))


def _unfitted(fit, abscissa="t"):
    # NaN != NaN, so a NaN fit is compared field by field
    return (all(math.isnan(v) for v in (fit.slope, fit.intercept,
                                        fit.max_abs_residual))
            and (fit.count, fit.abscissa) == (0, abscissa))


def test_rejects_nonpositive_values():
    # unfittable, not malformed: a fit of NaNs over no samples
    t = np.linspace(0.0, 1.0, 8)
    for bad in (0.0, -1.0, math.inf, math.nan):
        y = np.exp(-t)
        y[6] = bad  # inside the default last-half window
        assert _unfitted(rate_fit(t, y))
    y = np.exp(-t)
    y[0] = 0.0  # outside it
    assert rate_fit(t, y).count == 4


def test_rejects_short_windows():
    # unfittable, not malformed: an experiment reports it as a NaN fit
    fit = rate_fit(np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.5, 0.25]),
                   abscissa="exp_t", window=(0.0, 2.0))
    assert isinstance(fit, RateFit) and _unfitted(fit, "exp_t")


def test_rejects_unknown_abscissa():
    t = np.linspace(0.0, 1.0, 8)
    for bad in ("t^2", "log_t"):
        with pytest.raises(ValueError, match=re.escape(
                f"unknown abscissa {bad!r}, want one of")):
            rate_fit(t, np.exp(-t), abscissa=bad)


@settings(max_examples=30, deadline=None)
@given(slope=st.floats(-5.0, -0.1), logc=st.floats(-2.0, 2.0))
def test_exact_data_roundtrips(slope, logc):
    t = np.linspace(0.0, 3.0, 9)
    y = np.exp(logc + slope * t)
    fit = rate_fit(t, y)
    assert abs(fit.slope - slope) < 1e-10
    assert abs(fit.intercept - logc) < 1e-10
