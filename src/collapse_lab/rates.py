"""Least-squares extraction of decay rates from monitor series.

Collapse rates show up as straight lines in log ordinates, either against t
(plain exponential decay) or against exp(t) (the doubly exponential decay of
fiber modes).  The fit window defaults to the last half of the series to
discard transients.  A window that cannot be fitted gives a fit of NaNs over
no samples, so a check built on it reads NaN and fails as not evaluable.
"""

from dataclasses import dataclass

import numpy as np

ABSCISSAE = ("t", "exp_t")
MIN_SAMPLES = 4


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    max_abs_residual: float
    count: int
    abscissa: str


def rate_fit(times, values, abscissa="t", window=None):
    """Fit log(values) = slope * x + intercept over a time window.

    ``abscissa`` selects x = t or x = exp(t); ``window`` is an inclusive
    (t_lo, t_hi) pair, defaulting to the last half of the samples.  A
    window with fewer than MIN_SAMPLES samples, or a value that is zero,
    negative or not finite, gives a fit of NaNs with count 0.
    """
    if abscissa not in ABSCISSAE:
        raise ValueError(f"unknown abscissa {abscissa!r}, want one of {ABSCISSAE}")
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.shape != y.shape or t.ndim != 1:
        raise ValueError("times and values must be 1-d arrays of equal length")

    if window is None:
        keep = np.zeros(t.size, dtype=bool)
        keep[t.size // 2:] = True
    else:
        lo, hi = window
        keep = (t >= lo) & (t <= hi)
    t, y = t[keep], y[keep]
    if t.size < MIN_SAMPLES or not np.all(np.isfinite(y) & (y > 0.0)):
        return RateFit(np.nan, np.nan, np.nan, 0, abscissa)

    x = np.exp(t) if abscissa == "exp_t" else t
    logy = np.log(y)
    slope, intercept = np.polyfit(x, logy, 1)
    resid = np.max(np.abs(logy - (slope * x + intercept)))
    return RateFit(slope=float(slope), intercept=float(intercept),
                   max_abs_residual=float(resid), count=int(t.size),
                   abscissa=abscissa)
