"""Span tracing of collapse_lab from outside the package.

``installed(tracer)`` swaps every public function of every ``collapse_lab``
module for a wrapper that records one span per call: name, start, end and
the index of the enclosing span.  A wrapper goes wherever the function
object is bound, so names imported with ``from .x import y`` (and the
package's re-exports) are covered too.  A few boundaries get more than a
span:

* ``integrate_lawson`` wraps the problem object it is handed, so the RHS
  (``nonlinear_modes``) and margin (``kaehler_margin``) evaluations are
  counted whatever class supplies them, and it records the accepted and
  rejected step counts the integrator returns;
* scipy's ``bicgstab``, as bound in ``collapse_lab.gke``, gets an operator
  whose matvecs are spans;
* ``solve_gke`` records its Newton iteration count and ``write_report``
  the size of the files it wrote;
* ``HermitianField.__post_init__`` (the Hermitian-symmetry check) is a span.

Every binding is put back when the context exits.  Spans stay in memory
until the caller takes them.
"""

import contextlib
import functools
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from scipy.sparse.linalg import LinearOperator, aslinearoperator, bicgstab

LAYERS = ("cli", "config", "experiments", "flow", "geometry", "gke", "grids",
          "models", "rates", "timestep")


class Tracer:
    """In-memory span recorder plus named counters."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counters = Counter()
        self._stack = [-1]

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
        return traced

    def take(self):
        """Hand over the spans and counters recorded so far; start afresh."""
        if len(self._stack) != 1:
            raise RuntimeError("cannot take spans while a span is open")
        spans, counters = list(self.spans), Counter(self.counters)
        self.spans.clear()
        self.counters.clear()
        return spans, counters


def _layer(obj):
    return obj.__module__.rsplit(".", 1)[-1]


class _ProblemProbe:
    """Stands in for an integrator problem; its evaluations become spans."""

    def __init__(self, problem, tracer):
        self._problem = problem
        layer = _layer(type(problem))
        self.nonlinear_modes = tracer.wrap(f"{layer}.nonlinear_modes",
                                           problem.nonlinear_modes)
        margin = getattr(problem, "kaehler_margin", None)
        if margin is not None:
            self.kaehler_margin = tracer.wrap(f"{layer}.kaehler_margin",
                                              margin)

    def __getattr__(self, name):
        return getattr(self._problem, name)


def _integrate_lawson(tracer, name, fn):
    def run(problem, *args, **kwargs):
        on_accept = kwargs.get("on_accept")
        if on_accept is not None:
            kwargs["on_accept"] = tracer.wrap(f"{_layer(on_accept)}.on_accept",
                                              on_accept)
        res = fn(_ProblemProbe(problem, tracer), *args, **kwargs)
        tracer.counters["timestep.steps_accepted"] += res.accepted
        tracer.counters["timestep.steps_rejected"] += res.rejected
        return res
    return tracer.wrap(name, functools.wraps(fn)(run))


def _counted(key, amount):
    """Wrapper factory: a span, then ``amount(result)`` added to ``key``."""
    def make(tracer, name, fn):
        traced = tracer.wrap(name, fn)

        @functools.wraps(fn)
        def run(*args, **kwargs):
            result = traced(*args, **kwargs)
            tracer.counters[key] += amount(result)
            return result
        return run
    return make


def _bicgstab(tracer, name, fn):
    def run(A, b, *args, **kwargs):
        op = aslinearoperator(A)
        counted = LinearOperator(
            op.shape, dtype=op.dtype,
            matvec=tracer.wrap("gke.krylov_matvec", op.matvec))
        return fn(counted, b, *args, **kwargs)
    return tracer.wrap(name, functools.wraps(fn)(run))


_SPECIAL = {
    "integrate_lawson": _integrate_lawson,
    "solve_gke": _counted("gke.newton_iterations", lambda sol: sol.iterations),
    "write_report": _counted(
        "experiments.report_bytes",
        lambda written: sum(Path(p).stat().st_size for p in written)),
}


def _package_modules():
    return [mod for key, mod in sorted(sys.modules.items())
            if key == "collapse_lab" or key.startswith("collapse_lab.")]


@contextlib.contextmanager
def installed(tracer):
    """Trace every public collapse_lab function while the context is open."""
    modules = _package_modules()
    if not modules:
        raise RuntimeError("collapse_lab must be imported before tracing")
    wrappers = {}
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[-1]
        for name, fn in vars(mod).items():
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and not name.startswith("_")):
                make = _SPECIAL.get(name)
                wrapped = (make(tracer, f"{layer}.{name}", fn) if make
                           else tracer.wrap(f"{layer}.{name}", fn))
                wrappers[id(fn)] = (fn, wrapped)
    wrappers[id(bicgstab)] = (bicgstab,
                              _bicgstab(tracer, "gke.bicgstab", bicgstab))

    saved = []
    for mod in modules:
        for name, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                saved.append((mod, name, value))
                setattr(mod, name, hit[1])
    field = sys.modules["collapse_lab.grids"].HermitianField
    saved.append((field, "__post_init__", field.__dict__["__post_init__"]))
    field.__post_init__ = tracer.wrap("grids.hermitian_check",
                                      field.__post_init__)
    try:
        yield
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)


# ------------------------------------------------------------------ metrics

def _ratio(num, den):
    return num / den if den else 0.0


def outermost_time(spans, layer):
    """Time inside spans of ``layer`` whose parent lies outside that layer."""
    prefix = layer + "."
    total = 0.0
    for name, start, end, parent in spans:
        if name.startswith(prefix) and (
                parent < 0 or not spans[parent][0].startswith(prefix)):
            total += end - start
    return total


def layer_metrics(spans, counters):
    """Per-layer counts, unit costs and self times of one traced pass."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    total, calls = defaultdict(float), Counter()
    self_time = dict.fromkeys(LAYERS, 0.0)
    for i, (name, start, end, _) in enumerate(spans):
        total[name] += end - start
        calls[name] += 1
        layer = name.split(".", 1)[0]
        if layer in self_time:
            self_time[layer] += end - start - child[i]

    def suffixed(suffix):
        keys = [k for k in calls if k.endswith(suffix)]
        return sum(calls[k] for k in keys), sum(total[k] for k in keys)

    rhs_calls, rhs_time = suffixed(".nonlinear_modes")
    margin_calls, margin_time = suffixed(".kaehler_margin")
    accepted = counters["timestep.steps_accepted"]
    newton = counters["gke.newton_iterations"]
    matvecs = calls["gke.krylov_matvec"]

    def mean_us(name):
        return 1e6 * _ratio(total[name], calls[name])

    out = {
        "timestep.rhs_evals": rhs_calls,
        "timestep.rhs_evals_per_step": _ratio(rhs_calls, accepted),
        "timestep.rhs_eval_us": 1e6 * _ratio(rhs_time, rhs_calls),
        "timestep.margin_eval_us": 1e6 * _ratio(margin_time, margin_calls),
        "timestep.steps_accepted": accepted,
        "timestep.steps_rejected": counters["timestep.steps_rejected"],
        "grids.hermitian_fields": calls["grids.hermitian_check"],
        "grids.hermitian_check_s": total["grids.hermitian_check"],
        "geometry.ddbar.calls": calls["geometry.ddbar"],
        "geometry.ddbar_us": mean_us("geometry.ddbar"),
        "geometry.fiber_diameter.calls": calls["geometry.fiber_diameter"],
        "geometry.fiber_diameter_s": total["geometry.fiber_diameter"],
        "geometry.riemann_norm_s": total["geometry.riemann_norm"],
        "geometry.trace_wrt_us": mean_us("geometry.trace_wrt"),
        "flow.diagnostics.calls": calls["flow.diagnostics_for"],
        "flow.diagnostics_s": total["flow.diagnostics_for"],
        "gke.krylov_matvecs": matvecs,
        "gke.matvecs_per_newton": _ratio(matvecs, newton),
        "gke.newton_iterations": newton,
        "gke.residual_evals": calls["gke.gke_residual"],
        "gke.solve_s": total["gke.solve_gke"],
        "gke.parabolic_s": total["gke.parabolic_gke"],
        "rates.fit_s": total["rates.rate_fit"],
        "experiments.write_report_s": total["experiments.write_report"],
        "experiments.report_bytes": counters["experiments.report_bytes"],
        "cli.main_s": total["cli.main"],
        "trace.spans": len(spans),
    }
    for layer, value in self_time.items():
        out[f"{layer}.self_s"] = value
    return out


def median_metrics(rows):
    """Median of each metric over several passes."""
    return {key: statistics.median(row[key] for row in rows)
            for key in rows[0]}
