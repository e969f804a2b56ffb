"""Experiment registry, acceptance checks, and report writing.

Each experiment consumes a validated config, runs its solver, and returns
a diagnostics table of named columns, a list of acceptance checks (measured
value, bound, comparator, verdict), fitted rates and plots, which
``run_experiment`` makes a report.  Reports serialize to a fixed on-disk
layout: diagnostics.csv (columns as data/csv_schema.json declares them),
rates.json, acceptance.json, resolved_config.json (strict JSON, non-finite
as null), and two-column plot files under plots/.  All output is
byte-deterministic for a fixed config and seed.
"""

import csv
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .config import SAMPLE_SPACING
from .flow import evolve
from .geometry import ddbar, fiber_diameter
from .gke import parabolic_gke, solve_gke, twisted_einstein_residual
from .grids import GridSpec, PositivityError, ScalarField
from .models import (FiberFlowSpec, GkeTestbedSpec, ProductModelSpec,
                     SemiFlatSpec, _base_scale, density_F, fiber_constancy,
                     rescaling_check, semiflat_components,
                     semiflat_potential, weil_petersson)
from .rates import rate_fit
from .timestep import integrate_lawson

CSV_COLUMNS = {name: tuple(cols) for name, cols in json.loads(
    (Path(__file__).parent / "data" / "csv_schema.json").read_text(
        encoding="utf-8"))["columns"].items()}
# gke-parabolic samples its gap on the flows' default grid
GKE_SAMPLES_PER_UNIT = 2
# the collapse rate the paper proves, diam(F) ~ exp(-t/2)
DIAMETER_SLOPE = -0.5


@dataclass(frozen=True)
class Check:
    name: str
    measured: float
    bound: float
    op: str
    passed: bool


def _le(name, measured, bound):
    measured, bound = float(measured), float(bound)
    return Check(name, measured, bound, "<=", bool(measured <= bound))


def _ge(name, measured, bound):
    measured, bound = float(measured), float(bound)
    return Check(name, measured, bound, ">=", bool(measured >= bound))


def _sample_grid(horizon, per_unit):
    """Times 0 to horizon, per_unit per unit time, and both ends always."""
    return np.linspace(0.0, horizon, max(1, round(horizon * per_unit)) + 1)


@dataclass
class ExperimentReport:
    name: str
    config: dict
    table: dict  # each of ``columns``, in order, to its 1-D values
    checks: list
    rates: dict
    plots: dict

    @property
    def columns(self):
        return CSV_COLUMNS[self.name]

    @property
    def passed(self):
        return all(c.passed for c in self.checks)


# ------------------------------------------------------------- product ODE

class _ScaleOde:
    """Both scale equations share the unit decay rate in the moving frame."""

    def symbol_integral(self, t0, t1):
        return np.array([t0 - t1, t0 - t1])

    def nonlinear_modes(self, t, u, out=None):
        if out is None:
            out = np.empty(2, dtype=complex)
        out[0], out[1] = 1.0, 0.0
        return out


def _run_product_ode(cfg):
    m, s, acc = cfg.model, cfg.solver, cfg.acceptance
    model = ProductModelSpec(a0=m["a0"], b0=m["b0"], base_dim=m["base_dim"])
    horizon = s["horizon"]
    samples = _sample_grid(horizon, s["samples_per_unit"])
    res = integrate_lawson(_ScaleOde(), np.array([model.a0, model.b0],
                                                 dtype=complex),
                           0.0, samples, tol=s["ode_tol"])

    fiber_grid = GridSpec(1, (m["fiber_resolution"],))
    unit_diam = fiber_diameter(fiber_grid, np.ones((fiber_grid.shape[0], 1)))

    a_num, b_num = res.sample_modes.real.T
    # the closed forms per sample, from math as the model states them
    a_ref, b_ref = np.array([model.closed_form(t) for t in samples]).T
    curv_ref = np.array([model.base_curvature_norm(t) for t in samples])
    ra, rb = np.abs(a_num / a_ref - 1.0), np.abs(b_num / b_ref - 1.0)
    curv = math.sqrt(model.base_dim) / a_num
    table = {
        "t": samples,
        "base_numeric": a_num,
        "base_closed": a_ref,
        "fiber_numeric": b_num,
        "fiber_closed": b_ref,
        "base_ratio_defect": ra,
        "fiber_ratio_defect": rb,
        "curvature_sup": curv,
        "diameter": np.sqrt(b_num) * unit_diam,
    }
    closed_defect = max(np.max(np.abs(a_num - a_ref)),
                        np.max(np.abs(b_num - b_ref)))
    ratio_defect = max(np.max(ra), np.max(rb))
    curv_defect = np.max(np.abs(curv / curv_ref - 1.0))

    diam_fit = rate_fit(samples, table["diameter"])
    fiber_fit = rate_fit(samples, b_num)

    checks = [
        _le("closed_form_defect", closed_defect, acc["closed_form_tol"]),
        _le("eig_ratio_defect", ratio_defect, acc["eig_ratio_tol"]),
        _le("diameter_slope_defect",
            abs(diam_fit.slope - DIAMETER_SLOPE),
            acc["diameter_slope_tol"]),
        _le("curvature_rel_defect", curv_defect, acc["curvature_rel_tol"]),
    ]
    rates = {"diameter": asdict(diam_fit), "fiber_scale": asdict(fiber_fit)}
    plots = {
        "scales": np.column_stack([samples, b_num]),
        "diameter": np.column_stack([samples, table["diameter"]]),
    }
    return table, checks, rates, plots


# -------------------------------------------------------------- fiber flow

def _flow_spec(model):
    grid = GridSpec(1, (model["n"],))
    # the start is constant along y: its profile keeps the march on profiles
    amp = model["amplitude_rel"] * model["b0"]
    initial = ScalarField(grid, amp * np.sin(2.0 * np.pi
                                             * grid.axis_coordinates(0)))
    return FiberFlowSpec(grid=grid, b0=model["b0"], a0=model["a0"],
                         initial_potential=initial,
                         base_dim=model["base_dim"])


def _late_growth(table, columns):
    """Worst tail excess: max over the final half minus max before it."""
    worst = -math.inf
    for c in columns:
        v = table[c]
        half = v.size // 2
        worst = max(worst, float(np.max(v[half:]) - np.max(v[:half])))
    return worst


def _run_fiber_flow(cfg):
    m, s, acc = cfg.model, cfg.solver, cfg.acceptance
    horizon = s["horizon"]
    lo, hi = s["mode_fit_window"]
    # the base grid joined with the fit window, whose arange can overshoot
    # hi, and so the horizon; times closer than SAMPLE_SPACING are sampled
    # once
    window = np.arange(lo, hi + 0.5 * s["mode_fit_step"], s["mode_fit_step"])
    base = _sample_grid(horizon, s["samples_per_unit"])
    ts = np.unique(np.concatenate([base,
                                   window[window <= hi + SAMPLE_SPACING]]))
    ts = ts[np.concatenate(([True], np.diff(ts) > SAMPLE_SPACING))]
    table = evolve(_flow_spec(m), ts, tol=s["tol"],
                   with_diameter=s["with_diameter"])
    times, curv = table["t"], table["curvature_sup"]
    # the base scale at the horizon; the base curvature is sqrt(base_dim)/a
    a_end = _base_scale(m["a0"], horizon)[0]

    target = math.pi ** 2 / m["b0"]
    mode_fit = rate_fit(times, table["mode_low"], abscissa="exp_t",
                        window=(lo, hi))
    spread = table["volume_ratio_max"] - table["volume_ratio_min"]

    checks = [
        _le("phi_sup_max", np.max(table["phi_sup"]), acc["phi_sup_bound"]),
        _le("dphi_sup_max", np.max(table["dphi_sup"]),
            acc["dphi_sup_bound"]),
        _ge("volume_ratio_min", np.min(table["volume_ratio_min"]),
            acc["volume_ratio_low"]),
        _le("volume_ratio_max", np.max(table["volume_ratio_max"]),
            acc["volume_ratio_high"]),
        _le("vtilde_sup_max", np.max(table["vtilde_sup"]),
            acc["vtilde_bound"]),
        _le("q_sup_max", np.max(table["q_sup"]), acc["q_bound"]),
        _le("late_growth",
            _late_growth(dict(table, volume_spread=spread),
                         ("phi_sup", "dphi_sup", "vtilde_sup", "q_sup",
                          "volume_spread")),
            acc["no_growth_slack"]),
        _le("mode_slope_rel_defect", abs(mode_fit.slope + target) / target,
            acc["mode_slope_rel_tol"]),
        _le("curvature_sup_max",
            np.max(curv) if np.all(np.isfinite(curv)) else math.inf,
            acc["curvature_cap"]),
        _le("late_base_match",
            abs(curv[-1] / (math.sqrt(m["base_dim"]) / a_end) - 1.0),
            acc["late_match_rel"]),
    ]
    rates = {"mode_low": asdict(mode_fit)}
    plots = {"mode_low": np.column_stack([np.exp(times), table["mode_low"]])}
    if s["with_diameter"]:
        diam_fit = rate_fit(times, table["diameter"])
        checks.append(_le("diameter_slope_defect",
                          abs(diam_fit.slope - DIAMETER_SLOPE),
                          acc["diameter_slope_tol"]))
        rates["diameter"] = asdict(diam_fit)
        plots["diameter"] = np.column_stack([times, table["diameter"]])
    return table, checks, rates, plots


# ------------------------------------------------------------ gke elliptic

def _plane_coords(grid):
    return np.broadcast_arrays(grid.axis_coordinates(0),
                               grid.axis_coordinates(1))


def _run_gke_elliptic(cfg):
    m, s, acc = cfg.model, cfg.solver, cfg.acceptance
    grid = GridSpec(1, (m["n"],))
    x, y = _plane_coords(grid)
    exact = ScalarField(grid, m["amplitude"] * np.sin(2 * np.pi * x)
                        * np.cos(2 * np.pi * y))
    testbed = GkeTestbedSpec(grid, manufactured=exact,
                             flat_scale=m["flat_scale"])
    sol = solve_gke(testbed, tol=s["tol"], max_iter=s["max_iter"])

    err = float(np.max(np.abs(sol.potential.values - exact.values)))
    quad_ratio = 0.0
    for r0, r1 in zip(sol.residuals, sol.residuals[1:]):
        if acc["quadratic_lo"] <= r1 and r0 <= acc["quadratic_hi"]:
            quad_ratio = max(quad_ratio, r1 / r0 ** 2)
    twisted = twisted_einstein_residual(testbed, sol.potential.values)

    checks = [
        _le("residual_final", sol.residuals[-1], s["tol"]),
        _le("error_sup", err, acc["error_sup"]),
        _le("newton_iterations", sol.iterations, acc["max_newton"]),
        _le("quadratic_ratio", quad_ratio, acc["quadratic_factor"]),
        _le("twisted_identity", twisted, acc["twisted_tol"]),
    ]
    table = {"iteration": np.arange(len(sol.residuals)),
             "residual": sol.residuals}
    plots = {"residual": np.column_stack([table["iteration"], sol.residuals])}
    return table, checks, {}, plots


# ----------------------------------------------------------- gke parabolic

def _envelope(times, gaps, dgaps):
    """Fit the envelope d(gap)/dt <= C exp(-t) - gap at the samples.

    Returns the smallest such C >= 0, the largest defect
    dgap - (C exp(-t) - gap) left at the samples with it, and the hold-out
    defect: the largest defect at the later half of the samples against the
    C fitted on the earlier half.  The first defect is <= 0 up to rounding;
    the hold-out one is positive when the gap rises late.
    """
    samples = list(zip(times, gaps, dgaps))

    def fit(part):
        return max([0.0] + [math.exp(t) * (dg + g) for t, g, dg in part])

    def worst(c, part):
        return max([-math.inf] + [dg - (c * math.exp(-t) - g)
                                  for t, g, dg in part])

    constant, half = fit(samples), len(samples) // 2
    return (constant, worst(constant, samples),
            worst(fit(samples[:half]), samples[half:]))


def _run_gke_parabolic(cfg):
    m, s, acc = cfg.model, cfg.solver, cfg.acceptance
    grid = GridSpec(1, (m["n"],))
    # the bump is constant along y: its profile keeps rho a profile
    bump = m["transient_cos"] * np.cos(2 * np.pi * grid.axis_coordinates(0))
    rho = m["transient_scale"] + ddbar(grid, bump)

    table = parabolic_gke(grid, m["flat_scale"], m["density_const"], rho,
                          _sample_grid(s["t_end"], GKE_SAMPLES_PER_UNIT),
                          tol=s["tol"])
    times, gap_max = table["t"], table["gap_max"]
    constant, defect, holdout = _envelope(times, gap_max, table["dgap"])

    frac = acc["fit_window_fraction"]
    fit = rate_fit(times, gap_max, window=(frac * s["t_end"], s["t_end"]))

    checks = [
        _le("envelope_defect", defect, acc["envelope_slack"]),
        _le("envelope_holdout_defect", holdout, acc["envelope_slack"]),
        _le("envelope_constant", constant, acc["constant_max"]),
        _le("gap_slope", fit.slope, acc["slope_max"]),
    ]
    rates = {"gap_max": asdict(fit)}
    plots = {"gap": np.column_stack([times, gap_max])}
    return table, checks, rates, plots


# ----------------------------------------------------- semi-flat identities

def _fd_ddbar_scalar(fn, z):
    """d d-bar of a scalar function of one complex variable: the fourth-order
    stencil at steps 1e-2 and 5e-3, Richardson-combined to cancel its h^4
    term."""
    def stencil(step):
        acc = 0.0
        for h in (step, 1j * step):
            acc += (-fn(z + 2 * h) + 16 * fn(z + h) - 30 * fn(z)
                    + 16 * fn(z - h) - fn(z - 2 * h)) / (12 * step ** 2)
        return acc / 4.0
    return (16.0 * stencil(5e-3) - stencil(1e-2)) / 15.0


def _run_semiflat(cfg):
    m, s, acc = cfg.model, cfg.solver, cfg.acceptance
    rng = np.random.default_rng(cfg.seed)
    spec = SemiFlatSpec.from_model(m)
    rescale = [rescaling_check(spec, t) for t in s["times"]]
    rows = [("rescale_defect", t, d) for t, d in zip(s["times"], rescale)]

    # potential scaling at random probes, keeping fiber points off the slice
    # where the potential vanishes
    scaling_worst = 0.0
    z_pool = spec.base_points().ravel()
    for k in range(s["probe_points"]):
        z = z_pool[int(rng.integers(z_pool.size))]
        xi = complex(rng.uniform(0, 1), rng.uniform(0.25, 0.75))
        psi = semiflat_potential(spec, z, xi)
        probe = 0.0
        for t in s["times"]:
            lam = math.exp(0.5 * t)
            defect = abs(semiflat_potential(spec, z, lam * xi)
                         - lam ** 2 * psi) / (lam ** 2 * psi)
            probe = max(probe, defect)
        rows.append(("potential_scaling", float(k), probe))
        scaling_worst = max(scaling_worst, probe)

    # density splitting: wedge against a fiber-independent base factor
    zb, y = spec.patch()
    g_zz, g_zxi, g_xixi = semiflat_components(spec, zb, y)
    base_factor = 1.0 + m["density_cos"] * np.cos(
        2.0 * np.pi * zb.real / m["base_extent"])
    det = (base_factor + g_zz) * g_xixi - np.abs(g_zxi) ** 2
    dens = density_F(spec, 2.0 * det)
    constancy = fiber_constancy(dens)
    rows.append(("density_constancy", 0.0, constancy))

    # variation form against a divided-difference oracle
    wp = weil_petersson(spec)

    def neglog(zz):
        return -math.log(spec.modulus(zz).imag)

    wp_worst = 0.0
    flat_base = spec.base_points().ravel()
    for k in range(s["probe_points"]):
        pick = int(rng.integers(flat_base.size))
        wp_worst = max(wp_worst, abs(_fd_ddbar_scalar(neglog,
                                                      flat_base[pick])
                                     - wp.ravel()[pick]))
    rows.append(("variation_form_defect", 0.0, wp_worst))

    # curvature identity on a companion solvable testbed
    grid = GridSpec(1, (m["identity_n"],))
    gx, gy = _plane_coords(grid)
    eta = ScalarField(grid, m["eta_amplitude"] * np.sin(2 * np.pi * gx)
                      * np.cos(2 * np.pi * gy))
    density = ScalarField(grid, 1.0 + m["density_cos"] * 0.5
                          * np.cos(2 * np.pi * gx) * np.cos(2 * np.pi * gy))
    testbed = GkeTestbedSpec(grid, eta=eta, density=density)
    sol = solve_gke(testbed, tol=s["gke_tol"])
    twisted = twisted_einstein_residual(testbed, sol.potential.values)
    rows.append(("twisted_identity", 0.0, twisted))

    checks = [
        _le("rescale_defect", max([0.0] + rescale), acc["rescale_tol"]),
        _le("potential_scaling", scaling_worst, acc["scaling_tol"]),
        _le("density_constancy", constancy, acc["constancy_tol"]),
        _le("variation_form_defect", wp_worst, acc["wp_tol"]),
        _le("twisted_identity", twisted, acc["twisted_tol"]),
    ]
    plots = {"rescale": np.column_stack([s["times"], rescale])}
    table = dict(zip(CSV_COLUMNS["semiflat-identities"], zip(*rows)))
    return table, checks, {}, plots


# ----------------------------------------------------------------- registry

@dataclass(frozen=True)
class ExperimentDef:
    runner: object
    description: str


REGISTRY = {
    "product-ode": ExperimentDef(
        _run_product_ode,
        "rigid product scales: closed forms, collapse rate, curvature"),
    "fiber-flow": ExperimentDef(
        _run_fiber_flow,
        "torus-fiber potential flow: monitor and curvature bounds, rates"),
    "gke-elliptic": ExperimentDef(
        _run_gke_elliptic,
        "static fiber volume equation: manufactured recovery by Newton"),
    "gke-parabolic": ExperimentDef(
        _run_gke_parabolic,
        "relaxation under a decaying excess: gap envelope and rate"),
    "semiflat-identities": ExperimentDef(
        _run_semiflat,
        "semi-flat family identities: rescaling, density split, curvature"),
}


def run_experiment(cfg):
    """Execute one validated config and return its report."""
    table, checks, rates, plots = REGISTRY[cfg.experiment].runner(cfg)
    return ExperimentReport(cfg.experiment, asdict(cfg), table, checks, rates,
                            plots)


# ------------------------------------------------------------------ output

def _fmt(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _dump_json(path, payload):
    # strict JSON: a NaN or infinity goes through the round trip as null
    payload = json.loads(json.dumps(payload), parse_constant=lambda c: None)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               allow_nan=False) + "\n", encoding="utf-8")


def write_report(report, out_dir):
    """Serialize a report; returns the list of files written.  A column
    shorter than the others raises ValueError before any file is written."""
    rows = list(zip(*(report.table[c] for c in report.columns), strict=True))
    out = Path(out_dir)
    (out / "plots").mkdir(parents=True, exist_ok=True)
    written = []

    path = out / "diagnostics.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(report.columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    written.append(path)

    path = out / "acceptance.json"
    _dump_json(path, {"experiment": report.name, "passed": report.passed,
                      "checks": [asdict(c) for c in report.checks]})
    written.append(path)

    path = out / "rates.json"
    _dump_json(path, {"experiment": report.name, "fits": report.rates})
    written.append(path)

    path = out / "resolved_config.json"
    _dump_json(path, report.config)
    written.append(path)

    for name, data in sorted(report.plots.items()):
        path = out / "plots" / f"{name}.dat"
        lines = [f"{_fmt(a)} {_fmt(b)}" for a, b in np.asarray(data)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(path)
    return written


def write_error(out_dir, experiment, exc):
    """Record a solver failure in the output directory.

    A positivity failure also records the grid point where the cone was
    left and the eigenvalue or density found there.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "error.json"
    record = {"experiment": experiment,
              "error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, PositivityError):
        record.update(point=exc.point, value=exc.value)
    _dump_json(path, record)
    return path
