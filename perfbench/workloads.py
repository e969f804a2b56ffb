"""Workloads of the collapse-lab benchmark: inputs, operations and oracles.

An operation is one config run through ``collapse_lab.cli.main`` to a
written report, or, in ``newton-krylov``, one direct ``solve_gke`` call.
Each operation is judged by oracles computed here from the written
``diagnostics.csv`` (or the returned solution) with the benchmark's own
arithmetic; the program's ``acceptance.json`` verdicts are never read.

Inputs come from ``--seed`` through ``random.Random(seed)``.  Draw ranges
are narrow so that every seed asks for nearly the same amount of work and
every operation passes; see README.md for the ranges and why.
"""

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from collapse_lab import cli, config, gke
from collapse_lab.grids import GridSpec, ScalarField
from collapse_lab.models import GkeTestbedSpec

ROOT = Path(__file__).resolve().parent.parent
# newton-krylov and diameter-monitor run by hand only: BENCHMARK.json leaves
# them out to keep the gated runs steady on the reference machine (README.md)
WORKLOADS = ("shipped-suite", "flow-march", "diameter-monitor",
             "newton-krylov")

# ROADMAP item 4: flow.map_rhs takes log(a_hat) where exp(-t) is near machine
# epsilon, so this run fails vtilde_sup_max, q_sup_max and late_growth.
HORIZON_40_FAULT = "late-time precision loss in flow.map_rhs at horizon 40"


# ------------------------------------------------------------------ oracles

def _slope(xs, ys):
    """Least-squares slope of ys against xs."""
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    return sxy / sxx


def _log_slope(rows, column, keep, abscissa=lambda t: t):
    picked = [r for r in rows if keep(r["t"])]
    if len(picked) < 4 or any(not r[column] > 0.0 for r in picked):
        return math.nan
    return _slope([abscissa(r["t"]) for r in picked],
                  [math.log(r[column]) for r in picked])


def _check_product_ode(rows, cfg):
    a0, b0 = cfg.model["a0"], cfg.model["b0"]
    problems = []
    worst_scale = worst_diam = 0.0
    for r in rows:
        decay = math.exp(-r["t"])
        worst_scale = max(worst_scale,
                          abs(r["base_numeric"] / (1.0 + (a0 - 1.0) * decay)
                              - 1.0),
                          abs(r["fiber_numeric"] / (b0 * decay) - 1.0))
        # king-move diameter of a flat unit torus is half its diagonal
        flat = math.sqrt(r["fiber_numeric"]) * math.sqrt(2.0) / 2.0
        worst_diam = max(worst_diam, abs(r["diameter"] / flat - 1.0))
    if not worst_scale <= 1e-9:
        problems.append(f"scales off closed form by {worst_scale:.3e}")
    if not worst_diam <= 1e-12:
        problems.append(f"diameter off sqrt(b)*sqrt(2)/2 by {worst_diam:.3e}")
    return problems


def _check_fiber_flow(rows, cfg):
    model, solver = cfg.model, cfg.solver
    lo, hi = solver["mode_fit_window"]
    target = -math.pi ** 2 / model["b0"]
    slope = _log_slope(rows, "mode_low", lambda t: lo - 1e-9 <= t <= hi + 1e-9,
                       abscissa=math.exp)
    problems = []
    if not abs(slope - target) <= 0.02 * abs(target):
        problems.append(f"mode slope {slope:.6g} not within 2% of "
                        f"{target:.6g}")
    if not all(math.isfinite(r["dphi_sup"]) for r in rows):
        problems.append("dphi_sup not finite")
    if solver["with_diameter"]:
        half = rows[len(rows) // 2]["t"]
        dslope = _log_slope(rows, "diameter", lambda t: t >= half)
        if not abs(dslope + 0.5) <= 0.01:
            problems.append(f"log diameter slope {dslope:.6g} not -1/2")
    return problems


def _check_gke_parabolic(rows, cfg):
    t_end = cfg.solver["t_end"]
    slope = _log_slope(rows, "gap_max", lambda t: t >= 0.5 * t_end)
    return [] if slope <= -0.5 else [f"gap decay slope {slope:.6g} > -1/2"]


def _quadratic_problems(residuals, tol):
    problems = []
    if not residuals[-1] <= tol:
        problems.append(f"final residual {residuals[-1]:.3e} above {tol:.1e}")
    for r0, r1 in zip(residuals, residuals[1:]):
        if not r1 < r0:
            problems.append(f"residual grew from {r0:.3e} to {r1:.3e}")
        elif r0 <= 1e-2 and r1 >= 1e-8 and r1 > 1e3 * r0 ** 2:
            problems.append(f"residual {r0:.3e} -> {r1:.3e} not quadratic")
    return problems


def _check_gke_elliptic(rows, cfg):
    return _quadratic_problems([r["residual"] for r in rows],
                               cfg.solver["tol"])


def _check_curvature(rows, cfg):
    m, horizon = cfg.model, cfg.solver["horizon"]
    curv = [r["curvature_sup"] for r in rows]
    if not all(math.isfinite(c) for c in curv):
        return ["curvature not finite"]
    base = math.sqrt(m["base_dim"]) / (1.0 + (m["a0"] - 1.0)
                                       * math.exp(-horizon))
    late = abs(curv[-1] / base - 1.0)
    return [] if late <= 0.01 else [f"late curvature off base by {late:.3e}"]


def _check_semiflat(rows, cfg):
    worst = max(r["value"] for r in rows
                if r["check"] in ("rescale_defect", "potential_scaling"))
    return [] if worst <= 1e-12 else [f"identity defect {worst:.3e}"]


ORACLES = {
    "product-ode": _check_product_ode,
    "fiber-flow": _check_fiber_flow,
    "gke-parabolic": _check_gke_parabolic,
    "gke-elliptic": _check_gke_elliptic,
    "curvature-bound": _check_curvature,
    "semiflat-identities": _check_semiflat,
}


def read_table(path):
    """Rows of a diagnostics.csv, numeric cells as floats."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for key, value in row.items():
            try:
                row[key] = float(value)
            except ValueError:
                pass
    return rows


def manufactured(n, amplitude):
    """A sin(2 pi x) cos(2 pi y) on the n x n unit torus grid."""
    x = np.arange(n)[:, None] / n
    y = np.arange(n)[None, :] / n
    return amplitude * np.sin(2.0 * np.pi * x) * np.cos(2.0 * np.pi * y)


# --------------------------------------------------------------- operations

@dataclass
class ConfigOp:
    """One config file run through the CLI to a report."""

    path: Path
    cfg: object
    known_fault: str = None

    @property
    def label(self):
        return self.path.stem

    def run(self, out_root):
        return cli.main(["run", "--config", str(self.path),
                         "--out", str(out_root)]), out_root / self.label

    def judge(self, outcome):
        code, out_dir = outcome
        if code != 0:
            return [f"exit code {code}"]
        try:
            rows = read_table(out_dir / "diagnostics.csv")
        except OSError as exc:
            return [f"no diagnostics: {exc}"]
        return ORACLES[self.cfg.experiment](rows, self.cfg)

    def fingerprint(self, outcome):
        digest = hashlib.sha256()
        out_dir = outcome[1]
        for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(out_dir)).encode())
            digest.update(path.read_bytes())
        return digest.hexdigest()


@dataclass
class SolveOp:
    """One manufactured gke-elliptic solve called directly."""

    amplitude: float
    testbed: object
    tol: float
    max_iter: int
    max_newton: int
    known_fault = None

    @property
    def label(self):
        return f"solve_amp{self.amplitude:.6f}"

    def run(self, out_root):
        return gke.solve_gke(self.testbed, tol=self.tol,
                             max_iter=self.max_iter)

    def judge(self, sol):
        u = sol.potential.values
        exact = manufactured(u.shape[0], self.amplitude)
        err = float(np.max(np.abs(u - exact)))
        problems = _quadratic_problems(sol.residuals, self.tol)
        if not err <= 1e-7:
            problems.append(f"potential off manufactured by {err:.3e}")
        if not sol.iterations <= self.max_newton:
            problems.append(f"{sol.iterations} Newton iterations")
        return problems

    def fingerprint(self, sol):
        digest = hashlib.sha256(sol.potential.values.tobytes())
        digest.update(repr((sol.iterations, sol.residuals)).encode())
        return digest.hexdigest()


# -------------------------------------------------------------------- setup

def _config_ops(work, configs, faults=None):
    """Write each config to ``work`` and load it back through validation."""
    work.mkdir(parents=True, exist_ok=True)
    ops = []
    for stem, data in configs.items():
        path = work / f"{stem}.json"
        path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
        ops.append(ConfigOp(path, config.load_config(path),
                            known_fault=(faults or {}).get(stem)))
    return ops


def _flow_model(rng, n):
    # a0 and the amplitude stay at or below the shipped (2.0, 0.05), whose
    # frozen monitor ceilings larger values can exceed
    return {"n": n, "a0": rng.uniform(1.9, 2.0),
            "amplitude_rel": rng.uniform(0.04, 0.05)}


def setup(name, seed, work):
    """Validate the workload's configs and build its inputs; return its ops."""
    rng = random.Random(seed)
    if name == "shipped-suite":
        paths = sorted((ROOT / "configs").glob("*.json"))
        rng.shuffle(paths)
        return [ConfigOp(p, config.load_config(p)) for p in paths]
    if name == "flow-march":
        return _config_ops(work, {
            "flow_n64": {"experiment": "fiber-flow", "seed": seed,
                         "model": _flow_model(rng, 64),
                         "solver": {"with_diameter": False}},
            "flow_horizon40": {"experiment": "fiber-flow",
                               "model": {"n": 16},
                               "solver": {"horizon": 40.0,
                                          "with_diameter": False}},
        }, faults={"flow_horizon40": HORIZON_40_FAULT})
    if name == "diameter-monitor":
        return _config_ops(work, {
            "flow_n32_diameter": {"experiment": "fiber-flow", "seed": seed,
                                  "model": _flow_model(rng, 32)},
            "product_r64": {"experiment": "product-ode", "seed": seed,
                            "model": {"a0": rng.uniform(2.0, 4.0),
                                      "b0": rng.uniform(0.25, 1.0),
                                      "fiber_resolution": 64}},
        })
    if name == "newton-krylov":
        cfg = config.validate_config({"experiment": "gke-elliptic",
                                      "seed": seed, "model": {"n": 128},
                                      "solver": {"tol": 1e-11}})
        n, scale = cfg.model["n"], cfg.model["flat_scale"]
        grid = GridSpec(1, (n,))
        ops = []
        # positivity needs amplitude < flat_scale/(2 pi^2) ~ 0.2; this band
        # keeps five Newton steps for every seed (see README.md)
        for amplitude in sorted(rng.uniform(0.075, 0.095) for _ in range(4)):
            exact = ScalarField(grid, manufactured(n, amplitude))
            ops.append(SolveOp(
                amplitude, GkeTestbedSpec(grid, manufactured=exact,
                                          flat_scale=scale),
                tol=cfg.solver["tol"], max_iter=cfg.solver["max_iter"],
                max_newton=cfg.acceptance["max_newton"]))
        return ops
    raise ValueError(f"unknown workload {name!r}, want one of {WORKLOADS}")
