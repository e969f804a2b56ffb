"""Acceptance suite: eight verdicts, one per quantitative claim.

Every test runs the shipped experiment configs (plus the extra product
scale pairs), pins the tolerance literals locally, and finishes by printing
a single pass/fail line, so `pytest -v -s tests/test_acceptance.py` reads
as the lab report.  Bounds live here on purpose: if a shipped config
drifts, the suite fails even though the config's own checks pass.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from collapse_lab.config import load_config, validate_config
from collapse_lab.experiments import run_experiment

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

PRODUCT_PAIRS = ((1.0, 1.0), (3.0, 0.5), (0.5, 2.0))


@pytest.fixture(scope="module")
def reports():
    out = {}
    for stem in ("fiber_flow", "fiber_flow_small", "gke_elliptic",
                 "gke_parabolic", "semiflat_identities", "curvature_bound"):
        out[stem] = run_experiment(load_config(CONFIG_DIR / f"{stem}.json"))
    for a0, b0 in PRODUCT_PAIRS:
        cfg = validate_config({"experiment": "product-ode",
                               "model": {"a0": a0, "b0": b0}})
        out[f"product_{a0}_{b0}"] = run_experiment(cfg)
    return out


def _check(report, name):
    for c in report.checks:
        if c.name == name:
            return c
    raise AssertionError(f"no check named {name} in {report.name}")


def _verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok


def test_criterion_1_product_scales_match_closed_forms(reports):
    worst_closed = worst_ratio = 0.0
    for a0, b0 in PRODUCT_PAIRS:
        rep = reports[f"product_{a0}_{b0}"]
        worst_closed = max(worst_closed,
                           _check(rep, "closed_form_defect").measured)
        worst_ratio = max(worst_ratio,
                          _check(rep, "eig_ratio_defect").measured)
    _verdict(1, worst_closed <= 1e-8 and worst_ratio <= 1e-10,
             f"closed-form defect {worst_closed:.2e} <= 1e-8, "
             f"eigenvalue-ratio defect {worst_ratio:.2e} <= 1e-10")


def test_criterion_2_diameter_halving_rate(reports):
    defects = []
    for key in ("product_3.0_0.5", "fiber_flow"):
        slope = reports[key].rates["diameter"]["slope"]
        defects.append(abs(slope - (-0.5)))
    worst = max(defects)
    _verdict(2, worst <= 0.01,
             f"fiber diameter slope within {worst:.2e} of -1/2 "
             f"on product and fiber-flow runs")


def test_criterion_3_flow_monitors_stay_bounded(reports):
    rep = reports["fiber_flow"]
    frozen = {"phi_sup_max": 0.40, "dphi_sup_max": 1.20,
              "volume_ratio_max": 3.05, "q_sup_max": 1.20}
    ok = True
    for name, bound in frozen.items():
        c = _check(rep, name)
        ok = ok and c.passed and c.bound == bound
    low = _check(rep, "volume_ratio_min")
    ok = ok and low.passed and low.bound == 0.30
    growth = _check(rep, "late_growth")
    ok = ok and growth.passed and growth.measured <= 1e-9
    _verdict(3, ok,
             f"sup-potential {_check(rep, 'phi_sup_max').measured:.3f}, "
             f"sup-velocity {_check(rep, 'dphi_sup_max').measured:.3f}, "
             f"volume ratio <= {_check(rep, 'volume_ratio_max').measured:.3f}"
             f", late growth {growth.measured:+.1e}")


def test_criterion_4_blown_up_potential_and_mode_decay(reports):
    rep = reports["fiber_flow_small"]
    vt = _check(rep, "vtilde_sup_max")
    slope = rep.rates["mode_low"]["slope"]
    b0 = rep.config["model"]["b0"]
    target = -math.pi ** 2 / b0
    rel = abs(slope - target) / abs(target)
    _verdict(4, vt.passed and rel <= 0.02,
             f"blown-up potential sup {vt.measured:.2e} bounded, "
             f"mode decay slope {slope:.6f} vs {target:.6f} "
             f"(rel defect {rel:.2e} <= 0.02)")


def test_criterion_5_manufactured_solution_recovery(reports):
    rep = reports["gke_elliptic"]
    err = _check(rep, "error_sup")
    iters = _check(rep, "newton_iterations")
    residuals = list(rep.table["residual"])
    monotone = all(b < a for a, b in zip(residuals, residuals[1:]))
    quad = _check(rep, "quadratic_ratio")
    ok = (err.measured <= 1e-7 and iters.measured <= 10
          and monotone and quad.passed)
    _verdict(5, ok,
             f"recovery error {err.measured:.2e} <= 1e-7 in "
             f"{int(iters.measured)} Newton steps, residuals monotone, "
             f"contraction ratio {quad.measured:.2f}")


def test_criterion_6_gap_envelope_and_decay(reports):
    rep = reports["gke_parabolic"]
    env = _check(rep, "envelope_defect")
    hold = _check(rep, "envelope_holdout_defect")
    slope = _check(rep, "gap_slope")
    const = _check(rep, "envelope_constant")
    ok = (env.passed and hold.passed and slope.measured <= -0.5
          and const.passed)
    _verdict(6, ok,
             f"envelope holds at every sample, dA/dt read from the "
             f"velocity, for "
             f"C={const.measured:.3f} (defect {env.measured:+.1e}; "
             f"first-half C on the second half {hold.measured:+.1e}), "
             f"gap slope {slope.measured:.3f} <= -0.5")


def test_criterion_7_semiflat_identities(reports):
    rep = reports["semiflat_identities"]
    rescale = _check(rep, "rescale_defect")
    scaling = _check(rep, "potential_scaling")
    constancy = _check(rep, "density_constancy")
    twisted = _check(rep, "twisted_identity")
    ok = (rescale.measured <= 1e-12 and scaling.measured <= 1e-12
          and constancy.measured <= 1e-10 and twisted.measured <= 1e-6)
    _verdict(7, ok,
             f"rescaling defect {rescale.measured:.1e} <= 1e-12, "
             f"density constancy {constancy.measured:.1e} <= 1e-10, "
             f"curvature identity {twisted.measured:.1e} <= 1e-6")


def test_criterion_8_curvature_stays_bounded(reports):
    finite = True
    for key, rep in reports.items():
        if "curvature_sup" not in rep.columns:
            continue
        curv = np.asarray(rep.table["curvature_sup"])
        finite = finite and bool(np.all(np.isfinite(curv)))
    bound_rep = reports["curvature_bound"]
    worst = _check(bound_rep, "curvature_sup_max")
    late = _check(bound_rep, "late_base_match")
    prod = _check(reports["product_3.0_0.5"], "curvature_rel_defect")
    ok = finite and worst.passed and late.measured <= 0.01 \
        and prod.measured <= 0.01
    _verdict(8, ok,
             f"curvature finite on every run (max {worst.measured:.1f}), "
             f"late-time base match defect {late.measured:.1e}, "
             f"product match defect {prod.measured:.1e} <= 0.01")
