"""Experiment configuration: JSON schemas, defaults, validation.

Configs are plain JSON with an ``experiment`` selector and three sections
(model, solver, acceptance).  Validation fills defaults, rejects unknown
keys with their dotted path, and range-checks every leaf.  Acceptance
thresholds ship as defaults so a bare config runs the full verification
suite for its experiment.
"""

import json
import math
import sys
from dataclasses import dataclass

from .models import SemiFlatSpec

_REQUIRED = object()


class ConfigError(ValueError):
    """Malformed, unknown, or out-of-range configuration input."""


@dataclass(frozen=True)
class Field:
    default: object = _REQUIRED
    kind: str = "float"
    positive: bool = False
    even: bool = False
    lo: object = None
    hi: object = None
    choices: tuple = None
    length: int = None
    allow_none: bool = False


def _type_ok(kind, value):
    if kind == "float":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind == "int":
        return isinstance(value, int) and not isinstance(value, bool)
    if kind == "bool":
        return isinstance(value, bool)
    if kind == "str":
        return isinstance(value, str)
    return False


def _finite(path, value):
    """A number as a finite float; JSON admits NaN, Infinity and 10**400."""
    if not _type_ok("float", value):
        raise ConfigError(f"{path}: expected float, got {value!r}")
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{path}: must be finite, got {value!r}")
    return float(value)


def _coerce(path, field, value):
    if value is None:
        if field.allow_none:
            return None
        raise ConfigError(f"{path}: may not be null")
    if field.kind in ("floats", "pairs"):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a list")
        if field.length is not None and len(value) != field.length:
            raise ConfigError(f"{path}: expected {field.length} entries, "
                              f"got {len(value)}")
        if field.kind == "pairs":  # [real, imag] pairs
            pair = Field(kind="floats", length=2)
            return tuple(_coerce(f"{path}[{i}]", pair, v)
                         for i, v in enumerate(value))
        # a floats field's bounds hold for each entry
        entry = Field(positive=field.positive, lo=field.lo, hi=field.hi)
        return tuple(_coerce(f"{path}[{i}]", entry, v)
                     for i, v in enumerate(value))
    if field.kind == "float":
        value = _finite(path, value)
    elif not _type_ok(field.kind, value):
        raise ConfigError(f"{path}: expected {field.kind}, got {value!r}")
    if field.choices is not None and value not in field.choices:
        raise ConfigError(f"{path}: must be one of {field.choices}, got {value!r}")
    if field.positive and not value > 0:
        raise ConfigError(f"{path}: must be positive (breaks a positivity "
                          f"invariant), got {value!r}")
    if field.even and value % 2:
        raise ConfigError(f"{path}: must be even, got {value!r}")
    if field.lo is not None and value < field.lo:
        raise ConfigError(f"{path}: must be >= {field.lo}, got {value!r}")
    if field.hi is not None and value > field.hi:
        raise ConfigError(f"{path}: must be <= {field.hi}, got {value!r}")
    return value


def _apply(path, schema, data):
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config'}: expected an object")
    unknown = sorted(set(data) - set(schema))
    if unknown:
        where = f"{path}.{unknown[0]}" if path else unknown[0]
        raise ConfigError(f"{where}: unknown key")
    out = {}
    for key, spec in schema.items():
        sub = f"{path}.{key}" if path else key
        if isinstance(spec, dict):
            out[key] = _apply(sub, spec, data.get(key, {}))
        elif key in data:
            out[key] = _coerce(sub, spec, data[key])
        elif spec.default is _REQUIRED:
            raise ConfigError(f"{sub}: required key missing")
        else:
            out[key] = spec.default
    return out


SCHEMAS = {
    "product-ode": {
        "model": {
            "a0": Field(3.0, positive=True),
            "b0": Field(0.5, positive=True),
            "base_dim": Field(1, "int", lo=1, hi=4),
            "fiber_resolution": Field(16, "int", even=True, lo=8, hi=128),
        },
        "solver": {
            "horizon": Field(10.0, positive=True, hi=40.0),
            "ode_tol": Field(1e-13, positive=True, hi=1e-4),
            "samples_per_unit": Field(2, "int", lo=1, hi=50),
        },
        "acceptance": {
            "closed_form_tol": Field(1e-8, positive=True),
            "eig_ratio_tol": Field(1e-10, positive=True),
            "diameter_slope_tol": Field(0.01, positive=True),
            "curvature_rel_tol": Field(0.01, positive=True),
        },
    },
    "fiber-flow": {
        "model": {
            "n": Field(16, "int", even=True, lo=8, hi=128),
            "b0": Field(1.0, positive=True),
            "a0": Field(2.0, positive=True),
            "base_dim": Field(1, "int", lo=1, hi=4),
            "amplitude_rel": Field(0.05, positive=True, hi=0.2),
        },
        "solver": {
            "horizon": Field(10.0, positive=True, hi=40.0),
            "tol": Field(1e-8, positive=True, hi=1e-4),
            "samples_per_unit": Field(2, "int", lo=1, hi=50),
            "mode_fit_window": Field((0.2, 1.0), "floats", length=2),
            "mode_fit_step": Field(0.05, positive=True),
            "with_diameter": Field(True, "bool"),
        },
        "acceptance": {
            # monitor ceilings are regression baselines frozen from the
            # first verified run of the shipped config, with headroom
            "phi_sup_bound": Field(0.40),
            "dphi_sup_bound": Field(1.20),
            "volume_ratio_low": Field(0.30, positive=True),
            "volume_ratio_high": Field(3.05, positive=True),
            "vtilde_bound": Field(0.10, positive=True),
            "q_bound": Field(1.20, positive=True),
            "no_growth_slack": Field(1e-9, positive=True),
            "mode_slope_rel_tol": Field(0.02, positive=True),
            "diameter_slope_tol": Field(0.01, positive=True),
            "curvature_cap": Field(1e6, positive=True),
            "late_match_rel": Field(0.01, positive=True),
        },
    },
    "gke-elliptic": {
        "model": {
            "n": Field(64, "int", even=True, lo=8, hi=128),
            "flat_scale": Field(4.0, positive=True),
            "mode": Field("manufactured", "str",
                          choices=("manufactured", "constant")),
            "amplitude": Field(0.1),
            "density_const": Field(2.0, positive=True),
        },
        "solver": {
            "tol": Field(1e-10, positive=True),
            "max_iter": Field(50, "int", lo=1, hi=200),
        },
        "acceptance": {
            "error_sup": Field(1e-7, positive=True),
            "max_newton": Field(10, "int", lo=1),
            "quadratic_lo": Field(1e-8, positive=True),
            "quadratic_hi": Field(1e-2, positive=True),
            "quadratic_factor": Field(1e3, positive=True),
            "twisted_tol": Field(1e-6, positive=True),
        },
    },
    "gke-parabolic": {
        "model": {
            "n": Field(16, "int", even=True, lo=8, hi=64),
            "flat_scale": Field(1.0, positive=True),
            "density_const": Field(1.0, positive=True),
            "transient_scale": Field(0.25, lo=0),
            "transient_cos": Field(0.02, lo=0),
        },
        "solver": {
            "t_end": Field(6.0, positive=True, hi=40.0),
            "tol": Field(1e-8, positive=True, hi=1e-4),
        },
        "acceptance": {
            "slope_max": Field(-0.5),
            "envelope_slack": Field(1e-9, positive=True),
            "constant_max": Field(100.0, positive=True),
            "fit_window_fraction": Field(0.5, positive=True, hi=0.9),
        },
    },
    "semiflat-identities": {
        "model": {
            "fiber_n": Field(16, "int", lo=8, hi=64),
            "base_n": Field(24, "int", lo=8, hi=64),
            "base_extent": Field(1.0, positive=True),
            "tau_coeffs": Field(((0.0, 1.0), (0.2, 0.0)), "pairs"),
            "identity_n": Field(32, "int", even=True, lo=8, hi=64),
            "eta_amplitude": Field(0.03, lo=0, hi=0.05),
            "density_cos": Field(0.3, lo=0, hi=0.9),
        },
        "solver": {
            "times": Field((0.0, 1.0, 5.0), "floats", lo=0, hi=40.0),
            "gke_tol": Field(1e-11, positive=True),
            "probe_points": Field(6, "int", lo=1, hi=64),
        },
        "acceptance": {
            "rescale_tol": Field(1e-12, positive=True),
            "scaling_tol": Field(1e-12, positive=True),
            "constancy_tol": Field(1e-10, positive=True),
            "wp_tol": Field(1e-8, positive=True),
            "twisted_tol": Field(1e-6, positive=True),
        },
    },
}


EXPERIMENTS = tuple(SCHEMAS)

# fiber-flow takes sample times closer than this as one, so its horizon
# must exceed it
SAMPLE_SPACING = 1e-9
# the most samples the base grid can hold: horizon 40 at 50 per unit
_MAX_SAMPLES = int(math.prod(SCHEMAS["fiber-flow"]["solver"][key].hi
                             for key in ("horizon", "samples_per_unit"))) + 1


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int
    out: str
    model: dict
    solver: dict
    acceptance: dict


def validate_config(data):
    """Validate a parsed JSON document into an ExperimentConfig."""
    if not isinstance(data, dict):
        raise ConfigError("config: expected a JSON object")
    name = data.get("experiment")
    if name is None:
        raise ConfigError("experiment: required key missing")
    if name not in SCHEMAS:
        raise ConfigError(f"experiment: unknown experiment {name!r}, "
                          f"want one of {EXPERIMENTS}")
    envelope = {
        "experiment": Field(kind="str", choices=EXPERIMENTS),
        "seed": Field(0, "int", lo=0),
        "out": Field(None, "str", allow_none=True),
        "model": SCHEMAS[name]["model"],
        "solver": SCHEMAS[name]["solver"],
        "acceptance": SCHEMAS[name]["acceptance"],
    }
    out = _apply("", envelope, data)
    _cross_checks(name, out)
    return ExperimentConfig(experiment=out["experiment"], seed=out["seed"],
                            out=out["out"], model=out["model"],
                            solver=out["solver"], acceptance=out["acceptance"])


def _cross_checks(name, out):
    solver = out["solver"]
    if name == "fiber-flow":
        if not solver["horizon"] > SAMPLE_SPACING:
            raise ConfigError(f"solver.horizon: must exceed {SAMPLE_SPACING}, "
                              "the spacing below which samples merge")
        lo, hi = solver["mode_fit_window"]
        if not 0.0 <= lo < hi:
            raise ConfigError("solver.mode_fit_window: need 0 <= lo < hi")
        if hi > solver["horizon"]:
            raise ConfigError("solver.mode_fit_window: exceeds the horizon")
        # the window takes ceil((hi - lo) / step + 1/2) samples
        if (hi - lo) / solver["mode_fit_step"] + 0.5 > _MAX_SAMPLES:
            raise ConfigError(f"solver.mode_fit_step: the window takes more "
                              f"than {_MAX_SAMPLES} samples")
        # the start metric is b0 (1 - pi^2 amplitude_rel sin 2 pi x); the
        # bound on its smallest eigenvalue is exact when 4 divides n
        amp = out["model"]["amplitude_rel"]
        if not math.pi ** 2 * amp < 1.0:
            raise ConfigError(f"model.amplitude_rel: leaves the positive "
                              f"cone, need pi^2 amplitude_rel < 1, got "
                              f"{amp!r}")
    if name == "gke-elliptic" and out["model"]["mode"] == "manufactured":
        # a sin(2 pi x) cos(2 pi y) has ddbar -2 pi^2 times itself; the
        # bound on its smallest eigenvalue is exact when 4 divides n
        amp, scale = out["model"]["amplitude"], out["model"]["flat_scale"]
        if not 2.0 * math.pi ** 2 * abs(amp) < scale:
            raise ConfigError(f"model.amplitude: leaves the positive cone, "
                              f"need 2 pi^2 |amplitude| < flat_scale = "
                              f"{scale!r}, got {amp!r}")
    if name == "gke-parabolic":
        # the excess scale + ddbar(c cos 2 pi x) has ddbar -pi^2 c cos 2 pi x,
        # so its smallest eigenvalue scale - pi^2 c is taken at x = 0
        amp, scale = (out["model"]["transient_cos"],
                      out["model"]["transient_scale"])
        if not math.pi ** 2 * amp <= scale:
            raise ConfigError(f"model.transient_cos: the transient excess "
                              f"is not semidefinite, need pi^2 "
                              f"transient_cos <= transient_scale = "
                              f"{scale!r}, got {amp!r}")
    if name == "semiflat-identities":
        if not solver["times"]:
            raise ConfigError("solver.times: may not be empty")
        if not out["model"]["tau_coeffs"]:
            raise ConfigError("model.tau_coeffs: may not be empty")
        # the spec holds the modulus in the upper half plane on the patch
        try:
            SemiFlatSpec.from_model(out["model"])
        except ValueError as exc:
            raise ConfigError(f"model.tau_coeffs: {exc}") from None


def load_config(path):
    """Read and validate a JSON config file."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return validate_config(data)
