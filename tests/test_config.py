"""Schema validation for experiment configs."""

import json
import math
from dataclasses import asdict

import pytest

from collapse_lab import cli
from collapse_lab.config import (ConfigError, EXPERIMENTS, SCHEMAS,
                                 load_config, validate_config)


def test_minimal_product_config_fills_defaults():
    cfg = validate_config({"experiment": "product-ode",
                           "model": {"a0": 1.0, "b0": 1.0}})
    assert cfg.experiment == "product-ode"
    assert cfg.model["a0"] == 1.0
    assert cfg.model["fiber_resolution"] == 16
    assert cfg.solver["horizon"] == 10.0
    assert cfg.acceptance["closed_form_tol"] == 1e-8
    assert cfg.seed == 0
    assert cfg.out is None


def test_unknown_top_level_key_is_named():
    with pytest.raises(ConfigError, match="bogus: unknown key"):
        validate_config({"experiment": "product-ode", "bogus": 1})


def test_unknown_nested_key_carries_path():
    with pytest.raises(ConfigError, match=r"model\.alpha: unknown key"):
        validate_config({"experiment": "fiber-flow", "model": {"alpha": 2.0}})


def test_negative_fiber_scale_cites_positivity():
    with pytest.raises(ConfigError, match=r"model\.b0: must be positive"):
        validate_config({"experiment": "product-ode", "model": {"b0": -1}})


def test_wrong_type_is_rejected_with_path():
    with pytest.raises(ConfigError, match=r"model\.a0: expected float"):
        validate_config({"experiment": "product-ode", "model": {"a0": "three"}})


def test_unknown_experiment_lists_known_names():
    with pytest.raises(ConfigError, match="product-ode"):
        validate_config({"experiment": "warp-drive"})


def test_missing_experiment_key():
    with pytest.raises(ConfigError, match="experiment: required key missing"):
        validate_config({"model": {"a0": 1.0}})


def test_odd_resolution_rejected():
    with pytest.raises(ConfigError, match=r"model\.n: must be even"):
        validate_config({"experiment": "fiber-flow", "model": {"n": 15}})


def test_negative_seed_rejected():
    with pytest.raises(ConfigError, match="seed: must be >= 0"):
        validate_config({"experiment": "product-ode", "seed": -3})


def test_window_needs_two_entries():
    with pytest.raises(ConfigError, match=r"solver\.mode_fit_window: expected 2"):
        validate_config({"experiment": "fiber-flow",
                         "solver": {"mode_fit_window": [0.1]}})


def test_tau_coeffs_must_be_pairs():
    with pytest.raises(ConfigError, match=r"model\.tau_coeffs\[1\]"):
        validate_config({"experiment": "semiflat-identities",
                         "model": {"tau_coeffs": [[0.0, 1.0], [0.2]]}})


# Im tau is -1 for -i; for i + 3z it is 1 + 3 Im z, -0.5 at Im z = -1/2
@pytest.mark.parametrize("coeffs, why", [
    ([], "may not be empty"),
    ([[0.0, -1.0]], "modulus must stay in the upper half plane"),
    ([[0.0, 1.0], [3.0, 0.0]], "modulus must stay in the upper half plane"),
], ids=["empty", "-i", "i+3z"])
def test_modulus_off_the_upper_half_plane_is_rejected(coeffs, why):
    with pytest.raises(ConfigError, match=r"model\.tau_coeffs: " + why):
        validate_config({"experiment": "semiflat-identities",
                         "model": {"tau_coeffs": coeffs}})


def test_default_modulus_is_accepted():
    cfg = validate_config({"experiment": "semiflat-identities"})
    assert cfg.model["tau_coeffs"] == ((0.0, 1.0), (0.2, 0.0))


def test_run_of_a_modulus_below_the_real_axis_exits_two(tmp_path, capsys):
    path = tmp_path / "semiflat.json"
    path.write_text(json.dumps({"experiment": "semiflat-identities",
                                "model": {"tau_coeffs": [[0.0, -1.0]]}}),
                    encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert "model.tau_coeffs:" in capsys.readouterr().err
    assert not out.exists()


def test_dt_policy_choices():
    # the step-size policy had one legal value and is no longer a key
    with pytest.raises(ConfigError, match=r"solver\.dt_policy: unknown key"):
        validate_config({"experiment": "fiber-flow",
                         "solver": {"dt_policy": "adaptive"}})


def test_limit_tol_is_no_longer_a_key(tmp_path, capsys):
    # gke-parabolic's limit is the closed form -log F: no solve to tune
    path = tmp_path / "parabolic.json"
    path.write_text(json.dumps({"experiment": "gke-parabolic",
                                "solver": {"limit_tol": 1e-11}}),
                    encoding="utf-8")
    assert cli.main(["validate", "--config", str(path)]) == 2
    assert "solver.limit_tol: unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["product-ode", "fiber-flow"])
def test_diameter_slope_is_no_longer_a_key(tmp_path, capsys, experiment):
    # the collapse rate diam ~ exp(-t/2) is the paper's, not a knob
    path = tmp_path / "slope.json"
    path.write_text(json.dumps({"experiment": experiment,
                                "acceptance": {"diameter_slope": -0.5}}),
                    encoding="utf-8")
    assert cli.main(["validate", "--config", str(path)]) == 2
    assert "acceptance.diameter_slope: unknown key" in \
        capsys.readouterr().err


def _leaves(schema):
    for spec in schema.values():
        if isinstance(spec, dict):
            yield from _leaves(spec)
        else:
            yield spec


def test_no_schema_leaf_has_a_single_choice():
    for name, schema in SCHEMAS.items():
        for leaf in _leaves(schema):
            assert leaf.choices is None or len(leaf.choices) >= 2, name


@pytest.mark.parametrize("amplitude", [0.21, -0.21])
def test_manufactured_amplitude_outside_the_cone_is_rejected(amplitude):
    with pytest.raises(ConfigError, match=r"model\.amplitude: leaves the"):
        validate_config({"experiment": "gke-elliptic",
                         "model": {"amplitude": amplitude, "flat_scale": 4.0}})


def test_manufactured_amplitude_inside_the_cone_is_accepted():
    cfg = validate_config({"experiment": "gke-elliptic",
                           "model": {"amplitude": 0.1, "flat_scale": 4.0}})
    assert cfg.model["amplitude"] == 0.1


@pytest.mark.parametrize("experiment", ["fiber-flow"])
@pytest.mark.parametrize("amplitude, code", [(0.11, 2), (0.10, 0)],
                         ids=["outside", "inside"])
def test_flow_amplitude_is_held_inside_the_cone(tmp_path, capsys,
                                                experiment, amplitude, code):
    # the start metric's smallest eigenvalue b0 (1 - pi^2 amplitude_rel) is
    # -0.086 b0 at 0.11 and 0.013 b0 at 0.10
    path = tmp_path / "flow.json"
    path.write_text(json.dumps({"experiment": experiment,
                                "model": {"amplitude_rel": amplitude}}),
                    encoding="utf-8")
    assert cli.main(["validate", "--config", str(path)]) == code
    rejected = "model.amplitude_rel: leaves the positive cone" in \
        capsys.readouterr().err
    assert rejected == (code == 2)


def test_transient_outside_the_semidefinite_cone_is_rejected(tmp_path,
                                                              capsys):
    # 0.25 - pi^2 0.03 < 0: the excess is indefinite at x = 0
    path = tmp_path / "transient.json"
    path.write_text(json.dumps({"experiment": "gke-parabolic",
                                "model": {"transient_cos": 0.03}}),
                    encoding="utf-8")
    assert cli.main(["validate", "--config", str(path)]) == 2
    assert "model.transient_cos: the transient excess" in \
        capsys.readouterr().err


@pytest.mark.parametrize("model", [
    {}, {"transient_cos": 0.0, "transient_scale": 0.0}],
    ids=["default", "no-transient"])
def test_transient_inside_the_semidefinite_cone_is_accepted(model):
    cfg = validate_config({"experiment": "gke-parabolic", "model": model})
    m = cfg.model
    assert math.pi ** 2 * m["transient_cos"] <= m["transient_scale"]


def test_malformed_json_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)


def test_load_roundtrip(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps({"experiment": "gke-parabolic", "seed": 7}),
                    encoding="utf-8")
    cfg = load_config(path)
    assert cfg.seed == 7
    assert cfg.model["transient_scale"] == 0.25
    echo = asdict(cfg)
    assert echo["experiment"] == "gke-parabolic"
    assert echo["solver"]["t_end"] == 6.0


def test_every_experiment_validates_bare():
    for name in EXPERIMENTS:
        cfg = validate_config({"experiment": name})
        assert cfg.experiment == name


@pytest.mark.parametrize("payload, path", [
    ({"experiment": "fiber-flow", "acceptance": {"phi_sup_bound": math.inf}},
     r"acceptance\.phi_sup_bound"),
    ({"experiment": "fiber-flow",
      "acceptance": {"diameter_slope_tol": math.nan}},
     r"acceptance\.diameter_slope_tol"),
    ({"experiment": "fiber-flow", "solver": {"mode_fit_step": math.inf}},
     r"solver\.mode_fit_step"),
    ({"experiment": "fiber-flow", "model": {"b0": 10 ** 400}},
     r"model\.b0"),
    ({"experiment": "fiber-flow",
      "solver": {"mode_fit_window": [0.2, math.inf]}},
     r"solver\.mode_fit_window\[1\]"),
    ({"experiment": "semiflat-identities",
      "model": {"tau_coeffs": [[0.0, 1.0], [math.nan, 0.0]]}},
     r"model\.tau_coeffs\[1\]\[0\]"),
    ({"experiment": "semiflat-identities",
      "solver": {"times": [0.0, -math.inf]}},
     r"solver\.times\[1\]"),
], ids=["inf", "nan", "inf-step", "huge-int", "floats", "pairs", "times"])
def test_non_finite_numbers_are_rejected_with_their_path(tmp_path, payload,
                                                         path):
    # Python's json reads NaN, Infinity and -Infinity, and writes them back
    text = json.dumps(payload)
    with pytest.raises(ConfigError, match=path + ": must be finite"):
        validate_config(json.loads(text))
    config = tmp_path / "c.json"
    config.write_text(text, encoding="utf-8")
    assert cli.main(["validate", "--config", str(config)]) == 2


def test_mode_fit_window_samples_are_capped():
    # 1e-9 would ask np.arange for 8e8 samples; the cap is the most samples
    # the base grid holds, horizon 40 at 50 per unit
    with pytest.raises(ConfigError, match=r"solver\.mode_fit_step: the "
                                          r"window takes more than 2001"):
        validate_config({"experiment": "fiber-flow",
                         "solver": {"mode_fit_step": 1e-9}})
    with pytest.raises(ConfigError, match=r"solver\.mode_fit_step"):
        validate_config({"experiment": "fiber-flow",
                         "solver": {"horizon": 40.0,
                                    "mode_fit_window": [0.0, 40.0],
                                    "mode_fit_step": 0.0199}})
    cfg = validate_config({"experiment": "fiber-flow",
                           "solver": {"horizon": 40.0,
                                      "mode_fit_window": [0.0, 40.0],
                                      "mode_fit_step": 0.02}})
    assert cfg.solver["mode_fit_step"] == 0.02


# (fiber_dim, fiber_resolution, whether the lattice cap of the two-dimensional
# fiber let it through); the fiber now has one complex dimension, so none of
# these pass a fiber_dim and each resolution validates on its own
@pytest.mark.parametrize("dim, n, ok", [(2, 32, False), (2, 18, False),
                                        (2, 16, True), (1, 128, True)])
def test_product_fiber_lattice_is_capped(dim, n, ok):
    def product(model):
        return validate_config({"experiment": "product-ode", "model": model})

    with pytest.raises(ConfigError, match=r"model\.fiber_dim: unknown key"):
        product({"fiber_dim": dim, "fiber_resolution": n})
    assert product({"fiber_resolution": n}).model["fiber_resolution"] == n


def test_product_fiber_resolution_range():
    # the resolution cap of 128 caps the diameter lattice at 128^2 nodes
    def product(model):
        return validate_config({"experiment": "product-ode", "model": model})

    for n, why in ((130, "must be <= 128"), (6, "must be >= 8"),
                   (18.0, "expected int"), (17, "must be even")):
        with pytest.raises(ConfigError,
                           match=r"model\.fiber_resolution: " + why):
            product({"fiber_resolution": n})
    assert product({"fiber_resolution": 128}).model["fiber_resolution"] == 128
