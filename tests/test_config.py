"""Schema validation for experiment configs."""

import json

import pytest

from collapse_lab.config import (ConfigError, EXPERIMENTS, SCHEMAS,
                                 load_config, resolved_dict, validate_config)


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
    with pytest.raises(ConfigError, match="seed: must be nonnegative"):
        validate_config({"experiment": "product-ode", "seed": -3})


def test_window_needs_two_entries():
    with pytest.raises(ConfigError, match=r"solver\.mode_fit_window: expected 2"):
        validate_config({"experiment": "fiber-flow",
                         "solver": {"mode_fit_window": [0.1]}})


def test_tau_coeffs_must_be_pairs():
    with pytest.raises(ConfigError, match=r"model\.tau_coeffs\[1\]"):
        validate_config({"experiment": "semiflat-identities",
                         "model": {"tau_coeffs": [[0.0, 1.0], [0.2]]}})


def test_dt_policy_choices():
    # the step-size policy had one legal value and is no longer a key
    with pytest.raises(ConfigError, match=r"solver\.dt_policy: unknown key"):
        validate_config({"experiment": "fiber-flow",
                         "solver": {"dt_policy": "adaptive"}})


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
    echo = resolved_dict(cfg)
    assert echo["experiment"] == "gke-parabolic"
    assert echo["solver"]["t_end"] == 6.0


def test_every_experiment_validates_bare():
    for name in EXPERIMENTS:
        cfg = validate_config({"experiment": name})
        assert cfg.experiment == name
