"""CLI and report-writing behavior: exit codes, layout, determinism."""

import json
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from collapse_lab import cli
from collapse_lab.config import load_config, validate_config
from collapse_lab.experiments import (CSV_COLUMNS, REGISTRY, _late_growth,
                                      run_experiment, write_report)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def _fast_product(tmp_path, **overrides):
    payload = {"experiment": "product-ode",
               "solver": {"horizon": 2.0, "samples_per_unit": 4}}
    payload.update(overrides)
    return _write(tmp_path, "fast_product.json", payload)


# ------------------------------------------------------------- registry

def test_registry_lists_six_experiments():
    assert len(REGISTRY) == 6
    for d in REGISTRY.values():
        assert d.description


def test_schema_file_matches_runtime_columns():
    raw = (resources.files("collapse_lab") / "data" / "csv_schema.json")
    schema = json.loads(raw.read_text(encoding="utf-8"))
    assert set(schema["columns"]) == set(CSV_COLUMNS)
    for name, cols in CSV_COLUMNS.items():
        assert tuple(schema["columns"][name]) == cols


def test_shipped_configs_validate():
    paths = sorted(CONFIG_DIR.glob("*.json"))
    assert len(paths) == 7
    for path in paths:
        load_config(path)


def test_late_growth_flags_rising_tail():
    rows = [{"v": x} for x in (1.0, 2.0, 1.0, 0.5, 3.0, 3.5)]
    assert _late_growth(rows, ("v",)) == 1.5
    rows = [{"v": x} for x in (3.0, 2.0, 1.0, 0.8, 0.6, 0.5)]
    assert _late_growth(rows, ("v",)) < 0


# ------------------------------------------------------------------- list

def test_list_names_every_experiment(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    for name in REGISTRY:
        assert name in out


def test_list_json_is_parseable(capsys):
    assert cli.main(["list", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [e["name"] for e in payload] == list(REGISTRY)


# --------------------------------------------------------------- validate

def test_validate_accepts_good_config(tmp_path, capsys):
    path = _fast_product(tmp_path)
    assert cli.main(["validate", "--config", str(path)]) == 0
    assert "ok (product-ode)" in capsys.readouterr().out


def test_validate_rejects_bad_config_with_path(tmp_path, capsys):
    path = _write(tmp_path, "bad.json",
                  {"experiment": "product-ode", "model": {"b0": -1}})
    assert cli.main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "model.b0" in err and "positive" in err


def test_missing_config_file_is_usage_error(tmp_path):
    assert cli.main(["run", "--config", str(tmp_path / "nope.json")]) == 2


def test_unknown_subcommand_is_usage_error():
    assert cli.main(["frobnicate"]) == 2


def test_no_subcommand_is_usage_error():
    assert cli.main([]) == 2


# -------------------------------------------------------------------- run

def test_run_writes_full_report_layout(tmp_path, capsys):
    path = _fast_product(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert "PASS" in capsys.readouterr().out
    report_dir = out / "fast_product"
    acceptance = json.loads((report_dir / "acceptance.json").read_text())
    assert acceptance["passed"] is True
    for entry in acceptance["checks"]:
        assert set(entry) == {"name", "measured", "bound", "op", "passed"}
    header = (report_dir / "diagnostics.csv").read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS["product-ode"])
    rates = json.loads((report_dir / "rates.json").read_text())
    assert rates["fits"]["diameter"]["abscissa"] == "t"
    for plot in (report_dir / "plots").iterdir():
        first = plot.read_text().splitlines()[0].split()
        assert len(first) == 2
    assert (report_dir / "resolved_config.json").exists()


def test_rerun_is_byte_identical(tmp_path):
    path = _fast_product(tmp_path)
    dirs = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        assert cli.main(["run", "--config", str(path),
                         "--out", str(out)]) == 0
        dirs.append(out / "fast_product")
    for rel in ("acceptance.json", "diagnostics.csv", "rates.json",
                "plots/diameter.dat"):
        assert (dirs[0] / rel).read_bytes() == (dirs[1] / rel).read_bytes()


def test_failed_acceptance_exits_one_and_reports(tmp_path, capsys):
    path = _fast_product(tmp_path,
                         acceptance={"closed_form_tol": 1e-30})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 1
    assert "FAIL [closed_form_defect]" in capsys.readouterr().err
    acceptance = json.loads(
        (out / "fast_product" / "acceptance.json").read_text())
    failed = [c for c in acceptance["checks"] if not c["passed"]]
    assert failed and failed[0]["measured"] > failed[0]["bound"]


def test_solver_failure_exits_three_with_error_file(tmp_path, capsys):
    path = _write(tmp_path, "blowup.json",
                  {"experiment": "fiber-flow",
                   "model": {"amplitude_rel": 0.15}})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 3
    assert "ERROR PositivityError" in capsys.readouterr().err
    error = json.loads((out / "blowup" / "error.json").read_text())
    assert error["error"] == "PositivityError"
    assert "positive definite" in error["message"]
    # the location in the file is the one the message names
    assert len(error["point"]) == 2
    assert all(isinstance(i, int) and 0 <= i < 16 for i in error["point"])
    assert error["value"] <= 0.0
    assert f"at grid point {tuple(error['point'])}" in error["message"]
    assert f"eigenvalue {error['value']:.6e}" in error["message"]


def test_error_code_dominates_mixed_runs(tmp_path):
    good = _fast_product(tmp_path)
    bad = _write(tmp_path, "blowup.json",
                 {"experiment": "fiber-flow",
                  "model": {"amplitude_rel": 0.15}})
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(good), "--config", str(bad),
                     "--out", str(out)])
    assert code == 3
    assert (out / "fast_product" / "acceptance.json").exists()


def test_threads_env_runs_configs_in_parallel(tmp_path, monkeypatch):
    monkeypatch.setenv("COLLAPSE_LAB_THREADS", "2")
    a = _fast_product(tmp_path)
    b = _write(tmp_path, "other.json",
               {"experiment": "product-ode", "model": {"a0": 0.5, "b0": 2.0},
                "solver": {"horizon": 2.0, "samples_per_unit": 4}})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(a), "--config", str(b),
                     "--out", str(out)]) == 0
    assert (out / "fast_product" / "acceptance.json").exists()
    assert (out / "other" / "acceptance.json").exists()


def test_threads_env_must_be_positive_integer(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COLLAPSE_LAB_THREADS", "zero")
    path = _fast_product(tmp_path)
    assert cli.main(["run", "--config", str(path)]) == 2
    assert "COLLAPSE_LAB_THREADS" in capsys.readouterr().err


# ---------------------------------------------------------- report writer

def test_write_report_returns_written_files(tmp_path):
    cfg = validate_config({"experiment": "product-ode",
                           "solver": {"horizon": 1.0,
                                      "samples_per_unit": 8}})
    report = run_experiment(cfg)
    files = write_report(report, tmp_path / "r")
    names = {f.name for f in files}
    assert {"diagnostics.csv", "acceptance.json", "rates.json",
            "resolved_config.json"} <= names
    table = np.loadtxt(tmp_path / "r" / "plots" / "diameter.dat")
    assert table.shape[1] == 2
