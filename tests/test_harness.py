"""CLI and report-writing behavior: exit codes, layout, determinism."""

import json
import math
import os
import subprocess
import sys
from dataclasses import asdict, replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from collapse_lab import cli, geometry, timestep
from collapse_lab.config import (EXPERIMENTS, SCHEMAS, load_config,
                                 validate_config)
from collapse_lab.experiments import (CSV_COLUMNS, ERROR_FILE, REGISTRY,
                                      REPORT_FILES, Check, ExperimentReport,
                                      _late_growth, run_experiment,
                                      write_error, write_report)
from collapse_lab.flow import diagnostics_for, spectral_problem
from collapse_lab.grids import (GridSpec, PositivityError, ScalarField,
                                require_positive)
from collapse_lab.models import FiberFlowSpec
from collapse_lab.timestep import StiffnessError

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC = CONFIG_DIR.parent / "src"


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def _strict_json(path):
    def reject(token):
        raise ValueError(f"{path.name}: {token} is not JSON")
    return json.loads(path.read_text(encoding="utf-8"),
                      parse_constant=reject)


def _blowup_config():
    """A fiber-flow config whose start metric leaves the positive cone.

    Validation rejects amplitude_rel 0.15 (pi^2 amplitude_rel >= 1), so the
    config is built past it, and the run meets the solver's own
    PositivityError.
    """
    cfg = validate_config({"experiment": "fiber-flow"})
    return replace(cfg, model=dict(cfg.model, amplitude_rel=0.15))


def _listing(out_dir):
    """Every file under ``out_dir``, by its path relative to it."""
    return sorted(str(p.relative_to(out_dir)) for p in out_dir.rglob("*")
                  if p.is_file())


def _fast_product(tmp_path, **overrides):
    payload = {"experiment": "product-ode",
               "solver": {"horizon": 2.0, "samples_per_unit": 4}}
    payload.update(overrides)
    return _write(tmp_path, "fast_product.json", payload)


# ------------------------------------------------------------- registry

def test_registry_lists_five_experiments():
    assert len(REGISTRY) == 5
    for d in REGISTRY.values():
        assert d.description


def test_schema_file_matches_runtime_columns():
    # the writer reads its column sets from the packaged schema, and the
    # flow monitors hand over their table as it is, so its keys are the flow
    # columns
    raw = (resources.files("collapse_lab") / "data" / "csv_schema.json")
    schema = json.loads(raw.read_text(encoding="utf-8"))
    assert set(schema["columns"]) == set(CSV_COLUMNS)
    for name, cols in CSV_COLUMNS.items():
        assert tuple(schema["columns"][name]) == cols
    grid = GridSpec(1, (8,))
    spec = FiberFlowSpec(grid=grid, b0=1.0,
                         initial_potential=ScalarField.constant(grid, 0.0))
    table = diagnostics_for(spec, spectral_problem(spec)[0], [0.0],
                            np.zeros((1, 8, 1), complex), with_diameter=False)
    assert tuple(table) == CSV_COLUMNS["fiber-flow"]


def test_shipped_configs_validate():
    paths = sorted(CONFIG_DIR.glob("*.json"))
    assert len(paths) == 7
    for path in paths:
        load_config(path)


def test_shipped_configs_run_every_experiment():
    # an experiment that no shipped config runs is dead code
    shipped = {load_config(path).experiment
               for path in CONFIG_DIR.glob("*.json")}
    assert shipped == set(REGISTRY)


def test_late_growth_flags_rising_tail():
    table = {"v": np.array([1.0, 2.0, 1.0, 0.5, 3.0, 3.5])}
    assert _late_growth(table, ("v",)) == 1.5
    table = {"v": np.array([3.0, 2.0, 1.0, 0.8, 0.6, 0.5])}
    assert _late_growth(table, ("v",)) < 0


# a short run of each experiment, diameter monitor included
_SHORT_RUNS = {
    "product-ode": {"solver": {"horizon": 2.0, "samples_per_unit": 4}},
    "fiber-flow": {"model": {"n": 8}, "solver": {"horizon": 2.0}},
    "gke-elliptic": {"model": {"n": 16}},
    "gke-parabolic": {"solver": {"t_end": 2.0}},
    "semiflat-identities": {"solver": {"probe_points": 2}},
}


@pytest.mark.parametrize("experiment", list(REGISTRY))
def test_report_table_is_its_csv_columns(experiment):
    # one 1-D column per CSV column, in order, all of one length
    report = run_experiment(validate_config(
        dict(_SHORT_RUNS[experiment], experiment=experiment)))
    assert tuple(report.table) == CSV_COLUMNS[experiment]
    lengths = {np.shape(col) for col in report.table.values()}
    assert len(lengths) == 1 and len(lengths.pop()) == 1


def test_a_short_column_raises_and_writes_no_csv(tmp_path):
    # the refused write also leaves the earlier run's files where they are
    write_error(tmp_path, "gke-parabolic", RuntimeError("earlier run"))
    table = {"t": [0.0, 0.5, 1.0], "gap_max": [1.0, 0.5, 0.25],
             "gap_min": [0.0, 0.0], "dgap": [-1.0, -0.5, -0.25]}
    report = ExperimentReport("gke-parabolic", {}, table, [], {})
    with pytest.raises(ValueError):
        write_report(report, tmp_path)
    assert _listing(tmp_path) == [ERROR_FILE]


@pytest.mark.parametrize("experiment", list(REGISTRY))
def test_report_directory_holds_exactly_the_report_files(tmp_path,
                                                         experiment):
    path = _write(tmp_path, "short.json",
                  dict(_SHORT_RUNS[experiment], experiment=experiment))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) in \
        (0, 1)
    assert _listing(out) == sorted(f"short/{name}" for name in REPORT_FILES)


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


@pytest.mark.parametrize("command", ["validate", "run"])
def test_curvature_bound_is_no_longer_an_experiment(tmp_path, capsys,
                                                     command):
    # its checks run in fiber-flow, configs/curvature_bound.json among them
    path = _write(tmp_path, "old.json", {"experiment": "curvature-bound"})
    assert cli.main([command, "--config", str(path)]) == 2
    assert "experiment: unknown experiment 'curvature-bound'" in \
        capsys.readouterr().err


def test_missing_config_file_is_usage_error(tmp_path):
    assert cli.main(["run", "--config", str(tmp_path / "nope.json")]) == 2


def test_unknown_subcommand_is_usage_error():
    assert cli.main(["frobnicate"]) == 2


def test_no_subcommand_is_usage_error():
    assert cli.main([]) == 2


# ---------------------------------------------------------- lazy scipy

def _fresh(code):
    """What ``code`` binds to ``result``, printed in a fresh interpreter,
    and whether scipy was imported by the end of it."""
    probe = f"import sys\n{code}\nprint(result, 'scipy' in sys.modules)\n"
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=path))
    result, loaded = done.stdout.splitlines()[-1].split()
    return result, loaded == "True"


def _fresh_cli(argv):
    """Exit code of ``cli.main(argv)`` in a fresh interpreter, and whether
    scipy was imported by the end of it."""
    code, loaded = _fresh(
        f"from collapse_lab import cli\nresult = cli.main({argv!r})")
    return int(code), loaded


def test_scipy_is_imported_only_by_the_runs_that_use_it(tmp_path):
    # validate, list and the marches never reach a diameter of full width,
    # the one caller of scipy: the diameter of a y-profile is swept in
    # numpy and the Newton solve runs its conjugate gradients in numpy, so
    # no CLI run pays for scipy
    shipped = [str(p) for p in sorted(CONFIG_DIR.glob("*.json"))]
    out = str(tmp_path / "out")
    validate = ["validate"] + [a for p in shipped for a in ("--config", p)]
    assert _fresh_cli(validate) == (0, False)
    assert _fresh_cli(["list"]) == (0, False)
    for diameter in (False, True):
        flow = _write(tmp_path, "flow.json",
                      {"experiment": "fiber-flow", "model": {"n": 8},
                       "solver": {"with_diameter": diameter}})
        assert _fresh_cli(["run", "--config", str(flow), "--out", out]) \
            == (0, False)
    product = _fast_product(tmp_path)
    assert _fresh_cli(["run", "--config", str(product), "--out", out]) \
        == (0, False)
    # gke-parabolic's limit is the closed form -log F, with no Newton solve
    parabolic = _write(tmp_path, "parabolic.json",
                       {"experiment": "gke-parabolic",
                        "model": {"density_const": 2.0}})
    assert _fresh_cli(["run", "--config", str(parabolic), "--out", out]) \
        == (0, False)
    elliptic = str(CONFIG_DIR / "gke_elliptic.json")
    assert _fresh_cli(["run", "--config", elliptic, "--out", out]) \
        == (0, False)
    # the positive control: a full-width diameter through the Python API
    # still takes scipy's Dijkstra, so the probe can see a load
    full_width = ("import numpy as np\n"
                  "from collapse_lab.geometry import fiber_diameter\n"
                  "from collapse_lab.grids import GridSpec\n"
                  "result = fiber_diameter(GridSpec(1, (8,)), "
                  "np.ones((8, 8))) > 0")
    assert _fresh(full_width) == ("True", True)


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
    assert (report_dir / "resolved_config.json").exists()
    assert not (report_dir / "plots").exists()


def test_rerun_is_byte_identical(tmp_path):
    path = _fast_product(tmp_path)
    dirs = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        assert cli.main(["run", "--config", str(path),
                         "--out", str(out)]) == 0
        dirs.append(out / "fast_product")
    listing = _listing(dirs[0])
    assert listing == _listing(dirs[1]) == sorted(REPORT_FILES)
    for rel in listing:
        assert (dirs[0] / rel).read_bytes() == (dirs[1] / rel).read_bytes()


@pytest.mark.parametrize("experiment, model", [
    ("fiber-flow", {}), ("fiber-flow", {"n": 10}),
    ("gke-parabolic", {}), ("gke-parabolic", {"n": 10}),
], ids=["fiber-flow", "fiber-flow-n10", "gke-parabolic", "gke-parabolic-n10"])
def test_every_cli_march_runs_at_width_one(monkeypatch, experiment, model):
    # the start data are built as y-profiles; a full-width start would only
    # run slower, so the width is pinned here
    widths = []
    init = geometry.MongeAmpereFlow.__init__

    def spy(self, *args, width, **kwargs):
        widths.append(width)
        init(self, *args, width=width, **kwargs)

    monkeypatch.setattr(geometry.MongeAmpereFlow, "__init__", spy)
    run_experiment(validate_config({"experiment": experiment,
                                    "model": model}))
    assert widths == [1]


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


def test_solver_failure_exits_three_with_error_file(tmp_path):
    out = tmp_path / "out" / "blowup"
    code, line = cli._run_one("blowup", _blowup_config(), out)
    assert code == 3
    assert "ERROR PositivityError" in line
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "PositivityError"
    assert "positive definite" in error["message"]
    # the location in the file is the one the message names
    assert len(error["point"]) == 2
    assert all(isinstance(i, int) and 0 <= i < 16 for i in error["point"])
    assert error["value"] <= 0.0
    assert f"at grid point {tuple(error['point'])}" in error["message"]
    assert f"eigenvalue {error['value']:.6e}" in error["message"]


def test_a_nan_sample_is_not_positive_and_is_written_as_null(tmp_path):
    grid = GridSpec(1, (8,))
    vals = np.ones(grid.shape)
    vals[2, 5] = math.nan
    assert not np.min(vals) > 0.0
    with pytest.raises(PositivityError, match="fiber_diameter"):
        geometry.fiber_diameter(grid, vals)
    with pytest.raises(PositivityError) as err:
        require_positive(vals, "a NaN sample")
    assert err.value.point == (2, 5) and math.isnan(err.value.value)
    error = _strict_json(write_error(tmp_path, "fiber-flow", err.value))
    assert error["point"] == [2, 5] and error["value"] is None


@pytest.mark.parametrize("exc", [
    StiffnessError("step size underflow"),
    np.linalg.LinAlgError("singular matrix"),
    FloatingPointError("overflow"),
], ids=lambda exc: type(exc).__name__)
def test_every_solver_error_exits_three_with_error_file(tmp_path, capsys,
                                                         monkeypatch, exc):
    def fail(cfg):
        raise exc
    monkeypatch.setattr(cli, "run_experiment", fail)
    path = _fast_product(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 3
    name = type(exc).__name__
    assert f"ERROR {name}: {exc}" in capsys.readouterr().err
    error = json.loads((out / "fast_product" / "error.json").read_text())
    assert error == {"experiment": "product-ode", "error": name,
                     "message": str(exc)}


@pytest.mark.parametrize("fails", [(True, False), (False, True)],
                         ids=["pass-after-error", "error-after-pass"])
def test_a_rerun_leaves_only_its_own_files(tmp_path, monkeypatch, fails):
    # one config run twice into one directory: a pass leaves the four
    # report files and no error.json, a solver failure error.json alone
    path = _fast_product(tmp_path)
    out = tmp_path / "out"
    run = cli.run_experiment

    def fail(cfg):
        raise StiffnessError("step size underflow")

    for failing in fails:
        monkeypatch.setattr(cli, "run_experiment", fail if failing else run)
        code = cli.main(["run", "--config", str(path), "--out", str(out)])
        assert code == (3 if failing else 0)
        assert _listing(out / "fast_product") == (
            [ERROR_FILE] if failing else sorted(REPORT_FILES))


def test_two_configs_with_one_output_directory_exit_two(tmp_path, capsys,
                                                        monkeypatch):
    # a/x.json and b/x.json both write to <out>/x; so does one config named
    # twice; nothing runs and nothing is written
    ran = []
    monkeypatch.setattr(cli, "run_experiment", ran.append)
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = _write(tmp_path / "a", "x.json", {"experiment": "product-ode"})
    b = _write(tmp_path / "b", "x.json",
               {"experiment": "product-ode", "model": {"a0": 5}})
    out = tmp_path / "out"
    for first, second in ((a, b), (a, a)):
        assert cli.main(["run", "--config", str(first), "--config",
                         str(second), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {first} and {second} both write to "
                       f"{out / 'x'}\n")
    assert not ran and not out.exists()


@pytest.mark.parametrize("at_stem", [False, True], ids=["out", "stem"])
def test_an_output_directory_that_cannot_be_made_exits_two(tmp_path, capsys,
                                                           monkeypatch,
                                                           at_stem):
    # a regular file where --out or the config's own directory goes: one
    # error line, no traceback, and no config runs
    ran = []
    monkeypatch.setattr(cli, "run_experiment", ran.append)
    path = _fast_product(tmp_path)
    out = tmp_path / "out"
    blocker = out / "fast_product" if at_stem else out
    blocker.parent.mkdir(exist_ok=True)
    blocker.write_text("not a directory", encoding="utf-8")
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot create output directory "
                          f"{out / 'fast_product'}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not ran
    assert blocker.read_text(encoding="utf-8") == "not a directory"


@pytest.mark.parametrize("payload, check", [
    # the lowest fiber mode decays like exp(-(pi^2/b0) e^t); at b0 0.02 the
    # march's own mode underflows to exact zero inside the fit window
    ({"experiment": "fiber-flow", "model": {"b0": 0.02}},
     "mode_slope_rel_defect"),
    # no transient: the gap to the limit is exactly zero throughout
    ({"experiment": "gke-parabolic",
      "model": {"transient_cos": 0.0, "transient_scale": 0.0}},
     "gap_slope"),
    # a fit window of the last 0.03 time units holds fewer samples than a
    # fit needs
    ({"experiment": "gke-parabolic", "solver": {"t_end": 0.3},
      "acceptance": {"fit_window_fraction": 0.9}},
     "gap_slope"),
], ids=["fiber-flow-b0", "gke-parabolic-no-transient",
        "gke-parabolic-short-window"])
def test_rate_fit_on_exact_zeros_fails_its_check_as_nan(tmp_path, capsys,
                                                       payload, check):
    path = _write(tmp_path, "zeros.json", payload)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 1
    assert check in capsys.readouterr().err
    assert not (out / "zeros" / "error.json").exists()
    # strict JSON: the NaN measured value and fit are written as null
    acceptance, rates = (_strict_json(out / "zeros" / name)
                         for name in ("acceptance.json", "rates.json"))
    failed = [c for c in acceptance["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == [check]
    assert failed[0]["measured"] is None
    assert None in [fit["slope"] for fit in rates["fits"].values()]


def test_mode_slope_fits_at_small_b0(tmp_path):
    # at b0 0.05 the lowest mode falls below 1e-16 of the relaxing mean
    # inside the fit window; the monitors read it from the march's modes
    path = _write(tmp_path, "small_b0.json",
                  {"experiment": "fiber-flow", "model": {"b0": 0.05}})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    fit = _strict_json(out / "small_b0" / "rates.json")["fits"]["mode_low"]
    assert fit["slope"] == pytest.approx(-math.pi ** 2 / 0.05, rel=1e-9)


@pytest.mark.parametrize("b0", [1e7, 1e12])
def test_fiber_flow_at_huge_b0_runs_to_a_report(tmp_path, capsys, b0):
    # the start potential's FFT-roundoff mean scales with b0 (2.9e-11 at
    # 1e7), so the mean-free check is relative to its sup; the frozen
    # monitor ceilings fail here as they do at b0 1e4
    path = _write(tmp_path, "huge_b0.json",
                  {"experiment": "fiber-flow", "model": {"b0": b0},
                   "solver": {"with_diameter": False}})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 1
    assert "huge_b0: FAIL [phi_sup_max" in capsys.readouterr().err


def test_fiber_flow_at_tiny_a0_runs_to_a_report(tmp_path):
    # below a0 of about 1.1e-16, a0 - 1 rounds to -1, and log1p(a0 - 1)
    # raised a math domain error at t = 0 (exit 3)
    path = _write(tmp_path, "tiny_a0.json",
                  {"experiment": "fiber-flow", "model": {"a0": 1e-17}})
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(path), "--out", str(out)])
    assert code in (0, 1)
    assert (out / "tiny_a0" / "diagnostics.csv").is_file()


def test_product_ode_at_tiny_a0_runs_to_a_report(tmp_path):
    # below a0 of about 1.1e-16, a0 - 1 rounds to -1, and the closed form
    # read a(0) = 0, which the defect divided by (exit 3)
    path = _write(tmp_path, "tiny_a0.json",
                  {"experiment": "product-ode", "model": {"a0": 1e-17}})
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(path), "--out", str(out)])
    assert code in (0, 1)
    assert (out / "tiny_a0" / "diagnostics.csv").is_file()


def test_fiber_flow_horizon_must_exceed_the_sample_spacing(tmp_path, capsys):
    # fiber-flow samples times closer than 1e-9 once, so at horizon 1e-9
    # only t = 0 was left, and the march exited 3
    def config(horizon):
        return _write(tmp_path, "short.json",
                      {"experiment": "fiber-flow",
                       "solver": {"horizon": horizon,
                                  "mode_fit_window": [0.0, horizon]}})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config(1e-9)),
                     "--out", str(out)]) == 2
    assert "solver.horizon: must exceed 1e-09" in capsys.readouterr().err
    assert cli.main(["run", "--config", str(config(1e-8)),
                     "--out", str(out)]) in (0, 1)
    rows = (out / "short" / "diagnostics.csv").read_text().splitlines()
    assert [float(r.split(",")[0]) for r in rows[1:]] == [0.0, 1e-8]


def test_curvature_cap_is_read_from_fiber_flow_acceptance(tmp_path, capsys):
    payload = json.loads((CONFIG_DIR / "curvature_bound.json").read_text())
    payload["acceptance"]["curvature_cap"] = 100.0
    path = _write(tmp_path, "capped.json", payload)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 1
    assert "FAIL [curvature_sup_max]" in capsys.readouterr().err
    checks = _strict_json(out / "capped" / "acceptance.json")["checks"]
    failed = [c for c in checks if not c["passed"]]
    assert [c["name"] for c in failed] == ["curvature_sup_max"]
    # the sup is taken at t = 0
    assert failed[0]["measured"] == pytest.approx(175.98, abs=5e-3)


def test_fit_window_ending_at_the_horizon_samples_inside_it(tmp_path):
    # arange(0.2, 1.15, 0.3) steps to 1.1, past hi = horizon = 1.0
    path = _write(tmp_path, "window.json",
                  {"experiment": "fiber-flow",
                   "solver": {"horizon": 1.0, "mode_fit_step": 0.3}})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) in \
        (0, 1)
    assert not (out / "window" / "error.json").exists()
    times = np.loadtxt(out / "window" / "diagnostics.csv", delimiter=",",
                       skiprows=1, usecols=0)
    assert times[-1] == 1.0


@pytest.mark.parametrize("name, solver", [
    ("fiber-flow", {"horizon": 0.3, "samples_per_unit": 1,
                    "mode_fit_window": [0.0, 0.3], "mode_fit_step": 10.0}),
    ("fiber-flow", {"horizon": 0.4, "samples_per_unit": 1,
                    "mode_fit_window": [0.1, 0.3]}),
    ("product-ode", {"horizon": 0.4, "samples_per_unit": 1}),
], ids=["fiber-flow-0.3", "fiber-flow-0.4-window", "product-ode-0.4"])
def test_the_sample_grid_ends_at_the_horizon(tmp_path, name, solver):
    # horizon * samples_per_unit < 1/2 still samples both ends, so the late
    # checks are judged at the horizon and not at t = 0
    path = _write(tmp_path, "short.json",
                  {"experiment": name, "solver": solver})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) in \
        (0, 1)
    assert not (out / "short" / "error.json").exists()
    times = np.loadtxt(out / "short" / "diagnostics.csv", delimiter=",",
                       skiprows=1, usecols=0)
    assert times[-1] == solver["horizon"]


def test_gke_parabolic_at_the_longest_t_end_passes_every_check(tmp_path):
    # the envelope is read at fixed samples from the exact gap derivative,
    # so late steps as long as the sample spacing leave the checks sound
    path = _write(tmp_path, "long.json",
                  {"experiment": "gke-parabolic", "solver": {"t_end": 40.0}})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    checks = _strict_json(out / "long" / "acceptance.json")["checks"]
    assert checks and all(c["passed"] for c in checks)


@pytest.mark.parametrize("t_end", [6.0, 40.0])
@pytest.mark.parametrize("knob, value", [("SAFETY", 0.7), ("DT_INIT", 0.05)])
def test_gke_parabolic_checks_do_not_depend_on_the_step_controller(
        monkeypatch, t_end, knob, value):
    cfg = validate_config({"experiment": "gke-parabolic",
                           "solver": {"t_end": t_end}})
    want = run_experiment(cfg).checks
    monkeypatch.setattr(timestep, knob, value)
    got = run_experiment(cfg).checks
    assert [c.name for c in got] == [c.name for c in want]
    for a, b in zip(got, want):
        assert abs(a.measured - b.measured) <= 1e-8, a.name


def test_error_code_dominates_mixed_runs(tmp_path, monkeypatch):
    good = _fast_product(tmp_path)
    bad = _write(tmp_path, "blowup.json", {"experiment": "fiber-flow"})
    load = cli.load_config
    monkeypatch.setattr(cli, "load_config", lambda path: (
        _blowup_config() if Path(path) == bad else load(path)))
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(good), "--config", str(bad),
                     "--out", str(out)])
    assert code == 3
    assert (out / "fast_product" / "acceptance.json").exists()


@pytest.mark.parametrize("key, n", [("base_n", 9), ("base_n", 63),
                                    ("fiber_n", 9), ("fiber_n", 63)],
                         ids=["9", "63", "fiber_n-9", "fiber_n-63"])
def test_semiflat_runs_at_odd_base_resolution(tmp_path, capsys, key, n):
    # the patch holds analytic samples, not FFT data, so every base_n and
    # fiber_n the schema admits runs, odd ones included
    path = _write(tmp_path, "semiflat.json",
                  {"experiment": "semiflat-identities", "model": {key: n}})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert "semiflat: PASS (5 checks)" in capsys.readouterr().out


def test_semiflat_times_are_capped_like_every_horizon(tmp_path, capsys):
    # the potential-scaling probe overflows past t of about 700; each entry
    # of solver.times is held to [0, 40] as every other horizon is
    for times, entry in (([0.0, 40.5], 1), ([-1.0, 1.0], 0)):
        path = _write(tmp_path, "semiflat.json",
                      {"experiment": "semiflat-identities",
                       "solver": {"times": times}})
        assert cli.main(["validate", "--config", str(path)]) == 2
        assert f"solver.times[{entry}]: must be" in capsys.readouterr().err
    path = _write(tmp_path, "semiflat.json",
                  {"experiment": "semiflat-identities",
                   "solver": {"times": [0.0, 1.0, 40.0]}})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert "semiflat: PASS (5 checks)" in capsys.readouterr().out


def test_semiflat_cubic_modulus_passes_the_variation_form_oracle(tmp_path,
                                                                capsys):
    # tau = i + 0.5 i z^3 left 1.4e-8 against wp_tol 1e-8 with the single
    # 1e-2 stencil; the Richardson pair brings the oracle to roundoff
    path = _write(tmp_path, "cubic.json",
                  {"experiment": "semiflat-identities",
                   "model": {"tau_coeffs": [[0, 1], [0, 0], [0, 0],
                                            [0, 0.5]]}})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert "cubic: PASS (5 checks)" in capsys.readouterr().out
    checks = _strict_json(out / "cubic" / "acceptance.json")["checks"]
    [wp] = [c for c in checks if c["name"] == "variation_form_defect"]
    assert wp["measured"] <= 1e-10


def test_run_writes_each_config_to_its_own_directory(tmp_path):
    a = _fast_product(tmp_path)
    b = _write(tmp_path, "other.json",
               {"experiment": "product-ode", "model": {"a0": 0.5, "b0": 2.0},
                "solver": {"horizon": 2.0, "samples_per_unit": 4}})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(a), "--config", str(b),
                     "--out", str(out)]) == 0
    assert (out / "fast_product" / "acceptance.json").exists()
    assert (out / "other" / "acceptance.json").exists()


def test_registry_schemas_and_columns_share_keys():
    assert list(REGISTRY) == list(SCHEMAS) == list(EXPERIMENTS)
    assert set(CSV_COLUMNS) == set(SCHEMAS)


# ---------------------------------------------------------- report writer

def test_write_report_returns_written_files(tmp_path):
    cfg = validate_config({"experiment": "product-ode",
                           "solver": {"horizon": 1.0,
                                      "samples_per_unit": 8}})
    report = run_experiment(cfg)
    files = write_report(report, tmp_path / "r")
    assert files == [tmp_path / "r" / name for name in REPORT_FILES]
    assert _listing(tmp_path / "r") == sorted(REPORT_FILES)


def test_report_echoes_config_and_writes_non_finite_values_as_null(tmp_path):
    cfg = validate_config({"experiment": "product-ode",
                           "solver": {"horizon": 1.0,
                                      "samples_per_unit": 8}})
    report = run_experiment(cfg)
    assert report.config == asdict(cfg)
    assert report.columns == CSV_COLUMNS["product-ode"]
    report.checks[0] = Check("unbounded", math.inf, 1.0, "<=", False)
    report.rates["diameter"]["slope"] = -math.inf
    report.rates["fiber_scale"]["intercept"] = math.nan
    write_report(report, tmp_path)
    acceptance = _strict_json(tmp_path / "acceptance.json")
    assert acceptance["checks"][0]["measured"] is None
    assert isinstance(acceptance["checks"][1]["measured"], float)
    fits = _strict_json(tmp_path / "rates.json")["fits"]
    assert fits["diameter"]["slope"] is None
    assert fits["fiber_scale"]["intercept"] is None
    assert fits["fiber_scale"]["slope"] == report.rates["fiber_scale"]["slope"]
