"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import collapse_lab  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from collapse_lab.grids import HermitianField, ScalarField  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def _shipped_op(stem):
    ops = workloads.setup("shipped-suite", 0, None)
    return next(op for op in ops if op.label == stem)


def test_workload_names_match_the_spec():
    assert run.WORKLOAD_NAMES == workloads.WORKLOADS
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_every_printed_metric_is_declared(trace, section):
    proc = _bench("--workload", "newton-krylov", "--seed", "5",
                  "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m for m in SPEC[section]}
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]["unit"]
        assert declared[name]["better"] in ("lower", "higher")
        assert isinstance(metric["value"], (int, float))
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25


def _bindings():
    found = {}
    for key, mod in sys.modules.items():
        if key == "collapse_lab" or key.startswith("collapse_lab."):
            for name, value in vars(mod).items():
                found[(key, name)] = value
    found[("HermitianField", "__post_init__")] = \
        HermitianField.__dict__["__post_init__"]
    return found


@pytest.mark.parametrize("stem", ["product_ode", "gke_elliptic"])
def test_tracing_restores_modules_and_keeps_outputs(stem, tmp_path):
    op = _shipped_op(stem)
    before = _bindings()
    plain = op.fingerprint(op.run(tmp_path / "plain"))
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert collapse_lab.cli.main is not before[("collapse_lab.cli",
                                                    "main")]
        traced = op.fingerprint(op.run(tmp_path / "traced"))
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert traced == plain
    spans, counters = tracer.take()
    names = {s[0] for s in spans}
    assert {"cli.main", "config.load_config",
            "experiments.write_report"} <= names
    assert counters["experiments.report_bytes"] > 0
    metrics = tracing.layer_metrics(spans, counters)
    if stem == "product_ode":
        assert metrics["timestep.rhs_evals"] > 0
        assert metrics["geometry.fiber_diameter.calls"] == 1
    else:
        assert metrics["gke.krylov_matvecs"] > 0
        assert metrics["gke.newton_iterations"] > 0


def _perturb_column(out_dir, column, change):
    path = out_dir / "diagnostics.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    head = lines[0].split(",")
    col = head.index(column)
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        t = float(row[head.index("t")])
        row[col] = format(change(t, float(row[col])), ".17g")
    path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows])
                    + "\n", encoding="utf-8")


@pytest.mark.parametrize("stem,column,change", [
    ("product_ode", "diameter", lambda t, v: v * (1.0 + 1e-9)),
    ("product_ode", "fiber_numeric", lambda t, v: v * (1.0 + 1e-7 * t)),
    ("fiber_flow", "mode_low",
     lambda t, v: v * math.exp(0.5 * math.exp(min(t, 1.0)))),
    ("gke_parabolic", "gap_max", lambda t, v: v * math.exp(0.8 * t)),
])
def test_perturbed_report_fails_its_oracle(stem, column, change, tmp_path):
    op = _shipped_op(stem)
    outcome = op.run(tmp_path)
    assert op.judge(outcome) == []
    _perturb_column(outcome[1], column, change)
    assert op.judge(outcome) != []


def test_perturbed_solution_fails_its_oracle():
    op = workloads.setup("newton-krylov", 0, None)[0]
    sol = op.run(None)
    assert op.judge(sol) == []
    values = sol.potential.values
    sol.potential = ScalarField(sol.potential.grid,
                                values + 1e-6 * np.cos(2 * np.pi * values))
    assert op.judge(sol) != []


def test_seed_fixes_the_inputs(tmp_path):
    def configs(seed, where):
        ops = workloads.setup("flow-march", seed, tmp_path / where)
        return [op.path.read_text(encoding="utf-8") for op in ops]

    assert configs(7, "a") == configs(7, "b")
    assert configs(7, "a") != configs(8, "c")


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "newton-krylov", "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
