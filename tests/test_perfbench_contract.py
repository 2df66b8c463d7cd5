"""What the traced benchmark reads from the library, checked without running the benchmark.

``perfbench/run.py`` reports a per-layer metric for every function named in
its ``LAYER_STATS``; ``perfbench/tracing.py`` wraps the public functions of
each layer and reads counts from the return values of those in ``COUNTERS``.
When a named function disappears, a counter cannot read its field, or a call
count departs from a workload's ``expected_counts``, a traced run still exits
0 but its layer metrics read as missing. These tests import the benchmark's
modules read-only and fail on each of those changes instead.
"""

import importlib
import importlib.util
import inspect
import json
import os
import pathlib
import subprocess
import sys

import pytest

import tehscreen as ts
from tehscreen import boosting, cli, glm, lasso

ROOT = pathlib.Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load_run():
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("_perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


run = _load_run()
tracing = run.tracing


@pytest.mark.parametrize("name", sorted({layer for layer, _ in run.LAYER_STATS} | set(tracing.COUNTERS)))
def test_every_traced_name_is_a_public_module_level_function(name):
    layer, attr = name.split(".")
    module = importlib.import_module(f"tehscreen.{layer}")
    fn = getattr(module, attr, None)
    assert layer in tracing.LAYERS and name not in tracing.SKIP
    assert not attr.startswith("_")
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__


def _return_values():
    d = ts.generate_trial(ts.SyntheticSpec(
        n=80, p=4, family=ts.BINOMIAL, main_effects=(0.8, 0.4, 0.0, 0.0), seed=3,
    ))
    t = d.treatment.astype(float)
    columns = [d.x_candidates[:, 0], d.x_candidates[:, 0], t, 1.0 - t]  # one duplicate drops
    origin = [("candidate", 0), ("candidate", 1), ("arm_intercept", "A"), ("arm_intercept", "B")]
    design = glm.make_design(columns, origin)
    model = boosting.fit_boost(d, ts.BINOMIAL, n_trees=20, shrinkage=0.1)
    return {
        "glm.make_design": design,
        "glm.fit": glm.fit(design, d.y, ts.BINOMIAL),
        "lasso.fit_path": lasso.fit_path(d, ts.BINOMIAL, include_treatment=True, n_lambda=20),
        "boosting.fit_boost": model,
        "boosting.select_by_influence": boosting.select_by_influence(model, 1.0),
    }


def test_every_counter_reads_integers_from_a_real_return_value():
    values = _return_values()
    assert set(values) == set(tracing.COUNTERS)
    for name, counter in tracing.COUNTERS.items():
        counts = counter(values[name])
        assert counts and all(type(v) is int and v >= 0 for v in counts.values()), name
    assert tracing.COUNTERS["glm.make_design"](values["glm.make_design"]) == {"dropped_columns": 1}
    assert tracing.COUNTERS["glm.fit"](values["glm.fit"])["dropped_columns"] == 1  # the design's drop


def _shrink(workload, argv, reps):
    """Rewrite the workload's config with ``reps`` replicates (null or power-study)."""
    path = pathlib.Path(argv[argv.index("--config") + 1])
    cfg = json.loads(path.read_text(encoding="utf-8"))
    if "null_sim" in cfg:
        cfg["null_sim"]["reps"] = reps
    else:
        cfg["reps"] = reps
    path.write_text(json.dumps(cfg), encoding="utf-8")
    workload.reps = reps


@pytest.mark.parametrize("name, reps", [
    ("null_calibration_binomial", 100),
    ("power_gain_gaussian", 10),
    ("lasso_path_binomial", 10),
])
def test_a_small_traced_workload_reports_every_layer_metric(tmp_path, name, reps):
    workload = run.WORKLOADS[name]()
    argv = workload.prepare(0, tmp_path, cli.main)
    _shrink(workload, argv, reps)
    result_path, report_path = tmp_path / "result.json", tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), str(result_path), "--trace", "--",
         *argv, "--out", str(report_path)],
        env=env, cwd=ROOT, check=True, capture_output=True, timeout=300,
    )
    result = json.loads(result_path.read_text(encoding="utf-8"))
    stats = tracing.aggregate(result["spans"])
    values = run.layer_values(stats, set(result["wrapped"]))
    assert [key for key, value in values.items() if value is None] == []
    counts = run.count_view(stats)
    expected = workload.expected_counts()
    assert {key: counts.get(key) for key in expected} == expected
