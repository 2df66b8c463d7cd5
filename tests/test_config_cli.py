import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import tehscreen as ts
from tehscreen import cli, data_model
from tehscreen.config import PipelineConfig
from tehscreen.errors import ConfigError


def minimal_cfg(**over):
    d = {
        "family": "gaussian",
        "screening": {"method": "full_model"},
        "k_rule": {"rule": "fixed", "k": 2},
        "seed": 7,
    }
    d.update(over)
    return d


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_config_roundtrip_minimal():
    cfg = PipelineConfig.from_dict(minimal_cfg())
    assert cfg.method == "full_model"
    assert cfg.resolve_k(1000) == 2
    assert cfg.seed == 7


def test_config_missing_field_named():
    with pytest.raises(ConfigError, match="'family'"):
        PipelineConfig.from_dict({"screening": {"method": "irm"}, "k_rule": {"rule": "log"}})
    with pytest.raises(ConfigError, match="screening"):
        PipelineConfig.from_dict({"family": "gaussian", "k_rule": {"rule": "log"}})
    with pytest.raises(ConfigError, match="k_rule"):
        PipelineConfig.from_dict({"family": "gaussian", "screening": {"method": "irm"}})


def test_config_rejects_unknown_method_and_rule():
    with pytest.raises(ConfigError, match="screening.method"):
        PipelineConfig.from_dict(minimal_cfg(screening={"method": "stepwise"}))
    with pytest.raises(ConfigError, match="k_rule.rule"):
        PipelineConfig.from_dict(minimal_cfg(k_rule={"rule": "adaptive"}))


def test_config_rejects_data_adaptive_k():
    with pytest.raises(ConfigError, match="fixed ahead of the data"):
        PipelineConfig.from_dict(minimal_cfg(k_rule={"rule": "fixed", "k": "p_hat/2"}))


def test_config_rejects_bad_null_block():
    with pytest.raises(ConfigError, match="null_sim.method"):
        PipelineConfig.from_dict(minimal_cfg(null_sim={"reps": 100, "method": "bayes"}))
    # reps is 0 (no null) or large enough for simulate_null, checked before any data is read
    for reps in (-1, 1, 50, 99):
        with pytest.raises(ConfigError, match="null_sim.reps"):
            PipelineConfig.from_dict(minimal_cfg(null_sim={"reps": reps}))
    for reps in (0, 100):
        assert PipelineConfig.from_dict(minimal_cfg(null_sim={"reps": reps})).null_reps == reps


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------


@pytest.fixture()
def toy_run(tmp_path):
    gen = {"spec": {
        "family": "gaussian", "n": 120, "p": 3,
        "main_effects": [0.8, 0.4, 0.0], "treatment_effect": 0.5, "seed": 99,
    }}
    gen_path = tmp_path / "gen.json"
    gen_path.write_text(json.dumps(gen))
    data_path = tmp_path / "data.csv"
    assert cli.main(["generate", "--config", str(gen_path), "--out", str(data_path)]) == 0

    analyze_cfg = minimal_cfg(k_rule={"rule": "fixed", "k": 3})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(analyze_cfg))
    return tmp_path, cfg_path, data_path


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_cli_analyze_matches_direct_full_test(toy_run):
    tmp_path, cfg_path, data_path = toy_run
    out = tmp_path / "report.json"
    rc = cli.main(["analyze", "--config", str(cfg_path), "--data", str(data_path),
                   "--out", str(out)])
    assert rc == 0
    report = _read(out)

    d = ts.load_csv(data_path, "y", "treatment", [])
    null_fit = ts.fit(ts.build_additive_design(d), d.y, ts.GAUSSIAN)
    alt_fit = ts.fit(ts.build_interaction_design(d), d.y, ts.GAUSSIAN)
    _, p_full = ts.lrt(null_fit, alt_fit, d.p)
    assert report["test"]["p_raw"] == pytest.approx(p_full, abs=1e-12)
    assert report["k"] == 3
    assert report["config"]["seed"] == 7
    assert report["version"] == ts.__version__


def test_cli_analyze_reports_are_reproducible(toy_run):
    tmp_path, cfg_path, data_path = toy_run
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert cli.main(["analyze", "--config", str(cfg_path), "--data", str(data_path),
                         "--out", str(out)]) == 0
        payload = _read(out)
        payload.pop("timestamp")
        outs.append(payload)
    assert outs[0] == outs[1]

    # rerunning from the report's own embedded config reproduces every number
    embedded_cfg = tmp_path / "embedded.json"
    embedded_cfg.write_text(json.dumps(outs[0]["config"]))
    out3 = tmp_path / "r3.json"
    assert cli.main(["analyze", "--config", str(embedded_cfg), "--data", str(data_path),
                     "--out", str(out3)]) == 0
    payload = _read(out3)
    payload.pop("timestamp")
    assert payload == outs[0]


def test_cli_analyze_report_does_not_depend_on_the_blas_thread_count(tmp_path):
    """A null-corrected binomial ``analyze`` gives the same report at 1 and 2 BLAS threads.

    The trial is the criterion-6 shape (n = 600, p = 25, K = 25), where a
    600 x 52 Gram product once returned different bits at different thread
    counts. On a 1-core machine both runs use one thread, so the test
    cannot fail there.
    """
    gen = {"spec": {"family": "binomial", "n": 600, "p": 25, "intercept": -0.3,
                    "main_effects": [0.5, 0.4, 0.3] + [0] * 22, "treatment_effect": 0.4,
                    "seed": 3001}}
    (tmp_path / "gen.json").write_text(json.dumps(gen))
    data_path = tmp_path / "data.csv"
    assert cli.main(["generate", "--config", str(tmp_path / "gen.json"),
                     "--out", str(data_path)]) == 0
    cfg = minimal_cfg(family="binomial", k_rule={"rule": "fixed", "k": 25},
                      null_sim={"reps": 100, "method": "parametric"})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"report{threads}.json"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])), OPENBLAS_NUM_THREADS=threads)
        code = "import sys, tehscreen.cli; sys.exit(tehscreen.cli.main(sys.argv[1:]))"
        subprocess.run([sys.executable, "-c", code, "analyze", "--config", str(cfg_path),
                        "--data", str(data_path), "--out", str(out)], env=env, check=True)
        report = _read(out)
        report.pop("timestamp")
        reports.append(report)
    assert reports[0]["null_simulation"]["reps"] == 100
    assert reports[0] == reports[1]


def test_cli_generate_is_deterministic(toy_run, tmp_path):
    _, _, data_path = toy_run
    gen = {"spec": {
        "family": "gaussian", "n": 120, "p": 3,
        "main_effects": [0.8, 0.4, 0.0], "treatment_effect": 0.5, "seed": 99,
    }}
    gen_path = tmp_path / "gen2.json"
    gen_path.write_text(json.dumps(gen))
    again = tmp_path / "data2.csv"
    assert cli.main(["generate", "--config", str(gen_path), "--out", str(again)]) == 0
    assert again.read_bytes() == data_path.read_bytes()


def test_cli_exit_codes(toy_run, tmp_path, capsys):
    _, cfg_path, data_path = toy_run
    out = str(tmp_path / "x.json")

    rc = cli.main(["analyze", "--config", str(tmp_path / "missing.json"),
                   "--data", str(data_path), "--out", out])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"

    rc = cli.main(["analyze", "--config", str(cfg_path),
                   "--data", str(tmp_path / "missing.csv"), "--out", out])
    assert rc == 3

    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps(minimal_cfg(k_rule={"rule": "fixed", "k": "n/2"})))
    rc = cli.main(["analyze", "--config", str(bad_cfg), "--data", str(data_path), "--out", out])
    assert rc == 2


def test_cli_numerical_failure_exit_code(tmp_path, capsys):
    # A perfectly separated binomial outcome makes the fit raise; exit 4.
    rows = ["y,treatment,x"]
    for i, x in enumerate(np.linspace(-2, 2, 24)):
        rows.append(f"{int(x > 0)},{i % 2},{x}")
    data_path = tmp_path / "sep.csv"
    data_path.write_text("\n".join(rows) + "\n")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(minimal_cfg(family="binomial",
                                               k_rule={"rule": "fixed", "k": 1})))
    rc = cli.main(["analyze", "--config", str(cfg_path), "--data", str(data_path),
                   "--out", str(tmp_path / "o.json")])
    assert rc == 4
    assert json.loads(capsys.readouterr().err)["error"] == "SeparationError"


def test_config_rejects_out_of_range_hyperparameters():
    with pytest.raises(ConfigError, match="shrinkage"):
        PipelineConfig.from_dict(minimal_cfg(
            screening={"method": "multi_stage", "boosting": {"shrinkage": 1.5}}))
    with pytest.raises(ConfigError, match="n_lambda"):
        PipelineConfig.from_dict(minimal_cfg(
            screening={"method": "lasso", "lasso": {"n_lambda": 1}}))


def test_cli_data_error_for_bad_column(toy_run, tmp_path, capsys):
    _, _, data_path = toy_run
    cfg = minimal_cfg()
    cfg["data"] = {"outcome_col": "nope", "treatment_col": "treatment"}
    cfg_path = tmp_path / "badcol.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = cli.main(["analyze", "--config", str(cfg_path), "--data", str(data_path),
                   "--out", str(tmp_path / "o.json")])
    assert rc == 3
    assert "nope" in capsys.readouterr().err


def test_cli_sweep_k_rows_and_shared_stage1(toy_run):
    tmp_path, cfg_path, data_path = toy_run
    out = tmp_path / "sweep.json"
    rc = cli.main(["sweep-k", "--config", str(cfg_path), "--data", str(data_path),
                   "--out", str(out), "--k-values", "1,2,3"])
    assert rc == 0
    report = _read(out)
    assert len(report["table"]) == 3
    digests = {row["stage1_digest"] for row in report["table"]}
    assert len(digests) == 1
    assert [row["df"] for row in report["table"]] == [1, 2, 3]
    csv_path = tmp_path / "sweep.csv"
    assert csv_path.exists()
    assert csv_path.read_text().count("\n") == 4  # header + 3 rows


def test_cli_sweep_k_rejects_irm(toy_run, tmp_path):
    _, _, data_path = toy_run
    cfg = minimal_cfg(screening={"method": "irm"})
    cfg_path = tmp_path / "irm.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = cli.main(["sweep-k", "--config", str(cfg_path), "--data", str(data_path),
                   "--out", str(tmp_path / "s.json"), "--k-values", "1,2"])
    assert rc == 2


def test_cli_simulate_null(toy_run):
    tmp_path, _, data_path = toy_run
    cfg = minimal_cfg(null_sim={"reps": 120})
    cfg_path = tmp_path / "null.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "null_report.json"
    rc = cli.main(["simulate-null", "--config", str(cfg_path), "--data", str(data_path),
                   "--out", str(out)])
    assert rc == 0
    report = _read(out)
    assert len(report["null_distribution"]["p_values"]) == 120
    assert report["null_distribution"]["failures"] == 0


def test_cli_validate_theorem(tmp_path):
    cfg = {
        "spec": {"family": "gaussian", "n": 150, "p": 3,
                 "main_effects": [0.5, 0.2, 0.0], "treatment_effect": 0.3},
        "reps": 150,
        "seed": 3,
    }
    cfg_path = tmp_path / "v.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "v_report.json"
    assert cli.main(["validate-theorem", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = _read(out)
    assert "max_abs_correlation" in report["summary"]
    assert "correlation_bound_3_over_sqrt_reps" in report["summary"]
    assert report["summary"]["projected"] is False

    cfg["projection"] = "pca"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["validate-theorem", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert _read(out)["summary"]["projected"] is True


_SPEC = {"family": "gaussian", "n": 150, "p": 3, "main_effects": [0.5, 0.2, 0.0],
         "treatment_effect": 0.3}
_VALIDATE = {"spec": _SPEC, "reps": 150, "seed": 3}
_POWER = {
    "spec": {**_SPEC, "interaction_effects": [0.6, 0.0, 0.0]},
    "reps": 40,
    "methods": [{"label": "screened", "screening": {"method": "full_model"},
                 "k_rule": {"rule": "fixed", "k": 1}}],
}
_BAD_CORRELATIONS = {
    "shape": [[1, 0], [0, 1]],
    "asymmetric": [[1, 0.2, 0], [0, 1, 0], [0, 0, 1]],
    "ragged": [[1, 0, 0], [0, 1], [0, 0, 1]],
    "not-pd": -0.9,  # below -1/(p-1) = -0.5 at p = 3
    "one": 1.0,
    "matrix-not-pd": [[1, 0.9, 0.9], [0.9, 1, -0.9], [0.9, -0.9, 1]],
    "matrix-not-unit-diagonal": [[4, 0, 0], [0, 4, 0], [0, 0, 4]],
}
_UNLABELED = [{"screening": {"method": "full_model"}, "k_rule": {"rule": "fixed", "k": k}}
              for k in (1, 3)]


def _power_with_k_rule(k_rule):
    return {**_POWER, "methods": [{**_POWER["methods"][0], "k_rule": k_rule}]}


_NAN, _INF = float("nan"), float("inf")

# every screening sub-block x a value that is not an object
_BAD_BLOCKS = [(block, value) for block in ("boosting", "lasso", "pca")
               for value in (5, "n_trees", [1])]
# a data block of the wrong type, or one column in two roles: (id, block, field)
_BAD_DATA = [
    ("block-int", 5, "'data'"),
    ("adjust_cols-str", {"adjust_cols": "c1"}, "data.'adjust_cols'"),
    ("adjust_cols-int", {"adjust_cols": [1]}, "data.'adjust_cols'"),
    ("outcome_col-int", {"outcome_col": 5}, "data.'outcome_col'"),
    ("treatment_col-list", {"treatment_col": ["treatment"]}, "data.'treatment_col'"),
    ("outcome-is-treatment", {"outcome_col": "treatment"}, "'treatment'"),
    ("adjust-is-outcome", {"adjust_cols": ["y"]}, "'y'"),
    ("adjust-is-treatment", {"adjust_cols": ["treatment"]}, "'treatment'"),
    ("adjust-twice", {"adjust_cols": ["c1", "c1"]}, "'c1'"),
]


@pytest.mark.parametrize("command, cfg, argv, field", [
    ("validate-theorem", {**_VALIDATE, "seed": "abc"}, [], "seed"),
    ("validate-theorem", {**_VALIDATE, "seed": -1}, [], "seed"),
    ("generate", {"spec": _SPEC}, ["--seed", "-1"], "seed"),
    ("power-study", {**_POWER, "alpha": "0.05"}, [], "alpha"),
    ("power-study", {**_POWER, "methods": _UNLABELED}, [], "label"),
    ("power-study", _power_with_k_rule({"rule": "power"}), [], "'coef'"),
    ("power-study", _power_with_k_rule({"rule": "fixed", "k": 2.5}), [], "'k'"),
    ("validate-theorem", {**_VALIDATE, "screen_k": "2"}, [], "screen_k"),
    ("validate-theorem", {**_VALIDATE, "screen_k": 0}, [], "screen_k"),
    ("generate", {"spec": {**_SPEC, "main_effects": "ab"}}, [], "main_effects"),
    ("generate", {"spec": {**_SPEC, "covariate_correlation": "high"}}, [],
     "covariate_correlation"),
    ("analyze", minimal_cfg(null_sim={"reps": 50}), ["--data", "missing.csv"], "null_sim.reps"),
    ("analyze", minimal_cfg(family="poisson"), ["--data", "missing.csv"], "family"),
    ("generate", {"spec": {**_SPEC, "family": "poisson"}}, [], "family"),
    ("sweep-k", minimal_cfg(k_values=["a", 2]), ["--data", "missing.csv"], "k_values"),
    ("sweep-k", minimal_cfg(k_values=[2.7, 1]), ["--data", "missing.csv"], "k_values"),
    ("power-study", {**_POWER, "records_csv": True}, [], "records_csv"),
    ("power-study", {**_POWER, "records_csv": 1}, [], "records_csv"),
    ("power-study", {**_POWER, "records_csv": ""}, [], "records_csv"),
    ("power-study", {**_POWER, "include_records": "no"}, [], "include_records"),
    ("validate-theorem", {**_VALIDATE, "include_records": "no"}, [], "include_records"),
    ("simulate-null", minimal_cfg(null_sim={"reps": 100, "pvalues_csv": True}),
     ["--data", "missing.csv"], "null_sim.'pvalues_csv'"),
    ("simulate-null", minimal_cfg(null_sim={"reps": 100, "pvalues_csv": ""}),
     ["--data", "missing.csv"], "null_sim.'pvalues_csv'"),
    *[("analyze", minimal_cfg(screening={"method": "multi_stage", block: value}),
       ["--data", "missing.csv"], f"screening.'{block}'") for block, value in _BAD_BLOCKS],
    *[("analyze", minimal_cfg(data=block), ["--data", "missing.csv"], field)
      for _, block, field in _BAD_DATA],
    # Python's json reads NaN and Infinity; a config number must be finite
    ("analyze", minimal_cfg(k_rule={"rule": "power", "coef": _NAN, "exponent": 0.5}),
     ["--data", "missing.csv"], "k_rule.coef"),
    ("analyze",
     minimal_cfg(screening={"method": "multi_stage", "boosting": {"ri_threshold": _NAN}}),
     ["--data", "missing.csv"], "ri_threshold"),
    ("generate", {"spec": {**_SPEC, "family": "binomial", "intercept": _NAN}}, [], "intercept"),
    ("generate", {"spec": {**_SPEC, "main_effects": [_INF, 0, 0]}}, [], "main_effects"),
    ("power-study", _power_with_k_rule({"rule": "power", "coef": 1e308, "exponent": 1}), [],
     "coef"),
    # a config file must hold an object; the message names the file
    *[(command, 5, argv, "cfg.json") for command, argv in (
        ("generate", []), ("validate-theorem", []), ("power-study", []),
        ("analyze", ["--data", "missing.csv"]))],
    # an integer too large for a double, in a float field
    ("generate", {"spec": {**_SPEC, "noise_sd": 10**400}}, [], "noise_sd"),
    # a spec that SyntheticSpec refuses is a config error, not a data error
    ("generate", {"spec": {**_SPEC, "n": 3}}, [], "spec"),
    ("generate", {"spec": {**_SPEC, "p": 0}}, [], "spec"),
    ("generate", {"spec": {**_SPEC, "main_effects": [0.5, 0.2]}}, [], "spec"),
    ("power-study", {**_POWER, "spec": {**_POWER["spec"], "main_effects": [0.5]}}, [], "spec"),
    ("power-study", {**_POWER, "spec": {**_POWER["spec"], "interaction_effects": [0.6]}}, [],
     "spec"),
    ("validate-theorem", {**_VALIDATE, "spec": {**_SPEC, "noise_sd": 0}}, [], "spec"),
    # power-study runs no null per replicate, so a method may not ask for one
    ("power-study", {**_POWER, "methods": [{**_POWER["methods"][0], "null_sim": {"reps": 100}}]},
     [], "methods[0]"),
    # simulate-null needs a null, refused before the data is read
    ("simulate-null", minimal_cfg(null_sim={"reps": 0}), ["--data", "missing.csv"],
     "null_sim.reps"),
    # the config's seed obeys its rule even when --seed replaces it
    ("analyze", minimal_cfg(seed=-1), ["--data", "missing.csv", "--seed", "3"], "seed"),
    # a field error inside a method names the method, not a top-level field
    ("power-study", {**_POWER, "methods": [{**_POWER["methods"][0], "seed": -2}]}, [],
     "methods[0]: config field 'seed'"),
    # a correlation is checked against p when the spec is parsed, not at the first draw
    *[("generate", {"spec": {**_SPEC, "covariate_correlation": rho}}, [],
       "'spec': covariate_correlation") for rho in _BAD_CORRELATIONS.values()],
    # the H0/H1 rule of each study, before any replicate runs
    ("power-study", {**_POWER, "spec": {**_POWER["spec"], "interaction_effects": []}}, [],
     "spec.'interaction_effects'"),
    ("validate-theorem", {**_VALIDATE, "spec": {**_SPEC, "interaction_effects": [0.3, 0, 0]}},
     [], "spec.'interaction_effects'"),
], ids=["seed-str", "seed-negative", "seed-flag-negative", "alpha-str", "labels-duplicate",
        "k_rule-power-no-coef", "k_rule-fixed-float",
        "screen_k-str", "screen_k-zero", "main_effects-str", "correlation-str", "null-reps-50",
        "family-analyze", "family-generate", "k_values-str", "k_values-float",
        "records_csv-true", "records_csv-int", "records_csv-empty", "include_records-str-power",
        "include_records-str-validate", "pvalues_csv-true", "pvalues_csv-empty",
        *[f"screening.{block}-{type(value).__name__}" for block, value in _BAD_BLOCKS],
        *[f"data.{name}" for name, _, _ in _BAD_DATA],
        "k_rule-power-coef-nan", "ri_threshold-nan", "intercept-nan", "main_effects-inf",
        "k_rule-power-overflow", "config-int-generate", "config-int-validate",
        "config-int-power", "config-int-analyze", "noise_sd-int-overflow",
        "spec-n-small", "spec-p-zero", "spec-main_effects-length-generate",
        "spec-main_effects-length-power", "spec-interaction_effects-length", "spec-noise_sd-zero",
        "methods-null-reps", "null-reps-0-simulate", "seed-negative-with-flag",
        "methods-seed-negative", *[f"spec-correlation-{name}" for name in _BAD_CORRELATIONS],
        "spec-interaction_effects-h0-power", "spec-interaction_effects-h1-validate"])
def test_cli_rejects_bad_config_field(tmp_path, capsys, command, cfg, argv, field):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = cli.main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o"), *argv])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # nothing, not even a CSV, went to stdout
    err = json.loads(captured.err)
    assert err["error"] == "ConfigError"
    assert field in err["message"]
    assert not (tmp_path / "o").exists()  # rejected before any replicate ran


@pytest.mark.parametrize("field, value", [("n", 10**20), ("n", data_model.MAX_N + 1),
                                          ("p", 10**20), ("p", data_model.MAX_P + 1)])
@pytest.mark.parametrize("command", ["generate", "power-study"])
def test_cli_refuses_a_huge_spec_before_building_it(tmp_path, capsys, monkeypatch, command, field,
                                                     value):
    # _expand is the spec's first p-length build; here it fails the run if reached.
    def built(*args):
        raise AssertionError("spec expanded before its size was checked")

    monkeypatch.setattr(data_model, "_expand", built)
    cfg = {**_POWER, "spec": {**_POWER["spec"], field: value}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = cli.main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "'spec'" in err["message"] and f"{field}={value}" in err["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, cfg, out", [
    ("analyze", minimal_cfg(null_sim={"reps": 100}), "nodir/r.json"),
    ("generate", {"spec": _SPEC}, "nodir/t.csv"),
    ("power-study", {**_POWER, "records_csv": "nodir/rec.csv"}, "o.json"),
    ("simulate-null", minimal_cfg(null_sim={"reps": 100, "pvalues_csv": "nodir/pv.csv"}),
     "o.json"),
], ids=["analyze-out", "generate-out", "records_csv", "pvalues_csv"])
def test_cli_refuses_an_output_in_a_missing_directory(toy_run, monkeypatch, capsys, command,
                                                      cfg, out):
    tmp_path, _, data_path = toy_run
    monkeypatch.chdir(tmp_path)  # every output path is relative
    pathlib.Path("out_cfg.json").write_text(json.dumps(cfg))
    before = sorted(tmp_path.rglob("*"))
    data = ["--data", str(data_path)] if "family" in cfg else []
    rc = cli.main([command, "--config", "out_cfg.json", "--out", out, *data])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "'nodir/" in err["message"]
    assert sorted(tmp_path.rglob("*")) == before  # nothing was written


@pytest.mark.parametrize("command, cfg, out, directory", [
    ("generate", {"spec": _SPEC}, "adir", "adir"),
    ("analyze", minimal_cfg(null_sim={"reps": 100}), "adir", "adir"),
    ("sweep-k", minimal_cfg(k_values=[1, 2]), "sweep.json", "sweep.csv"),
], ids=["generate-out", "analyze-out", "sweep-k-csv"])
def test_cli_refuses_an_output_that_is_a_directory(toy_run, monkeypatch, capsys, command, cfg,
                                                   out, directory):
    tmp_path, _, data_path = toy_run
    monkeypatch.chdir(tmp_path)
    pathlib.Path("dir_cfg.json").write_text(json.dumps(cfg))
    pathlib.Path(directory).mkdir()
    before = sorted(tmp_path.rglob("*"))
    data = ["--data", str(data_path)] if "family" in cfg else []
    rc = cli.main([command, "--config", "dir_cfg.json", "--out", out, *data])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and f"'{directory}'" in err["message"]
    assert "is a directory" in err["message"]
    assert sorted(tmp_path.rglob("*")) == before  # nothing was written


def test_cli_validate_theorem_names_the_first_failed_replicate(tmp_path, capsys):
    # Rare binomial events: 6 of 100 replicates fail to fit, the first (r = 1) by
    # separation. Every replicate runs before the study aborts.
    cfg = {"spec": {"family": "binomial", "n": 80, "p": 6, "intercept": -2.5,
                    "main_effects": [0.5, 0.4, 0.3, 0, 0, 0], "treatment_effect": 0.3},
           "reps": 100, "seed": 3}
    cfg_path = tmp_path / "v.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "v_report.json"
    assert cli.main(["validate-theorem", "--config", str(cfg_path), "--out", str(out)]) == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NumericalError"
    assert err["message"].startswith(
        "6/100 theorem replicates failed; first: replicate 1, SeparationError: ")
    assert not out.exists()


def test_cli_power_study_and_missing_methods(tmp_path, capsys):
    spec = {"family": "gaussian", "n": 150, "p": 3,
            "main_effects": [0.8, 0.3, 0.0], "interaction_effects": [0.6, 0.0, 0.0],
            "treatment_effect": 0.3}
    cfg = {
        "spec": spec,
        "reps": 40,
        "seed": 5,
        "methods": [
            {"label": "screened", "screening": {"method": "full_model"},
             "k_rule": {"rule": "fixed", "k": 1}},
            {"label": "full", "screening": {"method": "full_model"},
             "k_rule": {"rule": "fixed", "k": 3}},
        ],
    }
    cfg_path = tmp_path / "p.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "p_report.json"
    assert cli.main(["power-study", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = _read(out)
    assert set(report["summary"]["rejection_rates"]) == {"screened", "full"}
    assert "screened - full" in report["summary"]["paired_differences"]

    del cfg["methods"]
    cfg_path.write_text(json.dumps(cfg))
    rc = cli.main(["power-study", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    assert "methods" in capsys.readouterr().err


@pytest.mark.parametrize("spec_family, method_family", [("gaussian", "binomial"),
                                                         ("binomial", "gaussian")])
def test_cli_power_study_refuses_a_method_family_other_than_the_spec(
        tmp_path, capsys, spec_family, method_family):
    # Every replicate is drawn from the spec, so such a method could only fail them all.
    cfg = {**_POWER, "spec": {**_POWER["spec"], "family": spec_family},
           "methods": [_POWER["methods"][0], {**_POWER["methods"][0], "label": "other",
                                              "family": method_family}]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "o.json"
    assert cli.main(["power-study", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["message"].startswith("methods[1]: config field 'family'")
    assert not out.exists()

    cfg["methods"][1]["family"] = spec_family.upper()  # the spec's own family, named again
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["power-study", "--config", str(cfg_path), "--out", str(out)]) == 0


def test_cli_full_workflow_with_adjusters_and_null_correction(tmp_path):
    gen = {"spec": {
        "family": "gaussian", "n": 200, "p": 4,
        "main_effects": [0.8, 0.4, 0.0, 0.0], "treatment_effect": 0.4,
        "adjust_effects": [0.5], "seed": 17,
    }}
    gen_path = tmp_path / "gen.json"
    gen_path.write_text(json.dumps(gen))
    data_path = tmp_path / "trial.csv"
    assert cli.main(["generate", "--config", str(gen_path), "--out", str(data_path)]) == 0

    cfg = {
        "family": "gaussian",
        "data": {"outcome_col": "y", "treatment_col": "treatment", "adjust_cols": ["c1"]},
        "screening": {"method": "multi_stage", "ml": "lasso", "pc_rank": "variance"},
        "k_rule": {"rule": "fixed", "k": 2},
        "null_sim": {"reps": 150, "method": "parametric"},
        "seed": 4,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    assert cli.main(["analyze", "--config", str(cfg_path), "--data", str(data_path),
                     "--out", str(out)]) == 0
    report = _read(out)
    assert report["p_c"] == 1
    assert report["test"]["p_corrected"] is not None
    assert 0.0 < report["test"]["p_corrected"] <= 1.0
    assert report["null_simulation"]["reps"] == 150
    assert report["screening"]["method"] == "multi_stage"


def test_sweep_detects_interaction_at_its_rank():
    # The interacting covariate carries the 6th-strongest main effect; in the
    # K sweep the p-value should drop when K reaches 6, most of the time.
    import dataclasses

    from tehscreen import inference

    base = ts.SyntheticSpec(
        n=400, p=8, family=ts.GAUSSIAN,
        main_effects=(1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.05, 0.05),
        interaction_effects=(0, 0, 0, 0, 0, 0.45, 0, 0),
        treatment_effect=0.3, seed=0,
    )
    cfg = PipelineConfig.from_dict(minimal_cfg(k_rule={"rule": "fixed", "k": 8}))
    drops = 0
    seeds = 100
    for r in range(seeds):
        d = ts.generate_trial(dataclasses.replace(base, seed=ts.derive_seed(7117, r)))
        screen = inference.run_screening(d, cfg, 8)
        p_at = {
            k: inference.test_interaction(d, ts.GAUSSIAN, screen.truncate(k)).p_raw
            for k in (5, 6)
        }
        if p_at[6] < p_at[5]:
            drops += 1
    assert drops > seeds / 2


def test_cli_seed_override_changes_generate(tmp_path):
    gen = {"spec": {"family": "gaussian", "n": 50, "p": 2, "seed": 1}}
    gen_path = tmp_path / "g.json"
    gen_path.write_text(json.dumps(gen))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["generate", "--config", str(gen_path), "--out", str(a)]) == 0
    assert cli.main(["generate", "--config", str(gen_path), "--out", str(b), "--seed", "2"]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_cli_import_leaves_scipy_unloaded():
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = ("import sys, tehscreen.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
