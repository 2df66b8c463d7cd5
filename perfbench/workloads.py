"""The benchmark's workloads: inputs made from a seed, the CLI call, and checks on its report.

``--seed s`` shifts every seed of a workload by ``s * SEED_STRIDE``; seed 0
gives the committed scenarios unchanged, and only seed 0 has reference
outputs. Every seed is checked against invariants: p-values and rates in
[0, 1], replicate counts, and at most 5% failed replicates.
"""

import hashlib
import json
import math
import pathlib
from dataclasses import dataclass

HERE = pathlib.Path(__file__).resolve().parent
SCENARIOS = HERE / "scenarios"
REFERENCE = HERE / "reference"

SEED_STRIDE = 1000
MAX_FAILED_SHARE = 0.05
# Floats in a report may move in their last bits when a later change
# reorders a floating-point sum; 1e-9 relative is far above that rounding
# noise and far below any statistically meaningful change. Integers,
# rankings and labels must match exactly.
REL_TOL = 1e-9
ABS_TOL = 1e-12


def report_digest(report):
    """SHA-256 of the report with its timestamp removed, in canonical JSON."""
    stripped = {k: v for k, v in report.items() if k != "timestamp"}
    canonical = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def compare(actual, expected, where="report"):
    """Differences between two extracted field sets, floats within the stated tolerance."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if set(actual) != set(expected):
            return [f"{where}: keys {sorted(actual)} != {sorted(expected)}"]
        return [d for k in expected for d in compare(actual[k], expected[k], f"{where}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(actual) != len(expected):
            return [f"{where}: length {len(actual)} != {len(expected)}"]
        return [d for i, (a, e) in enumerate(zip(actual, expected))
                for d in compare(a, e, f"{where}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, (int, float)):
        if math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
    elif actual == expected and type(actual) is type(expected):
        return []
    return [f"{where}: {actual!r} != {expected!r}"]


def _in_unit_interval(value):
    return isinstance(value, (int, float)) and 0.0 <= value <= 1.0


def _scenario(name):
    return json.loads((SCENARIOS / name).read_text(encoding="utf-8"))


def _write(cfg, path):
    path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
    return str(path)


@dataclass
class Outcome:
    """What one report says: replicates attempted and completed, problems, reference fields."""

    attempted: int
    completed: int
    problems: list
    fields: dict


class NullCalibration:
    """``tehscreen analyze`` with a parametric null correction on a generated CSV."""

    name = "null_calibration_binomial"
    threads = 1
    digest_must_match = False

    def prepare(self, seed, workdir, run_cli):
        """Write the trial CSV and config; return the CLI arguments without ``--out``."""
        data_cfg = _scenario("null_calibration_data.json")
        data_cfg["spec"]["seed"] += SEED_STRIDE * seed
        cfg = _scenario("null_calibration.json")
        cfg["seed"] += SEED_STRIDE * seed
        self.reps = cfg["null_sim"]["reps"]
        csv_path = str(workdir / "trial.csv")
        run_cli(["generate", "--config", _write(data_cfg, workdir / "data.json"), "--out", csv_path])
        return ["analyze", "--config", _write(cfg, workdir / "config.json"), "--data", csv_path]

    def outcome(self, report):
        test, null, screen = report["test"], report["null_simulation"], report["screening"]
        problems = []
        p_values = [test["p_raw"], test["p_corrected"], *screen["substage_trace"]["p_values"]]
        if not all(_in_unit_interval(p) for p in p_values):
            problems.append("a p-value lies outside [0, 1]")
        if null["reps"] + null["failures"] != self.reps:
            problems.append(f"null reps {null['reps']} + failures {null['failures']} != {self.reps}")
        if null["failures"] > MAX_FAILED_SHARE * self.reps:
            problems.append(f"{null['failures']} of {self.reps} null replicates failed")
        if sorted(screen["ranking"]) != list(range(report["p"])):
            problems.append("the ranking is not a permutation of the candidates")
        fields = {
            "p_raw": test["p_raw"],
            "p_corrected": test["p_corrected"],
            "ranking": screen["ranking"],
            "null_reps": null["reps"],
            "null_failures": null["failures"],
        }
        return Outcome(self.reps, null["reps"], problems, fields)

    def expected_counts(self):
        """One pipeline per null replicate plus the observed one; three fits each, plus the H0 fit."""
        pipelines = self.reps + 1
        return {
            "cli.main.calls": 1,
            "data_model.load_csv.calls": 1,
            "inference.simulate_null.calls": 1,
            "inference.run_pipeline.calls": pipelines,
            "inference.test_interaction.calls": pipelines,
            "screening.rank_full_model.calls": pipelines,
            "glm.fit.calls": 3 * pipelines + 1,
            "glm.make_design.calls": 3 * pipelines + 1,
        }


class PowerStudy:
    """``tehscreen power-study`` on a scenario owned by the benchmark."""

    def __init__(self, name, scenario, threads, digest_must_match, expected):
        self.name = name
        self.scenario = scenario
        self.threads = threads
        self.digest_must_match = digest_must_match
        self._expected = expected

    def prepare(self, seed, workdir, run_cli):
        cfg = _scenario(self.scenario)
        cfg["seed"] += SEED_STRIDE * seed
        self.reps = cfg["reps"]
        self.labels = sorted(m["label"] for m in cfg["methods"])
        return ["power-study", "--config", _write(cfg, workdir / "config.json")]

    def outcome(self, report):
        summary = report["summary"]
        rates, failures = summary["rejection_rates"], summary["failures"]
        problems = []
        if summary["reps"] != self.reps:
            problems.append(f"reps {summary['reps']} != {self.reps}")
        if sorted(rates) != self.labels or sorted(failures) != self.labels:
            problems.append(f"methods {sorted(rates)} != {self.labels}")
        if not all(_in_unit_interval(r) for r in rates.values()):
            problems.append("a rejection rate lies outside [0, 1]")
        worst = max(failures.values(), default=0)
        if worst > MAX_FAILED_SHARE * self.reps:
            problems.append(f"{worst} of {self.reps} replicates failed")
        fields = {"rejection_rates": rates, "failures": failures}
        return Outcome(self.reps, self.reps - worst, problems, fields)

    def expected_counts(self):
        return self._expected(self.reps)


# Each run builds its workload afresh: ``prepare`` records the replicate count.
WORKLOADS = {
    w().name: w
    for w in (
        NullCalibration,
        # Per replicate: one trial; multi-stage (boosting, PCA, two fits) and
        # full-model (three fits) pipelines.
        lambda: PowerStudy(
            "power_gain_gaussian", "power_gain.json", threads=2, digest_must_match=True,
            expected=lambda r: {
                "cli.main.calls": 1,
                "inference.power_study.calls": 1,
                "data_model.generate_trial.calls": r,
                "inference.run_pipeline.calls": 2 * r,
                "inference.test_interaction.calls": 2 * r,
                "screening.screen_multi_stage.calls": r,
                "screening.rank_full_model.calls": r,
                "boosting.fit_boost.calls": r,
                "glm.fit.calls": 5 * r,
            },
        ),
        # Per replicate: one trial; one lasso path (with its unpenalized null
        # fit) over 100 lambdas, then the two Stage-2 fits.
        lambda: PowerStudy(
            "lasso_path_binomial", "lasso_path.json", threads=1, digest_must_match=False,
            expected=lambda r: {
                "cli.main.calls": 1,
                "inference.power_study.calls": 1,
                "data_model.generate_trial.calls": r,
                "inference.run_pipeline.calls": r,
                "screening.rank_lasso.calls": r,
                "lasso.fit_path.calls": r,
                "lasso.fit_path.lambdas": 100 * r,
                "glm.fit.calls": 3 * r,
            },
        ),
    )
}


def reference(name):
    path = REFERENCE / f"{name}.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else None
