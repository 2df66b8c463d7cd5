#!/usr/bin/env python3
"""Replicate-throughput benchmark of the tehscreen command-line tool.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-reference

Workloads (see workloads.py and BENCHMARK.json): null_calibration_binomial,
power_gain_gaussian, lasso_path_binomial. Each is a closed-loop batch run:
the benchmark calls ``tehscreen.cli.main`` once at a time, each call in a
fresh interpreter (child.py), on inputs it made from --seed, until --seconds
have passed. The program's only threads are its own replicate threads.

--trace 0 reports the end-to-end metrics of untraced calls: replicates per
second of the ``cli.main`` call, the import time of ``tehscreen.cli`` in a
fresh interpreter (setup_s), peak RSS, and the share of replicates that
completed and passed every check. --trace 1 alternates one untraced call
with two traced ones and reports per-layer metrics from spans around the
public functions of each module (tracing.py), plus the tracing overhead.

Every report is checked: invariants on every seed, and at seed 0 the
reference outputs in reference/. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
holds details (report digests, machine facts, problems found).

--write-reference reruns every workload once at seed 0 with one replicate
thread and rewrites reference/. Only a change to a workload's inputs or to
the program's documented output justifies it.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import REFERENCE, WORKLOADS, compare, reference, report_digest  # noqa: E402

RUN_LIMIT_S = 170.0
SETUP_REPEATS = 7
IMPORT_CODE = "import time; t = time.perf_counter(); import tehscreen.cli; print(time.perf_counter() - t)"

# (layer, stats) reported by a traced run; units follow from the stat name.
LAYER_STATS = (
    ("glm.fit", ("calls", "self_s", "total_s", "errors", "iterations", "dropped_columns")),
    ("glm.make_design", ("calls", "self_s", "dropped_columns")),
    ("glm.lrt", ("self_s",)),
    ("glm.standardized_arm_difference", ("self_s",)),
    ("screening.rank_full_model", ("calls", "self_s")),
    ("screening.screen_multi_stage", ("calls", "self_s")),
    ("screening.rank_lasso", ("calls", "self_s")),
    ("screening.stage2_dataset", ("calls", "self_s")),
    ("lasso.fit_path", ("calls", "self_s", "lambdas", "entered", "useful_lambda_ratio")),
    ("boosting.fit_boost", ("calls", "self_s", "stumps")),
    ("boosting.select_by_influence", ("selected",)),
    ("pca.compute_pca", ("calls", "self_s")),
    ("pca.rank_pcs_by_variance", ("calls", "self_s")),
    ("inference.run_pipeline", ("calls", "p50_ms", "ptail_ms", "ptail_pct")),
    ("inference.simulate_null", ("self_s",)),
    ("inference.power_study", ("self_s",)),
    ("inference.test_interaction", ("self_s",)),
    ("data_model.generate_trial", ("self_s",)),
    ("data_model.load_csv", ("self_s",)),
    ("config.load_json", ("self_s",)),
    ("cli.main", ("self_s", "total_s")),
)
TIMED_STATS = ("self_s", "total_s", "p50_ms", "ptail_ms")
UNITS = {"self_s": "s", "total_s": "s", "p50_ms": "ms", "ptail_ms": "ms", "ptail_pct": "%",
         "useful_lambda_ratio": "ratio"}


class BenchError(Exception):
    pass


class Runner:
    """Starts child interpreters inside one work directory, all within the run's deadline."""

    def __init__(self, workdir, threads, deadline):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC), TEH_SCREEN_THREADS=str(threads))
        self.count = 0

    def _run(self, cmd):
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time")
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"timed out: {cmd[1:3]}") from None
        if proc.returncode != 0:
            raise BenchError(f"{cmd[1:3]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return proc.stdout

    def call(self, argv, trace=False):
        """One ``cli.main(argv)`` call in a fresh interpreter; returns the child's result."""
        self.count += 1
        result_path = self.workdir / f"result-{self.count}.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(result_path)]
        cmd += ["--trace"] if trace else []
        self._run([*cmd, "--", *argv])
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result_path.unlink()
        return result

    def cli(self, argv, trace=False):
        """One call that writes a report; returns the child's result and the report."""
        report_path = self.workdir / "report.json"
        result = self.call([*argv, "--out", str(report_path)], trace)
        report = json.loads(report_path.read_text(encoding="utf-8"))
        report_path.unlink()
        return result, report

    def import_seconds(self):
        return float(self._run([sys.executable, "-c", IMPORT_CODE]))


def _median(values):
    return statistics.median(values) if values else None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def layer_values(stats, wrapped):
    """Every LAYER_STATS metric of one traced call; ``None`` where a function was not wrapped."""
    values = {}
    for layer, names in LAYER_STATS:
        s = stats.get(layer, {"calls": 0, "errors": 0, "self_s": 0.0, "total_s": 0.0,
                              "durations": [], "counts": {}})
        counts = s["counts"]
        for stat in names:
            key = f"{layer}.{stat}"
            if layer not in wrapped:
                values[key] = None
            elif stat in ("calls", "errors", "self_s", "total_s"):
                values[key] = s[stat]
            elif stat in ("p50_ms", "ptail_ms", "ptail_pct"):
                durations = sorted(s["durations"])
                pct = tracing.tail_percentile(len(durations))
                if stat == "ptail_pct":
                    values[key] = pct
                elif durations:
                    q = 50 if stat == "p50_ms" else pct
                    values[key] = 1000.0 * tracing.percentile(durations, q)
                else:
                    values[key] = 0.0
            elif counts is None:
                values[key] = None
            elif stat == "useful_lambda_ratio":
                lambdas = counts.get("lambdas", 0)
                values[key] = counts.get("useful_lambdas", 0) / lambdas if lambdas else 0.0
            else:
                values[key] = counts.get(stat, 0)
    return values


def _unit(stat):
    return UNITS.get(stat, "count")


def count_view(stats):
    """Every count of one traced call: calls, errors and return-value counts per function."""
    view = {}
    for name, s in stats.items():
        view[f"{name}.calls"] = s["calls"]
        view[f"{name}.errors"] = s["errors"]
        if s["counts"] is None:
            view[f"{name}.counts"] = None
        else:
            view.update((f"{name}.{key}", value) for key, value in s["counts"].items())
    return view


def per_layer_metrics(workload, traced, untraced):
    """Median times and exact counts over the traced calls, after the count self-check.

    Returns the metrics and, when the self-check failed, why every layer
    metric reads as missing.
    """
    stats = [tracing.aggregate(r["spans"]) for r in traced]
    per_call = [layer_values(s, set(r["wrapped"])) for s, r in zip(stats, traced)]
    timed = {k for k in per_call[0] if k.rsplit(".", 1)[1] in TIMED_STATS}
    counts = [count_view(s) for s in stats]
    missing = None
    if any(c != counts[0] for c in counts[1:]):
        missing = "traced calls disagree on counts"
    else:
        short = {k: (counts[0].get(k), v) for k, v in workload.expected_counts().items()
                 if counts[0].get(k) != v}
        if short:
            missing = f"counts differ from the workload parameters (seen, expected): {short}"

    metrics = {}
    for layer, names in LAYER_STATS:
        for stat in names:
            key = f"{layer}.{stat}"
            samples = [values[key] for values in per_call]
            if missing or any(v is None for v in samples):
                value = None
            else:
                value = _median(samples) if key in timed else samples[0]
            metrics[key] = {"value": value, "unit": _unit(stat)}
    traced_wall = _median([r["wall_s"] for r in traced])
    untraced_wall = _median([r["wall_s"] for r in untraced])
    metrics["process.cpu_s"] = {"value": _median([r["cpu_s"] for r in untraced]), "unit": "s"}
    metrics["trace.untraced_wall_s"] = {"value": untraced_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
    return metrics, missing


def run(args):
    workload = WORKLOADS[args.workload]()
    deadline = time.monotonic() + RUN_LIMIT_S
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        runner = Runner(pathlib.Path(tmp), workload.threads, deadline)
        argv = workload.prepare(args.seed, runner.workdir, runner.call)
        runner.import_seconds()  # first import in a fresh checkout also compiles bytecode
        setup = [runner.import_seconds() for _ in range(SETUP_REPEATS)] if not args.trace else []

        calls = []  # (result, report, traced)
        start = time.monotonic()
        while not calls or time.monotonic() - start < args.seconds or (args.trace and len(calls) < 3):
            traced = bool(args.trace) and len(calls) % 3 != 0
            result, report = runner.cli(argv, trace=traced)
            calls.append((result, report, traced))

    problems, digests, completed = [], [], []
    attempted = failed = 0
    ref = reference(workload.name) if args.seed == 0 else None
    for result, report, _ in calls:
        digest = report_digest(report)
        digests.append(digest)
        try:
            outcome = workload.outcome(report)
        except (KeyError, TypeError) as exc:
            raise BenchError(f"report lacks an expected field: {exc!r}") from None
        completed.append(outcome.completed)
        call_problems = list(outcome.problems)
        if ref is not None:
            call_problems += compare(outcome.fields, ref["fields"])
            if workload.digest_must_match and digest != ref["digest"]:
                call_problems.append(f"digest {digest} != one-thread reference {ref['digest']}")
        problems += call_problems
        attempted += outcome.attempted
        failed += outcome.attempted - outcome.completed + len(call_problems)
    if len(set(digests)) != 1:
        problems.append("calls on the same inputs wrote different reports")
        failed += len(digests)

    untraced = [r for r, _, t in calls if not t]
    missing = None
    if args.trace:
        traced = [r for r, _, t in calls if t]
        metrics, missing = per_layer_metrics(workload, traced, untraced)
    else:
        metrics = {
            "replicates_per_s": {"value": _median([c / r["wall_s"] for (r, _, _), c
                                                   in zip(calls, completed)]), "unit": "1/s"},
            "setup_s": {"value": _median(setup), "unit": "s"},
            "peak_rss_mb": {"value": _median([r["peak_rss_mb"] for r in untraced]), "unit": "MB"},
            "ok_fraction": {"value": 1.0 - failed / attempted, "unit": "fraction"},
        }

    details = {
        "workload": workload.name,
        "seed": args.seed,
        "calls": [{"traced": t, "wall_s": r["wall_s"], "digest": d}
                  for (r, _, t), d in zip(calls, digests)],
        "reference": "compared" if ref is not None else "none at this seed: invariants only",
        "reference_digest_match": (digests[0] == ref["digest"]) if ref is not None else None,
        "problems": problems,
        "layer_metrics_missing": missing,
        "machine": dict(calls[0][0]["machine"], git_commit=_git_commit()),
    }
    print(json.dumps({"details": details}))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def write_reference():
    """Rerun each workload once at seed 0 with one thread and store its checked fields."""
    REFERENCE.mkdir(exist_ok=True)
    WORK.mkdir(exist_ok=True)
    for name, make in WORKLOADS.items():
        workload = make()
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            runner = Runner(pathlib.Path(tmp), 1, time.monotonic() + RUN_LIMIT_S)
            argv = workload.prepare(0, runner.workdir, runner.call)
            _, report = runner.cli(argv)
        outcome = workload.outcome(report)
        if outcome.problems:
            raise BenchError(f"{name}: {outcome.problems}")
        ref = {"workload": name, "seed": 0, "threads": 1, "digest": report_digest(report),
               "fields": outcome.fields}
        (REFERENCE / f"{name}.json").write_text(json.dumps(ref, indent=2) + "\n", encoding="utf-8")
        print(f"{name}: {ref['digest']}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "tehscreen" / "cli.py").is_file():
        print(f"perfbench: no tehscreen sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.write_reference:
            return write_reference()
        if not args.workload:
            parser.error("--workload is required")
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
