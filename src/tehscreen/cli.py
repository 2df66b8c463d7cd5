"""Command-line front end.

Subcommands: analyze, sweep-k, simulate-null, validate-theorem, power-study,
generate. Every report embeds the verbatim config, the master seed, and the
library version, so rerunning from a report's config reproduces all numbers.
Screening method and K cannot be overridden from the command line
(pre-registration integrity); the seed can.

Exit codes: 0 success, 2 config error, 3 data error, 4 numerical failure.
Errors are emitted as one JSON object on stderr.
"""

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__, inference
from .config import PipelineConfig, _optional, load_json, load_study, synthetic_spec_from_dict
from .data_model import generate_trial, load_csv, write_csv
from .errors import ConfigError, DataError, TehScreenError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    return obj


def _write_report(path, payload):
    payload = _jsonable(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _report_envelope(cfg_dict, seed):
    return {
        "tool": "tehscreen",
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config": cfg_dict,
        "master_seed": seed,
    }


def _load_data(cfg_dict, data_path):
    """Read the CSV named on the command line with the config's ``data`` roles.

    Each column may fill at most one role: outcome, treatment or adjuster.
    """
    block = _optional(cfg_dict, "data", dict, {}, "")
    outcome = _optional(block, "outcome_col", str, "y", "data.")
    treatment = _optional(block, "treatment_col", str, "treatment", "data.")
    adjust = _optional(block, "adjust_cols", list, [], "data.")
    if not all(isinstance(col, str) for col in adjust):
        raise ConfigError(
            f"config field data.'adjust_cols' must be a list of strings, got {adjust!r}"
        )
    roles = [outcome, treatment, *adjust]
    for i, col in enumerate(roles):
        if col in roles[:i]:
            raise ConfigError(f"column {col!r} is named twice in the data block")
    return load_csv(data_path, outcome_col=outcome, treatment_col=treatment, adjust_cols=adjust)


def _int_field(name, value, minimum):
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigError(f"config field {name!r} must be an integer >= {minimum}, got {value!r}")
    return value


def _csv_target(block, key, where=""):
    """An optional CSV output path: absent, or a nonempty string."""
    target = _optional(block, key, str, None, where)
    if target == "":
        raise ConfigError(f"config field {where}{key!r} must be a nonempty file path")
    return target


def _seed(args, default):
    """The master seed: --seed when given, else the config's ``default``."""
    return _int_field("seed", default if args.seed is None else args.seed, 0)


def cmd_analyze(args):
    cfg_dict = load_json(args.config)
    cfg = PipelineConfig.from_dict(cfg_dict)
    seed = _seed(args, cfg.seed)
    data = _load_data(cfg_dict, args.data)
    test = inference.run_pipeline(data, cfg)

    null_info = None
    if cfg.null_reps > 0:
        null = inference.simulate_null(data, cfg, reps=cfg.null_reps, seed=seed)
        test = dataclasses.replace(
            test,
            p_corrected=inference.correct_pvalue(test.p_raw, null),
            null_sim_size=null.reps,
        )
        null_info = {"reps": null.reps, "failures": null.failures, "method": cfg.null_method}

    test_block = _jsonable(test)
    report = _report_envelope(cfg_dict, seed)
    report.update(
        {
            "n": data.n, "p": data.p, "p_c": data.p_c,
            "k": cfg.resolve_k(data.n),
            "screening": test_block.pop("screening"),
            "test": test_block,
            "null_simulation": null_info,
        }
    )
    _write_report(args.out, report)
    return EXIT_OK


def cmd_sweep_k(args):
    cfg_dict = load_json(args.config)
    cfg = PipelineConfig.from_dict(cfg_dict)
    if cfg.method == "irm":
        raise ConfigError("sweep-k does not apply to the K=1 internal-risk-model screen")
    k_values = args.k_values or cfg_dict.get("k_values")
    if not isinstance(k_values, list) or not k_values:
        raise ConfigError(
            f"config field 'k_values' must be a nonempty list (or use --k-values), got {k_values!r}"
        )
    k_values = [_int_field("k_values", v, 1) for v in k_values]

    seed = _seed(args, cfg.seed)
    data = _load_data(cfg_dict, args.data)
    if max(k_values) > data.p:
        raise ConfigError(f"k_values must lie in 1..p={data.p}")

    base = inference.run_screening(data, cfg, max(k_values))
    digest = hashlib.sha256(json.dumps(_jsonable(base), sort_keys=True).encode()).hexdigest()

    table = []
    for k in k_values:
        test = inference.test_interaction(data, cfg.family, base.truncate(k))
        table.append(
            {
                "k_requested": k, "df": test.df, "statistic": test.statistic,
                "p_raw": test.p_raw, "stage1_digest": digest,
            }
        )

    report = _report_envelope(cfg_dict, seed)
    report.update(
        {
            "n": data.n, "p": data.p,
            "exploratory": "K sweep is exploratory, not a pre-registered analysis",
            "screening": base,
            "table": table,
        }
    )
    _write_report(args.out, report)
    csv_path = os.path.splitext(args.out)[0] + ".csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(table[0].keys()))
        writer.writeheader()
        writer.writerows(_jsonable(table))
    return EXIT_OK


def cmd_simulate_null(args):
    cfg_dict = load_json(args.config)
    cfg = PipelineConfig.from_dict(cfg_dict)
    if cfg.null_reps == 0:
        raise ConfigError("null_sim.reps must be >= 100 for simulate-null")
    seed = _seed(args, cfg.seed)
    csv_target = _csv_target(cfg_dict.get("null_sim", {}), "pvalues_csv", "null_sim.")
    data = _load_data(cfg_dict, args.data)
    null = inference.simulate_null(data, cfg, reps=cfg.null_reps, seed=seed)
    report = _report_envelope(cfg_dict, seed)
    report.update(
        {
            "null_distribution": {
                "reps": null.reps,
                "failures": null.failures,
                "generator_spec": null.generator_spec,
                "ks_distance_vs_uniform": inference.uniform_ks_distance(null.p_values),
                "fraction_below_0.05": float(np.mean(null.p_values <= 0.05)),
                "p_values": null.p_values,
            }
        }
    )
    _write_report(args.out, report)
    if csv_target is not None:
        with open(csv_target, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["p_raw"])
            writer.writerows([[repr(float(p))] for p in null.p_values])
    return EXIT_OK


def cmd_validate_theorem(args):
    cfg_dict = load_json(args.config)
    if "spec" not in cfg_dict:
        raise ConfigError("missing config field 'spec'")
    spec = synthetic_spec_from_dict(cfg_dict["spec"])
    reps = _int_field("reps", cfg_dict.get("reps", 2000), 100)
    seed = _seed(args, cfg_dict.get("seed", 0))
    proj_kind = cfg_dict.get("projection")
    if proj_kind not in (None, "none", "pca"):
        raise ConfigError(f"projection must be null or 'pca', got {proj_kind!r}")
    screen_k = cfg_dict.get("screen_k")
    if screen_k is not None:
        _int_field("screen_k", screen_k, 1)
    include_records = _optional(cfg_dict, "include_records", bool, False, "")

    report_obj = inference.validate_theorem(
        spec, reps=reps, seed=seed, projected=proj_kind == "pca", screen_k=screen_k
    )
    report = _report_envelope(cfg_dict, seed)
    report.update({"summary": report_obj.summary})
    if include_records:
        report["records"] = list(report_obj.records)
    _write_report(args.out, report)
    return EXIT_OK


def cmd_power_study(args):
    cfg_dict = load_json(args.config)
    spec, methods = load_study(cfg_dict)
    reps = _int_field("reps", cfg_dict.get("reps", 1000), 10)
    alpha = cfg_dict.get("alpha", 0.05)
    if not isinstance(alpha, float) or not 0.0 < alpha < 1.0:
        raise ConfigError(f"config field 'alpha' must be a number in (0, 1), got {alpha!r}")
    seed = _seed(args, cfg_dict.get("seed", 0))
    include_records = _optional(cfg_dict, "include_records", bool, False, "")
    csv_target = _csv_target(cfg_dict, "records_csv")

    study = inference.power_study(spec, methods, reps=reps, seed=seed, alpha=alpha)
    report = _report_envelope(cfg_dict, seed)
    report.update({"summary": study.summary})
    if include_records:
        report["records"] = list(study.records)
    _write_report(args.out, report)
    if csv_target is not None:
        with open(csv_target, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["replicate", *(c.label for c in methods)])
            writer.writeheader()
            writer.writerows(_jsonable(list(study.records)))
    return EXIT_OK


def cmd_generate(args):
    cfg_dict = load_json(args.config)
    if "spec" not in cfg_dict:
        raise ConfigError("missing config field 'spec'")
    spec = synthetic_spec_from_dict(cfg_dict["spec"])
    spec = dataclasses.replace(spec, seed=_seed(args, spec.seed))
    data = generate_trial(spec)
    write_csv(data, args.out)
    return EXIT_OK


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="tehscreen",
        description="Two-stage treatment-effect-heterogeneity discovery for randomized trials",
    )
    parser.add_argument("--version", action="version", version=f"tehscreen {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data=False):
        p.add_argument("--config", required=True, help="JSON config file")
        if data:
            p.add_argument("--data", required=True, help="trial data CSV")
        p.add_argument("--out", required=True, help="output report path")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")

    p = sub.add_parser("analyze", help="Stage-1 screen + Stage-2 interaction test")
    common(p, data=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep-k", help="exploratory p-value-vs-K table (shared Stage-1)")
    common(p, data=True)
    p.add_argument("--k-values", type=lambda s: [int(v) for v in s.split(",")], default=None)
    p.set_defaults(func=cmd_sweep_k)

    p = sub.add_parser("simulate-null", help="empirical H0 distribution of the pipeline p-value")
    common(p, data=True)
    p.set_defaults(func=cmd_simulate_null)

    p = sub.add_parser("validate-theorem", help="independence of screening and arm differences")
    common(p)
    p.set_defaults(func=cmd_validate_theorem)

    p = sub.add_parser("power-study", help="paired rejection rates of several pipelines")
    common(p)
    p.set_defaults(func=cmd_power_study)

    p = sub.add_parser("generate", help="write a synthetic trial to CSV")
    common(p)
    p.set_defaults(func=cmd_generate)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        _emit_error(exc)
        return EXIT_CONFIG
    except DataError as exc:
        _emit_error(exc)
        return EXIT_DATA
    except TehScreenError as exc:
        _emit_error(exc)
        return EXIT_NUMERICAL


def _emit_error(exc):
    print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
