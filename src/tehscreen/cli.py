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
from .config import PipelineConfig, load_json, load_study, synthetic_spec_from_dict
from .data_model import generate_trial, load_csv, write_csv
from .errors import ConfigError, DataError, TehScreenError
from .pca import compute_pca

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
    block = cfg_dict.get("data", {})
    if not isinstance(block, dict):
        raise ConfigError("data block must be an object")
    return load_csv(
        data_path,
        outcome_col=block.get("outcome_col", "y"),
        treatment_col=block.get("treatment_col", "treatment"),
        adjust_cols=block.get("adjust_cols", []),
    )


def _test_payload(test):
    return {
        "statistic": test.statistic,
        "df": test.df,
        "p_raw": test.p_raw,
        "p_corrected": test.p_corrected,
        "standardized_differences": test.standardized_differences,
        "df_repaired": test.df_repaired,
        "null_sim_size": test.null_sim_size,
    }


def _screening_payload(screen):
    return {
        "method": screen.method,
        "ranking": list(screen.ranking),
        "k_selected": screen.k_selected,
        "projection": screen.projection,
        "substage_trace": screen.substage_trace,
    }


def cmd_analyze(args):
    cfg_dict = load_json(args.config)
    cfg = PipelineConfig.from_dict(cfg_dict)
    seed = args.seed if args.seed is not None else cfg.seed
    data = _load_data(cfg_dict, args.data)
    test = inference.run_pipeline(data, cfg)

    null_info = None
    if cfg.null_reps > 0:
        null = inference.simulate_null(
            data, cfg.family, cfg, reps=cfg.null_reps, seed=seed, method=cfg.null_method
        )
        test = dataclasses.replace(
            test,
            p_corrected=inference.correct_pvalue(test.p_raw, null),
            null_sim_size=null.reps,
        )
        null_info = {"reps": null.reps, "failures": null.failures, "method": cfg.null_method}

    report = _report_envelope(cfg_dict, seed)
    report.update(
        {
            "n": data.n, "p": data.p, "p_c": data.p_c,
            "k": cfg.resolve_k(data.n),
            "screening": _screening_payload(test.screening),
            "test": _test_payload(test),
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
    seed = args.seed if args.seed is not None else cfg.seed
    data = _load_data(cfg_dict, args.data)

    k_values = args.k_values or cfg_dict.get("k_values")
    if not k_values:
        raise ConfigError("missing config field 'k_values' (or pass --k-values)")
    k_values = [int(v) for v in k_values]
    if any(k < 1 or k > data.p for k in k_values):
        raise ConfigError(f"k_values must lie in 1..p={data.p}")

    base = inference.run_screening(data, cfg, max(k_values))
    digest = hashlib.sha256(
        json.dumps(_jsonable(_screening_payload(base)), sort_keys=True).encode()
    ).hexdigest()

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
            "screening": _screening_payload(base),
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
    if cfg.null_reps < 100:
        raise ConfigError("null_sim.reps must be >= 100 for simulate-null")
    seed = args.seed if args.seed is not None else cfg.seed
    data = _load_data(cfg_dict, args.data)
    null = inference.simulate_null(
        data, cfg.family, cfg, reps=cfg.null_reps, seed=seed, method=cfg.null_method
    )
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
    csv_target = cfg_dict.get("null_sim", {}).get("pvalues_csv")
    if csv_target:
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
    reps = cfg_dict.get("reps", 2000)
    if not isinstance(reps, int) or reps < 100:
        raise ConfigError("config field 'reps' must be an integer >= 100")
    seed = args.seed if args.seed is not None else cfg_dict.get("seed", 0)

    projection = None
    proj_kind = cfg_dict.get("projection")
    if proj_kind == "pca":
        ref = generate_trial(
            dataclasses.replace(spec, seed=inference.derive_seed(seed, 2**30))
        )
        res = compute_pca(ref.x_candidates, standardize=True)
        projection = res.loadings / res.scale[:, None]
    elif proj_kind not in (None, "none"):
        raise ConfigError(f"projection must be null or 'pca', got {proj_kind!r}")

    report_obj = inference.validate_theorem(
        spec, reps=reps, seed=seed, projection=projection, screen_k=cfg_dict.get("screen_k")
    )
    report = _report_envelope(cfg_dict, seed)
    report.update({"summary": report_obj.summary})
    if cfg_dict.get("include_records", False):
        report["records"] = list(report_obj.records)
    _write_report(args.out, report)
    return EXIT_OK


def cmd_power_study(args):
    cfg_dict = load_json(args.config)
    spec, methods = load_study(cfg_dict)
    reps = cfg_dict.get("reps", 1000)
    if not isinstance(reps, int) or reps < 10:
        raise ConfigError("config field 'reps' must be an integer >= 10")
    alpha = cfg_dict.get("alpha", 0.05)
    seed = args.seed if args.seed is not None else cfg_dict.get("seed", 0)

    study = inference.power_study(spec, methods, reps=reps, seed=seed, alpha=alpha)
    report = _report_envelope(cfg_dict, seed)
    report.update({"summary": study.summary})
    if cfg_dict.get("include_records", False):
        report["records"] = list(study.records)
    _write_report(args.out, report)
    csv_target = cfg_dict.get("records_csv")
    if csv_target:
        labels = [c.label or f"{c.method}[{i}]" for i, c in enumerate(methods)]
        with open(csv_target, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["replicate", *labels])
            writer.writeheader()
            writer.writerows(_jsonable(list(study.records)))
    return EXIT_OK


def cmd_generate(args):
    cfg_dict = load_json(args.config)
    if "spec" not in cfg_dict:
        raise ConfigError("missing config field 'spec'")
    spec = synthetic_spec_from_dict(cfg_dict["spec"])
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
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
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
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
