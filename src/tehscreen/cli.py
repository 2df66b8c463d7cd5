"""Command-line front end.

Subcommands: analyze, sweep-k, simulate-null, validate-theorem, power-study,
generate. Every report embeds the verbatim config, the master seed, and the
library version, so rerunning from a report's config reproduces all numbers.
Screening method and K cannot be overridden from the command line
(pre-registration integrity); the seed can.

``config.py`` reads, defaults and checks every config field, and the
``--seed`` and ``--k-values`` flags by the rules of the fields they replace.
This module keeps argv, the output-path checks, dispatch, writing and exit
codes. Each subcommand is a handler ``cmd_*(cfg_dict, args) -> (seed, body,
csv)`` that writes nothing. ``body`` is the report beyond the common envelope
(``None`` when the command writes no report) and ``csv`` is ``None`` or a
``(path, rows)`` pair, the rows an iterable of dicts. ``main`` checks that
``--out`` is not a directory and that its directory exists, reads the config,
runs the handler and writes every output.

Exit codes: 0 success, 2 config error, 3 data error, 4 numerical failure.
Errors are emitted as one JSON object on stderr.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__, inference
from .config import (
    PipelineConfig, data_columns, load_json, null_config, power_config, sweep_config,
    synthetic_spec_from_dict, theorem_config,
)
from .data_model import csv_rows, generate_trial, load_csv, write_rows
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


def _check_directory(path, field):
    """Refuse an output path that is a directory or whose directory does not exist."""
    directory = os.path.dirname(path)
    if directory and not os.path.isdir(directory):
        raise ConfigError(
            f"cannot write {path!r} ({field}): directory {directory!r} does not exist"
        )
    if os.path.isdir(path):
        raise ConfigError(f"cannot write {path!r} ({field}): it is a directory")


def _report_envelope(cfg_dict, seed):
    return {
        "tool": "tehscreen",
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config": cfg_dict,
        "master_seed": seed,
    }


def cmd_analyze(cfg_dict, args):
    cfg = PipelineConfig.from_dict(cfg_dict, args.seed)
    data = load_csv(args.data, **data_columns(cfg_dict))
    test = inference.run_pipeline(data, cfg)

    null_info = None
    if cfg.null_reps > 0:
        null = inference.simulate_null(data, cfg, cfg.seed)
        test = dataclasses.replace(
            test,
            p_corrected=inference.correct_pvalue(test.p_raw, null),
            null_sim_size=null.reps,
        )
        null_info = {"reps": null.reps, "failures": len(null.failures), "method": cfg.null_method}

    test_block = _jsonable(test)
    return cfg.seed, {
        "n": data.n, "p": data.p, "p_c": data.p_c,
        "k": cfg.resolve_k(data.n),
        "screening": test_block.pop("screening"),
        "test": test_block,
        "null_simulation": null_info,
    }, None


def cmd_sweep_k(cfg_dict, args):
    cfg, k_values = sweep_config(cfg_dict, args.seed, args.k_values)
    csv_path = os.path.splitext(args.out)[0] + ".csv"
    _check_directory(csv_path, "the table CSV beside --out")

    data = load_csv(args.data, **data_columns(cfg_dict))
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

    return cfg.seed, {
        "n": data.n, "p": data.p,
        "exploratory": "K sweep is exploratory, not a pre-registered analysis",
        "screening": base,
        "table": table,
    }, (csv_path, table)


def cmd_simulate_null(cfg_dict, args):
    cfg, csv_target = null_config(cfg_dict, args.seed)
    if csv_target is not None:
        _check_directory(csv_target, "config field null_sim.'pvalues_csv'")
    data = load_csv(args.data, **data_columns(cfg_dict))
    null = inference.simulate_null(data, cfg, cfg.seed)
    body = {
        "null_distribution": {
            "reps": null.reps,
            "failures": len(null.failures),
            "generator_spec": null.generator_spec,
            "ks_distance_vs_uniform": inference.uniform_ks_distance(null.p_values),
            "fraction_below_0.05": float(np.mean(null.p_values <= 0.05)),
            "p_values": null.p_values,
        }
    }
    rows = [{"p_raw": p} for p in null.p_values]
    return cfg.seed, body, None if csv_target is None else (csv_target, rows)


def cmd_validate_theorem(cfg_dict, args):
    study, include_records = theorem_config(cfg_dict, args.seed)
    report_obj = inference.validate_theorem(**study)
    body = {"summary": report_obj.summary}
    if include_records:
        body["records"] = report_obj.records
    return study["seed"], body, None


def cmd_power_study(cfg_dict, args):
    study, include_records, csv_target = power_config(cfg_dict, args.seed)
    if csv_target is not None:
        _check_directory(csv_target, "config field 'records_csv'")

    result = inference.power_study(**study)
    body = {"summary": result.summary}
    if include_records:
        body["records"] = result.records
    return study["seed"], body, None if csv_target is None else (csv_target, result.records)


def cmd_generate(cfg_dict, args):
    spec = synthetic_spec_from_dict(cfg_dict, args.seed)
    return spec.seed, None, (args.out, csv_rows(generate_trial(spec)))


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="tehscreen",
        description="Two-stage treatment-effect-heterogeneity discovery for randomized trials",
    )
    parser.add_argument("--version", action="version", version=f"tehscreen {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, reads_data in (
        ("analyze", cmd_analyze, "Stage-1 screen + Stage-2 interaction test", True),
        ("sweep-k", cmd_sweep_k, "exploratory p-value-vs-K table (shared Stage-1)", True),
        ("simulate-null", cmd_simulate_null, "empirical H0 distribution of the pipeline p-value",
         True),
        ("validate-theorem", cmd_validate_theorem,
         "independence of screening and arm differences", False),
        ("power-study", cmd_power_study, "paired rejection rates of several pipelines", False),
        ("generate", cmd_generate, "write a synthetic trial to CSV", False),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config file")
        if reads_data:
            p.add_argument("--data", required=True, help="trial data CSV")
        p.add_argument("--out", required=True, help="output report path")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        if name == "sweep-k":
            p.add_argument(
                "--k-values", type=lambda s: [int(v) for v in s.split(",")], default=None
            )
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_directory(args.out, "--out")
        cfg_dict = load_json(args.config)
        seed, body, csv_out = args.func(cfg_dict, args)
        if body is not None:
            _write_report(args.out, {**_report_envelope(cfg_dict, seed), **body})
        if csv_out is not None:
            path, rows = csv_out
            write_rows(path, map(_jsonable, rows))
        return EXIT_OK
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
