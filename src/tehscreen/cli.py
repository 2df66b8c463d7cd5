"""Command-line front end.

Subcommands: analyze, sweep-k, simulate-null, validate-theorem, power-study,
generate. Every report embeds the verbatim config, the master seed, and the
library version, so rerunning from a report's config reproduces all numbers.
Screening method and K cannot be overridden from the command line
(pre-registration integrity); the seed can.

Each subcommand is a handler ``cmd_*(cfg_dict, args) -> (seed, body, csv)``
that writes nothing. ``body`` is the report beyond the common envelope
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
from .config import PipelineConfig, _optional, load_json, load_study, synthetic_spec_from_dict
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
    """An optional CSV output path: absent, or a nonempty string in an existing directory."""
    target = _optional(block, key, str, None, where)
    if target == "":
        raise ConfigError(f"config field {where}{key!r} must be a nonempty file path")
    if target is not None:
        _check_directory(target, f"config field {where}{key!r}")
    return target


def _seed(args, default):
    """The master seed: --seed when given, else the config's ``default``."""
    return _int_field("seed", default if args.seed is None else args.seed, 0)


def cmd_analyze(cfg_dict, args):
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
        null_info = {"reps": null.reps, "failures": len(null.failures), "method": cfg.null_method}

    test_block = _jsonable(test)
    return seed, {
        "n": data.n, "p": data.p, "p_c": data.p_c,
        "k": cfg.resolve_k(data.n),
        "screening": test_block.pop("screening"),
        "test": test_block,
        "null_simulation": null_info,
    }, None


def cmd_sweep_k(cfg_dict, args):
    cfg = PipelineConfig.from_dict(cfg_dict)
    if cfg.method == "irm":
        raise ConfigError("sweep-k does not apply to the K=1 internal-risk-model screen")
    k_values = args.k_values or cfg_dict.get("k_values")
    if not isinstance(k_values, list) or not k_values:
        raise ConfigError(
            f"config field 'k_values' must be a nonempty list (or use --k-values), got {k_values!r}"
        )
    k_values = [_int_field("k_values", v, 1) for v in k_values]
    csv_path = os.path.splitext(args.out)[0] + ".csv"
    _check_directory(csv_path, "the table CSV beside --out")

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

    return seed, {
        "n": data.n, "p": data.p,
        "exploratory": "K sweep is exploratory, not a pre-registered analysis",
        "screening": base,
        "table": table,
    }, (csv_path, table)


def cmd_simulate_null(cfg_dict, args):
    cfg = PipelineConfig.from_dict(cfg_dict)
    if cfg.null_reps == 0:
        raise ConfigError("null_sim.reps must be >= 100 for simulate-null")
    seed = _seed(args, cfg.seed)
    csv_target = _csv_target(cfg_dict.get("null_sim", {}), "pvalues_csv", "null_sim.")
    data = _load_data(cfg_dict, args.data)
    null = inference.simulate_null(data, cfg, reps=cfg.null_reps, seed=seed)
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
    return seed, body, None if csv_target is None else (csv_target, rows)


def cmd_validate_theorem(cfg_dict, args):
    spec = synthetic_spec_from_dict(cfg_dict)
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
    body = {"summary": report_obj.summary}
    if include_records:
        body["records"] = report_obj.records
    return seed, body, None


def cmd_power_study(cfg_dict, args):
    spec, methods = load_study(cfg_dict)
    reps = _int_field("reps", cfg_dict.get("reps", 1000), 10)
    alpha = cfg_dict.get("alpha", 0.05)
    if not isinstance(alpha, float) or not 0.0 < alpha < 1.0:
        raise ConfigError(f"config field 'alpha' must be a number in (0, 1), got {alpha!r}")
    seed = _seed(args, cfg_dict.get("seed", 0))
    include_records = _optional(cfg_dict, "include_records", bool, False, "")
    csv_target = _csv_target(cfg_dict, "records_csv")

    study = inference.power_study(spec, methods, reps=reps, seed=seed, alpha=alpha)
    body = {"summary": study.summary}
    if include_records:
        body["records"] = study.records
    return seed, body, None if csv_target is None else (csv_target, study.records)


def cmd_generate(cfg_dict, args):
    spec = synthetic_spec_from_dict(cfg_dict)
    seed = _seed(args, spec.seed)
    data = generate_trial(dataclasses.replace(spec, seed=seed))
    return seed, None, (args.out, csv_rows(data))


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
