"""Structured configuration: the pipeline's pre-registration record.

Config files are JSON. The parsed dict is kept verbatim and embedded in
every report so a run can be reproduced from its own output. K comes from a
deterministic rule on n (log / power / fixed) resolved before any data is
read; there is no way to express a data-adaptive K.

This module alone reads, defaults and checks the config's keys, each once,
before any data is read; the ``--seed`` and ``--k-values`` flags obey the
rules of the fields they replace. ``SCREENS`` is the one statement of which
screening method reads which field. ``cli.py`` keeps argv, the output-path
checks, dispatch, writing and exit codes.
"""

import json
import sys
from dataclasses import dataclass

from .data_model import SyntheticSpec
from .errors import ConfigError, DataError
from .families import Family, family_from_name
from .screening import k_schedule

# method: (its function in screening.py, the keyword arguments it takes from the config)
SCREENS = {
    "full_model": ("rank_full_model", ()),
    "univariate": ("rank_univariate", ()),
    "lasso": ("rank_lasso", ("include_treatment", "n_lambda")),
    "pca": ("screen_pca_single_stage", ("supervised", "standardize", "n_lambda",
                                        "include_treatment")),
    "multi_stage": ("screen_multi_stage", ("ml", "pc_rank", "ri_threshold", "n_trees", "shrinkage",
                                           "n_lambda", "standardize", "include_treatment")),
    "irm": ("irm_risk_projection", ("include_treatment",)),
}
K_RULES = ("log", "power", "fixed")


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return cfg


def _require(d, key, kind, where, minimum=None):
    if key not in d:
        raise ConfigError(f"missing config field {where}{key!r}")
    return _check(d[key], kind, f"config field {where}{key!r}", minimum)


def _optional(d, key, kind, default, where, minimum=None):
    if key not in d:
        return default
    return _require(d, key, kind, where, minimum)


def _check(value, kind, name, minimum=None):
    """``value`` as ``kind`` (a float field takes any number a double holds), >= ``minimum``."""
    if kind is float and _is_number(value):
        value = float(value)
    elif kind is float or not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(f"{name} must be {kind.__name__}, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value!r}")
    return value


def _choice(d, key, choices, where, default=None):
    value = _optional(d, key, str, default, where) if default else _require(d, key, str, where)
    if value not in choices:
        raise ConfigError(f"{where}{key} must be one of {choices}, got {value!r}")
    return value


def _seed(d, where, flag):
    """The ``--seed`` flag when given, else the config's ``seed``; each an integer >= 0."""
    seed = _optional(d, "seed", int, 0, where, minimum=0)
    return seed if flag is None else _check(flag, int, "--seed", minimum=0)


def _csv_path(d, key, where):
    """An optional CSV output path: absent (None) or a nonempty string."""
    path = _optional(d, key, str, None, where)
    if path == "":
        raise ConfigError(f"config field {where}{key!r} must be a nonempty file path")
    return path


def _is_number(value):
    """A JSON number a double holds: not NaN or an infinity, which Python's json
    accepts, nor an integer beyond the double range (each compares False here)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return abs(value) <= sys.float_info.max


def _is_vector(value):
    return isinstance(value, list) and all(map(_is_number, value))


@dataclass(frozen=True)
class PipelineConfig:
    """Everything needed to run Stage-1 + Stage-2 on one dataset; built by ``from_dict``.

    ``screen_options`` holds the fields that ``SCREENS`` lists for ``method``."""

    family: Family
    method: str
    k_rule: str
    k_params: dict
    screen_options: dict
    null_reps: int
    null_method: str
    seed: int
    label: str

    @classmethod
    def from_dict(cls, d: dict, seed: int | None = None) -> "PipelineConfig":
        """Parse a pipeline config; ``seed`` is the ``--seed`` flag, if one was given."""
        family = family_from_name(_require(d, "family", str, ""))
        screening = _require(d, "screening", dict, "")
        method = _choice(screening, "method", tuple(SCREENS), "screening.")

        k_rule_block = _require(d, "k_rule", dict, "")
        rule = _choice(k_rule_block, "rule", K_RULES, "k_rule.")
        k_params = {key: value for key, value in k_rule_block.items() if key != "rule"}
        for key, value in k_params.items():
            if not _is_number(value):
                raise ConfigError(
                    f"k_rule.{key} must be a number fixed ahead of the data, got {value!r}"
                )

        boost = _optional(screening, "boosting", dict, {}, "screening.")
        las = _optional(screening, "lasso", dict, {}, "screening.")
        pca_block = _optional(screening, "pca", dict, {}, "screening.")
        null_block = _optional(d, "null_sim", dict, {}, "")

        options = {
            "supervised": _optional(screening, "supervised", bool, False, "screening."),
            "ml": _choice(screening, "ml", ("boosting", "lasso"), "screening.", "boosting"),
            "pc_rank": _choice(screening, "pc_rank", ("variance", "supervised"), "screening.",
                               "variance"),
            "include_treatment": _optional(screening, "include_treatment", bool, True,
                                           "screening."),
            "n_trees": _optional(boost, "n_trees", int, 500, "screening.boosting.", minimum=1),
            "shrinkage": _optional(boost, "shrinkage", float, 0.05, "screening.boosting."),
            "ri_threshold": _optional(boost, "ri_threshold", float, 1.0, "screening.boosting.",
                                      minimum=0.0),
            "n_lambda": _optional(las, "n_lambda", int, 100, "screening.lasso.", minimum=2),
            "standardize": _optional(pca_block, "standardize", bool, True, "screening.pca."),
        }
        cfg = cls(
            family=family,
            method=method,
            k_rule=rule,
            k_params=k_params,
            screen_options={key: options[key] for key in SCREENS[method][1]},
            null_reps=_optional(null_block, "reps", int, 0, "null_sim."),
            null_method=_choice(
                null_block, "method", ("parametric", "permutation"), "null_sim.", "parametric"
            ),
            seed=_seed(d, "", seed),
            label=_optional(d, "label", str, method, ""),
        )
        if cfg.null_reps != 0 and cfg.null_reps < 100:
            raise ConfigError(f"null_sim.reps must be 0 (no null) or >= 100, got {cfg.null_reps}")
        if not 0.0 < options["shrinkage"] <= 1.0:
            raise ConfigError("screening.boosting.shrinkage must be in (0, 1]")
        cfg.resolve_k(1)  # the rule's own parameter checks, before any data is read
        return cfg

    def resolve_k(self, n: int) -> int:
        return k_schedule(n, self.k_rule, self.k_params)


def data_columns(cfg: dict) -> dict:
    """``load_csv``'s column roles from the ``data`` block; a column fills at most one role."""
    block = _optional(cfg, "data", dict, {}, "")
    outcome = _optional(block, "outcome_col", str, "y", "data.")
    treatment = _optional(block, "treatment_col", str, "treatment", "data.")
    adjust = [_check(col, str, "config field data.'adjust_cols'")
              for col in _optional(block, "adjust_cols", list, [], "data.")]
    roles = [outcome, treatment, *adjust]
    for i, col in enumerate(roles):
        if col in roles[:i]:
            raise ConfigError(f"column {col!r} is named twice in the data block")
    return {"outcome_col": outcome, "treatment_col": treatment, "adjust_cols": adjust}


def sweep_config(d: dict, seed=None, k_values=None):
    """Parse a sweep-k config: (PipelineConfig, K values); ``k_values`` is ``--k-values``."""
    cfg = PipelineConfig.from_dict(d, seed)
    if cfg.method == "irm":
        raise ConfigError("sweep-k does not apply to the K=1 internal-risk-model screen")
    k_values = d.get("k_values") if k_values is None else k_values
    if not isinstance(k_values, list) or not k_values:
        raise ConfigError(
            f"config field 'k_values' must be a nonempty list (or use --k-values), got {k_values!r}"
        )
    return cfg, [_check(k, int, "config field 'k_values'", minimum=1) for k in k_values]


def null_config(d: dict, seed=None):
    """Parse a simulate-null config: (PipelineConfig, ``null_sim.pvalues_csv`` or None)."""
    cfg = PipelineConfig.from_dict(d, seed)
    if cfg.null_reps == 0:
        raise ConfigError("null_sim.reps must be >= 100 for simulate-null")
    return cfg, _csv_path(d["null_sim"], "pvalues_csv", "null_sim.")


def synthetic_spec_from_dict(cfg: dict, seed=None) -> SyntheticSpec:
    """Parse the ``spec`` block of a generate / validate-theorem / power-study config.

    ``seed`` is generate's ``--seed`` flag. An absent field takes ``SyntheticSpec``'s
    default, and a spec that it refuses is a config error naming ``spec``.
    """
    d = _require(cfg, "spec", dict, "")
    fields = {
        "family": family_from_name(_require(d, "family", str, "spec.")),
        "n": _require(d, "n", int, "spec."),
        "p": _require(d, "p", int, "spec."),
    }
    if "covariate_correlation" in d:
        rho = fields["covariate_correlation"] = d["covariate_correlation"]
        if not (_is_number(rho) or isinstance(rho, list) and all(map(_is_vector, rho))):
            raise ConfigError(f"config field spec.'covariate_correlation' must be a number or "
                              f"a matrix, got {rho!r}")
    for key in ("intercept", "treatment_effect", "noise_sd"):
        if key in d:
            fields[key] = _require(d, key, float, "spec.")
    for key in ("main_effects", "interaction_effects", "adjust_effects"):
        if key in d:
            name = f"config field spec.{key!r}"
            fields[key] = [_check(v, float, name) for v in _require(d, key, list, "spec.")]
    try:
        return SyntheticSpec(seed=_seed(d, "spec.", seed), **fields)
    except DataError as exc:
        raise ConfigError(f"config field 'spec': {exc}") from None


def load_study(cfg: dict):
    """Parse a power-study config: (synthetic spec, [PipelineConfig per method]).

    Each method takes the spec's family, named again or left out, and asks for no null.
    """
    spec = synthetic_spec_from_dict(cfg)
    if not any(spec.interaction_effects):
        raise ConfigError("config field spec.'interaction_effects' must hold a nonzero effect: "
                          "power-study draws its trials under H1")
    methods_block = cfg.get("methods")
    if not isinstance(methods_block, list) or not methods_block:
        raise ConfigError("missing config field 'methods' (a nonempty list)")
    methods = []
    for i, m in enumerate(methods_block):
        if not isinstance(m, dict):
            raise ConfigError(f"methods[{i}] must be an object")
        try:
            method = PipelineConfig.from_dict({"family": cfg["spec"]["family"], **m})
            if method.family is not spec.family:
                raise ConfigError(f"config field 'family' must be spec.family: {spec.family.name}")
            if method.null_reps:
                raise ConfigError("null_sim.reps must be 0, since power-study runs no null "
                                  "per replicate")
        except ConfigError as exc:
            raise ConfigError(f"methods[{i}]: {exc}") from None
        methods.append(method)
    return spec, methods


def theorem_config(d: dict, seed=None):
    """Parse a validate-theorem config: (``validate_theorem`` arguments, include_records)."""
    study = {"spec": synthetic_spec_from_dict(d),
             "reps": _optional(d, "reps", int, 2000, "", minimum=100),
             "seed": _seed(d, "", seed), "projected": d.get("projection") == "pca"}
    if any(study["spec"].interaction_effects):
        raise ConfigError("config field spec.'interaction_effects' must be all zero: "
                          "validate-theorem draws its trials under H0")
    if d.get("projection") not in (None, "none", "pca"):
        raise ConfigError(f"projection must be null or 'pca', got {d['projection']!r}")
    if d.get("screen_k") is not None:  # null or absent: validate_theorem's min(3, p)
        study["screen_k"] = _require(d, "screen_k", int, "", minimum=1)
    return study, _optional(d, "include_records", bool, False, "")


def power_config(d: dict, seed=None):
    """Parse a power-study config: (``power_study`` arguments, include_records, records_csv)."""
    spec, methods = load_study(d)
    study = {"h1_spec": spec, "methods": methods,
             "reps": _optional(d, "reps", int, 1000, "", minimum=10)}
    if "alpha" in d:  # absent: power_study's default
        study["alpha"] = _require(d, "alpha", float, "")
        if not 0.0 < study["alpha"] < 1.0:
            raise ConfigError(
                f"config field 'alpha' must be a number in (0, 1), got {study['alpha']!r}")
    study["seed"] = _seed(d, "", seed)
    include_records = _optional(d, "include_records", bool, False, "")
    return study, include_records, _csv_path(d, "records_csv", "")
