"""Structured configuration: the pipeline's pre-registration record.

Config files are JSON. The parsed dict is kept verbatim and embedded in
every report so a run can be reproduced from its own output. K comes from a
deterministic rule on n (log / power / fixed) resolved before any data is
read; there is no way to express a data-adaptive K.
"""

import json
import sys
from dataclasses import dataclass

from .data_model import SyntheticSpec
from .errors import ConfigError
from .families import Family, family_from_name

SCREENING_METHODS = ("full_model", "univariate", "lasso", "pca", "multi_stage", "irm")
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


def _require(d, key, kind, where):
    if key not in d:
        raise ConfigError(f"missing config field {where}{key!r}")
    value = d[key]
    if kind is float and _is_number(value):
        return float(value)
    if kind is float or not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(f"config field {where}{key!r} must be {kind.__name__}, got {value!r}")
    return value


def _optional(d, key, kind, default, where):
    if key not in d:
        return default
    return _require(d, key, kind, where)


def _is_number(value):
    """A JSON number a double holds: not NaN or an infinity, which Python's json
    accepts, nor an integer beyond the double range (each compares False here)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return abs(value) <= sys.float_info.max


def _is_vector(value):
    return isinstance(value, list) and all(map(_is_number, value))


def _vector(d, key, where):
    value = d.get(key, [])
    if not _is_vector(value):
        raise ConfigError(f"config field {where}{key!r} must be a list of numbers, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class PipelineConfig:
    """Everything needed to run Stage-1 + Stage-2 on one dataset."""

    family_name: str
    method: str
    k_rule: str
    k_params: dict
    supervised_pc: bool = False
    ml: str = "boosting"
    pc_rank: str = "variance"
    include_treatment: bool = True
    n_trees: int = 500
    shrinkage: float = 0.05
    ri_threshold: float = 1.0
    n_lambda: int = 100
    pca_standardize: bool = True
    null_reps: int = 0
    null_method: str = "parametric"
    seed: int = 0
    label: str = ""

    @property
    def family(self) -> Family:
        return family_from_name(self.family_name)

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        if not isinstance(d, dict):
            raise ConfigError("pipeline config must be a JSON object")
        family_name = _require(d, "family", str, "")
        family_from_name(family_name)  # validate early

        screening = _require(d, "screening", dict, "")
        method = _require(screening, "method", str, "screening.")
        if method not in SCREENING_METHODS:
            raise ConfigError(
                f"screening.method must be one of {SCREENING_METHODS}, got {method!r}"
            )

        k_rule_block = _require(d, "k_rule", dict, "")
        rule = _require(k_rule_block, "rule", str, "k_rule.")
        if rule not in K_RULES:
            raise ConfigError(f"k_rule.rule must be one of {K_RULES}, got {rule!r}")
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

        cfg = cls(
            family_name=family_name,
            method=method,
            k_rule=rule,
            k_params=k_params,
            supervised_pc=_optional(screening, "supervised", bool, False, "screening."),
            ml=_optional(screening, "ml", str, "boosting", "screening."),
            pc_rank=_optional(screening, "pc_rank", str, "variance", "screening."),
            include_treatment=_optional(
                screening, "include_treatment", bool, True, "screening."
            ),
            n_trees=_optional(boost, "n_trees", int, 500, "screening.boosting."),
            shrinkage=_optional(boost, "shrinkage", float, 0.05, "screening.boosting."),
            ri_threshold=_optional(boost, "ri_threshold", float, 1.0, "screening.boosting."),
            n_lambda=_optional(las, "n_lambda", int, 100, "screening.lasso."),
            pca_standardize=_optional(pca_block, "standardize", bool, True, "screening.pca."),
            null_reps=_optional(null_block, "reps", int, 0, "null_sim."),
            null_method=_optional(null_block, "method", str, "parametric", "null_sim."),
            seed=_optional(d, "seed", int, 0, ""),
            label=_optional(d, "label", str, method, ""),
        )
        if cfg.ml not in ("boosting", "lasso"):
            raise ConfigError(f"screening.ml must be boosting or lasso, got {cfg.ml!r}")
        if cfg.pc_rank not in ("variance", "supervised"):
            raise ConfigError(f"screening.pc_rank must be variance or supervised, got {cfg.pc_rank!r}")
        if cfg.null_method not in ("parametric", "permutation"):
            raise ConfigError(
                f"null_sim.method must be parametric or permutation, got {cfg.null_method!r}"
            )
        if cfg.null_reps != 0 and cfg.null_reps < 100:
            raise ConfigError(f"null_sim.reps must be 0 (no null) or >= 100, got {cfg.null_reps}")
        if cfg.n_trees < 1:
            raise ConfigError("screening.boosting.n_trees must be >= 1")
        if not 0.0 < cfg.shrinkage <= 1.0:
            raise ConfigError("screening.boosting.shrinkage must be in (0, 1]")
        if cfg.ri_threshold < 0.0:
            raise ConfigError("screening.boosting.ri_threshold must be >= 0")
        if cfg.n_lambda < 2:
            raise ConfigError("screening.lasso.n_lambda must be >= 2")
        cfg.resolve_k(1)  # the rule's own parameter checks, before any data is read
        return cfg

    def resolve_k(self, n: int) -> int:
        from .screening import k_schedule

        return k_schedule(n, self.k_rule, self.k_params)


def synthetic_spec_from_dict(cfg: dict) -> SyntheticSpec:
    """Parse the ``spec`` block of a generate / validate-theorem / power-study config."""
    d = _require(cfg, "spec", dict, "")
    family = family_from_name(_require(d, "family", str, "spec."))
    n = _require(d, "n", int, "spec.")
    p = _require(d, "p", int, "spec.")
    rho = d.get("covariate_correlation", 0.0)
    if not (_is_number(rho) or isinstance(rho, list) and all(map(_is_vector, rho))):
        raise ConfigError(
            f"config field spec.'covariate_correlation' must be a number or a matrix, got {rho!r}"
        )
    return SyntheticSpec(
        n=n,
        p=p,
        family=family,
        intercept=_optional(d, "intercept", float, 0.0, "spec."),
        main_effects=_vector(d, "main_effects", "spec."),
        treatment_effect=_optional(d, "treatment_effect", float, 0.0, "spec."),
        interaction_effects=_vector(d, "interaction_effects", "spec."),
        adjust_effects=_vector(d, "adjust_effects", "spec."),
        covariate_correlation=rho,
        noise_sd=_optional(d, "noise_sd", float, 1.0, "spec."),
        seed=_optional(d, "seed", int, 0, "spec."),
    )


def load_study(cfg: dict):
    """Parse a power-study config: (synthetic spec, [PipelineConfig per method]).

    Each method inherits the spec's family unless it names its own.
    """
    spec = synthetic_spec_from_dict(cfg)
    methods_block = cfg.get("methods")
    if not isinstance(methods_block, list) or not methods_block:
        raise ConfigError("missing config field 'methods' (a nonempty list)")
    methods = []
    for i, m in enumerate(methods_block):
        if not isinstance(m, dict):
            raise ConfigError(f"methods[{i}] must be an object")
        entry = dict(m)
        entry.setdefault("family", cfg["spec"].get("family"))
        methods.append(PipelineConfig.from_dict(entry))
    return spec, methods
