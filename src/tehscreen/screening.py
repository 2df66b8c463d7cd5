"""Stage-1 screening engines.

Each screener returns a :class:`ScreeningResult`: an outcome-driven ranking
of the interaction candidates (or of principal components, together with the
projection that realizes them), truncated to the pre-specified dimension K.
K must be fixed before looking at the data -- it is the degrees of freedom
of the Stage-2 test -- so every entry point takes it as a plain argument and
``k_schedule`` converts a deterministic rule on n into a value.

Rankings are deterministic: p-value ties and influence ties break to the
lower covariate index.
"""

import math
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from . import boosting, glm, lasso
from .data_model import TrialDataset
from .errors import ConfigError, DataError, TehScreenError
from .families import Family
from .pca import compute_pca, rank_pcs_by_variance


@dataclass(frozen=True)
class ScreeningResult:
    """Ranked candidates (or PCs) plus the optional linear projection.

    ``ranking`` orders candidate indices (or PC indices for projection
    methods) from most to least informative; ``projection``, when present,
    is the p x K map actually handed to Stage-2, its columns aligned with
    the first K ranking entries. ``additive_fit``, the fit a full-model
    screen ranks from, is no field, so neither a report nor ``replace`` has it.
    """

    additive_fit: ClassVar = None

    method: str
    ranking: tuple
    k_selected: int
    projection: np.ndarray | None = None
    substage_trace: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(set(self.ranking)) != len(self.ranking):
            raise DataError("ranking contains duplicate indices")
        if self.projection is not None and self.projection.shape[1] != self.k_selected:
            raise DataError("projection width must equal k_selected")

    @property
    def selected(self):
        return list(self.ranking[: self.k_selected])

    def truncate(self, k):
        """The same screen handing only its leading ``k`` entries to Stage-2."""
        if self.projection is not None:
            k = min(k, self.projection.shape[1])
            return replace(self, k_selected=k, projection=self.projection[:, :k])
        return replace(self, k_selected=min(k, len(self.ranking)))


def k_schedule(n: int, rule: str, params: dict | None = None) -> int:
    """Pre-specified Stage-2 dimension as a pure function of n.

    log:   max(1, floor(ln n)); power: max(1, floor(coef * n**exponent));
    fixed: the given constant. Data values never enter.
    """
    if n < 1:
        raise ConfigError("n must be >= 1")
    params = params or {}
    if rule == "log":
        return max(1, math.floor(math.log(n)))
    if rule == "power":
        coef = params.get("coef")
        exponent = params.get("exponent")
        if not isinstance(coef, (int, float)) or not isinstance(exponent, (int, float)):
            raise ConfigError("power rule needs numeric 'coef' and 'exponent'")
        if coef <= 0 or exponent <= 0:
            raise ConfigError("power rule parameters must be positive")
        try:  # float(n): an integer exponent must not start an exact big-integer power
            return max(1, math.floor(coef * float(n) ** exponent))
        except (OverflowError, ValueError):  # K overflows, or a NaN reached it
            raise ConfigError(
                f"power rule gives no finite K at n={n}: coef={coef!r}, exponent={exponent!r}"
            ) from None
    if rule == "fixed":
        k = params.get("k")
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ConfigError("fixed rule needs a positive integer 'k'")
        return k
    raise ConfigError(f"unknown K rule {rule!r}; expected log, power, or fixed")


def _order_by_pvalue(pvalues):
    return tuple(sorted(range(len(pvalues)), key=lambda j: (pvalues[j], j)))


def _wald_pvalues(fit: glm.GlmFit, p: int):
    """Two-sided Wald p = erfc(|z| / sqrt(2)) per candidate index; rank-repaired
    candidates (z is NaN) get p = 1."""
    sqrt_half = math.sqrt(0.5)
    return [1.0 if math.isnan(z) else math.erfc(abs(z) * sqrt_half) for z in fit.wald_z(p).tolist()]


def rank_full_model(data: TrialDataset, family: Family, k: int | None = None) -> ScreeningResult:
    """Order candidates by the Wald p-value of their pooled main effect."""
    fit = glm.fit(glm.build_additive_design(data), data.y, family)
    pvalues = _wald_pvalues(fit, data.p)
    result = ScreeningResult(
        method="full_model",
        ranking=_order_by_pvalue(pvalues),
        k_selected=_clamp_k(k, data.p),
        substage_trace={"p_values": pvalues},
    )
    object.__setattr__(result, "additive_fit", fit)
    return result


def rank_univariate(data: TrialDataset, family: Family, k: int | None = None) -> ScreeningResult:
    """Order candidates by single-covariate fits (arm intercepts and adjusters kept).

    The candidate sits last in each design, so if it duplicates an a-priori
    adjuster, rank repair drops the candidate (p = 1, ranked last), never the
    adjuster.
    """
    base_cols, base_origin = glm._arm_and_adjust_block(data)
    pvalues = []
    failures = []
    for j in range(data.p):
        design = glm.make_design(
            base_cols + [data.x_candidates[:, j]],
            base_origin + [("candidate", 0)],
        )
        try:
            fit = glm.fit(design, data.y, family)
            pvalues.append(_wald_pvalues(fit, 1)[0])
        except TehScreenError as exc:
            pvalues.append(np.inf)  # fit failure ranks last
            failures.append({"candidate": j, "error": str(exc)})
    ranking = _order_by_pvalue(pvalues)
    return ScreeningResult(
        method="univariate",
        ranking=ranking,
        k_selected=_clamp_k(k, data.p),
        substage_trace={
            "p_values": [None if not np.isfinite(v) else v for v in pvalues],
            "failures": failures,
        },
    )


def rank_lasso(
    data: TrialDataset,
    family: Family,
    k: int | None = None,
    include_treatment: bool = True,
    n_lambda: int = 100,
) -> ScreeningResult:
    """Order candidates by first entry into the L1 path."""
    path = lasso.fit_path(data, family, include_treatment=include_treatment, n_lambda=n_lambda)
    ranking = tuple(lasso.rank_by_entry(path, data.p))
    return ScreeningResult(
        method="lasso",
        ranking=ranking,
        k_selected=_clamp_k(k, data.p),
        substage_trace={"entry_order": list(path.entry_order), "n_lambda": n_lambda},
    )


def screen_pca_single_stage(
    data: TrialDataset,
    family: Family,
    supervised: bool = False,
    k: int | None = None,
    standardize: bool = True,
    n_lambda: int = 100,
    include_treatment: bool = True,
) -> ScreeningResult:
    """PCA of all candidates; rank PCs by variance or by outcome evidence.

    The returned projection folds the standardization into the loadings
    (columns of diag(1/scale) @ loadings), so Stage-2 applies it directly to
    the raw candidate matrix; the dropped centering only shifts columns by
    constants that the arm intercepts absorb.
    """
    res = compute_pca(data.x_candidates, standardize=standardize)
    raw_projection = res.loadings / res.scale[:, None]
    if supervised:
        pc_data = data.with_candidates(res.scores, tuple(f"PC{i + 1}" for i in range(res.m)))
        ranking = rank_lasso(
            pc_data, family, include_treatment=include_treatment, n_lambda=n_lambda
        ).ranking
    else:
        ranking = tuple(rank_pcs_by_variance(res))
    k_sel = _clamp_k(k, res.m)
    projection = raw_projection[:, list(ranking[:k_sel])]
    return ScreeningResult(
        method="pca_supervised" if supervised else "pca_variance",
        ranking=ranking,
        k_selected=k_sel,
        projection=projection,
        substage_trace={
            "score_variances": res.score_variances.tolist(),
            "loadings": res.loadings.tolist(),
            "standardize": standardize,
            "degenerate_pcs": list(res.degenerate),
        },
    )


def screen_multi_stage(
    data: TrialDataset,
    family: Family,
    ml: str = "boosting",
    pc_rank: str = "variance",
    k: int | None = None,
    ri_threshold: float = 1.0,
    n_trees: int = 500,
    shrinkage: float = 0.05,
    n_lambda: int = 100,
    standardize: bool = True,
    include_treatment: bool = True,
) -> ScreeningResult:
    """Substage-I: supervised variable subset; Substage-II: PCA of the subset.

    Substage-II is the single-stage PCA screen of the subset, its projection
    padded with zero rows for the unselected variables. The subset size M may
    vary from sample to sample; K stays pre-specified. If K exceeds M it is
    capped at M (recorded); if the subset is empty the screen falls back to
    single-stage PCA of all candidates (recorded).
    """
    if ml not in ("boosting", "lasso"):
        raise ConfigError(f"unknown multi-stage ML method {ml!r}; expected boosting or lasso")
    if pc_rank not in ("variance", "supervised"):
        raise ConfigError(f"unknown PC ranking {pc_rank!r}; expected variance or supervised")
    trace = {"ml": ml, "pc_rank": pc_rank}
    if ml == "boosting":
        model = boosting.fit_boost(data, family, n_trees=n_trees, shrinkage=shrinkage)
        selected = sorted(boosting.select_by_influence(model, ri_threshold))
        trace["relative_influence"] = model.relative_influence.tolist()
        trace["ri_threshold"] = ri_threshold
    else:
        path = lasso.fit_path(data, family, include_treatment=include_treatment, n_lambda=n_lambda)
        selected = sorted(path.entry_order)
        trace["entry_order"] = list(path.entry_order)

    subset = selected or list(range(data.p))
    names = [data.candidate_names[j] for j in subset]
    sub = data.with_candidates(data.x_candidates[:, subset], names)
    pca = screen_pca_single_stage(
        sub, family, pc_rank == "supervised", k, standardize, n_lambda, include_treatment
    )
    if selected:
        m = len(selected)
        trace["m_selected"] = m
        trace["selected_indices"] = selected
        trace["selected_names"] = names
        requested = k if k is not None else m
        if requested > m:
            trace["k_capped"] = {"requested": requested, "m": m}
        trace["pc_order"] = list(pca.ranking)
        trace["score_variances"] = pca.substage_trace["score_variances"]
        trace["loadings"] = pca.substage_trace["loadings"]
    else:
        trace.update(pca.substage_trace)
        trace["warning"] = "substage-I selected no variables; fell back to single-stage PCA"
        trace["m_selected"] = 0

    projection = np.zeros((data.p, pca.k_selected))
    projection[subset, :] = pca.projection  # zero rows for unselected variables
    return ScreeningResult(
        method="multi_stage",
        ranking=pca.ranking,
        k_selected=pca.k_selected,
        projection=projection,
        substage_trace=trace,
    )


def irm_risk_projection(
    data: TrialDataset, family: Family, include_treatment: bool = False
) -> ScreeningResult:
    """Internal-risk-model screen: the fitted baseline coefficient vector as a K=1 projection.

    Blinded (default) fits outcome ~ intercept + candidates; unblinded keeps
    the treatment main effect and adjusters in the risk model, which the
    randomization argument shows is safe.
    """
    if include_treatment:
        design = glm.build_additive_design(data)
    else:
        cols = [data.x_candidates[:, j] for j in range(data.p)] + [np.ones(data.n)]
        origin = [("candidate", j) for j in range(data.p)] + [("intercept",)]
        design = glm.make_design(cols, origin)
    beta = glm.fit(design, data.y, family).coefficients[: data.p]  # candidates lead, zero at drops
    return ScreeningResult(
        method="irm",
        ranking=(0,),
        k_selected=1,
        projection=beta[:, None],
        substage_trace={
            "risk_coefficients": beta.tolist(),
            "include_treatment": include_treatment,
        },
    )


def stage2_dataset(data: TrialDataset, screening: ScreeningResult) -> TrialDataset:
    """Dataset whose candidate block is what Stage-2 actually tests."""
    if screening.projection is not None:
        xk = data.x_candidates @ screening.projection
        names = tuple(f"{screening.method}_{i + 1}" for i in range(xk.shape[1]))
        return data.with_candidates(xk, names)
    chosen = screening.selected
    return data.with_candidates(
        data.x_candidates[:, chosen], tuple(data.candidate_names[j] for j in chosen)
    )


def _clamp_k(k, p):
    if k is None:
        return p
    if k < 1:
        raise ConfigError("K must be >= 1")
    return min(k, p)
