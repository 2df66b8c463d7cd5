"""Stage-2 interaction testing and all Monte Carlo validation machinery.

``run_screening`` runs the Stage-1 screen of a config: ``config.SCREENS``, the
one statement of which method reads which field, names its function in
``screening.py`` and the options it takes. ``test_interaction`` runs the
likelihood-ratio test of the interaction model (the additive model plus a
treatment contrast per candidate) against the additive model on the screened
(or projected) covariates.
``simulate_null`` rebuilds the test's H0 distribution for the dataset at
hand by a parametric bootstrap from the fitted additive model (treatment
main effect retained, interactions zero, fresh re-randomized labels), or by
pure label permutation as a sensitivity variant; ``correct_pvalue`` maps a
raw p-value through that empirical distribution with the add-one convention.

``validate_theorem`` and ``power_study`` drive replicated synthetic trials.
Replicate r always uses a seed derived from the master seed by a counting
scheme, so any single replicate can be reproduced in isolation.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import glm, screening as scr
from .config import SCREENS, PipelineConfig
from .data_model import SyntheticSpec, TrialDataset, generate_trial
from .errors import ConfigError, DataError, NestingError, NullSimulationError, NumericalError
from .families import Family


def derive_seed(master_seed: int, index: int) -> int:
    """Per-replicate seed from a master seed: SeedSequence(master, spawn_key=(index,))."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class InteractionTest:
    """One Stage-2 result: global LRT plus the per-coordinate decomposition."""

    statistic: float
    df: int
    p_raw: float
    standardized_differences: np.ndarray
    screening: scr.ScreeningResult
    p_corrected: float | None = None
    null_sim_size: int | None = None
    df_repaired: bool = False


@dataclass(frozen=True)
class NullDistribution:
    """Sorted raw p-values of the configured pipeline under the fitted H0."""

    p_values: np.ndarray
    reps: int
    generator_spec: dict
    seed: int
    failures: tuple = ()


@dataclass(frozen=True)
class SimulationReport:
    """Replicate-level records, their summary statistics and the failure records."""

    records: tuple
    summary: dict
    failures: tuple = ()


def _run_replicates(reps, draw, methods):
    """The replicate loop of every study: each labelled method on ``draw(r)``, r in order.

    Returns (rows, failures): ``rows[r]`` maps a label to its result, leaving
    out a method that raised a DataError or NumericalError; ``failures``
    records each such raise by replicate index, label, exception class and message.
    """
    rows, failures = [], []
    for r in range(reps):
        x, row = draw(r), {}
        for label, method in methods.items():
            try:
                row[label] = method(x)
            except (DataError, NumericalError) as exc:
                failures.append({"replicate": r, "method": label,
                                 "error": type(exc).__name__, "message": str(exc)})
        rows.append(row)
    return rows, failures


def _abort_above(share, failures, reps, error, what):
    """Raise ``error`` when more than ``share`` of ``reps`` failed, naming the first failure."""
    if len(failures) > share * reps:
        first = failures[0]
        raise error(f"{len(failures)}/{reps} {what} replicates failed; first: replicate "
                    f"{first['replicate']}, {first['error']}: {first['message']}")


def test_interaction(
    data: TrialDataset, family: Family, screen: scr.ScreeningResult
) -> InteractionTest:
    """Fit the additive and interaction models on the screened covariates; LRT with df = K.

    df is the number of contrast columns kept through the alternative fit,
    so it falls below K where rank repair drops a contrast. That count is the
    df of a nested pair only if both fits keep the same additive columns;
    otherwise NestingError names the columns kept by one fit alone.
    """
    d2 = scr.stage2_dataset(data, screen)
    null_design = glm.build_additive_design(d2)
    null_fit = glm.fit(null_design, d2.y, family, start=_screening_start(screen, null_design))
    alt_fit = glm.fit(glm.build_interaction_design(d2), d2.y, family)
    m = len(null_fit.origin)  # the alternative's first m columns are the null's, in order
    null_drops = set(null_fit.dropped_columns)
    alt_drops = {k for k in alt_fit.dropped_columns if k < m}
    if null_drops != alt_drops:
        origin = null_fit.origin
        raise NestingError("additive columns kept by one fit only: null "
                           f"{[origin[k] for k in sorted(alt_drops - null_drops)]}, alternative "
                           f"{[origin[k] for k in sorted(null_drops - alt_drops)]}")
    df = len(alt_fit.role("contrast")[0])
    statistic, p_raw = glm.lrt(null_fit, alt_fit, df)
    diffs = glm.standardized_arm_difference(alt_fit, d2.p)
    return InteractionTest(
        statistic=statistic,
        df=df,
        p_raw=p_raw,
        standardized_differences=diffs,
        screening=screen,
        df_repaired=(df != screen.k_selected),
    )


def _screening_start(screen, design):
    """The screening fit's coefficients in ``design``'s order when Stage 2's null
    model is the screening model: a full-model screen hands on every candidate
    and neither the screening fit nor ``design`` dropped a column. Otherwise
    None, a cold start."""
    fit = screen.additive_fit
    p = len(screen.ranking)
    if fit is None or fit.dropped_columns or design.dropped_columns or screen.k_selected < p:
        return None
    return np.concatenate([fit.coefficients[list(screen.ranking)], fit.coefficients[p:]])


def run_screening(data: TrialDataset, cfg: PipelineConfig, k: int) -> scr.ScreeningResult:
    """Run the screen ``SCREENS`` names for ``cfg.method`` with K (irm, a K=1 screen, takes
    none), looked up on ``screening`` at each call so that a wrapper put there runs."""
    k_arg = {} if cfg.method == "irm" else {"k": k}
    return getattr(scr, SCREENS[cfg.method][0])(data, cfg.family, **k_arg, **cfg.screen_options)


def run_pipeline(data: TrialDataset, cfg: PipelineConfig) -> InteractionTest:
    """Stage-1 screening followed by the Stage-2 interaction test."""
    screen = run_screening(data, cfg, cfg.resolve_k(data.n))
    return test_interaction(data, cfg.family, screen)


def _additive_predictor_parts(data: TrialDataset, family: Family):
    """Fitted linear-predictor pieces of the full additive model.

    Returns (eta_without_arm, intercept_A, intercept_B, sigma) so a replicate
    with re-randomized labels t gets eta = eta_base + where(t, aA, aB);
    sigma = sqrt(dispersion) is the noise scale ``family.sample`` draws with
    (the profiled gaussian SD; 1 for binomial, whose draw ignores it).
    """
    design = glm.build_additive_design(data)
    coef, p = glm.fit(design, data.y, family).coefficients, data.p
    # The design's layout is [candidates | arm A | arm B | adjusters], zero at drops.
    eta_base = data.x_candidates @ coef[:p]
    if data.p_c:
        eta_base = eta_base + data.x_adjust @ coef[p + 2:]
    sigma = np.sqrt(family.dispersion(data.y, design.matrix @ coef))
    return eta_base, coef[p], coef[p + 1], sigma


def simulate_null(data: TrialDataset, cfg: PipelineConfig, seed: int) -> NullDistribution:
    """Empirical H0 distribution of the configured pipeline's raw p-value.

    The family, the replicate count (``cfg.null_reps``) and the null method
    (``cfg.null_method``) come from ``cfg``.
    parametric: outcomes regenerated from the additive fit to the real data
    (treatment effect retained, interactions zero) with freshly permuted arm
    labels each replicate. permutation: labels permuted, outcomes untouched.
    Failed replicates are dropped and recorded in ``failures``; over 5% aborts.
    """
    family, method, reps = cfg.family, cfg.null_method, cfg.null_reps
    if method == "parametric":
        eta_base, a_A, a_B, sigma = _additive_predictor_parts(data, family)

    def draw(r):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))
        t_new = rng.permutation(data.treatment)
        if method == "permutation":
            return data.with_treatment(t_new)
        eta = eta_base + np.where(t_new == 1, a_A, a_B)
        y_new = family.sample(eta, sigma, rng)
        return data.with_outcome(y_new).with_treatment(t_new)

    rows, failures = _run_replicates(reps, draw, {None: lambda d: run_pipeline(d, cfg).p_raw})
    _abort_above(0.05, failures, reps, NullSimulationError, "null")
    pvals = [row[None] for row in rows if row]
    return NullDistribution(
        p_values=np.sort(np.asarray(pvals)),
        reps=len(pvals),
        generator_spec={
            "method": method,
            "requested_reps": reps,
            "family": family.name,
            "pipeline": cfg.label or cfg.method,
        },
        seed=seed,
        failures=tuple(failures),
    )


def correct_pvalue(p_raw: float, null: NullDistribution) -> float:
    """Add-one empirical p-value: (1 + #{null <= p_raw}) / (reps + 1)."""
    if null.reps < 1:
        raise DataError("null distribution is empty")
    count = int(np.searchsorted(null.p_values, p_raw, side="right"))
    return (1.0 + count) / (null.reps + 1.0)


def _cross_correlation(a, b):
    """Column-by-column correlation between two replicate matrices."""
    az = (a - a.mean(axis=0)) / a.std(axis=0, ddof=1)
    bz = (b - b.mean(axis=0)) / b.std(axis=0, ddof=1)
    return az.T @ bz / (a.shape[0] - 1)


def uniform_ks_distance(pvalues) -> float:
    """Two-sided Kolmogorov-Smirnov distance of the p-values from U(0, 1)."""
    u = np.clip(np.sort(np.asarray(pvalues, dtype=float)), 0.0, 1.0)
    n = u.shape[0]
    d_plus = np.max(np.arange(1.0, n + 1) / n - u)
    d_minus = np.max(u - np.arange(0.0, n) / n)
    return float(max(d_plus, d_minus))


def validate_theorem(
    spec: SyntheticSpec,
    reps: int,
    seed: int,
    projected: bool = False,
    screen_k: int | None = None,
) -> SimulationReport:
    """Empirical independence check of screening statistics and arm differences.

    Per H0 replicate, collects the standardized additive coefficients and the
    standardized between-arm differences, plus the Stage-2 p-value after a
    full-model screen of ``screen_k`` (default min(3, p)) candidates. With
    ``projected``, every replicate's candidates first pass through one fixed
    linear map, exercising the linear-map extension: the standardized PCA
    loadings of a reference trial drawn from the master seed at an index no
    replicate reaches. Reports the cross-correlation matrix, its
    maximum absolute entry, and the KS distance of the screened p-values.
    A failed replicate aborts the study once all have run: dropping it would
    discard the extreme replicates that the check most needs.
    """
    if any(v != 0.0 for v in spec.interaction_effects):
        raise DataError("theorem validation requires an H0 spec (zero interaction effects)")
    family = spec.family
    k_screen = min(3, spec.p) if screen_k is None else screen_k
    if projected:
        ref = generate_trial(replace(spec, seed=derive_seed(seed, 2**30)))
        pca_map = scr.screen_pca_single_stage(ref, family)

    def one(d):
        if projected:
            d = scr.stage2_dataset(d, pca_map)
        screen = scr.rank_full_model(d, family, k_screen)  # K is capped at p
        alt_fit = glm.fit(glm.build_interaction_design(d), d.y, family)
        betas = screen.additive_fit.wald_z(d.p)
        diffs = glm.standardized_arm_difference(alt_fit, d.p)
        p_screened = test_interaction(d, family, screen).p_raw
        return betas, diffs, p_screened

    rows, failures = _run_replicates(
        reps, lambda r: generate_trial(replace(spec, seed=derive_seed(seed, r))), {None: one})
    _abort_above(0.0, failures, reps, NumericalError, "theorem")
    betas, diffs, pvals = zip(*(row[None] for row in rows))
    corr = _cross_correlation(np.vstack(betas), np.vstack(diffs))
    pvals = np.asarray(pvals)
    ks = uniform_ks_distance(pvals)
    records = tuple({"replicate": r, "p_screened": float(p)} for r, p in enumerate(pvals))
    return SimulationReport(
        records=records,
        summary={
            "reps": reps,
            "family": family.name,
            "projected": projected,
            "cross_correlation": corr.tolist(),
            "max_abs_correlation": float(np.max(np.abs(corr))),
            "correlation_bound_3_over_sqrt_reps": 3.0 / np.sqrt(reps),
            "ks_distance_screened_pvalues": ks,
            "rejection_rate_0.05": float(np.mean(pvals <= 0.05)),
            "rejection_rate_0.1": float(np.mean(pvals <= 0.1)),
        },
    )


def power_study(
    h1_spec: SyntheticSpec,
    methods: list[PipelineConfig],
    reps: int,
    seed: int,
    alpha: float = 0.05,
) -> SimulationReport:
    """Paired rejection rates: every method sees the identical replicate data.

    Methods are keyed by label, so every label must be nonempty and distinct.
    A method that fails on a replicate scores NaN there (no rejection) and is recorded.
    """
    if all(v == 0.0 for v in h1_spec.interaction_effects):
        raise DataError("power study requires nonzero interaction effects")
    labels = [cfg.label for cfg in methods]
    if "" in labels or len(set(labels)) != len(labels):
        raise ConfigError(f"power-study methods need distinct nonempty labels, got {labels}")

    rows, failures = _run_replicates(
        reps,
        lambda r: generate_trial(replace(h1_spec, seed=derive_seed(seed, r))),
        {cfg.label: lambda d, cfg=cfg: float(run_pipeline(d, cfg).p_raw) for cfg in methods},
    )
    records = tuple({"replicate": r, **{label: row.get(label, np.nan) for label in labels}}
                    for r, row in enumerate(rows))
    reject = {label: np.asarray([rec[label] <= alpha for rec in records], dtype=float)
              for label in labels}
    rates = {label: float(np.mean(reject[label])) for label in labels}

    paired = {}
    for i, la in enumerate(labels):
        for lb in labels[i + 1 :]:
            diff = reject[la] - reject[lb]
            se = float(np.std(diff, ddof=1) / np.sqrt(reps))
            paired[f"{la} - {lb}"] = {
                "mean_difference": float(np.mean(diff)),
                "se": se,
                "z": float(np.mean(diff) / se) if se > 0 else np.inf,
            }

    return SimulationReport(
        records=records,
        summary={
            "reps": reps,
            "alpha": alpha,
            "rejection_rates": rates,
            "paired_differences": paired,
            "failures": {label: sum(f["method"] == label for f in failures) for label in labels},
        },
        failures=tuple(failures),
    )
