from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tehscreen as ts
from tehscreen.config import PipelineConfig
from tehscreen.errors import (
    ConfigError, DataError, NestingError, NullSimulationError, NumericalError,
)
from tehscreen.inference import NullDistribution, uniform_ks_distance


def pipeline_cfg(method="full_model", k=2, family="gaussian", **extra):
    d = {
        "family": family,
        "screening": {"method": method, **extra.pop("screening", {})},
        "k_rule": {"rule": "fixed", "k": k},
        "seed": extra.pop("seed", 0),
    }
    d.update(extra)
    return PipelineConfig.from_dict(d)


def h0_data(seed, n=300, p=4, family=ts.GAUSSIAN, main=(0.8, 0.4, 0.0, 0.0)):
    spec = ts.SyntheticSpec(
        n=n, p=p, family=family, main_effects=main, treatment_effect=0.3, seed=seed
    )
    return ts.generate_trial(spec)


# ---------------------------------------------------------------------------
# test_interaction
# ---------------------------------------------------------------------------


def test_identity_screen_equals_full_interaction_test():
    d = h0_data(1)
    screen = ts.ScreeningResult(method="full_model", ranking=tuple(range(d.p)), k_selected=d.p)
    result = ts.test_interaction(d, ts.GAUSSIAN, screen)

    null_fit = ts.fit(ts.build_additive_design(d), d.y, ts.GAUSSIAN)
    alt_fit = ts.fit(ts.build_interaction_design(d), d.y, ts.GAUSSIAN)
    statistic, p = ts.lrt(null_fit, alt_fit, d.p)
    assert result.statistic == statistic
    assert result.p_raw == p
    assert result.df == d.p


def test_mirrored_arms_give_null_result():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((40, 3))
    y = rng.standard_normal(40)
    d = ts.TrialDataset(
        y=np.concatenate([y, y]),
        treatment=np.concatenate([np.ones(40, int), np.zeros(40, int)]),
        x_candidates=np.vstack([x, x]),
        x_adjust=np.empty((80, 0)),
    )
    screen = ts.ScreeningResult(method="full_model", ranking=(0, 1, 2), k_selected=3)
    result = ts.test_interaction(d, ts.GAUSSIAN, screen)
    assert result.statistic < 1e-8
    assert result.p_raw > 1 - 1e-6
    assert np.max(np.abs(result.standardized_differences)) < 1e-8


def test_interaction_reports_df_repair_on_degenerate_projection():
    d = h0_data(7, n=120, p=3, main=(0.5, 0.3, 0.0))
    projection = np.column_stack([np.eye(3)[:, 0], np.eye(3)[:, 0]])  # duplicated direction
    screen = ts.ScreeningResult(
        method="pca_variance", ranking=(0, 1), k_selected=2, projection=projection
    )
    result = ts.test_interaction(d, ts.GAUSSIAN, screen)
    assert result.df == 1
    assert result.df_repaired


def test_interaction_refuses_fits_that_keep_different_additive_columns(monkeypatch):
    # df counts the contrasts the alternative fit keeps, which is the df of
    # a nested pair only if both fits keep the same additive columns.
    d = h0_data(3)
    fit = ts.glm.fit

    def alt_drops_arm_b(design, y, family, start=None):
        result = fit(design, y, family, start=start)
        if design.arms:  # [x1 x2 | arm A | arm B | contrasts]: arm B is column 3
            dropped = tuple(sorted((*result.dropped_columns, 3)))
            result = replace(result, dropped_columns=dropped)
        return result

    monkeypatch.setattr(ts.glm, "fit", alt_drops_arm_b)
    screen = ts.ScreeningResult(method="full_model", ranking=(0, 1, 2, 3), k_selected=2)
    message = r"one fit only: null \['arm B'\], alternative \[\]$"
    with pytest.raises(NestingError, match=message):
        ts.test_interaction(d, ts.GAUSSIAN, screen)


def _null_fit_starts(monkeypatch, d, screen):
    """test_interaction on ``screen``: (its result, the start and fit of its null fit)."""
    fit, calls = ts.glm.fit, []

    def recorded(design, y, family, start=None):
        calls.append((start, fit(design, y, family, start=start)))
        return calls[-1][1]

    monkeypatch.setattr(ts.glm, "fit", recorded)
    result = ts.test_interaction(d, ts.BINOMIAL, screen)
    monkeypatch.undo()
    return result, calls[0]


def test_stage2_null_fit_starts_at_the_screening_fit_it_refits(monkeypatch):
    d = h0_data(21, n=400, p=6, family=ts.BINOMIAL, main=(0.8, -0.5, 0.3, 0.0, 0.0, 0.0))
    screen = ts.rank_full_model(d, ts.BINOMIAL)
    assert screen.k_selected == d.p and screen.ranking != tuple(range(d.p))
    result, (start, null_fit) = _null_fit_starts(monkeypatch, d, screen)
    assert start is not None and null_fit.iterations == 1

    cold = ts.fit(ts.build_additive_design(ts.stage2_dataset(d, screen)), d.y, ts.BINOMIAL)
    assert cold.iterations > 1
    assert null_fit.log_likelihood == pytest.approx(cold.log_likelihood, rel=1e-12)
    assert result.p_raw == pytest.approx(
        ts.test_interaction(d, ts.BINOMIAL, screen.truncate(d.p)).p_raw, rel=1e-12)
    assert "additive_fit" not in asdict(screen)  # no report carries the fit


def test_stage2_null_fit_starts_cold_unless_it_refits_the_screening_model(monkeypatch):
    d = h0_data(21, n=400, p=6, family=ts.BINOMIAL, main=(0.8, -0.5, 0.3, 0.0, 0.0, 0.0))
    full = ts.rank_full_model(d, ts.BINOMIAL)
    dropped = replace(full)  # a screening fit that dropped a column at fit time
    object.__setattr__(dropped, "additive_fit", replace(full.additive_fit, dropped_columns=(5,)))
    for screen in (ts.rank_full_model(d, ts.BINOMIAL, k=d.p - 1),
                   ts.screen_pca_single_stage(d, ts.BINOMIAL, k=d.p),
                   dropped):
        _, (start, null_fit) = _null_fit_starts(monkeypatch, d, screen)
        assert start is None and null_fit.iterations > 1


# ---------------------------------------------------------------------------
# simulate_null / correct_pvalue
# ---------------------------------------------------------------------------


def test_simulate_null_deterministic():
    d = h0_data(11)
    cfg = pipeline_cfg(null_sim={"reps": 100})
    a = ts.simulate_null(d, cfg, seed=42)
    b = ts.simulate_null(d, cfg, seed=42)
    assert np.array_equal(a.p_values, b.p_values)
    assert a.reps == 100


def test_simulate_null_gaussian_uniform():
    d = h0_data(13, n=500, p=4, main=(0.8, 0.4, 0.2, 0.0))
    cfg = pipeline_cfg(k=2, null_sim={"reps": 1000})
    null = ts.simulate_null(d, cfg, seed=77)
    assert uniform_ks_distance(null.p_values) < 0.05


def test_simulate_null_permutation_variant():
    d = h0_data(14, n=300)
    cfg = pipeline_cfg(k=2, null_sim={"reps": 300, "method": "permutation"})
    null = ts.simulate_null(d, cfg, seed=5)
    assert null.generator_spec["method"] == "permutation"
    assert uniform_ks_distance(null.p_values) < 0.1


def _rare_event_spec(seed, n, p, intercept, interaction=0.0):
    """A binomial trial with a low event rate, where some replicate fits fail."""
    return ts.SyntheticSpec(
        n=n, p=p, family=ts.BINOMIAL, intercept=intercept,
        main_effects=(0.5, 0.4, 0.3) + (0.0,) * (p - 3), treatment_effect=0.3,
        interaction_effects=(interaction,) + (0.0,) * (p - 1), seed=seed,
    )


def test_simulate_null_drops_and_records_failed_replicates():
    d = ts.generate_trial(_rare_event_spec(3, n=100, p=3, intercept=-2.0))
    null = ts.simulate_null(d, pipeline_cfg(k=3, family="binomial", null_sim={"reps": 100}),
                            seed=1)
    # 4 of 100 failed: at or below the 5% abort, so they are dropped and recorded
    assert [(f["replicate"], f["error"]) for f in null.failures] == [
        (41, "FitError"), (68, "FitError"), (83, "FitError"), (97, "FitError")]
    assert all("did not converge" in f["message"] for f in null.failures)
    assert null.reps == len(null.p_values) == 96


def test_simulate_null_abort_names_the_first_failed_replicate():
    d = ts.generate_trial(_rare_event_spec(3, n=120, p=6, intercept=-2.5))
    with pytest.raises(NullSimulationError, match=(
            r"^9/100 null replicates failed; first: replicate 1, SeparationError: ")):
        ts.simulate_null(d, pipeline_cfg(k=6, family="binomial", null_sim={"reps": 100}),
                         seed=1)


def _uniform_null(reps, seed=0):
    rng = np.random.default_rng(seed)
    return NullDistribution(
        p_values=np.sort(rng.uniform(size=reps)), reps=reps, generator_spec={}, seed=seed
    )


def test_correct_pvalue_boundaries():
    null = _uniform_null(999)
    below = float(np.min(null.p_values)) / 2
    assert ts.correct_pvalue(below, null) == pytest.approx(1 / 1000)
    assert ts.correct_pvalue(1.0, null) == 1.0


@pytest.mark.parametrize("n", [1, 120, 1000, 2000])
def test_uniform_ks_distance_equals_scipy_kstest(n):
    from scipy.stats import kstest

    rng = np.random.default_rng(n)
    for pvalues in (rng.uniform(size=n), rng.beta(0.7, 1.0, size=n), np.full(n, 0.5)):
        assert uniform_ks_distance(pvalues) == kstest(pvalues, "uniform").statistic


def test_correct_pvalue_tracks_uniform_null():
    null = _uniform_null(2500, seed=3)
    for p in (0.01, 0.05, 0.2, 0.5, 0.9):
        assert ts.correct_pvalue(p, null) == pytest.approx(p, abs=2 / np.sqrt(2500))


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0, max_value=1),
    st.floats(min_value=0, max_value=1),
)
def test_correct_pvalue_monotone(p1, p2):
    null = _uniform_null(500, seed=8)
    lo, hi = sorted((p1, p2))
    assert ts.correct_pvalue(lo, null) <= ts.correct_pvalue(hi, null)


# ---------------------------------------------------------------------------
# validate_theorem / power_study
# ---------------------------------------------------------------------------


def test_validate_theorem_rejects_h1_spec():
    spec = ts.SyntheticSpec(n=100, p=2, interaction_effects=(0.5, 0.0), seed=1)
    with pytest.raises(DataError):
        ts.validate_theorem(spec, reps=100, seed=1)


def test_validate_theorem_smoke_band():
    spec = ts.SyntheticSpec(
        n=200, p=3, family=ts.GAUSSIAN, main_effects=(0.6, 0.3, 0.0),
        treatment_effect=0.3, seed=0,
    )
    report = ts.validate_theorem(spec, reps=300, seed=404)
    assert report.summary["max_abs_correlation"] < 4.0 / np.sqrt(300)
    assert np.asarray(report.summary["cross_correlation"]).shape == (3, 3)


def test_power_study_rejects_h0_spec():
    spec = ts.SyntheticSpec(n=100, p=2, seed=1)
    with pytest.raises(DataError):
        ts.power_study(spec, [pipeline_cfg()], reps=10, seed=1)


def test_power_study_smoke_and_determinism():
    spec = ts.SyntheticSpec(
        n=150, p=3, family=ts.GAUSSIAN, main_effects=(0.8, 0.3, 0.0),
        interaction_effects=(0.6, 0.0, 0.0), treatment_effect=0.3, seed=0,
    )
    methods = [
        pipeline_cfg(k=1, label="screened"),
        pipeline_cfg(k=3, label="full"),
    ]
    a = ts.power_study(spec, methods, reps=60, seed=31)
    b = ts.power_study(spec, methods, reps=60, seed=31)
    assert a.summary["rejection_rates"] == b.summary["rejection_rates"]
    assert set(a.summary["rejection_rates"]) == {"screened", "full"}
    assert "screened - full" in a.summary["paired_differences"]
    for rate in a.summary["rejection_rates"].values():
        assert 0.0 <= rate <= 1.0
    assert len(a.records) == 60


@pytest.mark.parametrize("labels", [(None, None), ("same", "same"), ("", "full")])
def test_power_study_rejects_duplicate_or_empty_labels(labels):
    # Unlabeled methods default to their method name, so two full_model
    # screens would otherwise share one rate and one "a - a" pair.
    spec = ts.SyntheticSpec(
        n=150, p=3, family=ts.GAUSSIAN, main_effects=(0.8, 0.3, 0.0),
        interaction_effects=(0.6, 0.0, 0.0), treatment_effect=0.3, seed=0,
    )
    methods = [
        pipeline_cfg(k=k, **({} if label is None else {"label": label}))
        for k, label in zip((1, 3), labels)
    ]
    with pytest.raises(ConfigError, match="label"):
        ts.power_study(spec, methods, reps=10, seed=31)


def test_power_study_replicate_depends_only_on_master_seed_and_index():
    spec = ts.SyntheticSpec(
        n=150, p=3, family=ts.GAUSSIAN, main_effects=(0.8, 0.3, 0.0),
        interaction_effects=(0.6, 0.0, 0.0), treatment_effect=0.3, seed=0,
    )
    methods = [pipeline_cfg(k=1, label="screened"), pipeline_cfg(k=3, label="full")]
    short = ts.power_study(spec, methods, reps=10, seed=31)
    long = ts.power_study(spec, methods, reps=20, seed=31)
    assert short.records == long.records[:10]


def test_power_study_scores_a_failed_method_nan_and_records_it():
    spec = _rare_event_spec(0, n=80, p=6, intercept=-2.5, interaction=0.8)
    methods = {"one": pipeline_cfg(k=1, family="binomial", label="one"),
               "all": pipeline_cfg(k=6, family="binomial", label="all")}
    study = ts.power_study(spec, list(methods.values()), reps=20, seed=1)
    failed = [(f["replicate"], f["method"], f["error"]) for f in study.failures]
    assert failed == [(13, "all", "FitError"), (14, "all", "SeparationError"),
                      (18, "one", "FitError")]
    assert study.summary["failures"] == {"one": 1, "all": 2}
    nan_cells = [(rec["replicate"], label) for rec in study.records for label in methods
                 if np.isnan(rec[label])]
    assert nan_cells == [(r, label) for r, label, _ in failed]
    for r, label, error in failed:  # the same replicate run on its own fails the same way
        d = ts.generate_trial(replace(spec, seed=ts.derive_seed(1, r)))
        with pytest.raises(NumericalError) as info:
            ts.run_pipeline(d, methods[label])
        assert type(info.value).__name__ == error


def test_h0_rejection_rate_full_model_screen():
    # 2000 H0 replicates, n=200, p=10, full-model screen, K=3.
    import dataclasses

    cfg = pipeline_cfg(k=3)
    base = ts.SyntheticSpec(
        n=200, p=10, family=ts.GAUSSIAN,
        main_effects=(0.8, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.0, 0.0, 0.0),
        treatment_effect=0.3, seed=0,
    )
    pvals = np.empty(2000)
    for r in range(2000):
        d = ts.generate_trial(dataclasses.replace(base, seed=ts.derive_seed(812, r)))
        pvals[r] = ts.run_pipeline(d, cfg).p_raw
    assert 0.040 <= float(np.mean(pvals <= 0.05)) <= 0.060


@pytest.mark.parametrize(
    "method,extra",
    [
        ("univariate", {}),
        ("lasso", {}),
        ("pca", {"supervised": True}),
    ],
)
def test_h0_uniformity_across_screening_methods(method, extra):
    import dataclasses

    reps = 400
    cfg = pipeline_cfg(method=method, k=2, screening=extra)
    base = ts.SyntheticSpec(
        n=300, p=4, family=ts.GAUSSIAN, main_effects=(0.8, 0.5, 0.2, 0.0),
        treatment_effect=0.3, seed=0,
    )
    master = {"univariate": 4011, "lasso": 4012, "pca": 4013}[method]
    pvals = np.empty(reps)
    for r in range(reps):
        d = ts.generate_trial(dataclasses.replace(base, seed=ts.derive_seed(master, r)))
        pvals[r] = ts.run_pipeline(d, cfg).p_raw
    assert uniform_ks_distance(pvals) < 1.36 / np.sqrt(reps) * 1.5


def test_derive_seed_is_stable_counting_scheme():
    assert ts.derive_seed(123, 0) == ts.derive_seed(123, 0)
    seeds = {ts.derive_seed(123, i) for i in range(200)}
    assert len(seeds) == 200
    assert ts.derive_seed(123, 5) != ts.derive_seed(124, 5)
