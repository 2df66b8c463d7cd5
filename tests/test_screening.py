import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tehscreen as ts
from tehscreen.errors import ConfigError
from tehscreen.inference import uniform_ks_distance


def h0_spec(seed, n=300, p=4, family=ts.GAUSSIAN, main=(1.0, 0.0, 0.0, 0.0)):
    return ts.SyntheticSpec(
        n=n, p=p, family=family, main_effects=main, treatment_effect=0.3, seed=seed
    )


# ---------------------------------------------------------------------------
# single-stage rankers
# ---------------------------------------------------------------------------


def test_full_model_ranks_strong_before_null():
    hits = 0
    for r in range(100):
        d = ts.generate_trial(h0_spec(ts.derive_seed(101, r), n=500, p=2, main=(1.0, 0.0)))
        if ts.rank_full_model(d, ts.GAUSSIAN).ranking[0] == 0:
            hits += 1
    assert hits >= 99


def test_full_model_single_candidate():
    d = ts.generate_trial(h0_spec(3, p=1, main=(0.5,)))
    res = ts.rank_full_model(d, ts.GAUSSIAN)
    assert res.ranking == (0,)
    assert res.k_selected == 1


@pytest.mark.parametrize("family", [ts.GAUSSIAN, ts.BINOMIAL])
def test_full_model_pvalues_equal_scalar_norm_sf_oracle(family):
    from scipy.stats import norm

    d = ts.generate_trial(h0_spec(11, n=300, p=5, family=family, main=(0.8, 0.4, 0.2, 0.0, 0.0)))
    x = d.x_candidates
    d = d.derive(x_candidates=np.column_stack([x, x[:, 1]]),
                 candidate_names=(*d.candidate_names, "dup"))
    design = ts.build_additive_design(d)
    fit = ts.fit(design, d.y, family)
    oracle = [  # candidate j is column j
        float(2.0 * norm.sf(abs(fit.coefficients[j] / fit.std_errors[j])))
        if j not in design.dropped_columns else 1.0
        for j in range(d.p)
    ]
    # One layout: candidates 0-5, then the arm intercepts; the duplicate (5) drops.
    assert design.dropped_columns == (5,)
    assert fit.dropped_columns == design.dropped_columns
    # erfc(|z|/sqrt 2) and scipy's ndtr differ in the last bits only.
    assert ts.rank_full_model(d, family).substage_trace["p_values"] == pytest.approx(
        oracle, rel=1e-12, abs=0.0
    )


def test_full_model_symmetric_twins_split_evenly():
    first = 0
    reps = 1000
    for r in range(reps):
        d = ts.generate_trial(
            h0_spec(ts.derive_seed(555, r), n=200, p=2, main=(0.5, 0.5))
        )
        if ts.rank_full_model(d, ts.GAUSSIAN).ranking[0] == 0:
            first += 1
    assert 0.45 <= first / reps <= 0.55


def test_univariate_ranks_strong_before_null():
    hits = 0
    for r in range(100):
        d = ts.generate_trial(h0_spec(ts.derive_seed(202, r), n=500, p=2, main=(1.0, 0.0)))
        if ts.rank_univariate(d, ts.GAUSSIAN).ranking[0] == 0:
            hits += 1
    assert hits >= 99


def test_univariate_duplicate_candidates_tiebreak_by_index():
    d = ts.generate_trial(h0_spec(7, n=200, p=1, main=(1.0,)))
    dup = d.derive(
        x_candidates=np.hstack([d.x_candidates, d.x_candidates]), candidate_names=("a", "b")
    )
    res = ts.rank_univariate(dup, ts.GAUSSIAN)
    assert res.ranking == (0, 1)


def test_univariate_candidate_equal_to_adjuster_ranks_last():
    rng = np.random.default_rng(15)
    n = 400
    site = rng.standard_normal(n)
    signal = rng.standard_normal(n)
    t = np.array([1, 0] * (n // 2))
    y = 1.0 * signal + 1.0 * site + 0.3 * t + rng.standard_normal(n)
    d = ts.TrialDataset(
        y=y, treatment=t,
        x_candidates=np.column_stack([signal, site]),  # second candidate duplicates the adjuster
        x_adjust=site[:, None],
    )
    res = ts.rank_univariate(d, ts.GAUSSIAN)
    assert res.ranking == (0, 1)
    assert res.substage_trace["p_values"][1] == 1.0


def test_univariate_records_a_separating_candidate_as_a_failure():
    # Candidate 0 is 2y - 1, which separates the binomial outcome completely.
    d = ts.generate_trial(ts.SyntheticSpec(n=200, p=3, family=ts.BINOMIAL,
                                           main_effects=(0.8, -0.5, 0.3),
                                           treatment_effect=0.3, seed=11))
    d = d.derive(x_candidates=np.column_stack([2.0 * d.y - 1.0, d.x_candidates]),
                 candidate_names=())
    res = ts.rank_univariate(d, ts.BINOMIAL)
    assert res.ranking[-1] == 0
    assert res.substage_trace["p_values"][0] is None
    assert [f["candidate"] for f in res.substage_trace["failures"]] == [0]
    assert "perfect separation" in res.substage_trace["failures"][0]["error"]


def test_rank_lasso_delegates_to_entry_order():
    d = ts.generate_trial(h0_spec(9, n=300, p=3, main=(1.0, 0.5, 0.0)))
    res = ts.rank_lasso(d, ts.GAUSSIAN)
    path = ts.fit_path(d, ts.GAUSSIAN, include_treatment=True)
    assert list(res.ranking) == ts.rank_by_entry(path, d.p)


# ---------------------------------------------------------------------------
# PCA screens
# ---------------------------------------------------------------------------


def test_pca_unsupervised_ranking_is_variance_order():
    d = ts.generate_trial(h0_spec(21, n=200, p=5, main=(0,) * 5))
    res = ts.screen_pca_single_stage(d, ts.GAUSSIAN, supervised=False, k=3)
    assert res.ranking == (0, 1, 2, 3, 4)
    assert res.projection.shape == (5, 3)


def test_pca_supervised_finds_outcome_aligned_pc():
    hits = 0
    for r in range(100):
        rng = np.random.default_rng(ts.derive_seed(404, r))
        x = rng.standard_normal((300, 5)) @ np.diag([2.0, 1.6, 1.3, 1.0, 0.7])
        scores = ts.compute_pca(x, standardize=True).scores
        y = scores[:, 2] + 0.3 * rng.standard_normal(300)
        d = ts.TrialDataset(
            y=y, treatment=np.array([1, 0] * 150), x_candidates=x, x_adjust=np.empty((300, 0))
        )
        res = ts.screen_pca_single_stage(d, ts.GAUSSIAN, supervised=True, k=2)
        if res.ranking[0] == 2:
            hits += 1
    assert hits >= 95


@pytest.mark.parametrize("family,seed", [(ts.GAUSSIAN, 31), (ts.BINOMIAL, 32)])
def test_pca_full_rank_projection_reproduces_full_test(family, seed):
    d = ts.generate_trial(
        h0_spec(seed, n=150, p=4, family=family, main=(0.8, 0.4, 0.2, 0.0))
    )
    projected = ts.screen_pca_single_stage(d, family, supervised=False, k=d.p)
    p_projected = ts.test_interaction(d, family, projected).p_raw

    identity = ts.ScreeningResult(method="full_model", ranking=tuple(range(d.p)), k_selected=d.p)
    p_full = ts.test_interaction(d, family, identity).p_raw
    assert p_projected == pytest.approx(p_full, abs=1e-8)


# ---------------------------------------------------------------------------
# multi-stage
# ---------------------------------------------------------------------------


def test_multi_stage_projection_zero_rows_off_selection():
    spec = ts.SyntheticSpec(
        n=600, p=10, family=ts.GAUSSIAN,
        main_effects=(1.2, 1.0, 0.8, 0, 0, 0, 0, 0, 0, 0),
        treatment_effect=0.3, seed=61,
    )
    d = ts.generate_trial(spec)
    res = ts.screen_multi_stage(d, ts.GAUSSIAN, ml="boosting", k=2, n_trees=150, shrinkage=0.1)
    selected = set(res.substage_trace["selected_indices"])
    assert res.projection.shape == (10, 2)
    for j in range(10):
        row = res.projection[j]
        if j in selected:
            assert np.any(row != 0.0)
        else:
            assert np.all(row == 0.0)


def test_multi_stage_lasso_all_enter_equals_single_stage_pca():
    spec = ts.SyntheticSpec(
        n=400, p=3, family=ts.GAUSSIAN, main_effects=(1.0, 0.8, 0.6),
        treatment_effect=0.3, seed=62,
    )
    d = ts.generate_trial(spec)
    multi = ts.screen_multi_stage(d, ts.GAUSSIAN, ml="lasso", pc_rank="variance", k=2)
    assert multi.substage_trace["m_selected"] == 3
    single = ts.screen_pca_single_stage(d, ts.GAUSSIAN, supervised=False, k=2)
    assert np.allclose(multi.projection, single.projection)
    assert multi.ranking == single.ranking


def test_multi_stage_k_capped_at_m():
    spec = ts.SyntheticSpec(
        n=500, p=8, family=ts.GAUSSIAN, main_effects=(2.0, 0, 0, 0, 0, 0, 0, 0),
        treatment_effect=0.3, noise_sd=0.5, seed=63,
    )
    d = ts.generate_trial(spec)
    res = ts.screen_multi_stage(
        d, ts.GAUSSIAN, ml="boosting", k=5, n_trees=40, shrinkage=0.1, ri_threshold=20.0
    )
    m = res.substage_trace["m_selected"]
    assert m < 5
    assert res.k_selected == m
    assert res.substage_trace["k_capped"] == {"requested": 5, "m": m}


def _pure_noise_trial():
    rng = np.random.default_rng(64)
    n = 200
    return ts.TrialDataset(
        y=rng.standard_normal(n),
        treatment=np.array([1, 0] * (n // 2)),
        x_candidates=rng.standard_normal((n, 4)),
        x_adjust=np.empty((n, 0)),
    )


def test_multi_stage_empty_screen_falls_back_to_pca():
    d = _pure_noise_trial()
    res = ts.screen_multi_stage(
        d, ts.GAUSSIAN, ml="boosting", k=2, n_trees=30, ri_threshold=1000.0
    )
    assert res.substage_trace["m_selected"] == 0
    assert "warning" in res.substage_trace
    assert res.projection.shape == (4, 2)
    single = ts.screen_pca_single_stage(d, ts.GAUSSIAN, supervised=False, k=2)
    assert res.ranking == single.ranking
    assert res.k_selected == single.k_selected
    assert np.array_equal(res.projection, single.projection)
    boost_keys = {"ml", "pc_rank", "relative_influence", "ri_threshold", "m_selected",
                  "score_variances", "loadings"}
    assert set(res.substage_trace) == boost_keys | {"standardize", "degenerate_pcs", "warning"}
    normal = ts.screen_multi_stage(d, ts.GAUSSIAN, ml="boosting", k=2, n_trees=30)
    assert normal.substage_trace["m_selected"] == 4
    assert set(normal.substage_trace) == boost_keys | {"selected_indices", "selected_names",
                                                       "pc_order"}


def test_multi_stage_rejects_unknown_pc_rank_before_substage_one():
    d = _pure_noise_trial()
    with pytest.raises(ConfigError, match="unknown PC ranking"):
        ts.screen_multi_stage(d, ts.GAUSSIAN, pc_rank="bogus", ri_threshold=1000.0, n_trees=30)


def test_multi_stage_h0_pvalues_uniform():
    reps = 1000
    pvals = np.empty(reps)
    for r in range(reps):
        spec = ts.SyntheticSpec(
            n=400, p=5, family=ts.GAUSSIAN, main_effects=(0.8, 0.6, 0.4, 0.0, 0.0),
            treatment_effect=0.3, seed=ts.derive_seed(1717, r),
        )
        d = ts.generate_trial(spec)
        screen = ts.screen_multi_stage(d, ts.GAUSSIAN, ml="lasso", pc_rank="variance", k=2,
                                       n_lambda=40)
        pvals[r] = ts.test_interaction(d, ts.GAUSSIAN, screen).p_raw
    assert uniform_ks_distance(pvals) < 0.05


def test_full_rank_stage2_invariant_under_any_invertible_map():
    d = ts.generate_trial(h0_spec(35, n=200, p=4, main=(0.7, 0.4, 0.2, 0.0)))
    rng = np.random.default_rng(36)
    a = rng.standard_normal((4, 4)) + 2.0 * np.eye(4)  # invertible w.h.p., checked below
    assert abs(np.linalg.det(a)) > 1e-6
    identity = ts.ScreeningResult(method="full_model", ranking=(0, 1, 2, 3), k_selected=4)
    mapped = ts.ScreeningResult(
        method="pca_variance", ranking=(0, 1, 2, 3), k_selected=4, projection=a
    )
    stat_plain = ts.test_interaction(d, ts.GAUSSIAN, identity).statistic
    stat_mapped = ts.test_interaction(d, ts.GAUSSIAN, mapped).statistic
    assert stat_plain == pytest.approx(stat_mapped, abs=1e-8)


@pytest.mark.parametrize("screening", [
    {"method": "pca", "supervised": True},
    {"method": "multi_stage", "ml": "lasso", "pc_rank": "supervised"},
])
def test_supervised_pc_lasso_follows_include_treatment(monkeypatch, screening):
    seen = []
    fit_path = ts.lasso.fit_path

    def spy(data, family, include_treatment=True, n_lambda=100):
        seen.append(include_treatment)
        return fit_path(data, family, include_treatment=include_treatment, n_lambda=n_lambda)

    monkeypatch.setattr(ts.lasso, "fit_path", spy)
    cfg = ts.PipelineConfig.from_dict({
        "family": "gaussian", "k_rule": {"rule": "fixed", "k": 2},
        "screening": {**screening, "include_treatment": False},
    })
    ts.run_pipeline(ts.generate_trial(h0_spec(5)), cfg)
    assert seen and not any(seen)


# every screening option: (its sub-block of the config's screening block, or None,
# and a value other than its config default)
_SCREEN_OPTIONS = {
    "supervised": (None, True), "ml": (None, "lasso"), "pc_rank": (None, "supervised"),
    "include_treatment": (None, False), "n_trees": ("boosting", 40),
    "shrinkage": ("boosting", 0.2), "ri_threshold": ("boosting", 5.0),
    "n_lambda": ("lasso", 30), "standardize": ("pca", False),
}


def _screen_view(res):
    projection = None if res.projection is None else res.projection.tobytes()
    return res.method, res.ranking, res.k_selected, projection, res.substage_trace


@pytest.mark.parametrize("method, function, kept", [
    ("full_model", "rank_full_model", ()),
    ("univariate", "rank_univariate", ()),
    ("lasso", "rank_lasso", ()),
    ("pca", "screen_pca_single_stage", ()),
    ("multi_stage", "screen_multi_stage", ("ml",)),  # boosting Substage I
    ("multi_stage", "screen_multi_stage", ()),  # lasso Substage I
    ("irm", "irm_risk_projection", ()),
], ids=["full_model", "univariate", "lasso", "pca", "multi_stage-boosting",
        "multi_stage-lasso", "irm"])
def test_every_screening_option_reaches_its_screen(method, function, kept):
    # Each option the screening function takes, set away from its default in the
    # config, reaches the function; an option it does not take changes nothing.
    screen = getattr(ts.screening, function)
    takes = [name for name in inspect.signature(screen).parameters if name in _SCREEN_OPTIONS]
    options = {name: _SCREEN_OPTIONS[name][1] for name in takes if name not in kept}
    d = ts.generate_trial(h0_spec(11, n=200, p=5, main=(1.0, 0.6, 0.0, 0.3, 0.0)))
    k = {} if method == "irm" else {"k": 2}
    direct = _screen_view(screen(d, ts.GAUSSIAN, **k, **options))

    def configured(extra):
        block = {"method": method}
        for name, value in {**options, **extra}.items():
            sub = _SCREEN_OPTIONS[name][0]
            (block.setdefault(sub, {}) if sub else block)[name] = value
        cfg = ts.PipelineConfig.from_dict(
            {"family": "gaussian", "k_rule": {"rule": "fixed", "k": 2}, "screening": block})
        return _screen_view(ts.inference.run_screening(d, cfg, 2))

    assert configured({}) == direct
    for name in sorted(_SCREEN_OPTIONS.keys() - set(takes)):
        assert configured({name: _SCREEN_OPTIONS[name][1]}) == direct, name


def test_multi_stage_supervised_pc_rank_targets_outcome_aligned_pc():
    # With supervised PC ranking, the top-ranked component of the selected
    # subset must be the one whose scores explain the outcome best, even when
    # it is not the most variable one.
    rng = np.random.default_rng(37)
    n = 400
    x = rng.standard_normal((n, 6)) @ np.diag([2.0, 1.5, 1.2, 1.0, 0.8, 0.6])
    strong_pc_scores = ts.compute_pca(x[:, :3], standardize=True).scores
    t = np.array([1, 0] * (n // 2))
    y = 2.0 * strong_pc_scores[:, 2] + 0.2 * rng.standard_normal(n)
    d = ts.TrialDataset(y=y, treatment=t, x_candidates=x, x_adjust=np.empty((n, 0)))
    res = ts.screen_multi_stage(
        d, ts.GAUSSIAN, ml="lasso", pc_rank="supervised", k=1, n_lambda=40
    )
    assert res.substage_trace["pc_rank"] == "supervised"
    selected = res.substage_trace["selected_indices"]
    sub = ts.compute_pca(d.x_candidates[:, selected], standardize=True)
    corrs = [abs(np.corrcoef(sub.scores[:, j], y)[0, 1]) for j in range(sub.m)]
    assert res.ranking[0] == int(np.argmax(corrs))
    assert res.ranking[0] != 0  # the top-variance PC is not the outcome-aligned one here


# ---------------------------------------------------------------------------
# internal risk model
# ---------------------------------------------------------------------------


def test_irm_projection_recovers_generating_coefficients():
    rng = np.random.default_rng(71)
    n = 500
    x = rng.standard_normal((n, 4))
    y = 2.0 + x[:, 2]  # exact linear outcome, blinded risk fit is exact
    d = ts.TrialDataset(
        y=y, treatment=np.array([1, 0] * (n // 2)), x_candidates=x, x_adjust=np.empty((n, 0))
    )
    res = ts.irm_risk_projection(d, ts.GAUSSIAN, include_treatment=False)
    assert res.k_selected == 1
    assert np.allclose(res.projection[:, 0], [0, 0, 1, 0], atol=1e-10)
    d2 = ts.stage2_dataset(d, res)
    assert np.allclose(d2.x_candidates[:, 0], x[:, 2], atol=1e-10)


def test_irm_unblinded_uses_additive_model():
    d = ts.generate_trial(h0_spec(72, n=300, p=3, main=(1.0, 0.5, 0.0)))
    blinded = ts.irm_risk_projection(d, ts.GAUSSIAN, include_treatment=False)
    unblinded = ts.irm_risk_projection(d, ts.GAUSSIAN, include_treatment=True)
    assert blinded.substage_trace["include_treatment"] is False
    assert unblinded.substage_trace["include_treatment"] is True
    assert not np.allclose(blinded.projection, unblinded.projection)


# ---------------------------------------------------------------------------
# K schedule
# ---------------------------------------------------------------------------


def test_k_schedule_log_matches_known_value():
    assert ts.k_schedule(1461, "log") == 7
    assert ts.k_schedule(2, "log") == 1


def test_k_schedule_fixed_ignores_n():
    for n in (10, 1000, 10**6):
        assert ts.k_schedule(n, "fixed", {"k": 14}) == 14


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=10**6), st.integers(min_value=2, max_value=10**6))
def test_k_schedule_log_monotone(n1, n2):
    lo, hi = sorted((n1, n2))
    assert ts.k_schedule(lo, "log") <= ts.k_schedule(hi, "log")


def test_k_schedule_log_unbounded():
    assert ts.k_schedule(math.ceil(math.e**14) + 1, "log") >= 14


def test_k_schedule_power_rule():
    assert ts.k_schedule(400, "power", {"coef": 0.5, "exponent": 0.5}) == 10
    with pytest.raises(ConfigError):
        ts.k_schedule(400, "power", {"coef": -1.0, "exponent": 0.5})
    with pytest.raises(ConfigError):
        ts.k_schedule(400, "fixed", {"k": 0})
    with pytest.raises(ConfigError):
        ts.k_schedule(400, "nope")
    # K overflows a float: refused, not an OverflowError
    for params in ({"coef": 2.0, "exponent": 1e6}, {"coef": 1e308, "exponent": 1}):
        with pytest.raises(ConfigError, match="no finite K"):
            ts.k_schedule(400, "power", params)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_rankings_are_reproducible():
    d = ts.generate_trial(h0_spec(91, n=300, p=4, main=(0.9, 0.5, 0.2, 0.0)))
    for screen in (ts.rank_full_model, ts.rank_univariate, ts.rank_lasso):
        assert screen(d, ts.GAUSSIAN).ranking == screen(d, ts.GAUSSIAN).ranking
    a = ts.screen_multi_stage(d, ts.GAUSSIAN, ml="boosting", k=2, n_trees=50)
    b = ts.screen_multi_stage(d, ts.GAUSSIAN, ml="boosting", k=2, n_trees=50)
    assert a.ranking == b.ranking
    assert np.array_equal(a.projection, b.projection)
