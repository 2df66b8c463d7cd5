import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tehscreen as ts
from tehscreen import families, glm
from tehscreen.errors import (
    DataError,
    DegenerateVarianceError,
    FitError,
    NestingError,
    SeparationError,
)

from _oracles import arm_difference_loop, design_columns, newton_logistic, ols_rss


def manual_design(columns, kinds=None):
    """Design matrix straight from columns, bypassing the trial builders."""
    matrix = np.column_stack(columns)
    kinds = kinds or [("candidate", j) for j in range(matrix.shape[1])]
    return glm.DesignMatrix(matrix=matrix, origin=tuple(kinds))


def toy_dataset(n=60, p=3, p_c=0, family=ts.GAUSSIAN, seed=0, **kw):
    spec = ts.SyntheticSpec(
        n=n, p=p, family=family,
        main_effects=kw.pop("main_effects", tuple(0.5 / (j + 1) for j in range(p))),
        treatment_effect=kw.pop("treatment_effect", 0.4),
        adjust_effects=tuple(0.3 for _ in range(p_c)),
        seed=seed, **kw,
    )
    return ts.generate_trial(spec)


# ---------------------------------------------------------------------------
# design builders
# ---------------------------------------------------------------------------


def test_additive_design_layout():
    d = ts.TrialDataset(
        y=np.array([1.0, 2.0, 3.0, 4.0]),
        treatment=np.array([1, 0, 1, 0]),
        x_candidates=np.array([[1.0, 5.0], [2.0, 6.0], [3.0, 8.0], [4.0, 12.0]]),
        x_adjust=np.empty((4, 0)),
    )
    design = ts.build_additive_design(d)
    assert design.matrix.shape[1] == 4
    assert design.origin == (
        ("candidate", 0), ("candidate", 1), ("arm_intercept", "A"), ("arm_intercept", "B")
    )
    assert np.array_equal(design.matrix[:, 2], [1, 0, 1, 0])
    assert np.array_equal(design.matrix[:, 3], [0, 1, 0, 1])


def test_additive_design_drops_duplicate_candidate():
    x = np.array([[1.0], [2.0], [3.0], [4.0], [5.0], [6.0]])
    d = ts.TrialDataset(
        y=np.arange(6.0),
        treatment=np.array([1, 0, 1, 0, 1, 0]),
        x_candidates=np.hstack([x, x]),
        x_adjust=np.empty((6, 0)),
    )
    design = ts.build_additive_design(d)
    # One layout: [x | copy of x | arm A | arm B]; the later copy drops but stays in the matrix.
    assert design.matrix.shape[1] == 4
    assert design.dropped_columns == (1,)
    fit = ts.fit(design, d.y, ts.GAUSSIAN)
    assert fit.dropped_columns == design.dropped_columns
    assert fit.coefficients[1] == 0.0


_COPY = st.tuples(
    st.integers(0, 5),  # source column (mod the base width)
    st.floats(0.25, 4.0) | st.floats(-4.0, -0.25),  # scale
    st.none() | st.floats(-14.0, -6.0),  # log10 noise; None = exact copy
)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 6),
       copies=st.lists(_COPY, max_size=5))
def test_cholesky_fast_path_keeps_the_columns_of_the_sequential_fallback(seed, width, copies):
    rng = np.random.default_rng(seed)
    n = 40
    base = rng.standard_normal((n, width))
    columns = list(base.T)
    for source, scale, log_noise in copies:
        column = scale * base[:, source % width]
        if log_noise is not None:
            column = column + 10.0**log_noise * rng.standard_normal(n)
        columns.append(column)
    origin = [("candidate", j) for j in range(len(columns))]
    design = glm.make_design(columns, origin)
    with mock.patch.object(np.linalg, "cholesky", side_effect=np.linalg.LinAlgError):
        sequential = glm.make_design(columns, origin)
    assert design.dropped_columns == sequential.dropped_columns
    assert design.dropped_columns == tuple(range(width, len(columns)))


def test_additive_design_appends_adjusters():
    d = toy_dataset(n=40, p=2, p_c=1)
    design = ts.build_additive_design(d)
    assert design.matrix.shape[1] == 5
    assert design.origin[-1] == ("adjust", 0)


def test_interaction_design_masks_by_arm():
    a, b, c, e = 1.0, 2.0, 3.0, 4.0
    d = ts.TrialDataset(
        y=np.zeros(4),
        treatment=np.array([1, 1, 0, 0]),
        x_candidates=np.array([[a], [b], [c], [e]]),
        x_adjust=np.empty((4, 0)),
    )
    design = ts.build_interaction_design(d)
    assert np.array_equal(design.matrix[:, 0], [a, b, c, e])
    assert np.array_equal(design.matrix[:, 3], [a, b, 0, 0])
    assert design.origin == (
        ("candidate", 0), ("arm_intercept", "A"), ("arm_intercept", "B"), ("contrast", 0)
    )


@pytest.mark.parametrize("interaction", [False, True])
@pytest.mark.parametrize("duplicate", [False, True])
def test_design_builders_match_the_column_by_column_oracle(interaction, duplicate):
    d = toy_dataset(n=80, p=4, p_c=2, seed=3)
    if duplicate:  # candidate 4 copies candidate 1, so its columns drop
        d = d.with_candidates(np.column_stack([d.x_candidates, d.x_candidates[:, 1]]), ())
    design = (ts.build_interaction_design if interaction else ts.build_additive_design)(d)
    matrix, origin = design_columns(d, interaction=False)
    if interaction:  # the additive layout plus candidate j times t, column by column
        t = d.treatment.astype(float)
        matrix = np.column_stack([matrix] + [d.x_candidates[:, j] * t for j in range(d.p)])
        origin = origin + [("contrast", j) for j in range(d.p)]
    dropped = ((4, 13) if interaction else (4,)) if duplicate else ()
    assert design.dropped_columns == dropped
    assert np.array_equal(design.matrix, matrix)  # dropped columns stay: one layout
    assert design.matrix.flags.c_contiguous
    assert design.origin == tuple(origin)
    assert bool(design.arms) == interaction
    assert ts.fit(design, d.y, ts.GAUSSIAN).dropped_columns == dropped
    additive = ts.build_additive_design(d)  # the interaction design extends it bit for bit
    assert np.array_equal(design.matrix[:, : additive.matrix.shape[1]], additive.matrix)


def test_interaction_design_identity_projection_equals_select_all():
    d = toy_dataset(n=50, p=3)
    selected = ts.ScreeningResult(method="full_model", ranking=(0, 1, 2), k_selected=3)
    projected = ts.ScreeningResult(
        method="pca_variance", ranking=(0, 1, 2), k_selected=3, projection=np.eye(3)
    )
    via_selected = ts.build_interaction_design(ts.stage2_dataset(d, selected))
    via_projection = ts.build_interaction_design(ts.stage2_dataset(d, projected))
    assert np.array_equal(via_selected.matrix, via_projection.matrix)


def test_interaction_design_pc1_loading_gives_pc1_scores():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((30, 3)) @ np.diag([3.0, 1.0, 0.5])
    x = x - x.mean(axis=0)  # centered, so X @ v equals the score column
    res = ts.compute_pca(x, standardize=False)
    d = ts.TrialDataset(
        y=np.zeros(30),
        treatment=np.array([1, 0] * 15),
        x_candidates=x,
        x_adjust=np.empty((30, 0)),
    )
    pc1 = ts.ScreeningResult(
        method="pca_variance", ranking=(0,), k_selected=1, projection=res.loadings[:, [0]]
    )
    design = ts.build_interaction_design(ts.stage2_dataset(d, pc1))
    assert np.allclose(design.matrix[:, 0], res.scores[:, 0], atol=1e-10)
    assert np.array_equal(design.matrix[:, 3], design.matrix[:, 0] * d.treatment)


def test_interaction_design_empty_selection_rejected():
    d = toy_dataset()
    with pytest.raises(DataError, match="empty selection"):
        ts.build_interaction_design(d.with_candidates(np.empty((d.n, 0)), ()))


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


def test_fit_gaussian_exact_interpolation():
    design = manual_design([np.array([1.0, 2.0, 3.0]), np.ones(3)])
    fit = ts.fit(design, np.array([1.0, 2.0, 3.0]), ts.GAUSSIAN)
    assert np.allclose(fit.coefficients, [1.0, 0.0], atol=1e-12)
    assert fit.deviance == pytest.approx(0.0, abs=1e-20)


def test_fit_binomial_symmetry():
    design = manual_design([np.array([1.0, -1.0, 1.0, -1.0]), np.ones(4)])
    fit = ts.fit(design, np.array([1.0, 1.0, 0.0, 0.0]), ts.BINOMIAL)
    assert abs(fit.coefficients[0]) < 1e-8
    assert abs(fit.coefficients[1]) < 1e-8


def test_fit_binomial_matches_newton_oracle():
    rng = np.random.default_rng(12)
    X = np.column_stack([rng.standard_normal((50, 2)), np.ones(50)])
    eta = X @ np.array([0.8, -0.5, 0.2])
    y = rng.binomial(1, 1 / (1 + np.exp(-eta))).astype(float)
    design = manual_design(list(X.T))
    fit = ts.fit(design, y, ts.BINOMIAL)
    beta_o, cov_o, ll_o = newton_logistic(X, y)
    assert fit.log_likelihood == pytest.approx(ll_o, abs=1e-6)
    assert np.allclose(fit.coefficients, beta_o, atol=1e-6)
    assert np.allclose(fit.covariance, cov_o, atol=1e-6)


def test_binomial_first_irls_step_is_taken_whole():
    # The starting fitted values (initial_mu) match no coefficient vector, so
    # comparing the first Newton step against their likelihood would halve it
    # down to nothing and restart IRLS from zero.
    d = toy_dataset(
        n=600, p=25, family=ts.BINOMIAL, seed=3001, intercept=-0.3,
        main_effects=(0.5, 0.4, 0.3) + (0.0,) * 22,
    )
    real = families.Binomial.log_likelihood
    for design in (ts.build_additive_design(d), ts.build_interaction_design(d)):
        calls = []

        def counted(self, y, mu):
            calls.append(1)
            return real(self, y, mu)

        with mock.patch.object(families.Binomial, "log_likelihood", counted):
            fit = ts.fit(design, d.y, ts.BINOMIAL)
        assert len(calls) <= fit.iterations + 1
        beta_o, _, _ = newton_logistic(design.matrix, d.y)
        assert np.max(np.abs(fit.coefficients - beta_o)) < 1e-8


def test_gaussian_irls_equals_normal_equations():
    d = toy_dataset(n=120, p=4, p_c=1, seed=3)
    design = ts.build_additive_design(d)
    fit = ts.fit(design, d.y, ts.GAUSSIAN)
    X = design.matrix
    direct = np.linalg.solve(X.T @ X, X.T @ d.y)
    assert np.max(np.abs(fit.coefficients - direct)) < 1e-10


def test_binomial_score_vector_vanishes():
    d = toy_dataset(n=200, p=4, family=ts.BINOMIAL, seed=4)
    design = ts.build_additive_design(d)
    fit = ts.fit(design, d.y, ts.BINOMIAL)
    mu = ts.BINOMIAL.inverse_link(design.matrix @ fit.coefficients)
    assert np.max(np.abs(design.matrix.T @ (d.y - mu))) < 1e-6


def test_covariance_is_inverse_fisher_information():
    for family, seed in ((ts.GAUSSIAN, 5), (ts.BINOMIAL, 6)):
        d = toy_dataset(n=150, p=3, family=family, seed=seed)
        design = ts.build_additive_design(d)
        fit = ts.fit(design, d.y, family)
        X = design.matrix
        eta = X @ fit.coefficients
        mu = family.inverse_link(eta)
        w = family.working(d.y, eta, mu)[0] / family.dispersion(d.y, mu)
        fisher = X.T @ (X * w[:, None])
        assert np.allclose(fit.covariance @ fisher, np.eye(X.shape[1]), atol=1e-6)
        assert np.all(np.diag(fit.covariance) >= 0)
        assert np.allclose(fit.std_errors, np.sqrt(np.diag(fit.covariance)))


def test_fit_separation_detected():
    x = np.linspace(-2, 2, 20)
    y = (x > 0).astype(float)
    design = manual_design([x, np.ones(20)])
    with pytest.raises(SeparationError):
        ts.fit(design, y, ts.BINOMIAL)


def test_fit_nonconvergence_carries_last_iterate():
    d = toy_dataset(n=80, p=2, family=ts.BINOMIAL, seed=9)
    design = ts.build_additive_design(d)
    with pytest.raises(FitError) as err:
        ts.fit(design, d.y, ts.BINOMIAL, max_iter=1)
    assert err.value.last_coefficients is not None
    assert err.value.iterations == 1


def test_fit_rank_repair_inside_fit_reports_dropped():
    x = np.linspace(0.0, 1.0, 12)
    design = manual_design([x, 2.0 * x, np.ones(12)])
    fit = ts.fit(design, x * 3.0, ts.GAUSSIAN)
    assert fit.dropped_columns == (1,)
    assert fit.coefficients[1] == 0.0
    assert np.allclose(design.matrix @ fit.coefficients, 3.0 * x, atol=1e-10)


@pytest.mark.parametrize("treated, p_c", [(300, 0), (410, 0), (170, 2)])
def test_interaction_gram_from_arm_blocks_equals_xtwx(treated, p_c):
    # Unbalanced arms, adjusters, and weights from the MU_EPS floor to 0.25.
    rng = np.random.default_rng(treated + p_c)
    n, p = 600, 6
    t = rng.permutation(np.arange(n) < treated).astype(int)
    d = ts.TrialDataset(y=np.zeros(n), treatment=t, x_candidates=rng.standard_normal((n, p)),
                        x_adjust=rng.standard_normal((n, p_c)))
    design = ts.build_interaction_design(d)
    assert design.dropped_columns == () and design.arms
    X = design.matrix
    for w in (None, rng.permutation(np.geomspace(families.MU_EPS, 0.25, n))):
        expected = X.T @ (X if w is None else X * w[:, None])
        assembled = glm._gram(X, w, design.arms)
        assert np.max(np.abs(assembled - expected)) <= 1e-13 * np.max(np.abs(expected))


_RANK_FIXTURES = {  # (additive, interaction) columns dropped, the same as with X'WX Grams
    "duplicate": ((4,), (4, 13)),  # candidate 4 copies candidate 1
    "aliased-contrast": ((), (9,)),  # candidate 1 is constant on arm A
    "constant": ((5,), (5, 10)),  # candidate 2 is constant: the arm-B intercept drops
}


def _rank_fixture(family, fixture):
    d = toy_dataset(n=200, p=4, p_c=2, family=family, seed=12)
    x = d.x_candidates.copy()
    if fixture == "duplicate":
        x = np.column_stack([x, x[:, 1]])
    elif fixture == "aliased-contrast":
        x[d.treatment == 1, 1] = 0.7
    else:
        x[:, 2] = 1.5
    return d.with_candidates(x, ())


@pytest.mark.parametrize("family", [ts.GAUSSIAN, ts.BINOMIAL])
@pytest.mark.parametrize("fixture", sorted(_RANK_FIXTURES))
def test_rank_deficient_designs_drop_the_columns_of_the_xtwx_kernel(family, fixture):
    d = _rank_fixture(family, fixture)
    designs = (ts.build_additive_design(d), ts.build_interaction_design(d))
    assert tuple(design.dropped_columns for design in designs) == _RANK_FIXTURES[fixture]
    assert designs[1].arms  # a repaired interaction design keeps its per-arm Gram
    for design in designs:  # the fit drops no column beyond the design's
        assert ts.fit(design, d.y, family).dropped_columns == design.dropped_columns


def test_assembled_and_xtwx_kernels_fit_alike():
    d = toy_dataset(n=400, p=5, p_c=1, family=ts.BINOMIAL, seed=8)
    design = ts.build_interaction_design(d)
    assert design.arms
    fit = ts.fit(design, d.y, ts.BINOMIAL)
    oracle = ts.fit(replace(design, arms=()), d.y, ts.BINOMIAL)
    assert fit.iterations == oracle.iterations and fit.dropped_columns == ()
    assert fit.log_likelihood == pytest.approx(oracle.log_likelihood, rel=1e-12)
    assert np.allclose(fit.coefficients, oracle.coefficients, rtol=1e-10, atol=1e-12)
    assert np.allclose(fit.std_errors, oracle.std_errors, rtol=1e-10)


@pytest.mark.parametrize("family", [ts.GAUSSIAN, ts.BINOMIAL])
@pytest.mark.parametrize("fixture", sorted(_RANK_FIXTURES))
def test_repaired_designs_fit_like_xtwx_fits_of_their_kept_columns(family, fixture):
    # The oracle compacts each design to the columns rank repair kept and
    # forms X'WX; the library keeps every column and the interaction fit
    # forms its Gram from per-arm blocks. Same drops, LRT p within 1e-12.
    d = _rank_fixture(family, fixture)
    fits, oracles = [], []
    for design in (ts.build_additive_design(d), ts.build_interaction_design(d)):
        kept = [k for k in range(design.matrix.shape[1]) if k not in design.dropped_columns]
        compact = glm.DesignMatrix(matrix=np.ascontiguousarray(design.matrix[:, kept]),
                                   origin=tuple(design.origin[k] for k in kept))
        fit, oracle = ts.fit(design, d.y, family), ts.fit(compact, d.y, family)
        assert fit.dropped_columns == design.dropped_columns and oracle.dropped_columns == ()
        assert np.allclose(fit.coefficients[kept], oracle.coefficients, rtol=1e-10, atol=1e-12)
        fits.append(fit)
        oracles.append(oracle)
    df = len(fits[1].role("contrast")[0])
    assert df == len(oracles[1].role("contrast")[0])
    assert ts.lrt(*fits, df)[1] == pytest.approx(ts.lrt(*oracles, df)[1], rel=1e-12)


def test_a_start_at_the_optimum_takes_one_step_without_halving_at_large_n():
    # At n = 100,000 the log-likelihood is about -6e4, so its rounding
    # exceeds an absolute 1e-12 and only a relative test lets the step stand.
    d = toy_dataset(n=100_000, p=25, family=ts.BINOMIAL, seed=5, intercept=-0.3,
                    main_effects=(0.5, 0.4, 0.3) + (0.0,) * 22)
    design = ts.build_additive_design(d)
    cold = ts.fit(design, d.y, ts.BINOMIAL)
    real = families.Binomial.log_likelihood
    calls = []

    def counted(self, y, mu):
        calls.append(1)
        return real(self, y, mu)

    with mock.patch.object(families.Binomial, "log_likelihood", counted):
        warm = ts.fit(design, d.y, ts.BINOMIAL, start=cold.coefficients)
    assert warm.iterations == 1
    assert len(calls) == 2  # the start and one whole step
    assert warm.log_likelihood == pytest.approx(cold.log_likelihood, rel=1e-12)


def test_gaussian_fit_ignores_a_start():
    d = toy_dataset(n=100, p=3, seed=4)
    design = ts.build_interaction_design(d)
    cold = ts.fit(design, d.y, ts.GAUSSIAN)
    warm = ts.fit(design, d.y, ts.GAUSSIAN, start=np.ones(design.matrix.shape[1]))
    assert np.array_equal(warm.coefficients, cold.coefficients)


# ---------------------------------------------------------------------------
# log-likelihood
# ---------------------------------------------------------------------------


def test_loglik_all_half_probabilities():
    design = manual_design([np.ones(4)], kinds=[("intercept",)])
    y = np.array([1.0, 1.0, 0.0, 0.0])
    fit = ts.fit(design, y, ts.BINOMIAL)
    assert fit.log_likelihood == pytest.approx(4 * np.log(0.5), abs=1e-10)


def test_loglik_perfect_gaussian_fit_is_capped():
    design = manual_design([np.array([1.0, 2.0, 3.0]), np.ones(3)])
    y = np.array([1.0, 2.0, 3.0])
    fit = ts.fit(design, y, ts.GAUSSIAN)
    assert fit.deviance == pytest.approx(0.0, abs=1e-20)
    capped = -0.5 * 3 * (np.log(2 * np.pi) + np.log(1e-12) + 1.0)
    assert fit.log_likelihood == pytest.approx(capped)
    assert np.isfinite(fit.log_likelihood)


def test_loglik_matches_direct_summation():
    rng = np.random.default_rng(8)
    X = np.column_stack([rng.standard_normal(40), np.ones(40)])
    y = rng.binomial(1, 0.5, size=40).astype(float)
    design = manual_design(list(X.T))
    fit = ts.fit(design, y, ts.BINOMIAL)
    p = 1 / (1 + np.exp(-(X @ fit.coefficients)))
    direct = sum(
        float(yi * np.log(pi) + (1 - yi) * np.log(1 - pi)) for yi, pi in zip(y, p)
    )
    assert fit.log_likelihood == pytest.approx(direct, abs=1e-10)


# ---------------------------------------------------------------------------
# likelihood-ratio test
# ---------------------------------------------------------------------------


def _fit_with_loglik(ll):
    return glm.GlmFit(
        coefficients=np.zeros(1), covariance=np.zeros((1, 1)), std_errors=np.zeros(1),
        log_likelihood=ll, deviance=0.0, iterations=1,
    )


def test_lrt_identical_fits():
    fit = _fit_with_loglik(-12.5)
    statistic, p = ts.lrt(fit, fit, 1)
    assert statistic == 0.0
    assert p == 1.0


def test_lrt_chi_square_quantile():
    null, alt = _fit_with_loglik(0.0), _fit_with_loglik(3.841459 / 2)
    statistic, p = ts.lrt(null, alt, 1)
    assert statistic == pytest.approx(3.841459)
    assert p == pytest.approx(0.05, abs=1e-5)


@pytest.mark.parametrize("df", [1, 5, 25, 52])
def test_lrt_pvalue_equals_scipy_chi2_sf(df):
    from scipy.stats import chi2

    # glm.lrt's closed-form tail sum and scipy's incomplete gamma differ in
    # the last bits: at most 2.2e-13 relative over df 1-60 and x <= 1400.
    for statistic in (0.0, 1e-3, 0.5 * df, df, 2.0 * df + 7.0, 300.0):
        _, p = ts.lrt(_fit_with_loglik(0.0), _fit_with_loglik(statistic / 2.0), df)
        assert p == pytest.approx(chi2.sf(statistic, df), rel=1e-12, abs=0.0)


def test_lrt_pvalue_matches_scipy_chi2_sf_on_a_grid():
    from scipy.stats import chi2

    statistics = np.concatenate([[1e-12, 1e-6, 1e-3], np.linspace(0.0, 1400.0, 701)[1:]])
    for df in range(1, 61):
        assert ts.lrt(_fit_with_loglik(-3.0), _fit_with_loglik(-3.0), df)[1] == 1.0
        p = np.array([ts.lrt(_fit_with_loglik(0.0), _fit_with_loglik(x / 2.0), df)[1]
                      for x in statistics])
        oracle = chi2.sf(statistics, df)
        keep = oracle >= 1e-300
        assert np.all(np.abs(p[keep] - oracle[keep]) <= 1e-12 * oracle[keep]), df


def test_logistic_link_matches_scipy_expit():
    from scipy.special import expit

    eta = np.concatenate([np.linspace(-700.0, 700.0, 140001), [-1e-300, 1e-300]])
    assert np.all(np.abs(ts.BINOMIAL.inverse_link(eta) - expit(eta)) <= 1e-15 * expit(eta))


def test_logistic_link_saturates_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mu = ts.BINOMIAL.inverse_link(np.array([-1e4, 1e4]))
        scalar = ts.BINOMIAL.inverse_link(-1e4)
    assert np.all((mu >= 0.0) & (mu <= 1.0)) and 0.0 <= scalar <= 1.0


def test_lrt_gaussian_closed_form():
    rng = np.random.default_rng(17)
    n = 40
    x = rng.standard_normal(n)
    y = 0.7 * x + rng.standard_normal(n)
    null_design = manual_design([np.ones(n)], kinds=[("intercept",)])
    alt_design = manual_design([x, np.ones(n)])
    null_fit = ts.fit(null_design, y, ts.GAUSSIAN)
    alt_fit = ts.fit(alt_design, y, ts.GAUSSIAN)
    statistic, _ = ts.lrt(null_fit, alt_fit, 1)
    rss0 = ols_rss(np.ones((n, 1)), y)
    rss1 = ols_rss(np.column_stack([x, np.ones(n)]), y)
    assert statistic == pytest.approx(n * np.log(rss0 / rss1), abs=1e-8)


def test_lrt_invariant_under_column_rescaling():
    for family, seed in ((ts.GAUSSIAN, 30), (ts.BINOMIAL, 31)):
        d = toy_dataset(n=150, p=3, family=family, seed=seed)
        scaled = d.with_candidates(
            d.x_candidates * np.array([10.0, 1.0, 1.0]), d.candidate_names
        )
        stats = []
        for data in (d, scaled):
            null_fit = ts.fit(ts.build_additive_design(data), data.y, family)
            alt_fit = ts.fit(ts.build_interaction_design(data), data.y, family)
            stats.append(ts.lrt(null_fit, alt_fit, data.p)[0])
        assert stats[0] == pytest.approx(stats[1], abs=1e-8)


def test_lrt_rejects_bad_df_and_non_nesting():
    fit = _fit_with_loglik(-3.0)
    with pytest.raises(NestingError):
        ts.lrt(fit, fit, 0)
    with pytest.raises(NestingError):
        ts.lrt(_fit_with_loglik(-1.0), _fit_with_loglik(-2.0), 1)


def test_lrt_nesting_tolerance_scales_with_loglik():
    # Each IRLS fit stops once |delta ll| <= LOGLIK_RTOL * (|ll| + 1), i.e. 1e-4
    # at ll = -1e6, so a 1e-5 shortfall of the alternative is within tolerance.
    statistic, p = ts.lrt(_fit_with_loglik(-1e6), _fit_with_loglik(-1e6 - 1e-5), 3)
    assert (statistic, p) == (0.0, 1.0)


# ---------------------------------------------------------------------------
# standardized arm differences
# ---------------------------------------------------------------------------


def test_arm_difference_zero_for_mirrored_arms():
    rng = np.random.default_rng(44)
    x = rng.standard_normal((30, 2))
    y = rng.standard_normal(30)
    d = ts.TrialDataset(
        y=np.concatenate([y, y]),
        treatment=np.concatenate([np.ones(30, int), np.zeros(30, int)]),
        x_candidates=np.vstack([x, x]),
        x_adjust=np.empty((60, 0)),
    )
    fit = ts.fit(ts.build_interaction_design(d), d.y, ts.GAUSSIAN)
    diffs = ts.standardized_arm_difference(fit, 2)
    assert np.max(np.abs(diffs)) < 1e-10


def test_arm_difference_matches_per_arm_fits():
    d = toy_dataset(n=300, p=1, family=ts.BINOMIAL, seed=20, main_effects=(0.8,))
    fit = ts.fit(ts.build_interaction_design(d), d.y, ts.BINOMIAL)
    joint = ts.standardized_arm_difference(fit, 1)[0]

    t = d.treatment.astype(bool)
    per_arm = {}
    for arm, mask in (("A", t), ("B", ~t)):
        X = np.column_stack([d.x_candidates[mask, 0], np.ones(mask.sum())])
        beta, cov, _ = newton_logistic(X, d.y[mask])
        per_arm[arm] = (beta[0], cov[0, 0])
    oracle = (per_arm["A"][0] - per_arm["B"][0]) / np.sqrt(per_arm["A"][1] + per_arm["B"][1])
    assert joint == pytest.approx(oracle, abs=1e-6)


def test_arm_difference_h0_moments():
    reps = 2000
    values = np.empty((reps, 2))
    for r in range(reps):
        spec = ts.SyntheticSpec(
            n=300, p=2, family=ts.GAUSSIAN, main_effects=(0.5, 0.2),
            treatment_effect=0.3, seed=ts.derive_seed(2024, r),
        )
        d = ts.generate_trial(spec)
        fit = ts.fit(ts.build_interaction_design(d), d.y, ts.GAUSSIAN)
        values[r] = ts.standardized_arm_difference(fit, 2)
    assert np.all(np.abs(values.mean(axis=0)) < 0.07)
    assert np.all(np.abs(values.var(axis=0, ddof=1) - 1.0) < 0.1)


def _relative_error(a, b):
    return np.max(np.abs(a - b) / np.abs(b))


def _kept_width(fit):
    return fit.coefficients.shape[0] - len(fit.dropped_columns)


@pytest.mark.parametrize("family", [ts.GAUSSIAN, ts.BINOMIAL])
@pytest.mark.parametrize("duplicate", [False, True])
def test_arm_difference_equals_the_scalar_loop(family, duplicate):
    # The contrast-form fit against the scalar loop on the arm-specific
    # layout: the same model in two parameterizations, so the arm
    # differences, the LRT statistic and its p agree to rounding, here
    # within 1e-10 relative.
    for p_c in (0, 1):
        d = toy_dataset(n=200, p=3, p_c=p_c, family=family, seed=9)
        if duplicate:  # candidate 3 copies candidate 0, so coordinate 3 is NaN
            d = d.with_candidates(np.column_stack([d.x_candidates, d.x_candidates[:, 0]]), ())
        null_fit = ts.fit(ts.build_additive_design(d), d.y, family)
        fit = ts.fit(ts.build_interaction_design(d), d.y, family)
        matrix, origin = design_columns(d, interaction=True)
        arm_fit = ts.fit(glm.make_design([matrix], origin), d.y, family)
        diffs = ts.standardized_arm_difference(fit, d.p)
        oracle = arm_difference_loop(arm_fit, d.p)
        assert np.isnan(diffs).tolist() == [False] * 3 + [True] * duplicate
        assert np.array_equal(np.isnan(diffs), np.isnan(oracle))
        assert _relative_error(diffs[:3], oracle[:3]) <= 1e-10

        df = len(fit.role("contrast")[0])
        arm_df = _kept_width(arm_fit) - _kept_width(null_fit)
        assert df == arm_df == 3
        statistic, p = ts.lrt(null_fit, fit, df)
        arm_statistic, arm_p = ts.lrt(null_fit, arm_fit, arm_df)
        assert _relative_error(np.array([statistic, p]), np.array([arm_statistic, arm_p])) <= 1e-10


def test_arm_difference_zero_variance_names_the_first_coordinate():
    # The same degenerate case in both parameterizations: contrasts 1 and 2
    # have zero SE, and in the arm-specific layout Var(A) = Var(B) = Cov(A, B).
    k = 3
    origin = tuple(("arm_candidate", arm, j) for arm in "AB" for j in range(k))
    covariance = np.eye(2 * k)
    for j in (1, 2):
        covariance[j, k + j] = covariance[k + j, j] = 1.0
    arm_fit = glm.GlmFit(
        coefficients=np.arange(2.0 * k), covariance=covariance, std_errors=np.ones(2 * k),
        log_likelihood=0.0, deviance=0.0, iterations=1, origin=origin,
    )
    std_errors = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0])
    fit = glm.GlmFit(
        coefficients=np.arange(2.0 * k), covariance=np.diag(std_errors**2),
        std_errors=std_errors, log_likelihood=0.0, deviance=0.0, iterations=1,
        origin=tuple((role, j) for role in ("candidate", "contrast") for j in range(k)),
    )
    with pytest.raises(DegenerateVarianceError) as oracle:
        arm_difference_loop(arm_fit, k)
    with pytest.raises(DegenerateVarianceError, match="coordinate 1$") as err:
        ts.standardized_arm_difference(fit, k)
    assert str(err.value) == str(oracle.value)


@pytest.mark.parametrize("family", [ts.GAUSSIAN, ts.BINOMIAL])
def test_candidate_constant_in_one_arm_loses_its_contrast(family):
    # x_1 t = c t lies in the arm-A intercept's span, so rank repair drops
    # contrast 1 and keeps both arm intercepts: its arm difference is NaN
    # and the LRT has K - 1 df. Both fits keep every additive column, so
    # test_interaction's nesting check passes.
    d = toy_dataset(n=200, p=3, family=family, seed=12)
    x = d.x_candidates.copy()
    x[d.treatment == 1, 1] = 0.7
    d = d.with_candidates(x, d.candidate_names)
    screen = ts.ScreeningResult(method="full_model", ranking=(0, 1, 2), k_selected=3)
    alt_fit = ts.fit(ts.build_interaction_design(d), d.y, family)
    assert alt_fit.role("contrast")[0] == (0, 2)
    assert alt_fit.role("arm_intercept")[0] == ("A", "B")
    test = ts.test_interaction(d, family, screen)
    assert np.isnan(test.standardized_differences).tolist() == [False, True, False]
    assert test.df == 2
    assert test.df_repaired
