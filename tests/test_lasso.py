import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tehscreen as ts
from tehscreen import lasso
from tehscreen.errors import DataError
from tehscreen.lasso import LassoPath

from _oracles import lasso_path_cd, newton_logistic


def orthonormal_dataset(c=(5.0, 3.0, 1.0), n=64, seed=0):
    """Candidates with mean 0 and x_j'x_k / n = 1{j=k}; y = sum c_j x_j / n-scale.

    Columns are built by orthonormalizing centered noise, so standardization
    inside fit_path is (numerically) the identity and x_j'y/n == c_j exactly
    up to rounding.
    """
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, len(c)))
    raw = raw - raw.mean(axis=0)
    q, _ = np.linalg.qr(raw)
    x = np.sqrt(n) * q  # x_j'x_j == n, so x_j'y / n == c_j below
    y = x @ np.asarray(c)
    t = np.array([1, 0] * (n // 2))
    return ts.TrialDataset(y=y, treatment=t, x_candidates=x, x_adjust=np.empty((n, 0)))


def test_soft_threshold_values():
    assert ts.soft_threshold(0.0, 1.0) == 0.0
    assert ts.soft_threshold(3.0, 1.0) == 2.0
    assert ts.soft_threshold(-3.0, 1.0) == -2.0


@settings(max_examples=200, deadline=None)
@given(
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6),
    st.floats(allow_nan=False, allow_infinity=False, min_value=0, max_value=1e6),
)
def test_soft_threshold_properties(z, lam):
    s = ts.soft_threshold(z, lam)
    assert abs(s) == max(abs(z) - lam, 0.0)
    assert s == 0.0 or np.sign(s) == np.sign(z)
    assert ts.soft_threshold(z, 0.0) == z


def test_soft_threshold_rejects_negative_lambda():
    with pytest.raises(DataError):
        ts.soft_threshold(1.0, -0.5)


def test_orthonormal_closed_form_along_path():
    c = (5.0, 3.0, 1.0)
    d = orthonormal_dataset(c)
    path = ts.fit_path(d, ts.GAUSSIAN, include_treatment=False, n_lambda=40)
    for lam, beta in zip(path.lambdas, path.coefficients_std_per_lambda):
        expected = [np.sign(cj) * max(abs(cj) - lam, 0.0) for cj in c]
        assert np.allclose(beta, expected, atol=1e-8)
    assert path.entry_order == (0, 1, 2)


def test_lambda_max_gives_unpenalized_only_fit():
    d = orthonormal_dataset((2.0, 1.0, 0.5), seed=3)
    path = ts.fit_path(d, ts.GAUSSIAN, include_treatment=True, n_lambda=10)
    assert np.all(path.coefficients_std_per_lambda[0] == 0.0)
    # unpenalized block at lambda_max must be the plain least-squares fit
    u = np.column_stack([np.ones(d.n), d.treatment, *[d.x_adjust[:, j] for j in range(d.p_c)]])
    direct, *_ = np.linalg.lstsq(u, d.y, rcond=None)
    assert np.allclose(path.unpenalized_per_lambda[0], direct, atol=1e-8)


def test_zero_outcome_keeps_path_empty():
    n = 30
    rng = np.random.default_rng(9)
    d = ts.TrialDataset(
        y=np.zeros(n),
        treatment=np.array([1, 0] * (n // 2)),
        x_candidates=rng.standard_normal((n, 4)),
        x_adjust=np.empty((n, 0)),
    )
    path = ts.fit_path(d, ts.GAUSSIAN, n_lambda=25)
    for beta in path.coefficients_std_per_lambda:
        assert np.all(beta == 0.0)
    assert path.entry_order == ()


def _unpenalized(d, include_treatment):
    cols = [np.ones(d.n)] + ([d.treatment.astype(float)] if include_treatment else [])
    return np.column_stack(cols + [d.x_adjust[:, j] for j in range(d.p_c)])


def _kkt_violations(d, family, path):
    """Max KKT violation over the whole path, on the standardized scale."""
    xs = (d.x_candidates - path.center) / path.scale
    u = _unpenalized(d, path.include_treatment)
    worst = 0.0
    for lam, beta, alpha in zip(
        path.lambdas, path.coefficients_std_per_lambda, path.unpenalized_per_lambda
    ):
        eta = u @ alpha + xs @ beta
        mu = family.inverse_link(eta)
        g = xs.T @ (d.y - mu) / d.n
        for j in range(d.p):
            if beta[j] == 0.0:
                worst = max(worst, abs(g[j]) - lam)
            else:
                worst = max(worst, abs(abs(g[j]) - lam))
    return worst


@pytest.mark.parametrize("family,seed", [(ts.GAUSSIAN, 1), (ts.BINOMIAL, 2)])
def test_kkt_satisfied_pathwise(family, seed):
    spec = ts.SyntheticSpec(
        n=150, p=6, family=family, main_effects=(1.0, -0.6, 0.4, 0.0, 0.0, 0.0),
        treatment_effect=0.5, adjust_effects=(0.3,), seed=seed,
    )
    d = ts.generate_trial(spec)
    path = ts.fit_path(d, family, n_lambda=60)
    assert _kkt_violations(d, family, path) < 1e-6


def test_lambda_grid_shape():
    d = orthonormal_dataset(seed=4)
    path = ts.fit_path(d, ts.GAUSSIAN, n_lambda=30)
    assert len(path.lambdas) == 30
    assert np.all(np.diff(path.lambdas) < 0)
    assert np.all(path.lambdas > 0)
    with pytest.raises(DataError):
        ts.fit_path(d, ts.GAUSSIAN, n_lambda=1)


def _manual_path(entry_order, p):
    return LassoPath(
        lambdas=np.array([1.0, 0.5]),
        coefficients_std_per_lambda=(np.zeros(p), np.zeros(p)),
        unpenalized_per_lambda=(np.zeros(1), np.zeros(1)),
        entry_order=tuple(entry_order),
        include_treatment=False,
        center=np.zeros(p),
        scale=np.ones(p),
    )


def test_rank_by_entry_appends_missing_ascending():
    assert ts.rank_by_entry(_manual_path([2, 0], 4), 4) == [2, 0, 1, 3]


def test_rank_by_entry_full_entry():
    assert ts.rank_by_entry(_manual_path([3, 1, 0, 2], 4), 4) == [3, 1, 0, 2]


def test_entry_order_recovers_effect_strength():
    hits = 0
    seeds = 200
    for r in range(seeds):
        spec = ts.SyntheticSpec(
            n=250, p=3, family=ts.GAUSSIAN, main_effects=(1.0, 0.4, 0.0),
            treatment_effect=0.3, seed=ts.derive_seed(777, r),
        )
        d = ts.generate_trial(spec)
        path = ts.fit_path(d, ts.GAUSSIAN, n_lambda=50)
        if ts.rank_by_entry(path, 3) == [0, 1, 2]:
            hits += 1
    assert hits > seeds / 2


def test_path_continuity_smoke():
    # Adjacent-lambda solutions should move by an amount proportional to the
    # lambda gap on a well-conditioned design (loose smoke bound, not exact).
    d = orthonormal_dataset((4.0, 2.0, 1.0), seed=6)
    path = ts.fit_path(d, ts.GAUSSIAN, include_treatment=False, n_lambda=80)
    betas = np.vstack(path.coefficients_std_per_lambda)
    gaps = -np.diff(path.lambdas)
    jumps = np.max(np.abs(np.diff(betas, axis=0)), axis=1)
    assert np.all(jumps <= 10.0 * gaps + 1e-12)


def test_coefficients_reported_on_original_scale():
    rng = np.random.default_rng(11)
    n = 120
    x = rng.standard_normal((n, 2)) * np.array([10.0, 0.1])
    y = 0.5 * x[:, 0] + rng.standard_normal(n) * 0.1
    d = ts.TrialDataset(
        y=y, treatment=np.array([1, 0] * (n // 2)), x_candidates=x, x_adjust=np.empty((n, 0))
    )
    path = ts.fit_path(d, ts.GAUSSIAN, n_lambda=60)
    final = path.coefficients_std_per_lambda[-1] / path.scale
    assert final[0] == pytest.approx(0.5, abs=0.02)


def _oracle_path(d, family, path):
    """The plain residual-based CD path on the same standardized data and lambda grid."""
    x = d.x_candidates
    xs = (x - x.mean(axis=0)) / np.where(x.std(axis=0) > 0, x.std(axis=0), 1.0)
    u = _unpenalized(d, path.include_treatment)
    if family is ts.BINOMIAL:
        alpha0 = newton_logistic(u, d.y)[0]
    else:
        alpha0 = np.linalg.lstsq(u, d.y, rcond=None)[0]
    return lasso_path_cd(xs, u, d.y, family is ts.BINOMIAL, path.lambdas, alpha0)


def _assert_same_entry(path, oracle_betas, oracle_order):
    """Entry orders agree, except where a coefficient at rounding level (<= 1e-12)
    enters in one solver and not the other at the first grid point where the
    entered sets differ (a tie with lambda_max)."""
    if path.entry_order == tuple(oracle_order):
        return
    seen, seen_oracle = set(), set()
    for beta, beta_oracle in zip(path.coefficients_std_per_lambda, oracle_betas):
        seen |= set(np.flatnonzero(beta).tolist())
        seen_oracle |= set(np.flatnonzero(beta_oracle).tolist())
        if seen != seen_oracle:
            for j in seen ^ seen_oracle:
                assert max(abs(beta[j]), abs(beta_oracle[j])) <= 1e-12
            return
    pytest.fail("entry orders differ although the entered sets agree at every grid point")


def _trial(family, seed):
    spec = ts.SyntheticSpec(
        n=150, p=6, family=family, main_effects=(0.8, -0.5, 0.3, 0.0, 0.0, 0.0),
        treatment_effect=0.4, adjust_effects=(0.3,), seed=seed,
    )
    return ts.generate_trial(spec)


@pytest.mark.parametrize("family", [ts.GAUSSIAN, ts.BINOMIAL])
@pytest.mark.parametrize("include_treatment", [True, False])
@pytest.mark.parametrize("candidates", ["raw", "pca_scores"])
def test_path_matches_residual_coordinate_descent_oracle(family, include_treatment, candidates):
    d = _trial(family, seed=21)
    if candidates == "pca_scores":
        scores = ts.compute_pca(d.x_candidates).scores
        names = tuple(f"PC{i + 1}" for i in range(scores.shape[1]))
        d = d.derive(x_candidates=scores, candidate_names=names)
    path = ts.fit_path(d, family, include_treatment=include_treatment, n_lambda=40)
    betas, alphas, order, _ = _oracle_path(d, family, path)
    for beta, beta_o in zip(path.coefficients_std_per_lambda, betas):
        assert np.max(np.abs(beta - beta_o)) < 1e-8
    for alpha, alpha_o in zip(path.unpenalized_per_lambda, alphas):
        assert np.max(np.abs(alpha - alpha_o)) < 1e-8
    _assert_same_entry(path, betas, order)


@pytest.mark.parametrize("family", [ts.GAUSSIAN, ts.BINOMIAL])
def test_active_set_solve_cuts_sweeps(family):
    d = _trial(family, seed=22)
    path = ts.fit_path(d, family, n_lambda=40)
    *_, oracle_sweeps = _oracle_path(d, family, path)
    # Measured: gaussian 12 sweeps against the oracle's 1159, binomial 10
    # against 2145; sweeping until nothing moved took 85 and 199.
    assert 0 < path.sweeps <= oracle_sweeps / 40


def test_largest_step_equals_the_scalar_coordinate_steps():
    # The certificate is the first step of a cyclic sweep at every coordinate,
    # computed at once; the arithmetic is the same, so the values are equal.
    rng = np.random.default_rng(8)
    a = rng.standard_normal((40, 6))
    gram = a.T @ a / 40
    gram[4, :] = gram[:, 4] = 0.0  # a zero column: skipped like in a sweep
    diag = gram.diagonal()
    coords = np.flatnonzero(diag > 0)
    grad = rng.standard_normal(6)
    theta = np.array([0.3, -1.2, 0.0, 0.4, 0.0, 0.0])
    lam, q = 0.5, 2
    steps = [grad[k] / diag[k] if k < q
             else ts.soft_threshold(grad[k] + diag[k] * theta[k], lam) / diag[k] - theta[k]
             for k in coords]
    assert lasso._largest_step(diag, grad, theta, lam, q, coords) == max(abs(s) for s in steps)


def test_cd_on_a_solved_quadratic_returns_without_a_sweep():
    # One unpenalized coordinate, two active ones at their KKT values
    # grad = lam * sign(theta), and one inactive with |grad| < lam.
    rng = np.random.default_rng(5)
    a = rng.standard_normal((30, 4))
    gram = a.T @ a / 30
    lam = 0.125
    theta = np.array([0.5, 0.75, 0.0, -0.25])
    grad = np.array([0.0, lam, 0.0625, -lam])
    theta_before, grad_before = theta.tobytes(), grad.tobytes()
    assert lasso._cd(gram, grad, theta, lam, 1) == 0
    assert theta.tobytes() == theta_before
    assert grad.tobytes() == grad_before


def test_outer_loop_stops_on_the_quadratic_decrease(monkeypatch):
    # A lambda is solved once a step's working-quadratic decrease reaches
    # OUTER_TOL: the outer loop evaluates no likelihood of its own and builds no
    # Gram only to confirm a step. Measured on this path: 1.49 builds per lambda,
    # against 2.47 when each step ended on a deviance change after a rebuild.
    d = ts.generate_trial(ts.SyntheticSpec(
        n=400, p=20, family=ts.BINOMIAL, main_effects=(0.8, -0.5, 0.3) + (0.0,) * 17,
        treatment_effect=0.4, adjust_effects=(0.3,), seed=22,
    ))
    in_glm_fit, likelihood_calls, builds = [], [], []  # likelihood_calls: inside glm.fit?

    def glm_fit(*args, **kwargs):
        in_glm_fit.append(True)
        try:
            return fit(*args, **kwargs)
        finally:
            in_glm_fit.pop()

    def likelihood(f):
        return lambda *args: likelihood_calls.append(bool(in_glm_fit)) or f(*args)

    fit, quadratic, binomial = lasso.glm.fit, lasso._quadratic, type(ts.BINOMIAL)
    monkeypatch.setattr(lasso.glm, "fit", glm_fit)
    monkeypatch.setattr(binomial, "deviance", likelihood(binomial.deviance))
    monkeypatch.setattr(binomial, "log_likelihood", likelihood(binomial.log_likelihood))
    monkeypatch.setattr(lasso, "_quadratic", lambda *args: builds.append(1) or quadratic(*args))
    path = ts.fit_path(d, ts.BINOMIAL)
    assert likelihood_calls and all(likelihood_calls)  # only the null fit's, which stay
    assert len(builds) <= 1.6 * len(path.lambdas)


def test_decrease_is_the_penalized_quadratic_drop():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((50, 7))
    gram = a.T @ a / 50
    c = rng.standard_normal(7)
    lam, q = 0.3, 2

    def objective(theta):
        return 0.5 * theta @ gram @ theta - c @ theta + lam * np.abs(theta[q:]).sum()

    theta0 = np.array([0.2, -0.1, 0.0, 0.5, 0.0, -0.3, 0.0])
    grad0 = c - gram @ theta0
    moved = theta0 + rng.standard_normal(7) * np.array([1, 1, 0, 1, 1, 0, 1])
    theta, grad = theta0.copy(), grad0.copy()
    lasso._cd(gram, grad, theta, lam, q)  # grad kept current by CD's own updates
    for theta1, grad1 in ((moved, c - gram @ moved), (theta, grad)):
        assert lasso._decrease(grad0, grad1, theta0, theta1, lam, q) == pytest.approx(
            objective(theta0) - objective(theta1), rel=1e-12, abs=1e-15)
    assert lasso._decrease(grad0, grad, theta0, theta, lam, q) > 0
