"""Independent reference implementations used as test oracles.

Everything here is deliberately written from first principles (plain Newton
steps, explicit summation, exhaustive search) and must stay independent of
the library code paths it checks.
"""

import numpy as np

from tehscreen.errors import DegenerateVarianceError


def newton_logistic(X, y, max_iter=200, tol=1e-12):
    """Plain Newton-Raphson logistic MLE: (beta, covariance, loglik)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    beta = np.zeros(X.shape[1])
    for _ in range(max_iter):
        eta = X @ beta
        p = 1.0 / (1.0 + np.exp(-eta))
        grad = X.T @ (y - p)
        hess = X.T @ (X * (p * (1.0 - p))[:, None])
        step = np.linalg.solve(hess, grad)
        beta = beta + step
        if np.max(np.abs(step)) < tol:
            break
    eta = X @ beta
    p = 1.0 / (1.0 + np.exp(-eta))
    cov = np.linalg.inv(X.T @ (X * (p * (1.0 - p))[:, None]))
    ll = float(np.sum(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))
    return beta, cov, ll


def ols_rss(X, y):
    """Residual sum of squares of the least-squares fit."""
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    r = y - X @ beta
    return float(r @ r)


def exhaustive_splits(columns, r):
    """Every (variable, midpoint threshold) split of ``r``, in scan order.

    Each entry is (variable, threshold, left_mean, right_mean, improvement)
    with improvement = SSE(parent) - SSE(left) - SSE(right) under mean
    predictions, every sum taken explicitly.
    """
    r = np.asarray(r, dtype=float)
    n = r.shape[0]
    parent_mean = np.sum(r) / n
    sse_parent = float(np.sum((r - parent_mean) ** 2))
    splits = []
    for v, x in enumerate(columns):
        x = np.asarray(x, dtype=float)
        values = np.unique(x)
        for lo, hi in zip(values[:-1], values[1:]):
            threshold = 0.5 * (lo + hi)
            left = r[x <= threshold]
            right = r[x > threshold]
            ml, mr = np.sum(left) / left.size, np.sum(right) / right.size
            sse = float(np.sum((left - ml) ** 2)) + float(np.sum((right - mr) ** 2))
            splits.append((v, threshold, float(ml), float(mr), sse_parent - sse))
    return splits


def exhaustive_best_stump(columns, r):
    """The best split of ``exhaustive_splits``: (variable, threshold, left_mean, right_mean, improvement).

    Ties break to the lowest variable index, then the lowest threshold.
    """
    best = None
    for split in exhaustive_splits(columns, r):
        if best is None or split[4] > best[4]:
            best = split
    return best


def boost_unpruned(data, family, n_trees, shrinkage):
    """Stagewise stumps with every variable searched at every tree: (stumps, relative_influence).

    The split search of fit_boost before it skipped variables: one cumulative
    sum of the centered working response per scan variable (candidates,
    adjusters, treatment), scores n D_k^2 / (k (n - k)) with -inf at tied
    thresholds, the first maximum in scan order. Each stump is (variable,
    threshold, left_value, right_value, improvement).
    """
    x = np.vstack([data.x_candidates.T, data.x_adjust.T, data.treatment[None, :]])
    nv, n = x.shape
    order = np.argsort(x, axis=1, kind="stable")
    x_sorted = np.take_along_axis(x, order, axis=1)
    penalty = np.where(x_sorted[:, 1:] > x_sorted[:, :-1], 0.0, -np.inf)
    midpoints = 0.5 * (x_sorted[:, 1:] + x_sorted[:, :-1])
    k = np.arange(1, n)
    weight = n / (k * (n - k))
    f = np.full(n, float(family.link(np.mean(data.y))))
    stumps, improvements = [], np.zeros(nv)
    for _ in range(n_trees if np.ptp(data.y) > 0 else 0):
        r = data.y - family.inverse_link(f)
        r_bar = r.sum() / n
        d = np.cumsum((r - r_bar)[order], axis=1)
        imp = d[:, :-1] ** 2 * weight + penalty
        var, pos = divmod(int(imp.argmax()), n - 1)
        best = imp[var, pos]
        if not np.isfinite(best) or best <= 0.0:
            break
        threshold = float(midpoints[var, pos])
        left = float(r_bar + d[var, pos] / (pos + 1))
        right = float(r_bar - d[var, pos] / (n - pos - 1))
        stumps.append((var, threshold, left, right, float(best)))
        improvements[var] += float(best)
        f = f + shrinkage * np.where(x[var] <= threshold, left, right)
    cand = improvements[: data.p]
    total = cand.sum()
    return stumps, 100.0 * cand / total if total > 0 else np.zeros(data.p)


def boost_predict(model, columns):
    """Stump-ensemble prediction on the working scale from the scan-order ``columns``."""
    x = np.column_stack(columns)
    f = np.full(x.shape[0], model.initial_value)
    for stump in model.stumps:
        go_left = x[:, stump.split_variable] <= stump.split_value
        f = f + model.shrinkage * np.where(go_left, stump.left_value, stump.right_value)
    return f


def pca_via_eigh(x, standardize=True):
    """PCA through the eigen-decomposition of the sample covariance (n-1)."""
    x = np.asarray(x, dtype=float)
    z = x - x.mean(axis=0)
    if standardize:
        z = z / z.std(axis=0, ddof=1)
    cov = np.cov(z, rowvar=False, ddof=1)
    values, vectors = np.linalg.eigh(np.atleast_2d(cov))
    order = np.argsort(values)[::-1]
    return vectors[:, order], values[order]


def align_signs(a, b):
    """Flip columns of ``b`` to match the signs of ``a`` (for eigenvector comparison)."""
    b = b.copy()
    for j in range(b.shape[1]):
        if np.dot(a[:, j], b[:, j]) < 0:
            b[:, j] = -b[:, j]
    return b


def lasso_path_cd(xs, u, y, binomial, lambdas, alpha0):
    """Lasso path by plain cyclic coordinate descent on length-n residuals.

    ``xs`` are the (already standardized) penalized columns, ``u`` the
    unpenalized block and ``alpha0`` its coefficients at the unpenalized-only
    fit. Each coordinate step recomputes its gradient from the full residual
    vector; a binomial path wraps the solver in penalized IRLS. Tolerances
    are the library's CD_TOL, CD_MAX_SWEEPS and OUTER_TOL. Returns
    (betas, alphas, entry_order, sweeps) with one beta/alpha per lambda.
    """
    tol, max_sweeps, outer_tol = 1e-11, 50_000, 1e-10
    n, p = xs.shape
    beta = np.zeros(p)
    alpha = np.array(alpha0, dtype=float)
    betas, alphas, order, sweeps = [], [], [], 0

    def soft(z, lam):
        return np.sign(z) * max(abs(z) - lam, 0.0)

    def solve(w, z, lam):
        resid = z - u @ alpha - xs @ beta
        u_norm = np.sum(w[:, None] * u * u, axis=0) / n
        x_norm = np.sum(w[:, None] * xs * xs, axis=0) / n
        for sweep in range(1, max_sweeps + 1):
            delta = 0.0
            for k in range(u.shape[1]):
                if u_norm[k] > 0:
                    step = np.sum(w * u[:, k] * resid) / n / u_norm[k]
                    alpha[k] += step
                    resid -= step * u[:, k]
                    delta = max(delta, abs(step))
            for j in range(p):
                if x_norm[j] > 0:
                    g = np.sum(w * xs[:, j] * resid) / n + x_norm[j] * beta[j]
                    step = soft(g, lam) / x_norm[j] - beta[j]
                    beta[j] += step
                    resid -= step * xs[:, j]
                    delta = max(delta, abs(step))
            if delta < tol:
                return sweep
        raise RuntimeError("coordinate descent did not converge")

    for lam in lambdas:
        if not binomial:
            sweeps += solve(np.ones(n), y, lam)
        else:
            obj_old = np.inf
            for _ in range(100):
                eta = u @ alpha + xs @ beta
                mu = np.clip(1.0 / (1.0 + np.exp(-eta)), 1e-10, 1.0 - 1e-10)
                w = mu * (1.0 - mu)
                sweeps += solve(w, eta + (y - mu) / w, lam)
                eta = u @ alpha + xs @ beta
                prob = np.clip(1.0 / (1.0 + np.exp(-eta)), 1e-12, 1.0 - 1e-12)
                ll = np.sum(y * np.log(prob) + (1.0 - y) * np.log1p(-prob))
                obj = -ll / n + lam * np.sum(np.abs(beta))
                if abs(obj_old - obj) <= outer_tol * (abs(obj) + 1.0):
                    break
                obj_old = obj
            else:
                raise RuntimeError("penalized IRLS did not converge")
        order += sorted(j for j in range(p) if beta[j] != 0.0 and j not in order)
        betas.append(beta.copy())
        alphas.append(alpha.copy())
    return betas, alphas, order, sweeps


def design_columns(data, interaction):
    """Pre-repair design matrix, one column at a time.

    Additive: [candidates | arm-A intercept | arm-B intercept | adjusters];
    interaction: the arm-specific layout [candidate j times t | candidate j
    times (1 - t) | arm intercepts | adjusters], each product taken column by
    column. It spans the same space as the library's contrast-form
    interaction design, so fits of the two must agree on the likelihood and
    on the arm differences.
    """
    t = data.treatment.astype(float)
    not_t = 1.0 - t
    x = data.x_candidates
    if interaction:
        columns = [x[:, j] * t for j in range(data.p)] + [x[:, j] * not_t for j in range(data.p)]
    else:
        columns = [x[:, j] for j in range(data.p)]
    columns += [t, not_t] + [data.x_adjust[:, j] for j in range(data.p_c)]
    return np.column_stack(columns)


def arm_difference_loop(fit, k):
    """(betaA - betaB) / SE one coordinate at a time on an arm-specific fit.

    The fit is of the ``design_columns(..., interaction=True)`` layout, so
    candidate j's arm-A column is column j and its arm-B column is column
    k + j. NaN where an arm column is gone; raises the library's
    DegenerateVarianceError at the first coordinate with SE^2 <= 0.
    """
    dropped = set(fit.dropped_columns)
    out = np.full(k, np.nan)
    coef, cov = fit.coefficients, fit.covariance
    for j in range(k):
        ia, ib = j, k + j
        if ia in dropped or ib in dropped:
            continue
        se2 = cov[ia, ia] + cov[ib, ib] - 2.0 * cov[ia, ib]
        if se2 <= 0.0:
            raise DegenerateVarianceError(f"zero variance for arm difference at coordinate {j}")
        out[j] = (coef[ia] - coef[ib]) / np.sqrt(se2)
    return out


# Family arithmetic written out inline, one branch per family: references for
# the methods in families.py, which must match them bit for bit.

def inline_link(binomial, mu):
    """glm's start: identity, or the logit of mu clipped to [1e-10, 1 - 1e-10]."""
    if not binomial:
        return mu
    p = np.clip(mu, 1e-10, 1.0 - 1e-10)
    return np.log(p / (1.0 - p))


def inline_working(binomial, y, eta, mu):
    """glm's IRLS (weights, working response) at one step."""
    if not binomial:
        return np.ones_like(mu), y
    mu_safe = np.clip(mu, 1e-10, 1.0 - 1e-10)
    w = mu_safe * (1.0 - mu_safe)
    return w, eta + (y - mu_safe) / w


def inline_outcome_draw(binomial, eta, scale, rng):
    """The outcome draw of generate_trial and the parametric null replicate."""
    if binomial:
        return rng.binomial(1, 1.0 / (1.0 + np.exp(-np.maximum(eta, -700.0)))).astype(float)
    return eta + scale * rng.standard_normal(eta.shape[0])


def inline_boost_initial_value(binomial, y):
    """fit_boost's constant start: the mean, or the logit of the clipped mean."""
    if not binomial:
        return float(np.mean(y))
    pbar = float(np.clip(np.mean(y), 1e-10, 1.0 - 1e-10))
    return float(np.log(pbar / (1.0 - pbar)))
