"""L1-penalized GLM over a decreasing lambda path by cyclic coordinate descent.

The screening pipeline only consumes the order in which candidate covariates
first enter the path, so candidates are standardized internally (mean 0,
variance 1 with the 1/n convention) to make that order scale-invariant.
Intercept, treatment, and adjusters are never penalized.

Objective at one lambda, for a family with its canonical link:
    deviance(y, mu) / 2n + lambda * ||b||_1,   mu = inverse_link(U a + X b)
with U the unpenalized block and X the standardized candidates. One
penalized-IRLS loop (Friedman, Hastie & Tibshirani 2010, J. Stat. Softw.
33(1), section 3) alternates coordinate descent on a working quadratic with
the family's weights at the new fit. With D = [U | X] the quadratic is the
Gram matrix G = D'WD/n and the score D'(y - mu)/n. A lambda is solved once a
step lowers the penalized quadratic by at most OUTER_TOL (its Newton decrement,
Boyd & Vandenberghe 2004, section 9.5.1) or leaves the weights unchanged
(always, for gaussian); only otherwise is the quadratic rebuilt.

Coordinate descent keeps the gradient r = D'W(z - D theta)/n current, so one
step costs O(q + p) rather than O(n). Each lambda first jumps, by one linear
solve, to the exact minimizer on the warm start's active set and signs. One
vectorized KKT check (Friedman, Hastie & Tibshirani 2010, section 2.6;
Tibshirani et al. 2012, JRSS-B 74(2), section 7) then certifies the point:
cyclic sweeps run only while some coordinate's step would reach CD_TOL.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data_model import TrialDataset
from .errors import DataError, FitError
from .families import Family
from . import glm

CD_TOL = 1e-11
CD_MAX_SWEEPS = 50_000
OUTER_TOL = 1e-10
OUTER_MAX = 100


def soft_threshold(z, lam):
    """sign(z) * max(|z| - lam, 0) of a scalar."""
    if lam < 0:
        raise DataError("soft-threshold shrinkage must be nonnegative")
    return math.copysign(max(abs(z) - lam, 0.0), z)


@dataclass(frozen=True)
class LassoPath:
    """Solutions along a strictly decreasing lambda grid.

    ``coefficients_std_per_lambda`` holds the standardized-scale candidate
    coefficients that define entry order; ``unpenalized_per_lambda`` those of
    the unpenalized block (intercept [, treatment], adjusters, raw scale);
    ``sweeps`` the cyclic coordinate-descent sweeps spent along the whole
    path, each run only after a failed KKT certificate (0 when every
    certificate passes).
    """

    lambdas: np.ndarray
    coefficients_std_per_lambda: tuple
    unpenalized_per_lambda: tuple
    entry_order: tuple
    include_treatment: bool
    center: np.ndarray
    scale: np.ndarray
    sweeps: int = 0


def _standardize(x):
    center = x.mean(axis=0)
    scale = x.std(axis=0)  # 1/n convention so that x_j'x_j / n == 1
    scale = np.where(scale > 0, scale, 1.0)
    return (x - center) / scale, center, scale


def _unpenalized_block(data, include_treatment):
    cols = [np.ones(data.n)]
    if include_treatment:
        cols.append(data.treatment.astype(float))
    for j in range(data.p_c):
        cols.append(data.x_adjust[:, j])
    return np.column_stack(cols)


def _cd(gram, grad, theta, lam, q):
    """One lambda: coordinate descent on a quadratic given by its Gram matrix.

    Minimizes (1/2) theta' G theta - c' theta + lam * ||theta[q:]||_1 with the
    gradient ``grad`` = c - G theta kept current, so a coordinate step costs
    O(len(theta)) and touches no length-n vector. Jumps to the exact
    minimizer on the warm start's active set, then sweeps only while the KKT
    certificate fails, jumping again after a sweep that keeps the signs.
    Updates ``theta`` and ``grad`` in place; returns the sweeps used.
    """
    diag = gram.diagonal()
    coords = np.flatnonzero(diag > 0)
    _active_set_solve(gram, grad, theta, lam, q, coords)
    sweeps = 0
    while _largest_step(diag, grad, theta, lam, q, coords) >= CD_TOL:
        if sweeps == CD_MAX_SWEEPS:
            raise FitError(f"coordinate descent failed to converge at lambda={lam:.3g}")
        sweeps += 1
        signs = np.sign(theta[q:])
        for k in coords.tolist():
            if k < q:
                step = grad[k] / diag[k]
            else:
                step = soft_threshold(grad[k] + diag[k] * theta[k], lam) / diag[k] - theta[k]
            if step != 0.0:
                theta[k] += step
                grad -= step * gram[k]
        if np.array_equal(np.sign(theta[q:]), signs):
            _active_set_solve(gram, grad, theta, lam, q, coords)
    return sweeps


def _largest_step(diag, grad, theta, lam, q, coords):
    """KKT certificate: the largest |step| cyclic descent would take at any coordinate.

    grad_k / G_kk on the unpenalized block, S(grad_k + G_kk theta_k, lam) / G_kk
    - theta_k on the penalized one, with S the soft threshold.
    """
    d, g, t = diag[coords], grad[coords], theta[coords]
    z = g + d * t
    shrunk = np.sign(z) * np.maximum(np.abs(z) - lam, 0.0) / d - t
    return float(np.max(np.abs(np.where(coords < q, g / d, shrunk)), initial=0.0))


def _active_set_solve(gram, grad, theta, lam, q, coords):
    """Move to the exact minimizer on the active set with its current signs.

    Solves G[A, A] d = grad[A] - lam * sign(theta[A]) (zero sign on the
    unpenalized block), A the ``coords`` that are unpenalized or nonzero; the
    move is skipped if that system is singular or the solution flips the
    sign of a penalized coefficient.
    """
    active = coords[(coords < q) | (theta[coords] != 0.0)]
    penalized = active >= q
    signs = np.where(penalized, np.sign(theta[active]), 0.0)
    try:
        d = np.linalg.solve(gram[active][:, active], grad[active] - lam * signs)
    except np.linalg.LinAlgError:
        return
    new = theta[active] + d
    if not np.array_equal(np.sign(new[penalized]), signs[penalized]):
        return
    theta[active] = new
    grad -= gram[:, active] @ d


def fit_path(
    data: TrialDataset,
    family: Family,
    include_treatment: bool = True,
    n_lambda: int = 100,
) -> LassoPath:
    """Solve the path from lambda_max (all penalized coefficients zero) downward.

    lambda_max is the largest absolute score of the penalized block at the
    unpenalized-only fit, so at the first grid point the top-score candidate
    sits on the soft-threshold boundary. A rounding-level step there is
    below CD_TOL, so the certificate passes and nothing enters by itself;
    a coefficient that a failed certificate's sweep moves off zero still
    enters at that point and ranks first. Subsequent lambdas warm-start from
    the previous one and its last quadratic. OUTER_TOL bounds the decrease
    absolutely, never looser than OUTER_TOL * (|objective| + 1) would.
    """
    if n_lambda < 2:
        raise DataError("n_lambda must be >= 2")
    xs, center, scale = _standardize(data.x_candidates)
    u = _unpenalized_block(data, include_treatment)
    y = data.y
    n, p = xs.shape
    lambda_min_ratio = 1e-3 if n > p else 1e-2

    # Gradient of the penalized block at the null (unpenalized-only) model.
    null_fit = glm.fit(glm.DesignMatrix(matrix=u), y, family)
    mu0 = family.inverse_link(u @ null_fit.coefficients)
    lam_max = float(np.max(np.abs(xs.T @ (y - mu0)) / n, initial=0.0))
    lam_max = max(lam_max, 1e-10)
    lambdas = np.geomspace(lam_max, lam_max * lambda_min_ratio, n_lambda)

    q = u.shape[1]
    design = np.hstack([u, xs])
    theta = np.concatenate([null_fit.coefficients, np.zeros(p)])
    eta = design @ theta
    mu = family.inverse_link(eta)
    weights = family.working(y, eta, mu)[0]
    gram, grad = _quadratic(design, y, mu, weights)
    coefs_std, unpen = [], []
    entry_order: list[int] = []
    entered = np.zeros(p, dtype=bool)
    sweeps = 0

    for lam in lambdas:
        for _ in range(OUTER_MAX):
            theta0, grad0 = theta.copy(), grad.copy()
            sweeps += _cd(gram, grad, theta, lam, q)
            if _decrease(grad0, grad, theta0, theta, lam, q) <= OUTER_TOL:
                break  # the step only confirmed theta0: this lambda is solved
            eta = design @ theta
            mu = family.inverse_link(eta)
            new_weights = family.working(y, eta, mu)[0]
            if np.array_equal(new_weights, weights):
                break  # the quadratic was the exact objective: this lambda is solved
            weights = new_weights
            gram, grad = _quadratic(design, y, mu, weights)
        else:
            raise FitError(f"penalized IRLS failed to converge at lambda={lam:.3g}")
        beta = theta[q:]
        newly = [j for j in range(p) if not entered[j] and beta[j] != 0.0]
        entry_order.extend(sorted(newly))  # ties at one grid point: ascending index
        entered[newly] = True
        coefs_std.append(beta.copy())
        unpen.append(theta[:q].copy())

    return LassoPath(
        lambdas=lambdas,
        coefficients_std_per_lambda=tuple(coefs_std),
        unpenalized_per_lambda=tuple(unpen),
        entry_order=tuple(entry_order),
        include_treatment=include_treatment,
        center=center,
        scale=scale,
        sweeps=sweeps,
    )


def _quadratic(design, y, mu, weights):
    """Gram D'WD/n and canonical-link score D'(y - mu)/n of the working quadratic."""
    n = design.shape[0]
    return design.T @ (design * weights[:, None]) / n, design.T @ (y - mu) / n


def _decrease(grad0, grad, theta0, theta, lam, q):
    """Drop of the penalized working quadratic from theta0 to theta: with s = theta - theta0,
    grad0's - s'Gs / 2 (= s'(grad0 + grad) / 2, as grad = grad0 - Gs) minus the penalty's rise."""
    s = theta - theta0
    return s @ (grad0 + grad) / 2 - lam * (np.abs(theta[q:]).sum() - np.abs(theta0[q:]).sum())


def rank_by_entry(path: LassoPath, p: int):
    """Entry order first; covariates that never enter follow in ascending index order."""
    seen = set(path.entry_order)
    return list(path.entry_order) + [j for j in range(p) if j not in seen]
