"""GLM fitting by iteratively re-weighted least squares.

Builds the two trial designs (the additive main-effects model and the
interaction model), fits them by IRLS with step halving on the family's
link, working weights and working response, and exposes the nested-model
likelihood-ratio test plus the standardized between-arm coefficient
differences used to decompose an interaction signal.

The additive design is [candidates | arm-A indicator | arm-B indicator |
adjusters], the two-arm-intercept form of a single intercept plus a
treatment main effect. The interaction design is the additive design plus
one contrast block, candidate j times the arm-A indicator. Its column space
is that of the arm-specific slopes, since X∘t·a + X∘(1−t)·b =
X·b + (X∘t)(a − b), so contrast j's coefficient is candidate j's arm-A
slope minus its arm-B slope, and the additive model is nested in it by
construction.

Gram identity: contrast j is candidate j times the arm-A indicator, so
every Gram entry involving a contrast is a sum over arm-A rows. With G_A
and G_B the Grams of the additive columns over the arm-A and the arm-B
rows, the interaction Gram is [[G_A + G_B, G_A[:, :K]], [G_A[:K],
G_A[:K, :K]]]. Every interaction design forms it so for its rank check,
IRLS steps and covariance; every other design forms X'WX. The two agree
within 1e-13 relative, so fits differ from X'WX ones by rounding only.
Each IRLS step solves its Gram with one np.linalg.solve.

Rank repair: design builds and IRLS steps share one rank-revealing
Cholesky of the Gram matrix. A single LAPACK factorization is accepted when
every pivot exceeds RANK_TOL times the largest diagonal; otherwise a
sequential pass drops each column whose pivot is at or below that threshold.
Later columns lose to earlier ones, so duplicates are removed
deterministically and a contrast column loses to the additive columns it
is aliased with; drops are recorded, never silent. When contrasts are
aliased with each other, column order decides which of them drops, so the
per-coordinate split of such a set is a convention, not a statistic.

One layout: a design keeps every column it was built from, and its
``dropped_columns`` and a fit's index that layout; a fit starts from the
columns the design kept. IRLS stops, in either family, when a step leaves
the working weights unchanged (the gaussian step always does) or the
log-likelihood moves by at most LOGLIK_RTOL relative.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data_model import TrialDataset
from .errors import (
    DataError,
    DegenerateVarianceError,
    FitError,
    NestingError,
    SeparationError,
)
from .families import GAUSSIAN, Family

RANK_TOL = 1e-10
MAX_ITER = 100
LOGLIK_RTOL = 1e-10
SEPARATION_NORM = 1e4


@dataclass(frozen=True)
class DesignMatrix:
    """Design with per-column provenance, in the layout it was built in.

    ``origin[k]`` identifies what column ``k`` is: ("candidate", j),
    ("arm_intercept", "A"|"B"), ("intercept",), ("adjust", j) or
    ("contrast", j), candidate j times the arm-A indicator.
    ``dropped_columns`` are the columns rank repair drops; they stay in
    ``matrix`` and fits leave them out. ``arms`` is (row order with arm A
    first, arm-A row count, additive columns in that order) on every
    interaction design, else empty.
    """

    matrix: np.ndarray
    origin: tuple
    dropped_columns: tuple = ()
    arms: tuple = ()


@dataclass(frozen=True)
class GlmFit:
    """One converged GLM fit (non-convergence raises instead).

    ``coefficients`` has the design's width, with zeros at
    ``dropped_columns``, the design's drops and the fit's own; ``covariance``
    is the inverse Fisher information on retained columns (zero
    rows/columns at drops) scaled by the dispersion (profiled RSS/n for
    gaussian, 1 for binomial).
    """

    coefficients: np.ndarray
    covariance: np.ndarray
    std_errors: np.ndarray
    log_likelihood: float
    deviance: float
    iterations: int
    dropped_columns: tuple = ()
    origin: tuple = ()

    def role(self, name):
        """Columns kept through the fit whose origin is ``(name, key)``.

        Returns (keys, columns): ``keys[i]`` is the origin's key for column
        ``columns[i]`` -- the candidate, contrast or adjuster index, or the
        arm letter of an arm intercept.
        """
        dropped = set(self.dropped_columns)
        pairs = [(o[1], k) for k, o in enumerate(self.origin)
                 if o[0] == name and k not in dropped]
        return tuple(key for key, _ in pairs), np.array([k for _, k in pairs], dtype=np.intp)

    def wald_z(self, p, name="candidate"):
        """Wald z = coefficient / SE by ``name`` index; NaN where the column is gone or SE is 0."""
        keys, cols = self.role(name)
        se = self.std_errors[cols]
        ok = se > 0.0
        z = np.full(p, np.nan)
        z[np.asarray(keys, dtype=np.intp)[ok]] = self.coefficients[cols[ok]] / se[ok]
        return z


def _kept_columns(gram):
    """The columns a rank-revealing Cholesky of ``gram`` keeps.

    The fast path is one LAPACK factorization; the sequential fallback runs
    only when a pivot is at or below RANK_TOL times the largest diagonal, and
    drops exactly those columns, so earlier columns win ties.
    """
    q = gram.shape[0]
    threshold = RANK_TOL * float(np.max(gram.diagonal(), initial=0.0))
    if threshold <= 0.0:
        return []
    try:
        if np.min(np.diag(np.linalg.cholesky(gram)) ** 2) > threshold:
            return list(range(q))
    except np.linalg.LinAlgError:
        pass
    kept = []
    L = np.zeros((q, q))
    for j in range(q):
        k = len(kept)
        row = np.linalg.solve(L[:k, :k], gram[kept, j]) if k else np.empty(0)
        pivot = gram[j, j] - row @ row
        if pivot > threshold:
            L[k, :k] = row
            L[k, k] = np.sqrt(pivot)
            kept.append(j)
    return kept


def _gram(X, w, arms=()):
    """X'WX, w None meaning unit weights; from the per-arm Grams when ``arms`` is given."""
    if not arms:
        return X.T @ (X if w is None else X * w[:, None])
    order, n_a, A = arms
    m, k = A.shape[1], X.shape[1] - A.shape[1]
    Aw = A if w is None else A * w[order, None]
    ga = A[:n_a].T @ Aw[:n_a]
    gram = np.empty((m + k, m + k))
    np.add(ga, A[n_a:].T @ Aw[n_a:], out=gram[:m, :m])
    gram[:m, m:], gram[m:, :m], gram[m:, m:] = ga[:, :k], ga[:k], ga[:k, :k]
    return gram


def make_design(columns, origin, arm=None) -> DesignMatrix:
    """Assemble a design from columns or column blocks and record what rank repair drops.

    ``arm``, the 0/1 arm-A indicator, marks an interaction design: its
    trailing ("contrast", j) columns are its leading columns times ``arm``.
    """
    matrix = np.column_stack(columns) if columns else np.empty((0, 0))
    arms = ()
    if arm is not None:
        order = np.argsort(-arm, kind="stable")
        arms = (order, int(arm.sum()), matrix[order, : sum(o[0] != "contrast" for o in origin)])
    kept = _kept_columns(_gram(matrix, None, arms))
    dropped = tuple(sorted(set(range(matrix.shape[1])).difference(kept)))
    return DesignMatrix(matrix=matrix, origin=tuple(origin), dropped_columns=dropped, arms=arms)


def _arm_and_adjust_block(data: TrialDataset):
    """The (columns, origin) of [arm-A intercept | arm-B intercept | adjusters]."""
    t = data.treatment.astype(float)
    columns = [t, 1.0 - t, data.x_adjust]
    origin = [("arm_intercept", arm) for arm in "AB"] + [("adjust", j) for j in range(data.p_c)]
    return columns, origin


def _additive_columns(data: TrialDataset):
    """The (columns, origin) of the additive design before rank repair."""
    columns, origin = _arm_and_adjust_block(data)
    return [data.x_candidates] + columns, [("candidate", j) for j in range(data.p)] + origin


def build_additive_design(data: TrialDataset) -> DesignMatrix:
    """Main-effects design: [candidates | arm-A intercept | arm-B intercept | adjusters]."""
    if data.n < data.p + data.p_c + 2:
        raise DataError(f"n={data.n} too small for p={data.p}, p_c={data.p_c}")
    return make_design(*_additive_columns(data))


def build_interaction_design(data: TrialDataset) -> DesignMatrix:
    """The additive design plus the treatment contrast block: [additive | X∘t].

    The candidate block is every candidate of ``data``; to test a screen, pass
    the dataset that ``screening.stage2_dataset`` builds from it.
    """
    k = data.p
    if k == 0:
        raise DataError("empty selection: the interaction design needs K >= 1 candidates")
    if data.n < 2 * k + data.p_c + 2:
        raise DataError(f"n={data.n} too small for K={k} candidates and their contrasts")
    columns, origin = _additive_columns(data)
    t = columns[1]
    return make_design(
        columns + [data.x_candidates * t[:, None]], origin + [("contrast", j) for j in range(k)], t
    )


def fit(design: DesignMatrix, y, family: Family, max_iter=MAX_ITER, start=None) -> GlmFit:
    """Maximize the likelihood by IRLS with step halving, from the columns the design kept.

    The link, the working weights and the working response come from
    ``family``. Both families stop when a step leaves the working weights
    unchanged, as the gaussian-identity step always does (it is the exact
    maximum of the profiled likelihood), or changes the log-likelihood by at
    most LOGLIK_RTOL relative; a step is halved only when it loses more than
    that. The covariance reuses the last step's Gram when the weights did
    not change. A binomial fit starts at ``start``, a coefficient vector of
    the design's width, when given (the gaussian step ignores it); from a
    converged fit it stops after one step. Without one it starts at
    ``family.initial_mu``, which no coefficient vector attains, so its first
    step is taken whole. Perfect separation is reported as an error rather
    than returned as a silently diverged fit.
    """
    X = design.matrix
    y = np.asarray(y, dtype=float)
    n, q = X.shape
    if y.shape != (n,):
        raise DataError("response length does not match the design")
    keep = [k for k in range(q) if k not in design.dropped_columns]  # what rank repair kept
    ix = np.ix_(keep, keep) if design.dropped_columns else np.s_[:, :]
    if n < len(keep):
        raise DataError(f"n={n} < q={len(keep)}: more columns than observations")
    family.check_response(y)

    if start is None or family is GAUSSIAN:
        mu = family.initial_mu(y)
        eta = family.link(mu)
        beta = np.zeros(q)
        ll = None  # no coefficient vector attains initial_mu, so the first step is taken whole
    else:
        beta = np.asarray(start, dtype=float)
        eta = X @ beta
        mu = family.inverse_link(eta)
        ll = family.log_likelihood(y, mu)
    iterations = 0
    w, z = family.working(y, eta, mu)

    for iterations in range(1, max_iter + 1):
        gram = _gram(X, w, design.arms)
        rhs = X.T @ (w * z)
        kept = _kept_columns(gram[ix])
        if len(kept) < len(keep):
            keep = [keep[i] for i in kept]
            ix = np.ix_(keep, keep)
        beta_new = np.zeros(q)
        beta_new[keep] = np.linalg.solve(gram[ix], rhs[keep])

        step = beta_new - beta
        scale = 1.0
        for _ in range(30):
            cand = beta + scale * step
            eta_cand = X @ cand
            mu_cand = family.inverse_link(eta_cand)
            ll_cand = family.log_likelihood(y, mu_cand)
            if ll is None or ll_cand >= ll - LOGLIK_RTOL * (abs(ll) + 1.0) or scale < 1e-8:
                break
            scale *= 0.5
        beta, eta, mu = cand, eta_cand, mu_cand
        w_new, z = family.working(y, eta, mu)
        steady = np.array_equal(w_new, w)
        done = steady or (ll is not None and abs(ll_cand - ll) <= LOGLIK_RTOL * (abs(ll) + 1.0))
        ll, w = ll_cand, w_new
        if done:
            break
    else:
        if float(np.max(np.abs(beta))) > SEPARATION_NORM:
            raise SeparationError(
                "perfect separation suspected: coefficients diverged during IRLS",
                last_coefficients=beta, iterations=iterations,
            )
        raise FitError(
            f"IRLS did not converge in {max_iter} iterations",
            last_coefficients=beta, iterations=iterations,
        )
    if family is not GAUSSIAN:
        # Probability clipping pins the likelihood before the coefficient norm
        # can blow up, so a separated fit surfaces as a saturated, perfectly
        # fitting model rather than a norm > SEPARATION_NORM stall.
        saturated = float(np.max(np.abs(eta))) > 30.0
        if saturated and -2.0 * ll < 1e-6:  # the binomial deviance
            raise SeparationError(
                "perfect separation: every observation fitted at a saturated probability",
                last_coefficients=beta, iterations=iterations,
            )

    if not steady:
        gram = _gram(X, w, design.arms)
    dispersion = family.dispersion(y, mu)
    covariance = np.zeros((q, q))
    if keep:
        try:
            covariance[ix] = dispersion * np.linalg.inv(gram[ix])
        except np.linalg.LinAlgError:
            raise FitError(
                "information matrix is singular at the optimum",
                last_coefficients=beta, iterations=iterations,
            ) from None
    std = np.sqrt(np.clip(np.diag(covariance), 0.0, None))
    return GlmFit(
        coefficients=beta,
        covariance=covariance,
        std_errors=std,
        log_likelihood=ll,
        deviance=family.deviance(y, mu) if family is GAUSSIAN else -2.0 * ll,
        iterations=iterations,
        dropped_columns=tuple(sorted(set(range(q)).difference(keep))),
        origin=design.origin,
    )


def lrt(null_fit: GlmFit, alt_fit: GlmFit, df: int):
    """Likelihood-ratio test of a nested pair: (statistic, upper-tail chi-square p).

    A negative statistic is rounded to zero while it is within what the two
    fits' IRLS stopping rules allow, LOGLIK_RTOL * (|ll| + 1) each.

    df is an integer, so the upper tail at x > 0 is the finite sum of
    Abramowitz & Stegun 26.4.4-5 with h = x/2: sum over i < df//2 of
    exp(-h + a*log(h) - lgamma(a + 1)) with a = i for even df, and
    erfc(sqrt(h)) plus that sum with a = i + 1/2 for odd df.
    """
    if df <= 0:
        raise NestingError(f"non-positive degrees of freedom: {df}")
    ll0, ll1 = null_fit.log_likelihood, alt_fit.log_likelihood
    statistic = 2.0 * (ll1 - ll0)
    if statistic < -2.0 * LOGLIK_RTOL * (abs(ll0) + abs(ll1) + 2.0):
        raise NestingError(
            f"alternative log-likelihood below null by {-statistic / 2:.3g}: models are not nested"
        )
    statistic = max(statistic, 0.0)
    if statistic == 0.0:
        return statistic, 1.0
    h = 0.5 * statistic
    log_h = math.log(h)
    odd = df % 2
    p = math.erfc(math.sqrt(h)) if odd else 0.0
    for i in range(df // 2):
        a = i + 0.5 * odd
        p += math.exp(-h + a * log_h - math.lgamma(a + 1.0))
    return statistic, p


def standardized_arm_difference(interaction_fit: GlmFit, k: int) -> np.ndarray:
    """Per-coordinate (betaA - betaB) / SE: the Wald z of each contrast column.

    Coordinates whose contrast column was dropped by rank repair come back as
    NaN; an exactly zero SE on a retained contrast column is an error.
    """
    keys, cols = interaction_fit.role("contrast")
    degenerate = interaction_fit.std_errors[cols] <= 0.0
    if degenerate.any():
        j = keys[np.argmax(degenerate)]
        raise DegenerateVarianceError(f"zero variance for arm difference at coordinate {j}")
    return interaction_fit.wald_z(k, "contrast")
