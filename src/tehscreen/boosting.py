"""Gradient boosting with depth-1 trees and relative-influence ranking.

Stumps are fitted stagewise to the negative-gradient working response
(gaussian: residuals, binomial: y - p). Every stump scans all candidate and
adjustment covariates plus the treatment indicator; split thresholds are the
midpoints between consecutive sorted unique values. A split with k of n
observations on the left reduces the squared error by
    k (n - k) / n * (mean_L - mean_R)^2 = n D_k^2 / (k (n - k)),
D_k the left sum of the centered working response (Friedman 2001, Ann. Stat.
29(5), eq. 45), so one cumulative sum per tree scores every split. This
differs from the SSE reduction of an exhaustive search only by rounding: the
chosen split can differ only where the two best improvements are within
1e-12 relative of each other.

Relative influence normalizes each candidate's accumulated squared-error
reduction to sum to 100 over the candidate block; improvements on the
treatment indicator or adjusters absorb explanatory power but are never
reported as candidate influence (they are not interaction candidates).
"""

from dataclasses import dataclass

import numpy as np

from .data_model import TrialDataset
from .errors import DataError
from .families import Family


@dataclass(frozen=True)
class Stump:
    split_variable: int  # scan index: candidates, then adjusters, then treatment
    split_value: float
    left_value: float  # mean working response where x <= split_value (pre-shrinkage)
    right_value: float
    improvement: float


@dataclass(frozen=True)
class BoostModel:
    stumps: tuple
    shrinkage: float
    initial_value: float
    relative_influence: np.ndarray  # length p over candidates, sums to 100 or all zero


def _best_stump(order, penalty, midpoints, weight, r, d):
    """Best single split over all variables for working response ``r``.

    ``order``, ``penalty`` and ``midpoints`` hold one row per scan variable
    and ``d`` is an (nv, n) buffer. With D_k the sum of r - r_bar over the k
    rows with the smallest values of a variable, the squared-error reduction
    of the split after them is D_k^2 * weight[k - 1], weight = n / (k (n - k)).
    ``penalty`` is -inf at tied thresholds. Ties break to the lowest scan
    index, then the lowest threshold.
    """
    n = order.shape[1]
    r_bar = r.sum() / n
    np.cumsum((r - r_bar)[order], axis=1, out=d)
    imp = d[:, :-1] ** 2
    imp *= weight
    imp += penalty
    var, pos = divmod(int(imp.argmax()), n - 1)
    best = imp[var, pos]
    if not np.isfinite(best) or best <= 0.0:
        return None
    k_left = pos + 1
    return Stump(
        split_variable=var,
        split_value=float(midpoints[var, pos]),
        left_value=float(r_bar + d[var, pos] / k_left),
        right_value=float(r_bar - d[var, pos] / (n - k_left)),
        improvement=float(best),
    )


def fit_boost(
    data: TrialDataset,
    family: Family,
    n_trees: int = 500,
    shrinkage: float = 0.05,
) -> BoostModel:
    """Fit the stump ensemble and its candidate relative influences."""
    if data.n < 10:
        raise DataError(f"boosting needs n >= 10, got n={data.n}")
    if n_trees < 1:
        raise DataError("n_trees must be >= 1")
    if not 0.0 < shrinkage <= 1.0:
        raise DataError("shrinkage must be in (0, 1]")

    # One contiguous row per scan variable: candidates, adjusters, then treatment.
    x = np.vstack([data.x_candidates.T, data.x_adjust.T, data.treatment[None, :]])
    y = data.y
    nv, n = x.shape

    order = np.argsort(x, axis=1, kind="stable")
    x_sorted = np.take_along_axis(x, order, axis=1)
    penalty = np.where(x_sorted[:, 1:] > x_sorted[:, :-1], 0.0, -np.inf)
    midpoints = 0.5 * (x_sorted[:, 1:] + x_sorted[:, :-1])
    k = np.arange(1, n)
    weight = n / (k * (n - k))
    d = np.empty((nv, n))

    f0 = float(family.link(np.mean(y)))
    f = np.full(n, f0)
    stumps = []
    improvements = np.zeros(nv)
    # A constant outcome has nothing to split, but its working response is
    # constant only up to rounding, which would score as tiny improvements.
    for _ in range(n_trees if np.ptp(y) > 0 else 0):
        r = y - family.inverse_link(f)
        stump = _best_stump(order, penalty, midpoints, weight, r, d)
        if stump is None:
            break
        stumps.append(stump)
        improvements[stump.split_variable] += stump.improvement
        go_left = x[stump.split_variable] <= stump.split_value
        f = f + shrinkage * np.where(go_left, stump.left_value, stump.right_value)

    cand = improvements[: data.p]
    total_cand = cand.sum()
    ri = 100.0 * cand / total_cand if total_cand > 0 else np.zeros(data.p)
    return BoostModel(
        stumps=tuple(stumps),
        shrinkage=shrinkage,
        initial_value=f0,
        relative_influence=ri,
    )


def select_by_influence(model: BoostModel, threshold: float = 1.0):
    """Candidate indices with relative influence above ``threshold``.

    Sorted by descending influence; exact ties break to the lower index.
    """
    ri = model.relative_influence
    chosen = [j for j in range(len(ri)) if ri[j] > threshold]
    return sorted(chosen, key=lambda j: (-ri[j], j))
