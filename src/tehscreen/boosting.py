"""Gradient boosting with depth-1 trees and relative-influence ranking.

Stumps are fitted stagewise to the negative-gradient working response
(gaussian: residuals, binomial: y - p). Every stump scans all candidate and
adjustment covariates plus the treatment indicator; split thresholds are the
midpoints between consecutive sorted unique values. A split with k of n
observations on the left reduces the squared error by
    k (n - k) / n * (mean_L - mean_R)^2 = n D_k^2 / (k (n - k)),
D_k the left sum of the centered working response r_c (Friedman 2001, Ann.
Stat. 29(5), eq. 45): one cumulative sum per variable scores its splits, as an
exhaustive SSE search would up to rounding. A tied threshold splits nothing
and scores 0; ties go to the lowest scan index, then the lowest threshold.

The search skips variables that cannot win and still picks the stumps of a
full search bit for bit. A reduction is <r_c, phi>^2 with the unit vector
phi = sqrt(n / (k (n - k))) (1_left - k/n), so by Cauchy-Schwarz the root s_v
of a variable's best reduction moves by at most delta = |change in r_c|_2 per
tree, in any family. Each tree widens an upper and a lower bound on every s_v
by delta, scores only the variables whose upper bound reaches the largest
lower bound less the slack 32 u (n^2 + t sqrt(n)) M (u = 2^-53, t trees so
far, M = max |mean r| + sum of deltas >= every |r_i| so far), and resets their
bounds to the computed s_v. For n >= 10 and to first order in u, the
rounding that could let a skipped variable tie or win is below
18 u (n^2 + t sqrt(n)) M: four computed s_v, each within 4.2 n^2 u M of exact
(3 n^2 u M from the mean, centering and cumulative sum); two sums of deltas,
each computed delta short by at most (n + 2) u delta + 4 sqrt(n) u M; and two
sums of bound updates, each rounding by at most 2 u M.

Relative influence normalizes each candidate's accumulated squared-error
reduction to sum to 100 over the candidate block; improvements on the
treatment indicator or adjusters absorb explanatory power but are never
reported as candidate influence (they are not interaction candidates).
"""

import math
from dataclasses import dataclass

import numpy as np

from .data_model import TrialDataset
from .errors import DataError
from .families import Family

SLACK = 2.0**-48  # 32 u for the unit roundoff u = 2**-53; see the module docstring


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
    rows_searched: int = 0  # (tree, variable) pairs the split search scored


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
    nv, n = x.shape

    order = np.argsort(x, axis=1, kind="stable")
    x_sorted = np.take_along_axis(x, order, axis=1)
    midpoints = 0.5 * (x_sorted[:, 1:] + x_sorted[:, :-1])
    k = np.arange(1, n)
    weight = np.where(x_sorted[:, 1:] > x_sorted[:, :-1], n / (k * (n - k)), 0.0)

    f0 = float(family.link(np.mean(data.y)))
    f = np.full(n, f0)
    stumps = []
    improvements = np.zeros(nv)
    upper, lower = np.full(nv, np.inf), np.zeros(nv)  # bounds on each variable's sqrt(best)
    c_prev, widened, r_max, searched = np.zeros(n), 0.0, 0.0, 0
    # A constant outcome has nothing to split, but its working response is
    # constant only up to rounding, which would score as tiny improvements.
    for t in range(n_trees if np.ptp(data.y) > 0 else 0):
        r = data.y - family.inverse_link(f)
        r_bar = r.sum() / n
        c = r - r_bar
        step = c - c_prev
        delta = math.sqrt(step @ step)  # the first tree's is |r_c|
        upper += delta
        lower -= delta
        widened += delta
        r_max = max(r_max, abs(r_bar) + widened)
        slack = SLACK * (n * n + t * math.sqrt(n)) * r_max
        rows = np.nonzero(~(upper < lower.max() - slack))[0]
        searched += rows.size
        d = np.add.accumulate(c[order[rows]], axis=1)
        imp = d[:, :-1] ** 2
        imp *= weight[rows]
        row_best = imp.max(axis=1)
        upper[rows] = lower[rows] = np.sqrt(row_best)
        i = int(row_best.argmax())
        pos = int(imp[i].argmax())
        best = imp[i, pos]
        if not np.isfinite(best) or best <= 0.0:
            break
        var = int(rows[i])
        stump = Stump(var, float(midpoints[var, pos]), float(r_bar + d[i, pos] / (pos + 1)),
                      float(r_bar - d[i, pos] / (n - pos - 1)), float(best))
        stumps.append(stump)
        improvements[var] += stump.improvement
        go_left = x[var] <= stump.split_value
        f = f + shrinkage * np.where(go_left, stump.left_value, stump.right_value)
        c_prev = c

    cand = improvements[: data.p]
    total_cand = cand.sum()
    ri = 100.0 * cand / total_cand if total_cand > 0 else np.zeros(data.p)
    return BoostModel(
        stumps=tuple(stumps),
        shrinkage=shrinkage,
        initial_value=f0,
        relative_influence=ri,
        rows_searched=searched,
    )


def select_by_influence(model: BoostModel, threshold: float = 1.0):
    """Candidate indices with relative influence above ``threshold``.

    Sorted by descending influence; exact ties break to the lower index.
    """
    ri = model.relative_influence
    chosen = [j for j in range(len(ri)) if ri[j] > threshold]
    return sorted(chosen, key=lambda j: (-ri[j], j))
