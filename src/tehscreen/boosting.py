"""Gradient boosting with depth-1 trees and relative-influence ranking.

Stumps are fitted stagewise to the negative-gradient working response
(gaussian: residuals, binomial: y - p). Every stump scans all candidate and
adjustment covariates plus the treatment indicator; split thresholds are the
midpoints between consecutive sorted unique values, so an exhaustive split
search reproduces each stump exactly.

Relative influence normalizes each candidate's accumulated squared-error
reduction to sum to 100 over the candidate block; improvements on the
treatment indicator or adjusters absorb explanatory power but are never
reported as candidate influence (they are not interaction candidates).
"""

from dataclasses import dataclass

import numpy as np

from .data_model import TrialDataset
from .errors import DataError
from .families import BINOMIAL, GAUSSIAN, Family


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
    improvements_all: np.ndarray  # raw per-scan-variable totals (diagnostics)
    variable_names: tuple
    n_candidates: int


def _scan_matrix(data: TrialDataset):
    cols = [data.x_candidates]
    names = list(data.candidate_names)
    if data.p_c:
        cols.append(data.x_adjust)
        names += list(data.adjust_names)
    cols.append(data.treatment.astype(float)[:, None])
    names.append("treatment")
    return np.hstack(cols), tuple(names)


def _best_stump(x_sorted_idx, valid, midpoints, r):
    """Best single split over all variables for working response ``r``.

    Improvement at a split with k left elements is
        S_k^2/k + (T - S_k)^2/(n - k) - T^2/n
    (the squared-error reduction of two means versus one). Ties break to the
    lowest scan index, then the lowest threshold.
    """
    n, nv = x_sorted_idx.shape
    rs = r[x_sorted_idx]  # (n, nv)
    csum = np.cumsum(rs, axis=0)
    total = csum[-1, :]
    k = np.arange(1, n, dtype=float)[:, None]
    left = csum[:-1, :]
    imp = left**2 / k + (total - left) ** 2 / (n - k) - (total**2) / n
    imp = np.where(valid, imp, -np.inf)
    flat = np.argmax(imp.T)  # variable-major: lowest variable, then lowest threshold
    var, pos = divmod(int(flat), n - 1)
    best = imp[pos, var]
    if not np.isfinite(best) or best <= 0.0:
        return None
    k_left = pos + 1
    left_value = csum[pos, var] / k_left
    right_value = (total[var] - csum[pos, var]) / (n - k_left)
    return Stump(
        split_variable=var,
        split_value=float(midpoints[pos, var]),
        left_value=float(left_value),
        right_value=float(right_value),
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

    x, names = _scan_matrix(data)
    y = data.y
    n, nv = x.shape

    sort_idx = np.argsort(x, axis=0, kind="stable")
    x_sorted = np.take_along_axis(x, sort_idx, axis=0)
    valid = x_sorted[1:, :] > x_sorted[:-1, :]
    midpoints = 0.5 * (x_sorted[1:, :] + x_sorted[:-1, :])

    if family is GAUSSIAN:
        f0 = float(np.mean(y))
    elif family is BINOMIAL:
        pbar = float(np.clip(np.mean(y), 1e-10, 1.0 - 1e-10))
        f0 = float(np.log(pbar / (1.0 - pbar)))
    else:
        raise DataError(f"unsupported family {family!r}")

    f = np.full(n, f0)
    stumps = []
    improvements = np.zeros(nv)
    for _ in range(n_trees):
        if family is GAUSSIAN:
            r = y - f
        else:
            r = y - BINOMIAL.inverse_link(f)
        stump = _best_stump(sort_idx, valid, midpoints, r)
        if stump is None:
            break
        stumps.append(stump)
        improvements[stump.split_variable] += stump.improvement
        go_left = x[:, stump.split_variable] <= stump.split_value
        f = f + shrinkage * np.where(go_left, stump.left_value, stump.right_value)

    cand = improvements[: data.p]
    total_cand = cand.sum()
    ri = 100.0 * cand / total_cand if total_cand > 0 else np.zeros(data.p)
    return BoostModel(
        stumps=tuple(stumps),
        shrinkage=shrinkage,
        initial_value=f0,
        relative_influence=ri,
        improvements_all=improvements,
        variable_names=names,
        n_candidates=data.p,
    )


def predict(model: BoostModel, data: TrialDataset):
    """Ensemble prediction on the model's working scale (logit scale for binomial)."""
    x, _ = _scan_matrix(data)
    f = np.full(data.n, model.initial_value)
    for stump in model.stumps:
        go_left = x[:, stump.split_variable] <= stump.split_value
        f = f + model.shrinkage * np.where(go_left, stump.left_value, stump.right_value)
    return f


def select_by_influence(model: BoostModel, threshold: float = 1.0):
    """Candidate indices with relative influence above ``threshold``.

    Sorted by descending influence; exact ties break to the lower index.
    """
    ri = model.relative_influence
    chosen = [j for j in range(model.n_candidates) if ri[j] > threshold]
    return sorted(chosen, key=lambda j: (-ri[j], j))
