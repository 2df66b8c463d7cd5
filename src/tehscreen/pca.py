"""Principal components of a covariate submatrix via singular values.

Centering is always applied; standardization (the screening default) divides
by the n-1 sample standard deviation. Loading columns are ordered by
decreasing score variance and signed so that the first element within
SIGN_RTOL (relative; SVD rounding is orders smaller) of the column's largest
magnitude is positive. Tied magnitudes, such as the 1/sqrt(2) loadings of two
standardized columns, then sign alike whatever the row order or rounding.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError

DEGENERATE_VARIANCE = 1e-12
SIGN_RTOL = 1e-9


@dataclass(frozen=True)
class PcaResult:
    loadings: np.ndarray  # (m, m), orthonormal columns
    score_variances: np.ndarray  # nonincreasing, n-1 denominator
    scale: np.ndarray  # ones when standardize=False or for constant columns
    scores: np.ndarray  # (n, m) = standardized data @ loadings
    degenerate: tuple = ()  # components with score variance < DEGENERATE_VARIANCE

    @property
    def m(self):
        return self.loadings.shape[0]


def compute_pca(x, standardize: bool = True) -> PcaResult:
    """Full PCA of an n x m matrix (all m components retained)."""
    x = np.ascontiguousarray(np.atleast_2d(x), dtype=float)
    n, m = x.shape
    if m == 0:
        raise DataError("PCA input has no columns")
    if n < 2:
        raise DataError("PCA needs at least two rows")

    z = x - x.mean(axis=0)
    if standardize:
        sd = z.std(axis=0, ddof=1)
        scale = np.where(sd > 0.0, sd, 1.0)
        z = z / scale
    else:
        scale = np.ones(m)

    _, s, vt = np.linalg.svd(z, full_matrices=n < m)
    loadings = vt.T  # m x m: full_matrices covers n < m
    variances = np.zeros(m)
    variances[: s.shape[0]] = s**2 / (n - 1)

    size = np.abs(loadings)  # deterministic sign, see the module docstring
    lead = np.argmax(size >= (1.0 - SIGN_RTOL) * size.max(axis=0), axis=0)
    flip = loadings[lead, np.arange(m)] < 0
    loadings = loadings * np.where(flip, -1.0, 1.0)

    return PcaResult(
        loadings=loadings,
        score_variances=variances,
        scale=scale,
        scores=z @ loadings,
        degenerate=tuple(j for j in range(m) if variances[j] < DEGENERATE_VARIANCE),
    )


def rank_pcs_by_variance(result: PcaResult):
    """Identity ranking 0..m-1: compute_pca already orders components by variance."""
    return list(range(result.m))
