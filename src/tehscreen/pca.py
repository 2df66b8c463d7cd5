"""Principal components of a covariate submatrix via singular values.

Centering is always applied; standardization (the screening default) divides
by the n-1 sample standard deviation. Loading columns are ordered by
decreasing score variance and signed so the largest-magnitude element of
each column is positive, which makes results reproducible across runs.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError

DEGENERATE_VARIANCE = 1e-12


@dataclass(frozen=True)
class PcaResult:
    loadings: np.ndarray  # (m, m), orthonormal columns
    score_variances: np.ndarray  # nonincreasing, n-1 denominator
    center: np.ndarray
    scale: np.ndarray  # ones when standardize=False or for constant columns
    scores: np.ndarray  # (n, m) = standardized data @ loadings
    constant_columns: tuple = ()  # warning record: unit scale was substituted
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

    center = x.mean(axis=0)
    z = x - center
    constant = []
    if standardize:
        sd = z.std(axis=0, ddof=1)
        constant = [j for j in range(m) if sd[j] == 0.0]
        scale = np.where(sd > 0.0, sd, 1.0)
        z = z / scale
    else:
        scale = np.ones(m)

    _, s, vt = np.linalg.svd(z, full_matrices=n < m)
    loadings = vt.T  # m x m: full_matrices covers n < m
    variances = np.zeros(m)
    variances[: s.shape[0]] = s**2 / (n - 1)

    # Deterministic sign: largest-magnitude element of each column positive.
    flip = loadings[np.argmax(np.abs(loadings), axis=0), np.arange(m)] < 0
    loadings = loadings * np.where(flip, -1.0, 1.0)

    return PcaResult(
        loadings=loadings,
        score_variances=variances,
        center=center,
        scale=scale,
        scores=z @ loadings,
        constant_columns=tuple(constant),
        degenerate=tuple(j for j in range(m) if variances[j] < DEGENERATE_VARIANCE),
    )


def rank_pcs_by_variance(result: PcaResult):
    """Identity ranking 0..m-1 after re-checking the ordering invariants.

    Loadings arrive variance-ordered from compute_pca; a result that fails
    orthonormality or ordering (e.g. manually shuffled columns) is rejected
    rather than silently re-ranked.
    """
    m = result.m
    gram = result.loadings.T @ result.loadings
    if not np.allclose(gram, np.eye(m), atol=1e-8):
        raise DataError("loadings are not orthonormal")
    v = result.score_variances
    if np.any(v[1:] > v[:-1] + 1e-12):
        raise DataError("score variances are not nonincreasing")
    sample = result.scores.var(axis=0, ddof=1)
    if not np.allclose(sample, v, atol=1e-8 * max(1.0, float(v[0]))):
        raise DataError("score variances do not match the score columns")
    return list(range(m))
