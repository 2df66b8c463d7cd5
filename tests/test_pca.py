import numpy as np
import pytest

import tehscreen as ts
from tehscreen.errors import DataError

from _oracles import align_signs, pca_via_eigh


def test_collinear_points_give_diagonal_loading():
    s = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    x = np.column_stack([s, s])  # points on the line y = x
    res = ts.compute_pca(x, standardize=True)
    assert np.allclose(res.loadings[:, 0], [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-10)
    assert res.score_variances[1] == pytest.approx(0.0, abs=1e-10)


def test_axis_aligned_variances_and_identity_loadings():
    # Orthogonal centered columns with exact sample variances (4, 1).
    col0 = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * np.sqrt(1.6)
    col1 = np.array([2.0, -1.0, -2.0, -1.0, 2.0]) * np.sqrt(2.0 / 7.0)
    res = ts.compute_pca(np.column_stack([col0, col1]), standardize=False)
    assert np.allclose(res.loadings, np.eye(2), atol=1e-8)
    assert np.allclose(res.score_variances, [4.0, 1.0], atol=1e-8)


def test_matches_eigendecomposition_oracle():
    rng = np.random.default_rng(23)
    x = rng.standard_normal((8, 3)) * np.array([2.0, 1.0, 0.5])
    res = ts.compute_pca(x, standardize=True)
    vectors, values = pca_via_eigh(x, standardize=True)
    assert np.allclose(res.score_variances, values, atol=1e-8)
    assert np.allclose(res.loadings, align_signs(res.loadings, vectors), atol=1e-8)


@pytest.mark.parametrize("n,m,standardize", [(40, 5, True), (40, 5, False), (4, 6, True)])
def test_reconstruction_and_total_variance(n, m, standardize):
    rng = np.random.default_rng(n + m)
    x = rng.standard_normal((n, m)) @ rng.standard_normal((m, m))
    res = ts.compute_pca(x, standardize=standardize)
    z = (x - x.mean(axis=0)) / res.scale
    assert np.allclose(res.scores @ res.loadings.T, z, atol=1e-8)
    assert np.sum(res.score_variances) == pytest.approx(
        np.sum(z.var(axis=0, ddof=1)), abs=1e-8
    )
    assert np.allclose(res.loadings.T @ res.loadings, np.eye(m), atol=1e-8)


def test_sign_convention_and_repeatability():
    rng = np.random.default_rng(77)
    x = rng.standard_normal((30, 4))
    a = ts.compute_pca(x)
    b = ts.compute_pca(x)
    assert np.array_equal(a.loadings, b.loadings)
    assert np.array_equal(a.scores, b.scores)
    peak = np.abs(a.loadings).argmax(axis=0)
    assert np.all(a.loadings[peak, np.arange(4)] > 0)


def test_tied_loading_magnitudes_sign_the_same_under_a_row_permutation():
    # Two standardized columns: every loading is +-1/sqrt(2) in exact
    # arithmetic, so only the tie rule, not rounding, may pick the sign.
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((500, 2))
        a = ts.compute_pca(x)
        b = ts.compute_pca(x[rng.permutation(500)])
        assert np.all(a.loadings[0] > 0) and np.all(b.loadings[0] > 0), seed
        assert np.allclose(a.loadings, b.loadings, rtol=0.0, atol=1e-12), seed


def test_rank_identity_and_singleton():
    rng = np.random.default_rng(3)
    res = ts.compute_pca(rng.standard_normal((20, 4)))
    assert ts.rank_pcs_by_variance(res) == [0, 1, 2, 3]
    single = ts.compute_pca(rng.standard_normal((10, 1)))
    assert ts.rank_pcs_by_variance(single) == [0]


def test_constant_column_warning_record():
    x = np.column_stack([np.ones(10), np.arange(10.0)])
    res = ts.compute_pca(x, standardize=True)
    assert res.scale[0] == 1.0


def test_degenerate_components_flagged():
    s = np.arange(6.0)
    x = np.column_stack([s, 2 * s])  # rank one
    res = ts.compute_pca(x, standardize=False)
    assert 1 in res.degenerate


def test_empty_and_tiny_inputs_rejected():
    with pytest.raises(DataError):
        ts.compute_pca(np.empty((5, 0)))
    with pytest.raises(DataError):
        ts.compute_pca(np.ones((1, 3)))


@pytest.mark.parametrize("standardize", [True, False])
def test_memory_layout_does_not_change_a_bit(standardize):
    # Column-indexing gives a Fortran-ordered block; the centering and scaling
    # must reduce in the same order as for the C-ordered copy of the values.
    rng = np.random.default_rng(29)
    x = rng.standard_normal((123, 7)) * np.linspace(0.3, 3.0, 7) + 10.0
    c = np.ascontiguousarray(x[:, [6, 1, 4, 0]])
    f = np.asfortranarray(c)
    assert f.flags.f_contiguous and not f.flags.c_contiguous
    a = ts.compute_pca(c, standardize=standardize)
    b = ts.compute_pca(f, standardize=standardize)
    assert np.array_equal(a.loadings, b.loadings)
    assert np.array_equal(a.score_variances, b.score_variances)
    assert np.array_equal(a.scores, b.scores)
    assert np.array_equal(a.scale, b.scale)
