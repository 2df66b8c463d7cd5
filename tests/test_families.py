"""The family methods reproduce, bit for bit, the arithmetic they replaced."""

import numpy as np
import pytest

import tehscreen as ts

from _oracles import inline_boost_initial_value, inline_link, inline_outcome_draw, inline_working

FAMILIES = [(ts.GAUSSIAN, False), (ts.BINOMIAL, True)]
IDS = ["gaussian", "binomial"]


def _means(rng):
    """Means in (0, 1), the IRLS start values, and both ends where the clip engages."""
    return np.concatenate([rng.uniform(0.0, 1.0, 200), [0.25, 0.75, 0.0, 1.0, 1e-12, 1.0 - 1e-12]])


@pytest.mark.parametrize("family, binomial", FAMILIES, ids=IDS)
def test_link_matches_inline_formula(family, binomial):
    mu = _means(np.random.default_rng(1))
    assert np.array_equal(family.link(mu), inline_link(binomial, mu))
    for scalar in (np.float64(0.0), np.float64(1.0), np.float64(0.3)):  # boosting passes a scalar
        assert family.link(scalar) == inline_link(binomial, scalar)
    if binomial:
        assert np.all(np.isfinite(family.link(np.array([0.0, 1.0]))))


@pytest.mark.parametrize("family, binomial", FAMILIES, ids=IDS)
def test_working_matches_inline_formula(family, binomial):
    rng = np.random.default_rng(2)
    mu = _means(rng)
    y = (rng.uniform(size=mu.shape[0]) < 0.5).astype(float)
    eta = inline_link(binomial, mu)
    w, z = family.working(y, eta, mu)
    w_old, z_old = inline_working(binomial, y, eta, mu)
    assert np.array_equal(w, w_old)
    assert np.array_equal(z, z_old)
    assert np.all(w > 0) and np.all(np.isfinite(z))


@pytest.mark.parametrize("family, binomial", FAMILIES, ids=IDS)
def test_sample_draws_what_the_inline_branch_drew(family, binomial):
    eta = np.random.default_rng(3).normal(0.0, 2.0, 500)
    eta[:2] = (-800.0, 800.0)
    rng_new, rng_old = np.random.default_rng(44), np.random.default_rng(44)
    for scale in (1.0, 0.37):
        assert np.array_equal(family.sample(eta, scale, rng_new),
                              inline_outcome_draw(binomial, eta, scale, rng_old))
    # both generators advanced by the same draws
    assert rng_new.integers(2**62) == rng_old.integers(2**62)


@pytest.mark.parametrize("family, binomial", FAMILIES, ids=IDS)
@pytest.mark.parametrize("outcome", ["zeros", "ones", "mixed"])
def test_boost_initial_value_matches_inline_formula(family, binomial, outcome):
    d = ts.generate_trial(ts.SyntheticSpec(n=40, p=2, family=ts.BINOMIAL, main_effects=(1.0, 0.0),
                                           seed=5))
    y = {"zeros": np.zeros(d.n), "ones": np.ones(d.n), "mixed": d.y}[outcome]
    model = ts.fit_boost(d.derive(y=y), family, n_trees=3, shrinkage=0.1)
    assert model.initial_value == inline_boost_initial_value(binomial, y)
    assert np.isfinite(model.initial_value)
