import dataclasses
import json
import pathlib

import numpy as np
import pytest

import tehscreen as ts
from tehscreen.boosting import BoostModel
from tehscreen.errors import DataError

from _oracles import boost_predict, boost_unpruned, exhaustive_best_stump, exhaustive_splits


def dataset_from_columns(y, t, columns, adjust=None):
    n = len(y)
    return ts.TrialDataset(
        y=np.asarray(y, dtype=float),
        treatment=np.asarray(t, dtype=int),
        x_candidates=np.column_stack(columns),
        x_adjust=np.asarray(adjust, dtype=float) if adjust is not None else np.empty((n, 0)),
    )


def test_single_separating_covariate_takes_all_influence():
    x = np.array([-3.0, -2.0, -1.0, -0.5, -0.1, 0.1, 0.5, 1.0, 2.0, 3.0])
    y = (x > 0).astype(float)
    t = np.array([1, 0, 1, 0, 1, 0, 1, 0, 1, 0])
    d = dataset_from_columns(y, t, [x])
    model = ts.fit_boost(d, ts.BINOMIAL, n_trees=1, shrinkage=1.0)
    assert np.allclose(model.relative_influence, [100.0])
    assert model.stumps[0].split_variable == 0


def test_noise_influence_below_signal_influence():
    wins = 0
    seeds = 100
    for r in range(seeds):
        spec = ts.SyntheticSpec(
            n=500, p=2, family=ts.GAUSSIAN, main_effects=(1.0, 0.0),
            treatment_effect=0.3, seed=ts.derive_seed(31, r),
        )
        d = ts.generate_trial(spec)
        model = ts.fit_boost(d, ts.GAUSSIAN, n_trees=60, shrinkage=0.1)
        if model.relative_influence[1] < model.relative_influence[0]:
            wins += 1
    assert wins >= 95


def test_first_stump_matches_exhaustive_search():
    x = np.array([3.0, 1.0, 4.0, 1.5, 5.0, 2.0, 13.0, 11.0, 14.0, 11.5])
    w = np.array([0.3, -2.0, 1.1, 0.0, 2.2, -0.7, 0.9, -1.4, 0.6, 1.8])
    t = np.array([1, 0, 1, 0, 1, 0, 1, 0, 1, 0])
    y = np.array([2.0, -1.0, 3.0, 0.5, 4.0, -0.5, 2.5, -1.5, 3.5, 0.25])
    data = dataset_from_columns(y, t, [x, w])
    model = ts.fit_boost(data, ts.GAUSSIAN, n_trees=1, shrinkage=1.0)
    r = data.y - data.y.mean()
    oracle = exhaustive_best_stump(
        [data.x_candidates[:, 0], data.x_candidates[:, 1], data.treatment.astype(float)], r
    )
    stump = model.stumps[0]
    assert stump.split_variable == oracle[0]
    assert stump.split_value == oracle[1]
    assert stump.left_value == pytest.approx(oracle[2], abs=1e-12)
    assert stump.right_value == pytest.approx(oracle[3], abs=1e-12)
    assert stump.improvement == pytest.approx(oracle[4], abs=1e-12)


def test_first_stump_exact_on_dyadic_data():
    # Values chosen so every mean and SSE is an exact dyadic rational: the
    # fitted stump and the exhaustive oracle must agree bit for bit. The best
    # split is x <= 8.5 with improvement exactly 1.5625.
    x = np.arange(1.0, 17.0)
    y = np.array([0, 0, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1, 1, 1, 1, 1], dtype=float)
    t = np.array([0, 1] * 8)
    d = dataset_from_columns(y, t, [x])
    model = ts.fit_boost(d, ts.GAUSSIAN, n_trees=1, shrinkage=1.0)
    r = y - y.mean()
    oracle = exhaustive_best_stump([x, t.astype(float)], r)
    stump = model.stumps[0]
    assert (stump.split_variable, stump.split_value) == (oracle[0], oracle[1])
    assert stump.split_value == 8.5
    assert stump.left_value == oracle[2]
    assert stump.right_value == oracle[3]
    assert stump.improvement == oracle[4] == 1.5625


NEAR_TIE_RTOL = 1e-12


@pytest.mark.parametrize("family", [ts.GAUSSIAN, ts.BINOMIAL], ids=["gaussian", "binomial"])
@pytest.mark.parametrize("seed", range(4))
def test_every_stump_of_a_sequence_matches_exhaustive_search(family, seed):
    # The search ranks splits by n D_k^2 / (k (n - k)) on the centered working
    # response, which equals the oracle's SSE reduction up to rounding. A
    # stump may pick another split only where the oracle's top two
    # improvements are within NEAR_TIE_RTOL of each other; its improvement
    # always matches within NEAR_TIE_RTOL x SSE(parent).
    spec = ts.SyntheticSpec(
        n=60, p=3, family=family, main_effects=(0.8, 0.4, 0.0), treatment_effect=0.3,
        seed=ts.derive_seed(41, seed),
    )
    d = ts.generate_trial(spec)
    model = ts.fit_boost(d, family, n_trees=25, shrinkage=0.1)
    assert len(model.stumps) == 25
    columns = [*d.x_candidates.T, d.treatment.astype(float)]
    f = np.full(d.n, model.initial_value)
    for stump in model.stumps:
        mu = f if family is ts.GAUSSIAN else 1.0 / (1.0 + np.exp(-f))
        r = d.y - mu
        sse_parent = float(np.sum((r - np.sum(r) / d.n) ** 2))
        top = sorted((s[4] for s in exhaustive_splits(columns, r)), reverse=True)[:2]
        oracle = exhaustive_best_stump(columns, r)
        if top[0] - top[1] > NEAR_TIE_RTOL * abs(top[0]):
            assert (stump.split_variable, stump.split_value) == (oracle[0], oracle[1])
            assert stump.left_value == pytest.approx(oracle[2], rel=1e-12, abs=1e-14)
            assert stump.right_value == pytest.approx(oracle[3], rel=1e-12, abs=1e-14)
        assert abs(stump.improvement - oracle[4]) <= NEAR_TIE_RTOL * sse_parent
        x = columns[stump.split_variable]
        f = f + model.shrinkage * np.where(x <= stump.split_value, stump.left_value, stump.right_value)


def _search_trial(family, n, seed, variant):
    spec = ts.SyntheticSpec(
        n=n, p=6, family=family, main_effects=(0.8, 0.5, 0.3, 0.0, 0.0, 0.0), treatment_effect=0.4,
        interaction_effects=(0.4, 0.0, 0.0, 0.0, 0.0, 0.0),
        adjust_effects=(0.6, -0.3) if variant == "adjusters" else (), seed=ts.derive_seed(61, seed),
    )
    d = ts.generate_trial(spec)
    x = d.x_candidates.copy()
    if variant == "tied":
        x = np.round(2.0 * x) / 2.0  # half-unit grid: most thresholds tie
    elif variant == "constant-and-duplicate":
        x[:, 3] = 1.5
        x[:, 4] = x[:, 0]
    return d.with_candidates(x, d.candidate_names)


@pytest.mark.parametrize("variant", ["plain", "adjusters", "tied", "constant-and-duplicate"])
@pytest.mark.parametrize("n", [12, 60, 400])
@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("family", [ts.GAUSSIAN, ts.BINOMIAL], ids=["gaussian", "binomial"])
def test_pruned_search_picks_the_full_searchs_stumps_bit_for_bit(family, seed, n, variant):
    d = _search_trial(family, n, seed, variant)
    model = ts.fit_boost(d, family, n_trees=150, shrinkage=0.05)
    stumps, influence = boost_unpruned(d, family, n_trees=150, shrinkage=0.05)
    assert [(s.split_variable, s.split_value, s.left_value, s.right_value, s.improvement)
            for s in model.stumps] == stumps
    assert model.relative_influence.tobytes() == influence.tobytes()
    if n == 400:  # some (tree, variable) rows were skipped
        assert model.rows_searched < (d.p + d.p_c + 1) * len(stumps)


@pytest.mark.parametrize("family, share", [(ts.GAUSSIAN, 0.5), (ts.BINOMIAL, 0.3)],
                         ids=["gaussian", "binomial"])
def test_pruned_search_skips_most_rows_on_the_power_gain_spec(family, share):
    # The spec of scenarios/power_gain.json (n = 400, p = 20) with its 150
    # trees. With every row searched the share is 1; the bound searched
    # 36% of the rows (gaussian) and 16% (binomial) on these trials.
    scenario = json.loads((pathlib.Path(__file__).parents[1] / "scenarios" / "power_gain.json").read_text())
    spec = ts.SyntheticSpec(
        n=400, p=20, family=family, main_effects=tuple(scenario["spec"]["main_effects"]),
        interaction_effects=tuple(scenario["spec"]["interaction_effects"]), treatment_effect=0.3,
    )
    rows = least = full = 0
    for r in range(10):
        d = ts.generate_trial(dataclasses.replace(spec, seed=ts.derive_seed(902, r)))
        model = ts.fit_boost(d, family, n_trees=150, shrinkage=0.05)
        rows += model.rows_searched
        least += d.p + d.p_c + len(model.stumps)  # every row at the first tree, then the winner's
        full += (d.p + d.p_c + 1) * 150
    assert least <= rows <= share * full


def test_duplicate_candidate_loses_every_split_to_its_lower_index_twin():
    rng = np.random.default_rng(11)
    n = 80
    t = np.array([1, 0] * (n // 2))
    signal = rng.standard_normal(n)
    y = signal + 0.5 * rng.standard_normal(n)
    d = dataset_from_columns(y, t, [rng.standard_normal(n), signal, signal.copy()])
    model = ts.fit_boost(d, ts.GAUSSIAN, n_trees=60, shrinkage=0.1)
    used = {s.split_variable for s in model.stumps}
    assert 1 in used and 2 not in used
    assert model.relative_influence[1] > 0.0
    assert model.relative_influence[2] == 0.0


def test_constant_candidate_never_splits():
    rng = np.random.default_rng(12)
    n = 60
    t = np.array([1, 0] * (n // 2))
    d = dataset_from_columns(rng.standard_normal(n), t, [np.full(n, 2.5), rng.standard_normal(n)])
    model = ts.fit_boost(d, ts.GAUSSIAN, n_trees=100, shrinkage=0.1)
    assert len(model.stumps) == 100
    assert all(s.split_variable != 0 for s in model.stumps)
    assert model.relative_influence[0] == 0.0


@pytest.mark.parametrize("family", [ts.GAUSSIAN, ts.BINOMIAL], ids=["gaussian", "binomial"])
@pytest.mark.parametrize("value", [1.0, 0.0])
def test_constant_outcome_fits_no_stumps(family, value):
    # At y = 0 the binomial working response -expit(f0) is constant only up
    # to rounding, which the split search would score as tiny improvements.
    rng = np.random.default_rng(13)
    n = 41
    t = np.array([1, 0] * 21)[:n]
    d = dataset_from_columns(np.full(n, value), t, [rng.standard_normal(n), rng.standard_normal(n)])
    model = ts.fit_boost(d, family, n_trees=20, shrinkage=0.1)
    assert model.stumps == ()
    assert np.array_equal(model.relative_influence, np.zeros(2))
    assert ts.select_by_influence(model, 0.0) == []


def test_select_by_influence_threshold_rule():
    model = BoostModel(
        stumps=(), shrinkage=0.1, initial_value=0.0,
        relative_influence=np.array([60.0, 39.0, 1.0, 0.0]),
    )
    assert ts.select_by_influence(model, 1.0) == [0, 1]
    zero = BoostModel(
        stumps=(), shrinkage=0.1, initial_value=0.0,
        relative_influence=np.zeros(4),
    )
    assert ts.select_by_influence(zero, 0.0) == []


def test_selection_recovers_true_support():
    true = {0, 1, 2}
    hits = 0
    seeds = 100
    for r in range(seeds):
        spec = ts.SyntheticSpec(
            n=1000, p=10, family=ts.GAUSSIAN,
            main_effects=(1.0, 0.8, 0.6, 0, 0, 0, 0, 0, 0, 0),
            treatment_effect=0.3, seed=ts.derive_seed(57, r),
        )
        d = ts.generate_trial(spec)
        model = ts.fit_boost(d, ts.GAUSSIAN, n_trees=150, shrinkage=0.1)
        if true.issubset(set(ts.select_by_influence(model, 1.0))):
            hits += 1
    assert hits >= 90


def test_influence_invariant_to_monotone_rescaling():
    spec = ts.SyntheticSpec(
        n=200, p=3, family=ts.GAUSSIAN, main_effects=(0.8, 0.5, 0.0),
        treatment_effect=0.4, seed=5,
    )
    d = ts.generate_trial(spec)
    rescaled = d.with_candidates(
        d.x_candidates * np.array([2.0, 1.0, 1.0]) + np.array([5.0, 0.0, 0.0]),
        d.candidate_names,
    )
    a = ts.fit_boost(d, ts.GAUSSIAN, n_trees=80, shrinkage=0.1)
    b = ts.fit_boost(rescaled, ts.GAUSSIAN, n_trees=80, shrinkage=0.1)
    assert np.array_equal(a.relative_influence, b.relative_influence)


def test_one_tree_full_shrinkage_prediction_is_best_stump_fit():
    spec = ts.SyntheticSpec(n=100, p=2, main_effects=(1.0, 0.0), seed=8)
    d = ts.generate_trial(spec)
    model = ts.fit_boost(d, ts.GAUSSIAN, n_trees=1, shrinkage=1.0)
    stump = model.stumps[0]
    columns = [*d.x_candidates.T, d.treatment.astype(float)]
    x = columns[stump.split_variable]
    expected = d.y.mean() + np.where(x <= stump.split_value, stump.left_value, stump.right_value)
    assert np.allclose(boost_predict(model, columns), expected)


def test_insufficient_data_rejected():
    d = dataset_from_columns(
        np.arange(6.0), [1, 0, 1, 0, 1, 0], [np.arange(6.0)]
    )
    with pytest.raises(DataError, match="n >= 10"):
        ts.fit_boost(d, ts.GAUSSIAN, n_trees=5)


def test_treatment_splits_never_reported_as_candidate_influence():
    # Outcome driven almost entirely by the arm: stumps split on treatment,
    # candidate influence must not absorb it.
    rng = np.random.default_rng(2)
    n = 200
    t = np.array([1, 0] * (n // 2))
    y = 3.0 * t + 0.01 * rng.standard_normal(n)
    d = dataset_from_columns(y, t, [rng.standard_normal(n)])
    model = ts.fit_boost(d, ts.GAUSSIAN, n_trees=30, shrinkage=0.5)
    treatment_scan_index = d.p + d.p_c  # scan order: candidates, adjusters, treatment
    assert sum(s.improvement for s in model.stumps if s.split_variable == treatment_scan_index) > 0
    assert model.relative_influence.sum() == pytest.approx(100.0, abs=1e-9) or np.all(
        model.relative_influence == 0.0
    )
