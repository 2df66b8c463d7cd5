import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tehscreen as ts
from tehscreen.errors import CsvParseError, DataError, DegenerateDesignError, TehScreenError


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_load_csv_basic(tmp_path):
    f = tmp_path / "trial.csv"
    write_lines(f, ["y,trt,age", "1.5,1,40", "2.0,0,55", "0.5,1,33", "1.0,0,61"])
    d = ts.load_csv(f, "y", "trt", [])
    assert (d.n, d.p, d.p_c) == (4, 1, 0)
    assert d.candidate_names == ("age",)
    assert np.array_equal(d.treatment, [1, 0, 1, 0])


def test_load_csv_adjust_columns(tmp_path):
    f = tmp_path / "trial.csv"
    write_lines(f, ["y,trt,age,site", "1,1,40,0", "2,0,55,1", "3,1,33,0", "4,0,61,1"])
    d = ts.load_csv(f, "y", "trt", ["site"])
    assert (d.p, d.p_c) == (1, 1)
    assert d.adjust_names == ("site",)


def test_load_csv_missing_column(tmp_path):
    f = tmp_path / "trial.csv"
    write_lines(f, ["y,trt", "1,1", "2,0"])
    with pytest.raises(DataError, match="age"):
        ts.load_csv(f, "y", "trt", ["age"])


def test_load_csv_bad_cell_coordinates(tmp_path):
    f = tmp_path / "trial.csv"
    write_lines(f, ["y,trt,age", "1,1,40", "2,0,55", "3,1,oops", "4,0,61"])
    with pytest.raises(CsvParseError, match="row 4.*'age'") as err:
        ts.load_csv(f, "y", "trt", [])
    assert err.value.row == 4 and err.value.column == "age"


def test_load_csv_empty_cell(tmp_path):
    f = tmp_path / "trial.csv"
    write_lines(f, ["y,trt,age", "1,1,", "2,0,55", "3,1,12", "4,0,61"])
    with pytest.raises(CsvParseError, match="row 2"):
        ts.load_csv(f, "y", "trt", [])


def test_load_csv_non_finite_cell(tmp_path):
    f = tmp_path / "trial.csv"
    write_lines(f, ["y,trt,age", "1,1,inf", "2,0,55", "3,1,12", "4,0,61"])
    with pytest.raises(CsvParseError, match="non-finite"):
        ts.load_csv(f, "y", "trt", [])


def test_load_csv_constant_treatment(tmp_path):
    f = tmp_path / "trial.csv"
    write_lines(f, ["y,trt,age", "1,1,40", "2,1,55", "3,1,12", "4,1,61"])
    with pytest.raises(DegenerateDesignError):
        ts.load_csv(f, "y", "trt", [])


@pytest.mark.parametrize("header, twice", [
    ("y,trt,y,age", "y"),  # the outcome named twice
    ("y,trt,age,age", "age"),  # a candidate named twice
])
def test_load_csv_rejects_a_repeated_header_name(tmp_path, header, twice):
    f = tmp_path / "trial.csv"
    write_lines(f, [header, "1,1,40,3", "2,0,55,4", "3,1,33,5", "4,0,61,6"])
    with pytest.raises(DataError, match=f"'{twice}' is named twice"):
        ts.load_csv(f, "y", "trt", [])


def test_load_csv_ignores_a_byte_order_mark(tmp_path):
    f = tmp_path / "trial.csv"
    f.write_bytes(b"\xef\xbb\xbfy,trt,age\n1.5,1,40\n2.0,0,55\n")
    d = ts.load_csv(f, "y", "trt", [])
    assert d.candidate_names == ("age",)
    assert np.array_equal(d.y, [1.5, 2.0])


def test_write_csv_refuses_repeated_column_names(tmp_path):
    d = ts.generate_trial(ts.SyntheticSpec(n=20, p=2, seed=1))
    d = d.with_candidates(d.x_candidates, ("y", "x2"))
    with pytest.raises(DataError, match="repeat"):
        ts.write_csv(d, tmp_path / "trial.csv")
    assert not (tmp_path / "trial.csv").exists()


def test_load_csv_missing_file():
    with pytest.raises(DataError):
        ts.load_csv("/nonexistent/file.csv", "y", "trt", [])


def test_round_trip_bit_for_bit(tmp_path):
    spec = ts.SyntheticSpec(
        n=100, p=4, family=ts.GAUSSIAN, main_effects=(0.3, -1.2, 0.0, 2.5),
        treatment_effect=0.7, adjust_effects=(0.4,), seed=123,
    )
    d = ts.generate_trial(spec)
    f = tmp_path / "round.csv"
    ts.write_csv(d, f)
    back = ts.load_csv(f, "y", "treatment", list(d.adjust_names))
    assert np.array_equal(d.y, back.y)
    assert np.array_equal(d.treatment, back.treatment)
    assert np.array_equal(d.x_candidates, back.x_candidates)
    assert np.array_equal(d.x_adjust, back.x_adjust)
    assert d.candidate_names == back.candidate_names


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64, min_value=-1e300, max_value=1e300),
        min_size=4, max_size=4,
    )
)
def test_round_trip_arbitrary_finite_doubles(tmp_path_factory, values):
    d = ts.TrialDataset(
        y=np.asarray(values),
        treatment=np.array([1, 0, 1, 0]),
        x_candidates=np.asarray(values)[:, None],
        x_adjust=np.empty((4, 0)),
    )
    f = tmp_path_factory.mktemp("csv") / "t.csv"
    ts.write_csv(d, f)
    back = ts.load_csv(f, "y", "treatment", [])
    assert np.array_equal(d.y, back.y)
    assert np.array_equal(d.x_candidates, back.x_candidates)


def test_generate_determinism():
    spec = ts.SyntheticSpec(n=80, p=3, family=ts.BINOMIAL, main_effects=(1, 0, 0), seed=99)
    a, b = ts.generate_trial(spec), ts.generate_trial(spec)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.treatment, b.treatment)
    assert np.array_equal(a.x_candidates, b.x_candidates)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=4, max_value=400), st.integers(min_value=0, max_value=2**32))
def test_generate_arm_balance(n, seed):
    d = ts.generate_trial(ts.SyntheticSpec(n=n, p=1, seed=seed))
    treated = int(d.treatment.sum())
    assert abs(treated - (n - treated)) <= 1


def test_generate_tiny_noise_recovers_slope():
    spec = ts.SyntheticSpec(
        n=200, p=2, family=ts.GAUSSIAN, main_effects=(1.0, 0.0), noise_sd=1e-8, seed=7
    )
    d = ts.generate_trial(spec)
    X = np.column_stack([d.x_candidates, d.treatment, np.ones(d.n)])
    beta, *_ = np.linalg.lstsq(X, d.y, rcond=None)
    assert abs(beta[0] - 1.0) < 1e-4
    assert abs(beta[1]) < 1e-4


def test_generate_binomial_symmetry():
    spec = ts.SyntheticSpec(n=2500, p=2, family=ts.BINOMIAL, seed=11)
    d = ts.generate_trial(spec)
    for arm in (0, 1):
        mean = d.y[d.treatment == arm].mean()
        assert abs(mean - 0.5) < 4 / np.sqrt(d.n)


def test_generate_applies_correlation():
    spec = ts.SyntheticSpec(n=4000, p=3, covariate_correlation=0.5, seed=21)
    d = ts.generate_trial(spec)
    corr = np.corrcoef(d.x_candidates, rowvar=False)
    off = corr[np.triu_indices(3, 1)]
    assert np.all(np.abs(off - 0.5) < 0.05)


def test_generate_interaction_shows_up_in_treated_arm():
    spec = ts.SyntheticSpec(
        n=20000, p=1, main_effects=(0.5,), interaction_effects=(1.0,), noise_sd=0.01, seed=3
    )
    d = ts.generate_trial(spec)
    t, x, y = d.treatment, d.x_candidates[:, 0], d.y
    slope_treated = np.polyfit(x[t == 1], y[t == 1], 1)[0]
    slope_control = np.polyfit(x[t == 0], y[t == 0], 1)[0]
    assert abs(slope_treated - 1.5) < 0.01
    assert abs(slope_control - 0.5) < 0.01


def test_non_positive_definite_correlation_rejected():
    with pytest.raises(DataError, match="positive definite"):
        ts.generate_trial(ts.SyntheticSpec(n=50, p=3, covariate_correlation=-0.9, seed=1))


def test_dataset_invariants():
    with pytest.raises(DataError):
        ts.TrialDataset(
            y=np.array([1.0, np.nan, 0.0, 1.0]),
            treatment=np.array([1, 0, 1, 0]),
            x_candidates=np.zeros((4, 1)),
            x_adjust=np.empty((4, 0)),
        )
    with pytest.raises(DegenerateDesignError):
        ts.TrialDataset(
            y=np.ones(4),
            treatment=np.array([1, 1, 1, 1]),
            x_candidates=np.zeros((4, 1)),
            x_adjust=np.empty((4, 0)),
        )
    with pytest.raises(DataError, match="candidate_names"):
        ts.TrialDataset(
            y=np.ones(4),
            treatment=np.array([1, 0, 1, 0]),
            x_candidates=np.zeros((4, 2)),
            x_adjust=np.empty((4, 0)),
            candidate_names=("only_one",),
        )


def test_dataset_arrays_are_immutable():
    d = ts.generate_trial(ts.SyntheticSpec(n=20, p=2, seed=5))
    with pytest.raises(ValueError):
        d.y[0] = 99.0


def _adjusted_trial():
    return ts.generate_trial(ts.SyntheticSpec(n=20, p=3, adjust_effects=(0.2,), seed=5))


# Each entry replaces one block of a valid trial with a bad one.
_BAD_BLOCKS = {
    "non-finite y": lambda d: {"y": np.where(np.arange(d.n) == 3, np.nan, d.y)},
    "short y": lambda d: {"y": d.y[1:]},
    "non-finite candidates": lambda d: {
        "x_candidates": np.where(np.arange(d.n)[:, None] == 0, np.inf, d.x_candidates),
        "candidate_names": d.candidate_names,
    },
    "short candidates": lambda d: {"x_candidates": d.x_candidates[1:], "candidate_names": ()},
    "wrong-length names": lambda d: {"x_candidates": d.x_candidates, "candidate_names": ("a", "b")},
    "treatment outside {0,1}": lambda d: {"treatment": 2 * d.treatment},
    "constant treatment": lambda d: {"treatment": np.ones(d.n, dtype=int)},
    "short treatment": lambda d: {"treatment": d.treatment[1:]},
}


def _derive(d, blocks):
    if "y" in blocks:
        return d.with_outcome(blocks["y"])
    if "treatment" in blocks:
        return d.with_treatment(blocks["treatment"])
    return d.with_candidates(blocks["x_candidates"], blocks["candidate_names"])


@pytest.mark.parametrize("case", sorted(_BAD_BLOCKS))
def test_derived_dataset_rejects_a_bad_block_like_the_constructor(case):
    d = _adjusted_trial()
    blocks = _BAD_BLOCKS[case](d)
    fields = {f.name: getattr(d, f.name) for f in dataclasses.fields(d)}
    with pytest.raises(TehScreenError) as built:
        ts.TrialDataset(**{**fields, **blocks})
    with pytest.raises(TehScreenError) as derived:
        _derive(d, blocks)
    assert type(derived.value) is type(built.value)
    assert str(derived.value) == str(built.value)


def test_derived_dataset_freezes_its_new_block_and_shares_the_rest():
    d = _adjusted_trial()
    derived = {
        "y": d.with_outcome(d.y + 1.0),
        "treatment": d.with_treatment(1 - d.treatment),
        "x_candidates": d.with_candidates(d.x_candidates[:, :2], ("a", "b")),
    }
    for replaced, e in derived.items():
        for name in ("y", "treatment", "x_candidates", "x_adjust"):
            block = getattr(e, name)
            assert not block.flags.writeable and block.flags.c_contiguous
            assert (block is getattr(d, name)) == (name != replaced)
        assert e.adjust_names is d.adjust_names
    assert derived["x_candidates"].candidate_names == ("a", "b")
    assert derived["y"].candidate_names is d.candidate_names
    assert derived["treatment"].treatment.dtype == d.treatment.dtype
