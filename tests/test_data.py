import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abstain_audit.data import (BoxRegion, Dataset, IngestionError,
                                PredicateRegion, gen_gaussian_mixture,
                                gen_regression_synth, gen_tabular, load_csv,
                                region_from_json, region_mask,
                                regression_mean, regression_noise_std,
                                save_csv)


def test_gaussian_class_counts():
    train, test, _ = gen_gaussian_mixture(0)
    y = np.concatenate([train.y, test.y])
    assert [int((y == c).sum()) for c in range(3)] == [1000, 1000, 100]


def test_gaussian_split_sizes():
    train, test, _ = gen_gaussian_mixture(0)
    assert len(test) == 420 and len(train) == 1680


@pytest.mark.parametrize("seed", [0, 1, 7, 28])
def test_gaussian_region_fraction(seed):
    train, test, region = gen_gaussian_mixture(seed)
    X = np.concatenate([train.X, test.X])
    frac = region.contains(X).mean()
    assert 0.053 - 0.015 <= frac <= 0.053 + 0.015


def test_gaussian_deterministic():
    a_train, a_test, _ = gen_gaussian_mixture(5)
    b_train, b_test, _ = gen_gaussian_mixture(5)
    assert np.array_equal(a_train.X, b_train.X)
    assert np.array_equal(a_test.y, b_test.y)


def test_regression_formulas():
    assert regression_mean(0.0) == pytest.approx(1.0)
    assert regression_noise_std(0.0) == pytest.approx(1.0)


def test_regression_noise_zero_mean():
    data, _ = gen_regression_synth(3, 100_000)
    resid = data.y - regression_mean(data.X[:, 0])
    assert abs(resid.mean()) <= 0.02


def test_regression_region():
    _, region = gen_regression_synth(0, 10)
    assert region.bounds == ((0, -3.0, -2.0),)


def test_box_open_intervals():
    box = BoxRegion(((0, 0.0, 1.0),))
    assert not box.contains(np.array([[0.0]]))[0]
    assert not box.contains(np.array([[1.0]]))[0]
    assert box.contains(np.array([[0.5]]))[0]


def test_box_rejects_empty_interval():
    with pytest.raises(ValueError):
        BoxRegion(((0, 1.0, 1.0),))


def test_region_mask_vacuous_conjunction():
    data = Dataset(np.zeros((4, 2)), np.zeros(4, dtype=int))
    assert region_mask(data, PredicateRegion(())).all()


def test_region_mask_matches_box_contains():
    train, _, region = gen_gaussian_mixture(2)
    assert np.array_equal(region_mask(train, region), region.contains(train.X))


def test_region_mask_unknown_column():
    data = Dataset(np.zeros((2, 1)), np.zeros(2, dtype=int))
    with pytest.raises(ValueError, match="nope"):
        region_mask(data, PredicateRegion(({"col": "nope", "eq": 1},)))


def test_region_json_round_trip():
    _, _, region = gen_gaussian_mixture(0)
    assert region_from_json(region.to_json()) == region
    _, _, pred = gen_tabular(0, 100)
    assert region_from_json(pred.to_json()) == pred


def test_csv_round_trip(tmp_path):
    train, _, _ = gen_tabular(4, n=300)
    path = tmp_path / "t.csv"
    save_csv(train, path)
    schema = {"label": "label",
              "categorical": [c.name for c in train.columns if c.kind == "categorical"],
              "continuous": [c.name for c in train.columns if c.kind == "continuous"]}
    back = load_csv(path, schema)
    assert np.array_equal(back.y, train.y)
    # column order differs (schema lists continuous first) and categorical
    # codes are re-assigned in first-seen order: compare decoded labels
    back_cols = {c.name: (i, c) for i, c in enumerate(back.columns)}
    for i, c in enumerate(train.columns):
        j, bc = back_cols[c.name]
        if c.kind == "categorical":
            orig = [c.categories[int(v)] for v in train.X[:, i]]
            got = [bc.categories[int(v)] for v in back.X[:, j]]
            assert got == orig
        else:
            np.testing.assert_allclose(back.X[:, j], train.X[:, i])


def test_csv_empty_file(tmp_path):
    p = tmp_path / "e.csv"
    p.write_text("")
    with pytest.raises(IngestionError):
        load_csv(p, {"label": "y", "continuous": ["x"]})


def test_csv_missing_column(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("a,y\n1,0\n")
    with pytest.raises(IngestionError, match="missing column"):
        load_csv(p, {"label": "y", "continuous": ["b"]})


def test_csv_unparseable_cell(tmp_path):
    p = tmp_path / "u.csv"
    p.write_text("x,y\nfoo,0\n")
    with pytest.raises(IngestionError, match="row 1"):
        load_csv(p, {"label": "y", "continuous": ["x"]})


def test_dataset_rejects_nan():
    with pytest.raises(ValueError):
        Dataset(np.array([[np.nan]]), np.array([0]))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_tabular_planted_region_nonempty(seed):
    train, test, region = gen_tabular(seed, n=600)
    m = region_mask(train, region) | np.zeros(len(train), dtype=bool)
    assert 0 < m.sum() < len(train)
