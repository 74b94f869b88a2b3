import numpy as np
import pytest
from hypothesis import given, strategies as st

from gradecast.errors import ConfigError
from gradecast.features import FeatureMatrix
from gradecast.labeling import (
    PerformanceCategory,
    SplitSpec,
    categorize,
    categorize_all,
    split,
)

PP, SP, GP = PerformanceCategory.PP, PerformanceCategory.SP, PerformanceCategory.GP


def test_categorize_reference_points():
    assert categorize(32) is PP
    assert categorize(109) is GP


def test_categorize_boundaries_inclusive_to_sp():
    assert categorize(50) is SP
    assert categorize(80) is SP
    assert categorize(49.999) is PP
    assert categorize(80.001) is GP


def test_categorize_rejects_negative():
    with pytest.raises(ValueError):
        categorize(-1)


@given(st.floats(min_value=0, max_value=500, allow_nan=False))
def test_categorize_is_total_and_consistent(grade):
    cat = categorize(grade)
    if grade > 80:
        assert cat is GP
    elif grade < 50:
        assert cat is PP
    else:
        assert cat is SP


def labelled_matrix(labels):
    n = len(labels)
    values = np.arange(n, dtype=float).reshape(-1, 1)
    return FeatureMatrix(
        [f"s{i}" for i in range(n)],
        ["x"],
        values,
        np.array(labels, dtype=object),
        "category",
    )


def test_split_sizes_and_partition():
    m = labelled_matrix([PP] * 2 + [SP] * 4 + [GP] * 4)
    train, test = split(m, SplitSpec(0.8, seed=3))
    assert train.n_rows == 8
    assert test.n_rows == 2
    assert sorted(train.student_ids + test.student_ids) == sorted(m.student_ids)
    assert not set(train.student_ids) & set(test.student_ids)


def test_split_is_deterministic_per_seed():
    m = labelled_matrix([PP] * 3 + [SP] * 10 + [GP] * 7)
    a1, b1 = split(m, SplitSpec(0.8, seed=42))
    a2, b2 = split(m, SplitSpec(0.8, seed=42))
    assert a1.student_ids == a2.student_ids
    assert b1.student_ids == b2.student_ids
    a3, _ = split(m, SplitSpec(0.8, seed=43))
    assert a3.student_ids != a1.student_ids


def test_stratified_split_counts_minority_exactly():
    # 100 rows with 10 PP: expect 8 PP in train, 2 in test
    m = labelled_matrix([PP] * 10 + [SP] * 50 + [GP] * 40)
    train, test = split(m, SplitSpec(0.8, seed=0))
    train_pp = sum(1 for t in train.target if t is PP)
    test_pp = sum(1 for t in test.target if t is PP)
    assert (train_pp, test_pp) == (8, 2)
    assert train.n_rows == 80


def test_stratified_split_within_one_of_fraction():
    m = labelled_matrix([PP] * 7 + [SP] * 13 + [GP] * 23)
    train, _ = split(m, SplitSpec(0.8, seed=9))
    for cat, total in ((PP, 7), (SP, 13), (GP, 23)):
        got = sum(1 for t in train.target if t is cat)
        assert abs(got - 0.8 * total) <= 1.0


def test_split_with_numeric_target_stratifies_by_category():
    grades = [30.0] * 5 + [65.0] * 10 + [95.0] * 10
    values = np.arange(25, dtype=float).reshape(-1, 1)
    m = FeatureMatrix([f"s{i}" for i in range(25)], ["x"], values, np.array(grades), "midterm")
    train, test = split(m, SplitSpec(0.8, seed=5))
    assert train.n_rows == 20
    train_pp = sum(1 for g in train.target if g < 50)
    assert train_pp == 4  # 5 * 0.8


def test_unstratified_split_allowed():
    m = labelled_matrix([PP] * 2 + [SP] * 8)
    train, test = split(m, SplitSpec(0.8, seed=2, stratified=False))
    assert train.n_rows == 8 and test.n_rows == 2


def test_split_requires_target():
    m = labelled_matrix([PP] * 4)
    m.target = None
    with pytest.raises(ConfigError):
        split(m, SplitSpec(0.8, seed=1))


def test_split_spec_validates_fraction():
    with pytest.raises(ConfigError):
        SplitSpec(train_fraction=1.0)
    with pytest.raises(ConfigError):
        SplitSpec(train_fraction=0.0)


def test_categorize_all_matches_scalar():
    grades = [0.0, 49.9, 50.0, 80.0, 80.1, 110.0]
    assert categorize_all(grades).tolist() == [PP, PP, SP, SP, GP, GP]


@pytest.mark.parametrize("stratified", [True, False])
def test_split_rounds_half_train_rows_up(stratified):
    m = labelled_matrix([PP, PP, SP, SP, GP])
    train, test = split(m, SplitSpec(0.5, seed=1, stratified=stratified))
    assert train.n_rows == 3
    assert test.n_rows == 2
    assert sorted(train.student_ids + test.student_ids) == sorted(m.student_ids)
