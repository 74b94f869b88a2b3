import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gradecast
from gradecast.errors import ConfigError
from gradecast.features import FeatureMatrix
from gradecast.labeling import (
    PerformanceCategory,
    SplitSpec,
    categorize,
    categorize_all,
    class_order,
    label_codes,
    round_half_up,
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


def test_categorize_rejects_nan():
    with pytest.raises(ValueError, match="nan"):
        categorize(math.nan)
    with pytest.raises(ValueError, match="nan"):
        categorize_all([70.0, math.nan])
    with pytest.raises(ValueError):
        categorize_all(np.array([55.0, -0.5]))


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


@pytest.mark.parametrize("seed", [-1, 1.5, 1.0, None, "1"])
def test_split_spec_refuses_a_seed_that_is_not_a_non_negative_integer(seed):
    # -1 and 1.5 used to be accepted here and fail later in numpy.
    with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
        SplitSpec(seed=seed)


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


# ------------------------------------------------ split frozen reference

def reference_split(matrix, spec):
    """split() as it was with per-row Python: a dict of per-row lists keyed
    by label, frozen as the reference the array version must match."""
    n = matrix.n_rows
    rng = np.random.default_rng(spec.seed)
    total_train = int(round_half_up(spec.train_fraction * n, 0))
    if not spec.stratified:
        order = rng.permutation(n)
        return sorted(order[:total_train].tolist()), sorted(order[total_train:].tolist())
    target = matrix.target
    labels = target if target.dtype == object else [GP if g > 80 else PP if g < 50 else SP for g in target]
    groups = {}
    for i, lab in enumerate(labels):
        groups.setdefault(lab, []).append(i)
    keys = [k for k in class_order(groups) if k in groups]
    quotas = {k: spec.train_fraction * len(groups[k]) for k in keys}
    alloc = {k: int(math.floor(quotas[k])) for k in keys}
    spare = total_train - sum(alloc.values())
    for k in sorted(keys, key=lambda k: quotas[k] - alloc[k], reverse=True):
        if spare <= 0:
            break
        alloc[k] += 1
        spare -= 1
    train_idx, test_idx = [], []
    for k in keys:
        members = np.array(groups[k])
        shuffled = members[rng.permutation(len(members))]
        train_idx.extend(shuffled[: alloc[k]].tolist())
        test_idx.extend(shuffled[alloc[k] :].tolist())
    return sorted(train_idx), sorted(test_idx)


@settings(deadline=None, max_examples=200)
@given(
    st.sampled_from(["category", "grade", "string"]),
    st.lists(st.sampled_from([0.0, 12.5, 49.99, 50.0, 65.0, 80.0, 80.01, 110.0]), min_size=1, max_size=150),
    st.sampled_from([0.8, 0.5, 0.1, 0.37, 0.999, 2 / 3]),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_split_equals_the_per_row_reference(kind, grades, fraction, seed, stratified):
    if kind == "grade":
        target = np.array(grades)
    elif kind == "category":
        target = np.array([categorize(g) for g in grades], dtype=object)
    else:
        target = np.array([f"label{int(g) % 7}" for g in grades], dtype=object)
    n = len(grades)
    m = FeatureMatrix(
        [f"s{i}" for i in range(n)], ["x"], np.arange(n, dtype=float).reshape(-1, 1), target, kind
    )
    spec = SplitSpec(fraction, seed=seed, stratified=stratified)
    train, test = split(m, spec)
    train_idx, test_idx = reference_split(m, spec)
    assert train.student_ids == [m.student_ids[i] for i in train_idx]
    assert test.student_ids == [m.student_ids[i] for i in test_idx]
    assert train.target.tolist() == target[train_idx].tolist()


@given(st.data())
def test_label_codes_equal_class_order_and_a_per_row_index(data):
    pool = data.draw(st.sampled_from([[PP, SP, GP], ["b", "a", 10, 2], [GP, "a", PP, 2]]))
    labels = data.draw(st.lists(st.sampled_from(pool), max_size=20))
    codes, classes = label_codes(labels)
    assert classes == class_order(labels)
    assert codes.tolist() == [classes.index(label) for label in labels]
    # Against given classes: any order of a superset of the labels.
    given_classes = data.draw(st.permutations(pool))
    codes, classes = label_codes(np.array(labels, dtype=object), given_classes)
    assert classes == given_classes
    assert codes.tolist() == [given_classes.index(label) for label in labels]
    missing = [c for c in pool if c not in labels]
    if missing:
        with pytest.raises(ConfigError, match=f"label {missing[0]} is not one of the classes"):
            label_codes([*labels, missing[0]], [c for c in pool if c in labels])


# Labels whose strings collide, '1' and 1, and a small tree trained on them.
HASH_SEED_SCRIPT = """
import numpy as np
from gradecast.features import FeatureMatrix
from gradecast.labeling import class_order
from gradecast.tree import TreeConfig, to_json, train_tree

labels = ['1', 1, 'a', 'b', 1, 'b', '1', 1]
print(class_order(labels))
m = FeatureMatrix(
    [f's{i}' for i in range(8)], ['x'], np.arange(8.0)[:, None], np.array(labels, dtype=object)
)
print(to_json(train_tree(m, TreeConfig(min_leaf=1, pruning=False))))
"""


def test_class_order_and_tree_json_do_not_depend_on_the_hash_seed():
    env = {**os.environ, "PYTHONPATH": str(Path(gradecast.__file__).resolve().parents[1])}
    outputs = [
        subprocess.run(
            [sys.executable, "-c", HASH_SEED_SCRIPT],
            env={**env, "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for seed in ("1", "5")
    ]
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith("[1, '1', 'a', 'b']\n")
