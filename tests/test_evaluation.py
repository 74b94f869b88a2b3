import numpy as np
import pytest
import scipy.stats
from hypothesis import given, strategies as st

from gradecast.errors import ConfigError, TrainingError
from gradecast.evaluation import (
    ClassMetrics,
    RegressionReport,
    class_metrics,
    confusion,
    cross_validate,
    fold_indices,
    pearson,
)
from gradecast.features import FeatureMatrix
from gradecast.labeling import PerformanceCategory
from gradecast.tree import predict_many, to_json, train_tree, train_trees

PP, SP, GP = PerformanceCategory.PP, PerformanceCategory.SP, PerformanceCategory.GP


# --------------------------------------------------------------- confusion

def test_confusion_orders_categories_pp_sp_gp():
    cm = confusion([GP, SP, GP, PP], [GP, GP, SP, PP])
    assert cm.classes == [PP, SP, GP]
    assert cm.counts.tolist() == [[1, 0, 0], [0, 0, 1], [0, 1, 1]]


def test_confusion_orders_other_labels_by_name():
    cm = confusion(["b", "a"], ["c", "a"])
    assert cm.classes == ["a", "b", "c"]


@given(
    st.lists(
        st.tuples(st.sampled_from([PP, SP, GP]), st.sampled_from([PP, SP, GP])),
        min_size=1,
        max_size=60,
    )
)
def test_confusion_total_equals_n(pairs):
    actual, predicted = zip(*pairs)
    cm = confusion(actual, predicted)
    assert cm.total == len(pairs)
    assert cm.row_sums().tolist() == [actual.count(c) for c in cm.classes]
    assert cm.col_sums().tolist() == [predicted.count(c) for c in cm.classes]


# ------------------------------------------------------------ class metrics

def test_class_metrics_never_predicted_class_has_undefined_precision():
    cm = confusion([PP, SP, SP], [SP, SP, SP], classes=[PP, SP, GP])
    m = class_metrics(cm, PP)
    assert m.precision is None  # 0 / 0
    assert m.recall == 0.0
    assert m.f_measure is None
    assert m.fp_rate == 0.0


def test_class_metrics_absent_class_has_undefined_recall():
    cm = confusion([PP, SP], [PP, SP], classes=[PP, SP, GP])
    m = class_metrics(cm, GP)
    assert m.precision is None
    assert m.recall is None
    assert m.f_measure is None
    assert m.fp_rate == 0.0


def test_class_metrics_f_is_zero_when_precision_and_recall_are_zero():
    cm = confusion([PP, SP], [SP, PP])
    m = class_metrics(cm, PP)
    assert m.precision == 0.0
    assert m.recall == 0.0
    assert m.f_measure == 0.0
    assert m.fp_rate == 1.0


def test_class_metrics_one_vs_rest_arithmetic():
    actual = [PP, PP, PP, SP, SP, GP]
    predicted = [PP, PP, SP, PP, SP, GP]
    m = class_metrics(confusion(actual, predicted), PP)
    assert m.precision == pytest.approx(2 / 3)
    assert m.recall == pytest.approx(2 / 3)
    assert m.f_measure == pytest.approx(2 / 3)
    assert m.fp_rate == pytest.approx(1 / 3)


# ------------------------------------------------------------------ pearson

@pytest.mark.parametrize("seed", range(5))
def test_pearson_matches_scipy(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=30)
    y = 0.5 * x + rng.normal(size=30)
    assert pearson(x, y) == pytest.approx(scipy.stats.pearsonr(x, y)[0], rel=1e-12)


def test_pearson_zero_variance_is_undefined():
    assert pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) is None
    assert pearson([1.0, 2.0, 3.0], [4.0, 4.0, 4.0]) is None


# -------------------------------------------------------------------- folds

@given(st.integers(2, 120), st.data())
def test_folds_partition_rows_and_differ_by_at_most_one(n, data):
    k = data.draw(st.integers(2, n))
    seed = data.draw(st.integers(0, 2**32 - 1))
    folds = fold_indices(n, k, seed)
    assert len(folds) == k
    assert sorted(np.concatenate(folds).tolist()) == list(range(n))
    sizes = [len(f) for f in folds]
    assert max(sizes) - min(sizes) <= 1


def test_fold_count_is_validated():
    with pytest.raises(ConfigError):
        fold_indices(10, 1, 0)
    with pytest.raises(ConfigError):
        fold_indices(3, 4, 0)


# ----------------------------------------------------------- cross validation

def numeric_matrix():
    rng = np.random.default_rng(7)
    x = rng.uniform(0, 10, size=(24, 2))
    y = 3.0 + 2.0 * x[:, 0] - x[:, 1] + rng.normal(scale=0.5, size=24)
    return FeatureMatrix([f"s{i}" for i in range(24)], ["a", "b"], x, y, "midterm")


def category_matrix():
    labels = [PP] * 8 + [SP] * 8 + [GP] * 8
    x = np.arange(24, dtype=float).reshape(-1, 1) + np.array([0.0, 0.5, -0.5] * 8)[:, None]
    return FeatureMatrix(
        [f"s{i}" for i in range(24)], ["x"], x, np.array(labels, dtype=object), "category"
    )


def mean_of_defined(values):
    defined = [v for v in values if v is not None]
    return float(np.mean(defined)) if defined else None


def test_cross_validate_regression_averages_fold_errors():
    m = numeric_matrix()
    report = cross_validate(m, "regression", k=4, seed=2)
    assert isinstance(report, RegressionReport)
    maes, rmses = [], []
    for fold in fold_indices(m.n_rows, 4, 2):
        train = np.setdiff1d(np.arange(m.n_rows), fold)
        design = np.column_stack([np.ones(len(train)), m.values[train]])
        beta = np.linalg.lstsq(design, m.target[train], rcond=None)[0]
        diff = np.column_stack([np.ones(len(fold)), m.values[fold]]) @ beta - m.target[fold]
        maes.append(np.abs(diff).mean())
        rmses.append(np.sqrt((diff**2).mean()))
    assert report.mae == pytest.approx(np.mean(maes), rel=1e-9)
    assert report.rmse == pytest.approx(np.mean(rmses), rel=1e-9)
    for value in (report.mean_error, report.std_error, report.correlation):
        assert isinstance(value, float)


def test_cross_validate_tree_averages_defined_fold_metrics():
    m = category_matrix()
    result = cross_validate(m, "tree", k=3, seed=1, target_class=SP)
    assert isinstance(result, ClassMetrics)
    assert result.cls == SP
    per_fold = []
    for fold in fold_indices(m.n_rows, 3, 1):
        train = np.setdiff1d(np.arange(m.n_rows), fold)
        model = train_tree(m.take(train.tolist()))
        cm = confusion(m.target[fold].tolist(), predict_many(model, m.values[fold]))
        per_fold.append(class_metrics(cm, SP))
    for name in ("precision", "recall", "f_measure", "fp_rate"):
        assert getattr(result, name) == mean_of_defined([getattr(f, name) for f in per_fold])


def test_cross_validate_tree_when_a_training_fold_lacks_a_class():
    rng = np.random.default_rng(4)
    x = rng.integers(0, 4, size=(15, 2)).astype(float)
    labels = ["b", "a"] * 7 + ["c"]  # "c" is in one fold only
    m = FeatureMatrix(
        [f"s{i}" for i in range(15)], ["x", "y"], x, np.array(labels, dtype=object), "label"
    )
    folds = fold_indices(m.n_rows, 5, 3)
    train_sets = [np.setdiff1d(np.arange(m.n_rows), fold) for fold in folds]
    assert sum("c" not in m.target[t].tolist() for t in train_sets) == 1
    per_fold = []
    for fold, train, model in zip(folds, train_sets, train_trees(m, train_sets)):
        expected = train_tree(m.take(train.tolist()))
        assert model.classes == expected.classes
        assert to_json(model) == to_json(expected)
        cm = confusion(m.target[fold].tolist(), predict_many(expected, m.values[fold]))
        per_fold.append(class_metrics(cm, "a"))
    result = cross_validate(m, "tree", k=5, seed=3, target_class="a")
    for name in ("precision", "recall", "f_measure", "fp_rate"):
        assert getattr(result, name) == mean_of_defined([getattr(f, name) for f in per_fold])


def test_train_trees_raises_the_errors_of_train_tree():
    m = category_matrix()
    with pytest.raises(TrainingError, match="empty"):
        train_trees(m, [np.arange(5), []])
    assert train_trees(m, []) == []
    numeric = m.with_target(np.arange(m.n_rows, dtype=float), "grade")
    with pytest.raises(TrainingError, match="categorical"):
        train_trees(numeric, [np.arange(5)])


def test_cross_validate_absent_target_class_is_undefined_not_zero():
    labels = [PP] * 6 + [SP] * 6
    x = np.arange(12, dtype=float).reshape(-1, 1)
    m = FeatureMatrix(
        [f"s{i}" for i in range(12)], ["x"], x, np.array(labels, dtype=object), "category"
    )
    result = cross_validate(m, "tree", k=3, seed=0, target_class=GP)
    assert result.cls == GP
    assert result.precision is None
    assert result.recall is None
    assert result.f_measure is None
    assert result.fp_rate == 0.0


def test_cross_validate_rejects_unknown_model_kind():
    with pytest.raises(ConfigError):
        cross_validate(numeric_matrix(), "forest", k=3)


def test_cross_validate_requires_target():
    m = FeatureMatrix(["a", "b", "c"], ["x"], np.zeros((3, 1)))
    with pytest.raises(ConfigError):
        cross_validate(m, "regression", k=2)
