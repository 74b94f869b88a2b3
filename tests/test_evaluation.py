import numpy as np
import pytest
import scipy.stats
from hypothesis import event, given, settings, strategies as st

from gradecast.errors import ConfigError, GradecastError, SingularityError, TrainingError
from gradecast.evaluation import (
    ClassMetrics,
    RegressionReport,
    _fold_mean,
    _fold_plan,
    class_metrics,
    confusion,
    cross_validate,
    fold_indices,
    pearson,
)
from gradecast.features import FeatureMatrix
from gradecast.labeling import PerformanceCategory
from gradecast.regress import fit_least_squares
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


def test_a_label_outside_the_classes_is_a_config_error_naming_it():
    with pytest.raises(ConfigError, match="label SP is not one of the classes"):
        confusion([PP, SP], [PP, PP], classes=[PP])
    with pytest.raises(ConfigError, match="label b is not one of the classes"):
        confusion(["a"], ["b"], classes=["a"])
    cm = confusion(["a", "b"], ["b", "b"])
    with pytest.raises(ConfigError, match="label z is not one of the classes"):
        class_metrics(cm, "z")
    with pytest.raises(ConfigError, match="label PP is not one of the classes"):
        class_metrics(cm, PP)


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


def one_vs_rest_counts(actual, predicted, cls):
    """Frozen per-pair count: (tp, fp, fn, tn) of ``cls`` against the rest."""
    tp = fp = fn = tn = 0
    for a, p in zip(actual, predicted):
        if a == cls and p == cls:
            tp += 1
        elif p == cls:
            fp += 1
        elif a == cls:
            fn += 1
        else:
            tn += 1
    return tp, fp, fn, tn


@given(st.data())
def test_class_metrics_equal_a_per_pair_one_vs_rest_count(data):
    pool = data.draw(st.sampled_from([[PP, SP, GP], ["a", "b", "c", "d"]]))
    label = st.sampled_from(pool)
    pairs = data.draw(st.lists(st.tuples(label, label), min_size=1, max_size=40))
    actual, predicted = zip(*pairs)
    cm = confusion(actual, predicted, classes=data.draw(st.sampled_from([None, pool])))
    cls = data.draw(st.sampled_from(cm.classes))
    m = class_metrics(cm, cls)
    tp, fp, fn, tn = one_vs_rest_counts(actual, predicted, cls)
    assert m.cls == cls
    # Each ratio is None exactly where it is 0/0.
    for value, numerator, denominator in (
        (m.precision, tp, tp + fp),
        (m.recall, tp, tp + fn),
        (m.fp_rate, fp, fp + tn),
    ):
        assert value == (numerator / denominator if denominator else None)
    if m.precision is None or m.recall is None:
        assert m.f_measure is None
    elif m.precision == m.recall == 0.0:
        assert m.f_measure == 0.0
    else:
        assert m.f_measure == pytest.approx(2 * tp / (2 * tp + fp + fn), rel=1e-12)


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


@pytest.mark.parametrize(
    "k, seed, message",
    [
        (2.5, 1, "integer k, not 2.5"),  # used to run 2 folds
        (3.0, 1, "integer k, not 3.0"),
        (3, None, "seed must be a non-negative integer, not None"),  # new folds every call
        (3, -1, "seed must be a non-negative integer, not -1"),  # numpy's ValueError
        (3, 1.0, "seed must be a non-negative integer, not 1.0"),  # numpy's TypeError
        (3, 1.5, "seed must be a non-negative integer, not 1.5"),
    ],
)
def test_fold_arguments_that_are_not_integers_are_config_errors(k, seed, message):
    with pytest.raises(ConfigError, match=message):
        fold_indices(24, k, seed)
    # A cached plan for (24, 3, 1) equals the key (24, 3.0, 1) and (24, 3,
    # 1.0), so the arguments must be checked before the cache is read.
    m = numeric_matrix()
    cross_validate(m, "regression", k=3, seed=1)
    for kind in ("regression", "tree"):
        matrix = m if kind == "regression" else category_matrix()
        with pytest.raises(ConfigError, match=message):
            cross_validate(matrix, kind, k=k, seed=seed)


def test_numpy_integer_fold_arguments_give_the_folds_of_their_ints():
    expected = [fold.tolist() for fold in fold_indices(24, 5, 7)]
    assert [fold.tolist() for fold in fold_indices(24, np.int64(5), np.uint32(7))] == expected
    m = numeric_matrix()
    assert cross_validate(m, "regression", np.int32(5), np.int64(7)) == cross_validate(
        m, "regression", 5, 7
    )


def test_fold_plan_arrays_refuse_writes():
    plan = _fold_plan(23, 5, 11)
    stacked = [array for stack in plan.stacks for array in stack]
    assert len(stacked) == 4  # folds of 5, 5, 5, 4 and 4 rows
    for array in (*plan.folds, *plan.train, *stacked):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    assert [fold.tolist() for fold in plan.folds] == [
        fold.tolist() for fold in fold_indices(23, 5, 11)
    ]
    # A fold and its training rows are views of their stack's rows.
    assert all(fold.base is not None for fold in plan.folds)
    assert all(train.base is not None for train in plan.train)


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


def reference_tree_cv(matrix, k, seed, target_class):
    """cross_validate(matrix, "tree", k, seed, target_class) as a frozen
    loop that trains one tree at a time on each fold's other rows."""
    per_fold = []
    for fold in fold_indices(matrix.n_rows, k, seed):
        train = np.setdiff1d(np.arange(matrix.n_rows), fold)
        model = train_tree(matrix.take(train.tolist()))
        cm = confusion(matrix.target[fold].tolist(), predict_many(model, matrix.values[fold]))
        per_fold.append(class_metrics(cm, target_class))
    return ClassMetrics(
        target_class,
        *(mean_of_defined([getattr(f, name) for f in per_fold]) for name in
          ("precision", "recall", "f_measure", "fp_rate")),
    )


def test_cross_validate_tree_averages_defined_fold_metrics():
    m = category_matrix()
    result = cross_validate(m, "tree", k=3, seed=1, target_class=SP)
    assert isinstance(result, ClassMetrics)
    assert result.cls == SP
    expected = reference_tree_cv(m, 3, 1, SP)
    for name in ("precision", "recall", "f_measure", "fp_rate"):
        assert getattr(result, name) == getattr(expected, name)


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


def test_regression_cv_on_a_categorical_target_is_a_config_error():
    # Category labels used to raise a bare TypeError, and other labels a
    # bare ValueError, from the conversion to float.
    m = category_matrix()
    with pytest.raises(ConfigError, match="regression needs a numeric target"):
        cross_validate(m, "regression", k=3)
    labels = m.with_target(np.array(["a", "b", "c"] * 8, dtype=object), "label")
    with pytest.raises(ConfigError, match="regression needs a numeric target"):
        cross_validate(labels, "regression", k=3)


# ------------------------------------------- stacked regression CV exactness

def reference_pearson(x, y):
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float(xc @ xc)
    syy = float(yc @ yc)
    if sxx == 0.0 or syy == 0.0:
        return None
    return float(xc @ yc) / np.sqrt(sxx * syy)


def reference_error_stats(actual, predicted):
    diff = predicted - actual
    n = len(diff)
    return RegressionReport(
        float(diff.mean()),
        float(diff.std(ddof=1)) if n >= 2 else None,
        reference_pearson(actual, predicted) if n >= 2 else None,
        float(np.abs(diff).mean()),
        float(np.sqrt((diff**2).mean())),
    )


def reference_regression_cv(matrix, k, seed):
    """cross_validate(matrix, "regression", k, seed) as a frozen loop that
    calls fit_least_squares on one fold at a time."""
    per_fold = []
    for fold in fold_indices(matrix.n_rows, k, seed):
        train = np.ones(matrix.n_rows, dtype=bool)
        train[fold] = False
        train_idx = np.flatnonzero(train)
        model = fit_least_squares(
            matrix.values[train_idx],
            matrix.target[train_idx].astype(float),
            matrix.column_names,
        )
        design = np.column_stack([np.ones(len(fold)), matrix.values[fold]])
        predicted = design @ model.coefficients
        per_fold.append(reference_error_stats(matrix.target[fold].astype(float), predicted))
    return RegressionReport(
        *(mean_of_defined([getattr(f, name) for f in per_fold]) for name in
          ("mean_error", "std_error", "correlation", "mae", "rmse"))
    )


def outcome(call):
    """The result of ``call``, or the type and message of the error it raised."""
    try:
        return call()
    except GradecastError as exc:
        return type(exc), str(exc)


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_stacked_regression_cv_equals_the_per_fold_loop(data):
    # Exact equality: a numpy or LAPACK build whose stacked QR, solve or
    # reductions differ from the unstacked calls must fail here.
    n = data.draw(st.integers(3, 400), label="n")
    p = data.draw(st.integers(1, 12), label="p")
    k = data.draw(st.integers(2, n), label="k")
    levels = data.draw(st.sampled_from([None, None, 2, 5, 40]), label="tie levels")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    if levels is None:
        x = rng.normal(size=(n, p)) * 10.0 ** rng.integers(-3, 4, size=p)
    else:
        x = rng.integers(0, levels, size=(n, p)).astype(float)
    # The last column is nonzero on a few rows only: a training fold that
    # lacks all of them is singular.
    sparse = data.draw(st.sampled_from([None, 1, 2]), label="rows where the last column is nonzero")
    if sparse is not None:
        x[rng.permutation(n)[sparse:], -1] = 0.0
    y = np.round(x @ rng.normal(size=p) + rng.normal(scale=3.0, size=n), int(rng.integers(0, 3)))
    # A NaN target fails every fold that trains on it: the first failing
    # fold may still be an earlier, singular one.
    if data.draw(st.sampled_from([False, False, False, True]), label="a NaN target"):
        y[rng.integers(n)] = np.nan
    m = FeatureMatrix([f"s{i}" for i in range(n)], [f"c{j}" for j in range(p)], x, y, "grade")
    expected = outcome(lambda: reference_regression_cv(m, k, seed))
    event(expected[0].__name__ if isinstance(expected, tuple) else "fitted")
    assert outcome(lambda: cross_validate(m, "regression", k=k, seed=seed)) == expected


def test_regression_cv_with_one_row_per_fold_leaves_spread_undefined():
    m = numeric_matrix()
    report = cross_validate(m, "regression", k=m.n_rows, seed=4)
    assert report == reference_regression_cv(m, m.n_rows, 4)
    assert report.std_error is None
    assert report.correlation is None
    assert isinstance(report.mae, float)


def test_regression_cv_raises_the_first_failing_folds_error():
    # 23 rows in 5 folds: sizes 5, 5, 5, 4, 4, so folds 0-2 and 3-4 are two
    # stacks. Column "a" is zero outside fold 3 and "b" outside fold 1, so
    # both folds' training designs are singular; fold 1 fails first.
    n, k, seed = 23, 5, 11
    folds = fold_indices(n, k, seed)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(n, 3))
    x[np.setdiff1d(np.arange(n), folds[3]), 0] = 0.0
    x[np.setdiff1d(np.arange(n), folds[1]), 1] = 0.0
    m = FeatureMatrix([f"s{i}" for i in range(n)], ["a", "b", "c"], x, rng.normal(size=n), "g")
    with pytest.raises(SingularityError) as err:
        cross_validate(m, "regression", k=k, seed=seed)
    assert err.value.columns == ["b"]
    assert outcome(lambda: reference_regression_cv(m, k, seed)) == (SingularityError, str(err.value))
    # Only the second stack fails: its first fold is named.
    x[:, 1] = rng.normal(size=n)
    m = FeatureMatrix(m.student_ids, m.column_names, x, m.target, "g")
    with pytest.raises(SingularityError) as err:
        cross_validate(m, "regression", k=k, seed=seed)
    assert err.value.columns == ["a"]


def test_regression_cv_with_too_few_training_rows_raises_training_error():
    rng = np.random.default_rng(1)
    m = FeatureMatrix(
        [f"s{i}" for i in range(6)], ["a", "b", "c", "d"], rng.normal(size=(6, 4)),
        rng.normal(size=6), "g",
    )
    expected = outcome(lambda: reference_regression_cv(m, 3, 0))
    assert expected[0] is TrainingError
    assert outcome(lambda: cross_validate(m, "regression", k=3, seed=0)) == expected


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_regression_cv_with_a_non_finite_target_raises_training_error(bad):
    m = numeric_matrix()
    target = m.target.copy()
    target[3] = bad
    m = FeatureMatrix(m.student_ids, m.column_names, m.values, target, "g")
    with pytest.raises(TrainingError, match="NaN or an infinity"):
        cross_validate(m, "regression", k=3, seed=0)


# ------------------------------------------------------------- fold plans

@settings(deadline=None, max_examples=60)
@given(st.data())
def test_interleaved_cross_validations_equal_plan_free_references(data):
    # Calls on up to 12 (rows, k, seed) keys, more than the cache keeps: each
    # key once, then any of them in any order, on fresh data each time, so
    # that cached plans are reused, evicted and rebuilt.
    _fold_plan.cache_clear()
    n_keys = data.draw(st.integers(1, 12), label="number of keys")
    keys = data.draw(
        st.lists(
            st.tuples(st.integers(6, 40), st.integers(2, 6), st.integers(0, 99)),
            min_size=n_keys,
            max_size=n_keys,
        ),
        label="(rows, k, seed) keys",
    )
    kinds = st.sampled_from(["regression", "tree"])
    calls = [(key, data.draw(kinds, label="kind")) for key in range(n_keys)]
    calls += data.draw(
        st.lists(st.tuples(st.integers(0, n_keys - 1), kinds), max_size=12), label="calls"
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="data seed"))
    for key, kind in calls:
        n, k, seed = keys[key]
        p = int(rng.integers(1, 4))
        x = rng.integers(0, 6, size=(n, p)).astype(float) + rng.normal(size=(n, p))
        ids = [f"s{i}" for i in range(n)]
        if kind == "regression":
            m = FeatureMatrix(ids, [f"c{j}" for j in range(p)], x, x.sum(axis=1) + rng.normal(size=n), "g")
            expected = outcome(lambda: reference_regression_cv(m, k, seed))
        else:
            labels = np.array([PP, SP, GP], dtype=object)[rng.integers(0, 3, size=n)]
            m = FeatureMatrix(ids, [f"c{j}" for j in range(p)], x, labels, "category")
            expected = outcome(lambda: reference_tree_cv(m, k, seed, PP))
        assert outcome(lambda: cross_validate(m, kind, k=k, seed=seed, target_class=PP)) == expected
    cache = _fold_plan.cache_info()
    event(f"plans reused: {cache.hits > 0}; plans evicted: {cache.misses > cache.maxsize}")


@given(st.data())
def test_fold_mean_of_defined_folds_equals_a_per_field_mean(data):
    # When every fold defines every field, _fold_mean averages all fields
    # as one (fields, folds) array: each mean must equal np.mean of its
    # field's values, bit for bit.
    kind = data.draw(st.sampled_from([RegressionReport, ClassMetrics]), label="kind")
    k = data.draw(st.integers(2, 40), label="folds")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    names = ["mean_error", "std_error", "correlation", "mae", "rmse"]
    fixed = {}
    if kind is ClassMetrics:
        names = ["precision", "recall", "f_measure", "fp_rate"]
        fixed = {"cls": PP}
    values = rng.normal(size=(k, len(names))) * 10.0 ** rng.integers(-8, 9, size=len(names))
    per_fold = [kind(**fixed, **dict(zip(names, row))) for row in values.tolist()]
    result = _fold_mean(kind, per_fold, **fixed)
    for name in names:
        expected = float(np.mean([getattr(f, name) for f in per_fold]))
        assert getattr(result, name).hex() == expected.hex()
    assert {name: getattr(result, name) for name in fixed} == fixed
