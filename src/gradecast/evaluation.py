"""Classification and regression evaluation.

Undefined metrics (0/0 cases such as the precision of a class that is
never predicted) are first-class values, represented as ``None`` and
rendered as ``-`` in text tables; they are never coerced to 0. The one
exception is the F-measure when precision and recall are both defined and
both zero, which is reported as 0.0 so degenerate-but-defined rows keep a
numeric value.

Cross-validation sets its folds up once per (rows, k, seed): the folds,
each fold's training rows and the index stacks of the regression fits form
a fold plan, built by ``_fold_plan`` and kept in a cache of the last
``_PLANS`` plans. Every array of a plan is read-only, so no caller can
change the folds of a later cross-validation.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .features import FeatureMatrix
from .labeling import PerformanceCategory, check_seed, label_codes

_PLANS = 8  # fold plans kept by _fold_plan's cache


@dataclass
class ConfusionMatrix:
    classes: list[object]
    counts: np.ndarray  # rows = actual, columns = predicted

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def row_sums(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    def col_sums(self) -> np.ndarray:
        return self.counts.sum(axis=0)

    def index(self, cls) -> int:
        return int(label_codes([cls], self.classes)[0][0])


@dataclass
class ClassMetrics:
    cls: object
    precision: float | None
    recall: float | None
    f_measure: float | None
    fp_rate: float | None


@dataclass
class RegressionReport:
    mean_error: float | None
    std_error: float | None
    correlation: float | None
    mae: float | None
    rmse: float | None


def confusion(actual, predicted, classes=None) -> ConfusionMatrix:
    actual = list(actual)
    predicted = list(predicted)
    if len(actual) != len(predicted):
        raise ValueError("actual and predicted must have equal lengths")
    if not actual:
        raise ValueError("confusion requires at least one pair")
    codes, classes = label_codes(actual + predicted, classes)
    k = len(classes)
    cells = codes[: len(actual)] * k + codes[len(actual) :]
    return ConfusionMatrix(classes, np.bincount(cells, minlength=k * k).reshape(k, k))


def class_metrics(cm: ConfusionMatrix, cls) -> ClassMetrics:
    """One-vs-rest precision, recall, F-measure and false-positive rate."""
    if cm.total <= 0:
        raise ValueError("confusion matrix is empty")
    i = cm.index(cls)
    tp = int(cm.counts[i, i])
    fp = int(cm.col_sums()[i]) - tp
    fn = int(cm.row_sums()[i]) - tp
    negatives = cm.total - tp - fn  # actual non-class instances

    precision = tp / (tp + fp) if tp + fp > 0 else None
    recall = tp / (tp + fn) if tp + fn > 0 else None
    if precision is None or recall is None:
        f_measure = None
    elif precision + recall == 0:
        f_measure = 0.0
    else:
        f_measure = 2 * precision * recall / (precision + recall)
    fp_rate = fp / negatives if negatives > 0 else None
    return ClassMetrics(cls, precision, recall, f_measure, fp_rate)


def pearson(x, y) -> float | None:
    """Pearson correlation; None when either series has zero variance."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 2:
        raise ValueError("pearson requires two equal-length series of length >= 2")
    return _correlations(x[None], y[None])[0]


def _correlations(x: np.ndarray, y: np.ndarray) -> list[float | None]:
    """``pearson`` of each row of x (k, n) and y (k, n), bit for bit: the
    stacked (k, 1, n) @ (k, n, 1) products are one dot product per row."""
    xc = x - x.mean(axis=1, keepdims=True)
    yc = y - y.mean(axis=1, keepdims=True)
    sxx, syy, sxy = (
        (a[:, None, :] @ b[:, :, None])[:, 0, 0] for a, b in ((xc, xc), (yc, yc), (xc, yc))
    )
    return [
        None if a == 0.0 or b == 0.0 else float(c / np.sqrt(a * b))
        for a, b, c in zip(sxx.tolist(), syy.tolist(), sxy.tolist())
    ]


def _error_stats(actual: np.ndarray, predicted: np.ndarray) -> list[RegressionReport]:
    """A RegressionReport per row of actual (k, n) and predicted (k, n)."""
    diff = predicted - actual
    k, n = diff.shape
    undefined = [None] * k
    columns = [
        diff.mean(axis=1).tolist(),
        diff.std(axis=1, ddof=1).tolist() if n >= 2 else undefined,
        _correlations(actual, predicted) if n >= 2 else undefined,
        np.abs(diff).mean(axis=1).tolist(),
        np.sqrt((diff**2).mean(axis=1)).tolist(),
    ]
    return [RegressionReport(*row) for row in zip(*columns)]


def regression_report(actual, predicted) -> RegressionReport:
    """Error statistics of predictions against actual values."""
    actual = np.asarray(actual, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if actual.shape != predicted.shape or actual.ndim != 1 or len(actual) < 2:
        raise ValueError("regression_report requires equal lengths >= 2")
    return _error_stats(actual[None], predicted[None])[0]


def _check_folds(n: int, k: int, seed: int) -> None:
    if not isinstance(k, numbers.Integral):
        raise ConfigError(f"cross validation requires an integer k, not {k!r}")
    if k < 2:
        raise ConfigError("cross validation requires k >= 2")
    if k > n:
        raise ConfigError(f"k={k} exceeds the number of rows ({n})")
    check_seed(seed)


def fold_indices(n: int, k: int, seed: int) -> list[np.ndarray]:
    """Shuffled fold assignment; fold sizes differ by at most one.

    A ``k`` that is not an integer, and a ``seed`` that is not a
    non-negative integer, raise ConfigError.
    """
    _check_folds(n, k, seed)
    order = np.random.default_rng(seed).permutation(n)
    return np.array_split(order, k)


class _FoldPlan(NamedTuple):
    folds: tuple[np.ndarray, ...]  # each fold's (test) rows
    train: tuple[np.ndarray, ...]  # each fold's training rows, ascending
    stacks: tuple[tuple[np.ndarray, np.ndarray], ...]  # (train, test) per fold size


@functools.lru_cache(maxsize=_PLANS)
def _fold_plan(n: int, k: int, seed: int) -> _FoldPlan:
    """The folds of ``fold_indices(n, k, seed)`` and their index stacks.

    Fold sizes differ by at most one and the larger folds come first, so
    the folds form at most two stacks of equal shape, in fold order: the
    rows of a stack's (m, n_test) test array are its folds, and the rows of
    its (m, n_train) train array their training rows. ``folds`` and
    ``train`` are views of those rows, and every array is read-only, so a
    cached plan cannot be changed by a caller.
    """
    folds = fold_indices(n, k, seed)
    fold_of = np.empty(n, dtype=np.intp)
    for i, fold in enumerate(folds):
        fold_of[fold] = i
    sizes = np.array([len(fold) for fold in folds])
    stacks = []
    for size in dict.fromkeys(sizes.tolist()):
        ids = np.flatnonzero(sizes == size)
        train = np.nonzero(fold_of != ids[:, None])[1].reshape(len(ids), -1)
        test = np.stack([folds[i] for i in ids])
        train.setflags(write=False)
        test.setflags(write=False)
        stacks.append((train, test))
    return _FoldPlan(
        tuple(row for _, test in stacks for row in test),
        tuple(row for train, _ in stacks for row in train),
        tuple(stacks),
    )


def _fold_mean(kind, per_fold, **fixed):
    """A ``kind`` holding ``fixed`` and, in every other field, the mean of
    the folds' defined values (None where no fold defines one).

    When every fold defines every field, the means are one row-wise mean of
    a (fields, folds) array. Each row is contiguous, so it is summed as
    ``np.mean`` sums the row alone.
    """
    names = [f.name for f in fields(kind) if f.name not in fixed]
    values = [[getattr(m, name) for m in per_fold] for name in names]
    if not any(None in row for row in values):
        means = np.array(values, dtype=float).mean(axis=1).tolist()
    else:
        means = []
        for row in values:
            defined = [v for v in row if v is not None]
            means.append(float(np.mean(defined)) if defined else None)
    return kind(**fixed, **dict(zip(names, means)))


def cross_validate(
    matrix: FeatureMatrix,
    model_kind: str,
    k: int = 10,
    seed: int = 0,
    target_class: PerformanceCategory = PerformanceCategory.PP,
):
    """K-fold cross validation with arithmetic averaging of fold metrics.

    ``model_kind`` is ``"regression"`` (untransformed least squares on a
    numeric target; returns an averaged RegressionReport) or ``"tree"``
    (returns averaged ClassMetrics for ``target_class``).

    ``k`` and ``seed`` are checked as ``fold_indices`` checks them. The
    folds and their index stacks come from a read-only fold plan, cached
    for the last few (rows, k, seed) (``_fold_plan``), so repeated calls on
    matrices of one size share them.

    The regression branch builds the design (intercept, then the columns)
    once, and ``regress.fold_predictions`` fits each stack of folds with one
    QR and one solve; each stack's error statistics are axis reductions.
    The report equals, bit for bit, that of a loop calling
    ``fit_least_squares`` per fold. ``regress._factor`` raises that loop's
    error when a fold cannot be fitted: too few rows, a NaN or infinite
    target, or a rank-deficient training design.
    """
    from . import regress, tree  # late import to keep module deps one-way

    if matrix.target is None:
        raise ConfigError("cross_validate requires a target column")
    if model_kind not in ("regression", "tree"):
        raise ConfigError(f"unknown model_kind {model_kind!r}")
    _check_folds(matrix.n_rows, k, seed)
    plan = _fold_plan(matrix.n_rows, k, seed)
    per_fold = []
    if model_kind == "regression":
        try:
            target = matrix.target.astype(float)
        except (TypeError, ValueError):
            raise ConfigError("regression needs a numeric target") from None
        design = regress._design(matrix.values)
        for train, test in plan.stacks:
            predicted = regress.fold_predictions(
                design, target, train, test, matrix.column_names
            )
            per_fold.extend(_error_stats(target[test], predicted))
        return _fold_mean(RegressionReport, per_fold)
    for fold, train in zip(plan.folds, plan.train):
        # One train_tree call per fold, not one train_trees call for all
        # folds: perfbench/spans.py times each fold's tree as a
        # tree.train_tree span under this call.
        model = tree.train_tree(matrix.take(train))
        predicted = tree.predict_many(model, matrix.values[fold])
        cm = confusion(matrix.target[fold].tolist(), predicted)
        per_fold.append(class_metrics(cm, target_class))
    return _fold_mean(ClassMetrics, per_fold, cls=target_class)
