"""Classification and regression evaluation.

Undefined metrics (0/0 cases such as the precision of a class that is
never predicted) are first-class values, represented as ``None`` and
rendered as ``-`` in text tables; they are never coerced to 0. The one
exception is the F-measure when precision and recall are both defined and
both zero, which is reported as 0.0 so degenerate-but-defined rows keep a
numeric value.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError
from .features import FeatureMatrix
from .labeling import PerformanceCategory, label_codes


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


def fold_indices(n: int, k: int, seed: int) -> list[np.ndarray]:
    """Shuffled fold assignment; fold sizes differ by at most one."""
    if k < 2:
        raise ConfigError("cross validation requires k >= 2")
    if k > n:
        raise ConfigError(f"k={k} exceeds the number of rows ({n})")
    order = np.random.default_rng(seed).permutation(n)
    return np.array_split(order, k)


def _fold_mean(kind, per_fold, **fixed):
    """A ``kind`` holding ``fixed`` and, in every other field, the mean of
    the folds' defined values (None where no fold defines one)."""
    means = {}
    for f in fields(kind):
        if f.name not in fixed:
            values = [getattr(m, f.name) for m in per_fold]
            defined = [v for v in values if v is not None]
            means[f.name] = float(np.mean(defined)) if defined else None
    return kind(**fixed, **means)


def cross_validate(
    matrix: FeatureMatrix,
    model_kind: str,
    k: int = 10,
    seed: int = 0,
    target_class: PerformanceCategory = PerformanceCategory.PP,
):
    """K-fold cross validation with arithmetic averaging of fold metrics.

    ``model_kind`` is ``"regression"`` (untransformed least squares; returns
    an averaged RegressionReport) or ``"tree"`` (returns averaged
    ClassMetrics for ``target_class``).

    Fold sizes differ by at most one, so the regression folds form at most
    two stacks of equal shape. ``regress.fold_predictions`` fits each stack
    with one QR and one solve, and each stack's error statistics are axis
    reductions: the report equals, bit for bit, that of a loop calling
    ``fit_least_squares`` per fold. ``regress._factor`` raises that loop's
    error when a fold cannot be fitted: too few rows, a NaN or infinite
    target, or a rank-deficient training design.
    """
    from . import regress, tree  # late import to keep module deps one-way

    if matrix.target is None:
        raise ConfigError("cross_validate requires a target column")
    if model_kind not in ("regression", "tree"):
        raise ConfigError(f"unknown model_kind {model_kind!r}")
    folds = fold_indices(matrix.n_rows, k, seed)
    per_fold = []
    if model_kind == "regression":
        target = matrix.target.astype(float)
        fold_of = np.empty(matrix.n_rows, dtype=np.intp)
        for i, fold in enumerate(folds):
            fold_of[fold] = i
        sizes = np.array([len(fold) for fold in folds])
        # fold_indices puts the larger folds first: stacks in that order keep
        # fold order.
        for size in dict.fromkeys(sizes.tolist()):
            ids = np.flatnonzero(sizes == size)
            train = np.nonzero(fold_of != ids[:, None])[1].reshape(len(ids), -1)
            test = np.stack([folds[i] for i in ids])
            predicted = regress.fold_predictions(
                matrix.values, target, train, test, matrix.column_names
            )
            per_fold.extend(_error_stats(target[test], predicted))
        return _fold_mean(RegressionReport, per_fold)
    for fold in folds:
        train = np.ones(matrix.n_rows, dtype=bool)
        train[fold] = False
        # One train_tree call per fold, not one train_trees call for all
        # folds: perfbench/spans.py times each fold's tree as a
        # tree.train_tree span under this call.
        model = tree.train_tree(matrix.take(np.flatnonzero(train).tolist()))
        predicted = tree.predict_many(model, matrix.values[fold])
        cm = confusion(matrix.target[fold].tolist(), predicted)
        per_fold.append(class_metrics(cm, target_class))
    return _fold_mean(ClassMetrics, per_fold, cls=target_class)
