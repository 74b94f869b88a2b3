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
from .labeling import PerformanceCategory, class_order


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
        return self.classes.index(cls)


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
    if classes is None:
        classes = class_order(actual + predicted)
    index = {c: i for i, c in enumerate(classes)}
    counts = np.zeros((len(classes), len(classes)), dtype=int)
    for a, p in zip(actual, predicted):
        counts[index[a], index[p]] += 1
    return ConfusionMatrix(list(classes), counts)


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
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float(xc @ xc)
    syy = float(yc @ yc)
    if sxx == 0.0 or syy == 0.0:
        return None
    return float(xc @ yc) / np.sqrt(sxx * syy)


def _error_stats(actual, predicted) -> RegressionReport:
    actual = np.asarray(actual, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    diff = predicted - actual
    n = len(diff)
    mean_error = float(diff.mean())
    std_error = float(diff.std(ddof=1)) if n >= 2 else None
    correlation = pearson(actual, predicted) if n >= 2 else None
    mae = float(np.abs(diff).mean())
    rmse = float(np.sqrt((diff**2).mean()))
    return RegressionReport(mean_error, std_error, correlation, mae, rmse)


def regression_report(actual, predicted) -> RegressionReport:
    """Error statistics of predictions against actual values."""
    actual = np.asarray(actual, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if actual.shape != predicted.shape or len(actual) < 2:
        raise ValueError("regression_report requires equal lengths >= 2")
    return _error_stats(actual, predicted)


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
    """
    from . import regress, tree  # late import to keep module deps one-way

    if matrix.target is None:
        raise ConfigError("cross_validate requires a target column")
    if model_kind not in ("regression", "tree"):
        raise ConfigError(f"unknown model_kind {model_kind!r}")
    per_fold = []
    for fold in fold_indices(matrix.n_rows, k, seed):
        train = np.ones(matrix.n_rows, dtype=bool)
        train[fold] = False
        train_idx = np.flatnonzero(train)
        if model_kind == "regression":
            model = regress.fit_least_squares(
                matrix.values[train_idx],
                matrix.target[train_idx].astype(float),
                matrix.column_names,
            )
            design = np.column_stack([np.ones(len(fold)), matrix.values[fold]])
            predicted = design @ model.coefficients
            per_fold.append(_error_stats(matrix.target[fold].astype(float), predicted))
        else:
            # One train_tree call per fold, not one train_trees call for all
            # folds: perfbench/spans.py times each fold's tree as a
            # tree.train_tree span under this call.
            model = tree.train_tree(matrix.take(train_idx.tolist()))
            predicted = tree.predict_many(model, matrix.values[fold])
            cm = confusion(matrix.target[fold].tolist(), predicted)
            per_fold.append(class_metrics(cm, target_class))
    if model_kind == "regression":
        return _fold_mean(RegressionReport, per_fold)
    return _fold_mean(ClassMetrics, per_fold, cls=target_class)
