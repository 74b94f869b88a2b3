"""Performance categories and train/test splitting.

Grades above 80 points are good performance (GP), below 50 poor (PP), the
rest satisfactory (SP); both boundaries fall into SP. The thresholds apply
to raw exam points for both exams. A negative or NaN grade has no category
and raises ValueError.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from enum import Enum

import numpy as np

from .errors import ConfigError
from .features import FeatureMatrix


class PerformanceCategory(Enum):
    PP = "PP"
    SP = "SP"
    GP = "GP"

    def __str__(self) -> str:
        return self.value


CATEGORY_ORDER = (
    PerformanceCategory.PP,
    PerformanceCategory.SP,
    PerformanceCategory.GP,
)
_CATEGORIES = np.array(CATEGORY_ORDER, dtype=object)


def class_order(labels) -> list[object]:
    """PP, SP, GP when every label is a category; else the labels sorted by
    name, then by type name, so that ``1`` comes before ``'1'``."""
    values = set(labels)
    if values and all(isinstance(v, PerformanceCategory) for v in values):
        return list(CATEGORY_ORDER)
    return sorted(values, key=lambda v: (str(v), type(v).__name__))


def label_codes(labels, classes=None) -> tuple[np.ndarray, list[object]]:
    """Each label's index into ``classes``, and the classes: by default
    ``class_order(labels)``. A label outside given classes raises ConfigError
    naming it.

    Category labels are matched by identity, one array comparison per
    category, so no row's label is hashed when every label is a category.
    """
    labels = np.asarray(labels, dtype=object)
    codes = np.full(len(labels), -1, dtype=np.intp)
    for i, category in enumerate(CATEGORY_ORDER):
        codes[labels == category] = i
    categories = len(labels) > 0 and codes.min() >= 0
    if classes is None:
        classes = CATEGORY_ORDER if categories else class_order(labels)
    classes = list(classes)
    if categories and classes == list(CATEGORY_ORDER):
        return codes, classes
    index = {c: i for i, c in enumerate(classes)}
    try:
        return np.array([index[label] for label in labels.tolist()], dtype=np.intp), classes
    except KeyError as exc:
        names = ", ".join(map(str, classes))
        raise ConfigError(f"label {exc.args[0]} is not one of the classes [{names}]") from None


def round_half_up(x: float, digits: int = 2) -> float:
    """Decimal round-half-up (0.005 -> 0.01), exact on binary doubles."""
    q = Decimal(1).scaleb(-digits)
    return float(Decimal.from_float(float(x)).quantize(q, rounding=ROUND_HALF_UP))


def _category_codes(grades) -> np.ndarray:
    """Each grade's index into CATEGORY_ORDER; a negative or NaN grade raises."""
    grades = np.asarray(grades, dtype=float)
    bad = np.flatnonzero(~(grades >= 0))
    if bad.size:
        raise ValueError(f"grade must be non-negative, got {grades.flat[bad[0]]}")
    return (grades >= 50).astype(np.intp) + (grades > 80)


def categorize(grade: float) -> PerformanceCategory:
    return categorize_all([grade])[0]


def categorize_all(grades) -> np.ndarray:
    return _CATEGORIES[_category_codes(grades)]


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.8
    seed: int = 0
    stratified: bool = True

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError("train_fraction must be in (0, 1)")
        check_seed(self.seed)


def check_seed(seed) -> None:
    """Raise ConfigError unless ``seed`` is a non-negative integer, the one
    kind of seed every ``np.random.default_rng`` call here takes."""
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, not {seed!r}")


def _strata(target: np.ndarray) -> tuple[np.ndarray, list[object]]:
    """Each row's stratum as an index into the strata in class order: the
    performance category of a grade or of a category label, else the label."""
    if target.dtype != object:
        return _category_codes(target), list(CATEGORY_ORDER)
    return label_codes(target)


def split(matrix: FeatureMatrix, spec: SplitSpec) -> tuple[FeatureMatrix, FeatureMatrix]:
    """Partition rows into train/test; |train| = round(train_fraction * n).

    Stratified mode keeps each category's train share within one instance
    of the requested fraction (largest-remainder allocation). Numeric
    targets are stratified by their performance category.
    """
    if matrix.target is None:
        raise ConfigError("split requires a matrix with a target column")
    n = matrix.n_rows
    rng = np.random.default_rng(spec.seed)
    total_train = int(round_half_up(spec.train_fraction * n, 0))
    train = np.zeros(n, dtype=bool)

    if not spec.stratified:
        train[rng.permutation(n)[:total_train]] = True
    else:
        codes, keys = _strata(matrix.target)
        sizes = np.bincount(codes, minlength=len(keys))
        present = np.flatnonzero(sizes)
        quotas = spec.train_fraction * sizes[present]
        alloc = np.floor(quotas).astype(np.intp)
        spare = total_train - int(alloc.sum())
        # Largest remainder first; a stable sort keeps class order on ties.
        alloc[np.argsort(alloc - quotas, kind="stable")[: max(spare, 0)]] += 1
        rows = np.argsort(codes, kind="stable")
        ends = np.cumsum(sizes)
        for code, count in zip(present.tolist(), alloc.tolist()):
            members = rows[ends[code] - sizes[code] : ends[code]]
            train[members[rng.permutation(len(members))[:count]]] = True
    return (
        matrix.take(np.flatnonzero(train).tolist()),
        matrix.take(np.flatnonzero(~train).tolist()),
    )
