"""Performance categories and train/test splitting.

Grades above 80 points are good performance (GP), below 50 poor (PP), the
rest satisfactory (SP); both boundaries fall into SP. The thresholds apply
to raw exam points for both exams.
"""

from __future__ import annotations

import math
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


def class_order(labels) -> list[object]:
    """PP, SP, GP when every label is a category; else the labels sorted by name."""
    values = set(labels)
    if values and all(isinstance(v, PerformanceCategory) for v in values):
        return list(CATEGORY_ORDER)
    return sorted(values, key=str)


def round_half_up(x: float, digits: int = 2) -> float:
    """Decimal round-half-up (0.005 -> 0.01), exact on binary doubles."""
    q = Decimal(1).scaleb(-digits)
    return float(Decimal.from_float(float(x)).quantize(q, rounding=ROUND_HALF_UP))


def categorize(grade: float) -> PerformanceCategory:
    if grade < 0:
        raise ValueError(f"grade must be non-negative, got {grade}")
    if grade > 80:
        return PerformanceCategory.GP
    if grade < 50:
        return PerformanceCategory.PP
    return PerformanceCategory.SP


def categorize_all(grades) -> np.ndarray:
    return np.array([categorize(g) for g in grades], dtype=object)


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.8
    seed: int = 0
    stratified: bool = True

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError("train_fraction must be in (0, 1)")


def _strata(target: np.ndarray) -> np.ndarray:
    """Stratification labels: categories as-is, grades via categorize."""
    if target.dtype == object:
        return target
    return categorize_all(target)


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

    if not spec.stratified:
        order = rng.permutation(n)
        train_idx = sorted(order[:total_train])
        test_idx = sorted(order[total_train:])
        return matrix.take(train_idx), matrix.take(test_idx)

    labels = _strata(matrix.target)
    groups: dict[object, list[int]] = {}
    for i, lab in enumerate(labels):
        groups.setdefault(lab, []).append(i)
    keys = [k for k in class_order(groups) if k in groups]

    quotas = {k: spec.train_fraction * len(groups[k]) for k in keys}
    alloc = {k: int(math.floor(quotas[k])) for k in keys}
    spare = total_train - sum(alloc.values())
    by_remainder = sorted(keys, key=lambda k: quotas[k] - alloc[k], reverse=True)
    for k in by_remainder:
        if spare <= 0:
            break
        alloc[k] += 1
        spare -= 1

    train_idx: list[int] = []
    test_idx: list[int] = []
    for k in keys:
        members = np.array(groups[k])
        order = rng.permutation(len(members))
        shuffled = members[order]
        train_idx.extend(shuffled[: alloc[k]].tolist())
        test_idx.extend(shuffled[alloc[k] :].tolist())
    return matrix.take(sorted(train_idx)), matrix.take(sorted(test_idx))
