"""Synthetic minority oversampling on a feature matrix.

Each synthetic row interpolates between a minority instance and one of its
k nearest minority neighbours (Euclidean distance on raw feature values):
``x + u * (x_nn - x)`` with u drawn uniformly from [0, 1]. The percentage
is a multiple of 100; percentage / 100 synthetic rows are generated per
minority instance, so the minority class grows by exactly that factor.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, RebalanceError
from .features import FeatureMatrix
from .labeling import PerformanceCategory


@dataclass(frozen=True)
class SmoteConfig:
    k_neighbors: int = 5
    percentage: int = 100
    seed: int = 0
    target_class: object = PerformanceCategory.PP

    def __post_init__(self):
        if self.k_neighbors < 1:
            raise ConfigError("k_neighbors must be >= 1")
        if self.percentage < 0 or self.percentage % 100 != 0:
            raise ConfigError("percentage must be a non-negative multiple of 100")


def oversample(train: FeatureMatrix, config: SmoteConfig) -> FeatureMatrix:
    """Append synthetic minority rows; original rows pass through unchanged."""
    if train.target is None or train.target.dtype != object:
        raise ConfigError("oversample requires a categorical target column")
    if config.percentage == 0:
        return train.take(range(train.n_rows))

    minority_idx = [i for i, t in enumerate(train.target) if t == config.target_class]
    m = len(minority_idx)
    if m < 2:
        raise RebalanceError(
            f"minority class {config.target_class} has {m} instance(s); "
            "need at least 2 to interpolate"
        )
    k = config.k_neighbors
    if k > m - 1:
        warnings.warn(
            f"k_neighbors={k} exceeds minority size - 1; clamping to {m - 1}",
            stacklevel=2,
        )
        k = m - 1

    minority = train.values[minority_idx]
    # Exact brute-force neighbour search, one row of distances at a time.
    dist = np.stack([np.sqrt(((row - minority) ** 2).sum(axis=1)) for row in minority])
    np.fill_diagonal(dist, np.inf)
    neighbors = np.argsort(dist, axis=1, kind="stable")[:, :k]

    rng = np.random.default_rng(config.seed)
    reps = config.percentage // 100
    synthetic = np.empty((m * reps, minority.shape[1]))
    row = 0
    for i in range(m):
        for _ in range(reps):
            nn = neighbors[i][rng.integers(k)]
            u = rng.random()
            synthetic[row] = minority[i] + u * (minority[nn] - minority[i])
            row += 1

    ids = list(train.student_ids) + [f"syn-{i + 1:04d}" for i in range(row)]
    values = np.vstack([train.values, synthetic])
    target = np.concatenate(
        [train.target, np.array([config.target_class] * row, dtype=object)]
    )
    return FeatureMatrix(ids, list(train.column_names), values, target, train.target_name)
