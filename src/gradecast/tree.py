"""Entropy-based decision-tree induction over numeric features.

Splits are binary numeric thresholds chosen by maximum gain ratio among
candidates with positive information gain; candidate thresholds are the
midpoints between consecutive distinct sorted values of each column.
Ties (within a small relative tolerance) keep the earliest feature column
and the lowest threshold, so induction is fully deterministic.

Optional pruning is pessimistic subtree replacement: a subtree collapses
to a leaf when the leaf's estimated error count (an upper confidence
bound on the binomial error rate at the configured confidence) does not
exceed the sum of its children's estimates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Union

import numpy as np

from .errors import ConfigError, PredictionError, TrainingError
from .features import FeatureMatrix
from .labeling import PerformanceCategory, class_order
from .special import normal_quantile

# Candidates must improve on the running best by this much to displace it;
# mathematically tied ratios computed in different orders stay tied.
_REL_TOL = 1e-9
_GAIN_EPS = 1e-12


def entropy(class_counts) -> float:
    """Shannon entropy in bits of a class-count vector."""
    counts = list(class_counts)
    if any(c < 0 for c in counts):
        raise ValueError("class counts must be non-negative")
    total = sum(counts)
    if total <= 0:
        raise ValueError("entropy of an empty node is undefined")
    ent = 0.0
    for c in counts:
        if c > 0:
            p = c / total
            ent -= p * math.log2(p)
    return ent


def gain_ratio(parent_counts, children_counts) -> float:
    """Information gain over split info; 0 when the split info is 0."""
    parent = list(parent_counts)
    children = [list(c) for c in children_counts]
    if not children:
        raise ValueError("gain_ratio requires at least one child")
    sums = [sum(col) for col in zip(*children)]
    if len(sums) != len(parent) or sums != parent:
        raise ValueError("children class counts do not partition the parent")
    n = sum(parent)
    h_parent = entropy(parent)
    gain = h_parent
    split_info = 0.0
    for child in children:
        size = sum(child)
        if size == 0:
            continue
        w = size / n
        gain -= w * entropy(child)
        split_info -= w * math.log2(w)
    if split_info <= 0.0:
        return 0.0
    return gain / split_info


@dataclass
class SplitCandidate:
    feature: str
    threshold: float
    gain: float
    ratio: float


@dataclass
class Leaf:
    label: object
    counts: list[int]


@dataclass
class Split:
    feature: str
    threshold: float
    left: "TreeNode"
    right: "TreeNode"
    counts: Optional[list[int]] = None


TreeNode = Union[Leaf, Split]


@dataclass(frozen=True)
class TreeConfig:
    min_leaf: int = 2
    pruning_confidence: float = 0.25
    pruning: bool = True

    def __post_init__(self):
        if self.min_leaf < 1:
            raise ConfigError("min_leaf must be >= 1")
        if not 0.0 < self.pruning_confidence < 1.0:
            raise ConfigError("pruning_confidence must be in (0, 1)")


@dataclass
class TreeModel:
    classes: list[object]
    column_names: list[str]
    root: TreeNode
    config: TreeConfig = field(default_factory=TreeConfig)

    def __post_init__(self):
        self._column_index = {name: i for i, name in enumerate(self.column_names)}

    def column_index(self, name: str) -> int:
        return self._column_index[name]


def _entropy_rows(count_rows: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Entropy of each row of a (m, k) count matrix with row totals ``sizes``."""
    p = count_rows / sizes[:, None]
    safe = np.where(p > 0, p, 1.0)
    return -(np.where(p > 0, p * np.log2(safe), 0.0)).sum(axis=1)


def _best_split_arrays(
    values: np.ndarray, label_idx: np.ndarray, n_classes: int
) -> tuple[int, float, float, float] | None:
    n = len(label_idx)
    parent_counts = np.bincount(label_idx, minlength=n_classes)
    h_parent = entropy(parent_counts.tolist())

    best = None  # (ratio, gain, column, threshold)
    one_hot = np.zeros((n, n_classes), dtype=np.int64)
    one_hot[np.arange(n), label_idx] = 1
    for j in range(values.shape[1]):
        col = values[:, j]
        order = np.argsort(col, kind="stable")
        sv = col[order]
        cum = np.cumsum(one_hot[order], axis=0)
        boundaries = np.nonzero(sv[:-1] != sv[1:])[0]
        if boundaries.size == 0:
            continue
        left = cum[boundaries].astype(float)
        right = parent_counts.astype(float) - left
        nl = (boundaries + 1).astype(float)
        nr = n - nl
        wl = nl / n
        wr = nr / n
        gains = h_parent - wl * _entropy_rows(left, nl) - wr * _entropy_rows(right, nr)
        split_info = -(wl * np.log2(wl) + wr * np.log2(wr))
        thresholds = (sv[boundaries] + sv[boundaries + 1]) / 2.0
        for pos in range(len(boundaries)):
            gain = gains[pos]
            if gain <= _GAIN_EPS:
                continue
            ratio = gain / split_info[pos]
            if best is None or ratio > best[0] * (1.0 + _REL_TOL) + _GAIN_EPS:
                best = (float(ratio), float(gain), j, float(thresholds[pos]))
    if best is None:
        return None
    ratio, gain, j, threshold = best
    return j, threshold, gain, ratio


def best_split(matrix: FeatureMatrix) -> SplitCandidate | None:
    """Best (feature, threshold) by gain ratio for the rows of ``matrix``."""
    if matrix.target is None:
        raise TrainingError("best_split requires a target column")
    if matrix.n_rows < 2:
        return None
    classes = class_order(matrix.target)
    index = {c: i for i, c in enumerate(classes)}
    label_idx = np.array([index[t] for t in matrix.target])
    hit = _best_split_arrays(matrix.values, label_idx, len(classes))
    if hit is None:
        return None
    j, threshold, gain, ratio = hit
    return SplitCandidate(matrix.column_names[j], threshold, gain, ratio)


def _majority(counts: np.ndarray, classes: list[object]) -> object:
    # Ties break toward the earlier class in the model's class order.
    return classes[int(np.argmax(counts))]


def _grow(
    values: np.ndarray,
    label_idx: np.ndarray,
    classes: list[object],
    column_names: list[str],
    config: TreeConfig,
) -> TreeNode:
    counts = np.bincount(label_idx, minlength=len(classes))
    if np.count_nonzero(counts) <= 1 or len(label_idx) < 2 * config.min_leaf:
        return Leaf(_majority(counts, classes), counts.tolist())
    hit = _best_split_arrays(values, label_idx, len(classes))
    if hit is None:
        return Leaf(_majority(counts, classes), counts.tolist())
    j, threshold, _gain, _ratio = hit
    mask = values[:, j] <= threshold
    left = _grow(values[mask], label_idx[mask], classes, column_names, config)
    right = _grow(values[~mask], label_idx[~mask], classes, column_names, config)
    return Split(column_names[j], threshold, left, right, counts.tolist())


def _error_upper_bound(errors: float, n: float, z: float) -> float:
    if n <= 0:
        return 0.0
    f = errors / n
    z2 = z * z
    bound = (f + z2 / (2 * n) + z * math.sqrt(f * (1 - f) / n + z2 / (4 * n * n))) / (
        1 + z2 / n
    )
    return min(1.0, bound)


def _leaf_estimate(counts, z: float) -> float:
    n = sum(counts)
    errors = n - max(counts)
    return n * _error_upper_bound(errors, n, z)


def _prune(node: TreeNode, classes: list[object], z: float) -> tuple[TreeNode, float]:
    if isinstance(node, Leaf):
        return node, _leaf_estimate(node.counts, z)
    left, left_est = _prune(node.left, classes, z)
    right, right_est = _prune(node.right, classes, z)
    node = Split(node.feature, node.threshold, left, right, node.counts)
    subtree_est = left_est + right_est
    as_leaf_est = _leaf_estimate(node.counts, z)
    if as_leaf_est <= subtree_est + 1e-10:
        counts = np.array(node.counts)
        return Leaf(_majority(counts, classes), node.counts), as_leaf_est
    return node, subtree_est


def train_tree(train: FeatureMatrix, config: TreeConfig | None = None) -> TreeModel:
    """Grow (and optionally prune) a classification tree."""
    config = config or TreeConfig()
    if train.target is None or train.target.dtype != object:
        raise TrainingError("train_tree requires a categorical target column")
    if train.n_rows == 0:
        raise TrainingError("training set is empty")
    classes = class_order(train.target)
    index = {c: i for i, c in enumerate(classes)}
    label_idx = np.array([index[t] for t in train.target])
    root = _grow(train.values, label_idx, classes, list(train.column_names), config)
    if config.pruning:
        z = normal_quantile(1.0 - config.pruning_confidence)
        root, _ = _prune(root, classes, z)
    return TreeModel(classes, list(train.column_names), root, config)


def _row_value(model: TreeModel, row, feature: str) -> float:
    if isinstance(row, Mapping):
        try:
            return float(row[feature])
        except KeyError:
            raise PredictionError(f"row is missing feature {feature!r}") from None
    if len(row) != len(model.column_names):
        raise PredictionError(
            f"row has {len(row)} values, model expects {len(model.column_names)}"
        )
    return float(row[model.column_index(feature)])


def predict_tree(model: TreeModel, row) -> object:
    """Class of the leaf reached; values equal to a threshold go left."""
    node = model.root
    while isinstance(node, Split):
        node = node.left if _row_value(model, row, node.feature) <= node.threshold else node.right
    return node.label


def predict_many(model: TreeModel, values: np.ndarray) -> list[object]:
    return [predict_tree(model, row) for row in np.asarray(values)]


def _label_to_json(label) -> str:
    return label.value if isinstance(label, PerformanceCategory) else str(label)


def _node_to_json(node: TreeNode) -> dict:
    if isinstance(node, Leaf):
        return {"class": _label_to_json(node.label), "counts": list(node.counts)}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "left": _node_to_json(node.left),
        "right": _node_to_json(node.right),
    }


def _node_from_json(doc: dict, labels: dict) -> TreeNode:
    if "class" in doc:
        return Leaf(labels[doc["class"]], list(doc["counts"]))
    return Split(
        doc["feature"],
        float(doc["threshold"]),
        _node_from_json(doc["left"], labels),
        _node_from_json(doc["right"], labels),
    )


def to_json(model: TreeModel) -> str:
    doc = {
        "classes": [_label_to_json(c) for c in model.classes],
        "categorical": all(isinstance(c, PerformanceCategory) for c in model.classes),
        "columns": list(model.column_names),
        "root": _node_to_json(model.root),
    }
    return json.dumps(doc, indent=2)


def from_json(text: str) -> TreeModel:
    doc = json.loads(text)
    if doc.get("categorical"):
        labels = {c.value: c for c in PerformanceCategory}
    else:
        labels = {c: c for c in doc["classes"]}
    classes = [labels[c] for c in doc["classes"]]
    return TreeModel(classes, list(doc["columns"]), _node_from_json(doc["root"], labels))
