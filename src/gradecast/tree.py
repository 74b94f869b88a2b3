"""Entropy-based decision-tree induction over numeric features.

A ``TreeModel`` holds one array per node field, as scikit-learn's ``Tree``
does, each node before its children: ``feature`` (the column, -1 at a
leaf), ``threshold``, ``child`` (a split's children are ``child[i]`` and
``child[i] + 1``) and ``counts`` (nodes x classes). A leaf predicts the
majority of its counts, ties to the earlier class. Growing, pruning,
prediction and JSON use these arrays and never recurse, so depth is not
bounded by the recursion limit; ``TreeModel.root`` is a read-only view of
the tree as ``Leaf`` and ``Split`` objects.

Splits are binary numeric thresholds chosen by maximum gain ratio among
candidates with positive information gain; candidate thresholds are the
midpoints between consecutive distinct sorted values of each column.
Ties (within a small relative tolerance) keep the earliest feature column
and the lowest threshold, so induction is fully deterministic.

``train_trees`` grows one tree per row set of a matrix, and ``train_tree``
is its one-set case. Each column is binned once per call by its own sorted
distinct values, so the occupied bins of a node are exactly the node's
distinct values: the class histogram of SLIQ and SPRINT, with exact bins.
The trees grow together, one depth at a time: one ``bincount`` gives the
(class, node, bin) histogram of a batch of frontier nodes, and integer
cumulative sums along each node's bins give every candidate's left class
counts. The histogram spans all the matrix's bins, unless that would make it
larger than the batch's cells (rows x columns); then it spans only the bins
the batch occupies. Gains and ratios use the same elementwise formulas as a
one-node search, so every value is bit-identical. Only nodes that can split
are searched: a node of one class, or with fewer than ``2 * min_leaf`` rows,
is a leaf. A depth is searched in batches of nodes whose cells and histogram
each stay within ``_CHUNK_CELLS``, which bounds the search's memory on wide
matrices; a node too large for that is searched alone. Counts do not depend
on row order, so rows are regrouped node by node only when a depth has more
than one batch.

The tie rule is the one a threshold-by-threshold scan applies: the
scan-order displacement test runs per node, on the candidates whose ratio
beats all earlier ones of the node, the only ones that can displace the
running best. Rows are routed by ``value <= threshold``, so a midpoint that
rounds onto the upper value sends that value left, and a NaN goes right.

Optional pruning is pessimistic subtree replacement: a subtree collapses
to a leaf when the leaf's estimated error count (an upper confidence
bound on the binomial error rate at the configured confidence ``c``) does
not exceed the sum of its children's estimates. The bound's ``z`` is the
standard normal quantile of ``1 - c``, ``statistics.NormalDist().inv_cdf``
(Wichura's AS241, as CPython implements it). Every node's estimate as a leaf
is computed in one numpy expression per tree, in the scalar bound's order of
operations, so the estimates are bit-identical to the scalar ones.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass
from typing import Mapping, Optional, Union

import numpy as np

from .errors import ConfigError, PredictionError, TrainingError
from .features import FeatureMatrix
from .labeling import PerformanceCategory, label_codes

# Candidates must improve on the running best by this much to displace it;
# mathematically tied ratios computed in different orders stay tied.
_REL_TOL = 1e-9
_GAIN_EPS = 1e-12
# Cells one batch of a depth's node search may hold, both in bin codes
# (rows x columns) and in its class histogram (nodes x bins x classes).
_CHUNK_CELLS = 1 << 16


def entropy(class_counts) -> float:
    """Shannon entropy in bits of a class-count vector."""
    counts = list(class_counts)
    if any(c < 0 for c in counts):
        raise ValueError("class counts must be non-negative")
    if sum(counts) <= 0:
        raise ValueError("entropy of an empty node is undefined")
    return _entropy(counts)


def _entropy(counts: list[int]) -> float:
    """``entropy`` of a list of counts with a positive sum, unchecked."""
    total = sum(counts)
    ent = 0.0
    for c in counts:
        if c > 0:
            p = c / total
            ent -= p * math.log2(p)
    return ent


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
    """Induction settings.

    ``min_leaf``: a node with fewer than ``2 * min_leaf`` rows is not split.
    Children of a split may still hold fewer than ``min_leaf`` rows; the
    bound is on the node, not on each child.
    """

    min_leaf: int = 2
    pruning_confidence: float = 0.25
    pruning: bool = True

    def __post_init__(self):
        if self.min_leaf < 1:
            raise ConfigError("min_leaf must be >= 1")
        # Pruning takes the normal quantile of 1 - c, which must be below 1.
        if not 0.0 < 1.0 - self.pruning_confidence < 1.0:
            raise ConfigError("pruning_confidence must be in (0, 1), and 1 - it below 1")


@dataclass(eq=False)
class TreeModel:
    """A tree as node arrays; see the module docstring."""

    classes: list[object]
    column_names: list[str]
    config: TreeConfig
    feature: np.ndarray
    threshold: np.ndarray
    child: np.ndarray
    counts: np.ndarray

    @property
    def root(self) -> TreeNode:
        """The tree as ``Leaf`` and ``Split`` objects, children built first."""
        feature, cut, child = self.feature.tolist(), self.threshold.tolist(), self.child.tolist()
        counts, majority = self.counts.tolist(), self.counts.argmax(axis=1).tolist()
        nodes = [None] * len(child)
        for i in reversed(range(len(child))):
            c = child[i]
            if c < 0:
                nodes[i] = Leaf(self.classes[majority[i]], counts[i])
            else:
                name = self.column_names[feature[i]]
                nodes[i] = Split(name, cut[i], nodes[c], nodes[c + 1], counts[i])
        return nodes[0]


def _row_sums(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=1)``, bit for bit. numpy adds fewer than 8 columns left to
    right, as this does, but slowly along so short an axis."""
    if a.shape[1] >= 8:
        return a.sum(axis=1)
    total = a[:, 0]
    for j in range(1, a.shape[1]):
        total = total + a[:, j]
    return total


def _entropy_rows(count_rows: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Entropy of each row of a (m, k) count matrix with row totals ``sizes``."""
    p = count_rows / sizes[:, None]
    terms = np.where(p > 0, p, 1.0)
    np.log2(terms, out=terms)
    terms *= p
    return -_row_sums(terms)


def _bin_columns(values: np.ndarray):
    """Exact bins: each column binned by its own sorted distinct values.

    Returns the (n, m) code of every cell, 1 + its global bin (column j's
    bins follow column j - 1's), and each bin's value and column.
    """
    by_column = np.ascontiguousarray(values.T)
    order = np.argsort(by_column, axis=1)
    sv = np.take_along_axis(by_column, order, axis=1)
    new = np.ones(sv.shape, dtype=bool)
    new[:, 1:] = sv[:, 1:] != sv[:, :-1]
    per_column = new.sum(axis=1)
    offsets = np.cumsum(per_column) - per_column
    codes = np.empty(sv.shape, dtype=np.intp)
    np.put_along_axis(codes, order, np.cumsum(new, axis=1) + offsets[:, None], axis=1)
    column = np.repeat(np.arange(len(per_column)), per_column)
    return np.ascontiguousarray(codes.T), sv[new], column


def _search(bins, rows, node_of, labels, counts) -> dict[int, tuple[int, float, float, float]]:
    """The best split of each node of a batch that has one, by node.

    Node ``i`` holds the rows ``rows[node_of == i]`` with class indices
    ``labels`` and class counts ``counts[i]``, over its tree's classes; a
    hit is (column, threshold, gain, ratio).
    """
    codes, bin_value, bin_column = bins
    n_nodes, k = counts.shape
    n_slots = len(bin_value) + 1  # slot 0 of every node stays empty
    cells = codes[rows]
    if k * n_nodes * n_slots > cells.size:
        # Only the bins the batch occupies get slots, so that the histogram
        # is bounded by the batch's cells, not by the matrix's bins.
        used = np.zeros(n_slots, dtype=bool)
        used[cells] = True
        cells, used = used.cumsum()[cells], used.nonzero()[0] - 1
        n_slots, bin_value, bin_column = len(used) + 1, bin_value[used], bin_column[used]
    # The (class, node, slot) histogram: a node's slots are contiguous, and
    # a (node, slot) is occupied if any class counts it.
    cells += ((labels * n_nodes + node_of) * n_slots)[:, None]
    hist = np.bincount(cells.ravel(), minlength=k * n_nodes * n_slots).reshape(k, n_nodes, -1)
    # The occupied slots of a node are its distinct values, in scan order:
    # column first, then ascending value. A candidate threshold lies between
    # an occupied slot and the next one when both are in the same column.
    at = hist.any(axis=0).ravel().nonzero()[0]
    node, slot = np.divmod(at, n_slots)
    column = bin_column[slot - 1]
    cand = ((node[:-1] == node[1:]) & (column[:-1] == column[1:])).nonzero()[0]
    if cand.size == 0:
        return {}
    at, node, column = at[cand], node[cand], column[cand]
    # Class counts up to each slot. Every row has one cell in each column,
    # so the columns before column j hold j times the node's class counts.
    hist.cumsum(axis=2, out=hist)
    node_counts = counts[node]
    left_counts = hist.reshape(k, -1)[:, at].T - column[:, None] * node_counts
    nl = left_counts.sum(axis=1).astype(float)
    n = counts.sum(axis=1)[node].astype(float)
    nr = n - nl
    # Left and right children stacked, in C order, so that each row's
    # entropy terms are summed as a one-node search sums them.
    children = np.concatenate((left_counts, node_counts - left_counts), dtype=float)
    h_children = _entropy_rows(children, np.concatenate((nl, nr)))
    # Every node of a batch is searched, so its counts are not all zero.
    h_parent = np.array([_entropy(c) for c in counts.tolist()])[node]
    wl, wr = nl / n, nr / n
    gains = h_parent - wl * h_children[: len(cand)] - wr * h_children[len(cand) :]
    split_info = -(wl * np.log2(wl) + wr * np.log2(wr))
    ratios = np.where(gains > _GAIN_EPS, gains / split_info, -np.inf)
    # Only a ratio above every earlier one of its node can clear the
    # displacement bar, which is never below the node's running best, so the
    # scan visits just those. Slots are in scan order, so a running maximum
    # along each node's slots finds them.
    running = np.full(n_nodes * n_slots, -np.inf)
    running[at] = ratios
    running = np.maximum.accumulate(running.reshape(n_nodes, n_slots), axis=1).ravel()
    records = (ratios > running[at - 1]).nonzero()[0]
    best = {}  # node -> (its displacement bar, candidate)
    for i, c, ratio in zip(node[records].tolist(), records.tolist(), ratios[records].tolist()):
        if i not in best or ratio > best[i][0]:
            best[i] = ratio * (1.0 + _REL_TOL) + _GAIN_EPS, c
    hits = {}
    for i, (_bar, c) in best.items():
        p = cand[c]  # the winner's slot is slot[p], and the next occupied one slot[p + 1]
        cut = (bin_value[slot[p] - 1] + bin_value[slot[p + 1] - 1]) / 2.0
        hits[i] = int(column[c]), float(cut), float(gains[c]), float(ratios[c])
    return hits


def _best_split_arrays(
    values: np.ndarray, label_idx: np.ndarray, n_classes: int
) -> tuple[int, float, float, float] | None:
    """Best (column, threshold, gain, ratio) of one node, or None."""
    counts = np.bincount(label_idx, minlength=n_classes)[None]
    everything = np.arange(len(label_idx))
    return _search(_bin_columns(values), everything, everything * 0, label_idx, counts).get(0)


def _chunks(sizes: list[int], widths: list[int], n_columns: int, n_bins: int):
    """(start, stop) runs of nodes of one class count whose cells (rows x
    columns) and histogram (nodes x classes x occupied bins, at most the
    fewer of the cells and the matrix's bins) each fit in _CHUNK_CELLS, or
    single nodes."""
    start, rows = 0, 0
    for i, (size, width) in enumerate(zip(sizes, widths)):
        cells = (rows + size) * n_columns
        if i > start and (
            width != widths[start]
            or cells > _CHUNK_CELLS
            or (i - start + 1) * width * min(cells, n_bins) > _CHUNK_CELLS
        ):
            yield start, i
            start, rows = i, 0
        rows += size
    if sizes:
        yield start, len(sizes)


def _subtree(keep: np.ndarray, feature, threshold, child, counts):
    """(feature, threshold, child, counts) of the nodes ``keep`` selects,
    renumbered in order; a node whose ``child`` is -1 is a leaf, and a kept
    split's children must be kept."""
    number, child = np.cumsum(keep) - 1, child[keep]
    leaf = child < 0
    feature, threshold = np.where(leaf, -1, feature[keep]), np.where(leaf, 0.0, threshold[keep])
    return feature, threshold, np.where(leaf, -1, number[child]), counts[keep]


def _grow(
    values: np.ndarray,
    labels: list[np.ndarray],
    row_sets: list[np.ndarray],
    classes: list[list[object]],
    column_names: list[str],
    config: TreeConfig,
) -> list[TreeModel]:
    """Grow one tree per row set, all nodes of a depth at once.

    ``labels[t]`` holds the class indices of ``row_sets[t]`` in tree t's
    ``classes[t]``. Nodes are numbered across the batch: the roots first,
    then each depth's nodes, two per split in split order, so the k-th
    split's children are nodes ``n_trees + 2k`` and the next one.
    """
    bins = _bin_columns(values)
    widths = [len(c) for c in classes]
    k = max(widths)
    n_trees = len(row_sets)
    # Each row of the depth's nodes, its class index and its node in the
    # depth; a node's tree and class counts.
    rows, labels = np.concatenate(row_sets), np.concatenate(labels)
    node_of = np.repeat(np.arange(n_trees), [len(r) for r in row_sets])
    tree_of = np.arange(n_trees)
    counts = np.bincount(node_of * k + labels, minlength=n_trees * k).reshape(-1, k)
    # (feature, threshold, child, counts, tree) of each depth's nodes; a
    # leaf's feature and threshold are cleared by _subtree.
    depths = []
    n_nodes = n_trees  # nodes numbered so far
    while len(counts):
        sizes = counts.sum(axis=1)
        # A node of one class, or too small to split, is a leaf unsearched.
        can_split = (counts.max(axis=1) < sizes) & (sizes >= 2 * config.min_leaf)
        keep = can_split[node_of]
        rows, labels, node_of = rows[keep], labels[keep], node_of[keep]
        searched = can_split.nonzero()[0]
        at = (can_split.cumsum() - 1)[node_of]  # a row's node among the searched
        column, threshold = np.full(len(counts), -1), np.zeros(len(counts))
        node_sizes = sizes[searched].tolist()
        node_widths = [widths[t] for t in tree_of[searched].tolist()]
        chunks = list(_chunks(node_sizes, node_widths, values.shape[1], len(bins[1])))
        if len(chunks) > 1:  # each batch's rows must then be one run
            order = np.argsort(at, kind="stable")
            rows, labels, node_of, at = rows[order], labels[order], node_of[order], at[order]
        bounds = [0, *itertools.accumulate(node_sizes)]
        for lo, hi in chunks:
            r = slice(bounds[lo], bounds[hi])
            node_counts = counts[searched[lo:hi], : node_widths[lo]]
            for i, hit in _search(bins, rows[r], at[r] - lo, labels[r], node_counts).items():
                column[searched[lo + i]], threshold[searched[lo + i]] = hit[:2]
        # Routed by value, not by bin: a midpoint can round onto the upper
        # value, which then goes left, as the threshold test says.
        go_left = values[rows, column[node_of]] <= threshold[node_of]
        # A split that sends every row left would recur at its left child
        # forever; such a node stays a leaf.
        split = (column >= 0) & (np.bincount(node_of[go_left], minlength=len(sizes)) < sizes)
        rank = split.cumsum() - 1  # a split's index among the depth's splits
        child = np.where(split, n_nodes + 2 * rank, -1)
        depths.append((column, threshold, child, counts, tree_of))
        # The next depth: each split's rows go to its two children.
        tree_of = np.repeat(tree_of[split], 2)
        n_nodes += len(tree_of)
        keep = split[node_of]
        node_of = 2 * rank[node_of[keep]] + ~go_left[keep]
        rows, labels = rows[keep], labels[keep]
        counts = np.bincount(node_of * k + labels, minlength=len(tree_of) * k).reshape(-1, k)
    feature, threshold, child, counts, tree_of = (np.concatenate(a) for a in zip(*depths))
    return [
        TreeModel(
            cls, column_names, config,
            *_subtree(tree_of == t, feature, threshold, child, counts[:, : len(cls)]),
        )
        for t, cls in enumerate(classes)
    ]


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
    """A node's estimated error count as a leaf; ``_leaf_estimates`` is this
    over many nodes at once, bit for bit."""
    n = sum(counts)
    errors = n - max(counts)
    return n * _error_upper_bound(errors, n, z)


def _leaf_estimates(counts: np.ndarray, z: float) -> np.ndarray:
    """``_leaf_estimate`` of each row of a (nodes, classes) count matrix of
    nodes that hold rows, in its operation order; numpy's sqrt, like
    ``math.sqrt``, is correctly rounded."""
    n = counts.sum(axis=1)
    f = (n - counts.max(axis=1)) / n
    z2 = z * z
    bound = (f + z2 / (2 * n) + z * np.sqrt(f * (1 - f) / n + z2 / (4 * n * n))) / (1 + z2 / n)
    return n * np.minimum(1.0, bound)


def _prune(model: TreeModel) -> TreeModel:
    """Collapse every split whose estimated errors as a leaf do not exceed
    its children's, deepest first."""
    # Imported on first prune, not with the package: statistics and the modules
    # it loads would add about 2 ms to every import (2-vCPU host).
    from statistics import NormalDist

    z = NormalDist().inv_cdf(1.0 - model.config.pruning_confidence)
    estimates = _leaf_estimates(model.counts, z).tolist()
    child = model.child.tolist()
    # Children come after their parent, so a reverse pass meets them first.
    # A kept split's estimate becomes its subtree's; a collapsed one's
    # children are cut off.
    for i in reversed(range(len(child))):
        c = child[i]
        if c >= 0:
            subtree = estimates[c] + estimates[c + 1]
            if estimates[i] <= subtree + 1e-10:
                child[i] = -1
            else:
                estimates[i] = subtree
    reached = [True] + [False] * (len(child) - 1)
    for i, c in enumerate(child):
        if reached[i] and c >= 0:
            reached[c] = reached[c + 1] = True
    arrays = (model.feature, model.threshold, np.array(child), model.counts)
    return TreeModel(
        model.classes, model.column_names, model.config, *_subtree(np.array(reached), *arrays)
    )


def train_trees(
    matrix: FeatureMatrix, row_sets, config: TreeConfig | None = None
) -> list[TreeModel]:
    """Grow (and optionally prune) one classification tree per row set.

    Tree t is the tree ``train_tree(matrix.take(row_sets[t]), config)``
    gives; the trees are grown together, one depth at a time.
    """
    config = config or TreeConfig()
    if matrix.target is None or matrix.target.dtype != object:
        raise TrainingError("train_tree requires a categorical target column")
    row_sets = [np.asarray(rows, dtype=np.intp) for rows in row_sets]
    if any(len(rows) == 0 for rows in row_sets):
        raise TrainingError("training set is empty")
    if not row_sets:
        return []
    coded = [label_codes(matrix.target[rows]) for rows in row_sets]
    labels, classes = [codes for codes, _ in coded], [cls for _, cls in coded]
    models = _grow(matrix.values, labels, row_sets, classes, list(matrix.column_names), config)
    return [_prune(model) for model in models] if config.pruning else models


def train_tree(train: FeatureMatrix, config: TreeConfig | None = None) -> TreeModel:
    """Grow (and optionally prune) a classification tree."""
    return train_trees(train, [np.arange(train.n_rows)], config)[0]


def predict_many(model: TreeModel, values) -> list[object]:
    """Class of the leaf each row reaches; values equal to a threshold go
    left, and a NaN goes right."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != len(model.column_names):
        raise PredictionError(
            f"rows of shape {values.shape}, model expects {len(model.column_names)} values"
        )
    node = np.zeros(len(values), dtype=np.intp)
    active = np.arange(len(values))  # rows not yet at a leaf
    while active.size:
        at = node[active]
        split = model.child[at] >= 0
        active, at = active[split], at[split]
        right = ~(values[active, model.feature[at]] <= model.threshold[at])
        node[active] = model.child[at] + right
    majority = model.counts.argmax(axis=1)
    return [model.classes[i] for i in majority[node].tolist()]


def predict_tree(model: TreeModel, row) -> object:
    """``predict_many`` of one row: a sequence of values, or a mapping that
    names every column."""
    if isinstance(row, Mapping):
        missing = [name for name in model.column_names if name not in row]
        if missing:
            raise PredictionError(f"row is missing feature {missing[0]!r}")
        row = [row[name] for name in model.column_names]
    return predict_many(model, [row])[0]


def _label_to_json(label) -> str:
    return label.value if isinstance(label, PerformanceCategory) else str(label)


_NODE_ARRAYS = ("feature", "threshold", "child", "counts")


def to_json(model: TreeModel) -> str:
    doc = {
        "classes": [_label_to_json(c) for c in model.classes],
        "categorical": all(isinstance(c, PerformanceCategory) for c in model.classes),
        "columns": list(model.column_names),
        "config": asdict(model.config),
        **{name: getattr(model, name).tolist() for name in _NODE_ARRAYS},
    }
    return json.dumps(doc, indent=2)


def from_json(text: str) -> TreeModel:
    doc = json.loads(text)
    if doc.get("categorical"):
        labels = {c.value: c for c in PerformanceCategory}
    else:
        labels = {c: c for c in doc["classes"]}
    return TreeModel(
        [labels[c] for c in doc["classes"]], list(doc["columns"]), TreeConfig(**doc["config"]),
        *(np.array(doc[name]) for name in _NODE_ARRAYS),
    )
