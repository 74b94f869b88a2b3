"""Entropy-based decision-tree induction over numeric features.

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
(node, bin, class) histogram of a batch of frontier nodes, over only the
bins the batch occupies, and integer cumulative sums along each node's bins
give every candidate's left class counts. Gains and ratios use the same
elementwise formulas as a one-node search, so every value is bit-identical.
Only nodes that can split are searched: a child of one class, or with fewer
than ``2 * min_leaf`` rows, becomes a leaf when its parent splits, and its
rows leave the frontier.
A depth is searched in batches of nodes whose cells (rows x columns) and
histogram (nodes x occupied bins x classes) each stay within
``_CHUNK_CELLS``, which bounds the search's memory on wide matrices; a node
too large for that is searched alone.

The tie rule is the one a threshold-by-threshold scan applies: the
scan-order displacement test runs per node, on the candidates whose ratio
beats all earlier ones of the node, the only ones that can displace the
running best. Rows are routed by ``value <= threshold``, so a midpoint that
rounds onto the upper value sends that value left. Growing and pruning use
no recursion, so tree depth is not bounded by the recursion limit.

Optional pruning is pessimistic subtree replacement: a subtree collapses
to a leaf when the leaf's estimated error count (an upper confidence
bound on the binomial error rate at the configured confidence) does not
exceed the sum of its children's estimates. Every node's estimate as a leaf
is computed in one numpy expression per tree, in the scalar bound's order of
operations, so the estimates are bit-identical to the scalar ones.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Union

import numpy as np

from .errors import ConfigError, PredictionError, TrainingError
from .features import FeatureMatrix
from .labeling import PerformanceCategory, label_codes
from .special import normal_quantile

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
    total = sum(counts)
    if total <= 0:
        raise ValueError("entropy of an empty node is undefined")
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

    Returns the (n, m) global bin code of every cell (column j's bins follow
    column j - 1's), and each bin's value and column.
    """
    by_column = np.ascontiguousarray(values.T)
    order = np.argsort(by_column, axis=1)
    sv = np.take_along_axis(by_column, order, axis=1)
    new = np.ones(sv.shape, dtype=bool)
    new[:, 1:] = sv[:, 1:] != sv[:, :-1]
    per_column = new.sum(axis=1)
    offsets = np.cumsum(per_column) - per_column
    codes = np.empty(sv.shape, dtype=np.intp)
    np.put_along_axis(codes, order, np.cumsum(new, axis=1) - 1 + offsets[:, None], axis=1)
    column = np.repeat(np.arange(len(per_column)), per_column)
    return np.ascontiguousarray(codes.T), sv[new], column


def _search(
    bins, rows: np.ndarray, node_of: np.ndarray, labels: np.ndarray, counts: np.ndarray
) -> list[tuple[int, float, float, float] | None]:
    """Best split of each of a batch of nodes, or None where there is none.

    Node ``i`` holds the rows ``rows[node_of == i]`` with class indices
    ``labels`` and class counts ``counts[i]``, over its tree's classes; a
    hit is (column, threshold, gain, ratio).
    """
    codes, bin_value, bin_column = bins
    n_nodes, k = counts.shape
    # The histogram spans only the bins the batch occupies, so its size is
    # bounded by the batch's cells, not by the matrix's number of bins.
    cell_bins = codes[rows]
    used = np.zeros(len(bin_value), dtype=bool)
    used[cell_bins] = True
    slot_of = np.cumsum(used)  # 1 + a used bin's index among the used bins
    used = np.nonzero(used)[0]
    n_slots = len(used) + 1
    bin_value, bin_column = bin_value[used], bin_column[used]
    # Each cell's (node, slot), flat; slot 0 of every node stays empty, so
    # that the cumulative sums along a node's slots start from zero.
    at = slot_of[cell_bins] + (node_of * n_slots)[:, None]
    occupied = np.zeros(n_nodes * n_slots, dtype=bool)
    occupied[at] = True
    hist = np.bincount((at * k + labels[:, None]).ravel(), minlength=n_nodes * n_slots * k)
    hist = hist.reshape(n_nodes, n_slots, k)
    # The occupied bins of a node are its distinct values, in scan order:
    # column first, then ascending value. A candidate threshold lies between
    # an occupied bin and the next one when both are in the same column.
    at = np.nonzero(occupied)[0]
    node, slot = np.divmod(at, n_slots)
    column = bin_column[slot - 1]
    cand = np.nonzero((node[:-1] == node[1:]) & (column[:-1] == column[1:]))[0]
    results = [None] * n_nodes
    if cand.size == 0:
        return results
    at, node, column = at[cand], node[cand], column[cand]
    low, high = bin_value[slot[cand] - 1], bin_value[slot[cand + 1] - 1]
    # Class counts up to each slot. Every row has one cell in each column,
    # so the columns before column j hold j times the node's class counts.
    np.cumsum(hist, axis=1, out=hist)
    node_counts = counts[node]
    left_counts = np.take(hist.reshape(-1, k), at, axis=0) - column[:, None] * node_counts
    nl = _row_sums(left_counts).astype(float)
    n = _row_sums(node_counts).astype(float)
    nr = n - nl
    # Left and right children stacked, in C order, so that each row's
    # entropy terms are summed as a one-node search sums them.
    children = np.concatenate((left_counts, node_counts - left_counts), dtype=float)
    h_children = _entropy_rows(children, np.concatenate((nl, nr)))
    h_parent = np.array([entropy(c) for c in counts.tolist()])[node]
    wl = nl / n
    wr = nr / n
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
    records = np.nonzero(ratios > running[at - 1])[0]
    best = {}  # node -> (its displacement bar, candidate)
    for i, c, ratio in zip(node[records].tolist(), records.tolist(), ratios[records].tolist()):
        if i not in best or ratio > best[i][0]:
            best[i] = ratio * (1.0 + _REL_TOL) + _GAIN_EPS, c
    for i, (_bar, c) in best.items():
        threshold = float((low[c] + high[c]) / 2.0)
        results[i] = int(column[c]), threshold, float(gains[c]), float(ratios[c])
    return results


def _best_split_arrays(
    values: np.ndarray, label_idx: np.ndarray, n_classes: int
) -> tuple[int, float, float, float] | None:
    """Best (column, threshold, gain, ratio) of one node, or None."""
    counts = np.bincount(label_idx, minlength=n_classes)[None]
    everything = np.arange(len(label_idx))
    bins = _bin_columns(values)
    return _search(bins, everything, np.zeros_like(everything), label_idx, counts)[0]


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


def _grow(
    values: np.ndarray,
    labels: list[np.ndarray],
    row_sets: list[np.ndarray],
    classes: list[list[object]],
    column_names: list[str],
    config: TreeConfig,
) -> list[TreeNode]:
    """Grow one tree per row set, all frontier nodes of a depth at once.

    ``labels[t]`` holds the class indices of ``row_sets[t]`` in tree t's
    ``classes[t]``.
    """
    bins = _bin_columns(values)
    widths = [len(c) for c in classes]
    k = max(widths)
    tops = [Split("", 0.0, None, None) for _ in row_sets]  # roots in left slots
    # One (tree, parent, slot) per frontier node; the nodes' rows, and their
    # class indices, lie back to back in ``rows`` and ``labels``.
    frontier = [(t, top, "left") for t, top in enumerate(tops)]
    rows, labels = np.concatenate(row_sets), np.concatenate(labels)
    sizes = np.array([len(r) for r in row_sets])
    node_of = np.repeat(np.arange(len(sizes)), sizes)
    counts = np.bincount(node_of * k + labels, minlength=len(sizes) * k).reshape(-1, k)
    while frontier:
        n_nodes = len(frontier)
        column = np.full(n_nodes, -1)
        threshold = np.zeros(n_nodes)
        bounds = np.concatenate(([0], np.cumsum(sizes))).tolist()
        node_widths = [widths[t] for t, _parent, _slot in frontier]
        for lo, hi in _chunks(sizes.tolist(), node_widths, values.shape[1], len(bins[1])):
            r = slice(bounds[lo], bounds[hi])
            found = _search(
                bins, rows[r], node_of[r] - lo, labels[r], counts[lo:hi, : node_widths[lo]]
            )
            for i, hit in enumerate(found, lo):
                if hit is not None:
                    column[i], threshold[i] = hit[0], hit[1]
        # A root may be too small to split; a deeper node that cannot split
        # became a leaf with its parent, below, and was not searched.
        column[sizes < 2 * config.min_leaf] = -1
        split = column >= 0
        if split.any():
            # Routed by value, not by bin: a midpoint can round onto the
            # upper value, which then goes left, as the threshold test says.
            go_left = values[rows, column[node_of]] <= threshold[node_of]
            # A split that sends every row left would recur at its left
            # child forever; such a node stays a leaf.
            split &= np.bincount(node_of[go_left], minlength=n_nodes) < sizes
            # Node i's left child is child 2i, its right one 2i + 1. A child
            # of one class, or too small to split, has no split to find.
            child = 2 * node_of + ~go_left
            keep = split[node_of]
            children = np.bincount(
                child[keep] * k + labels[keep], minlength=2 * n_nodes * k
            ).reshape(-1, k)
            child_sizes = children.sum(axis=1)
            grows = (children.max(axis=1) < child_sizes) & (child_sizes >= 2 * config.min_leaf)
            child_counts, child_majority = children.tolist(), children.argmax(axis=1).tolist()
        next_frontier = []
        for i, ((t, parent, slot), node_counts, is_split, j, cut, majority) in enumerate(
            zip(
                frontier, counts.tolist(), split.tolist(), column.tolist(),
                threshold.tolist(), counts.argmax(axis=1).tolist(),
            )
        ):
            node_counts = node_counts[: widths[t]]
            if not is_split:
                setattr(parent, slot, Leaf(classes[t][majority], node_counts))
                continue
            node = Split(column_names[j], cut, None, None, node_counts)
            setattr(parent, slot, node)
            for c, side in ((2 * i, "left"), (2 * i + 1, "right")):
                if grows[c]:
                    next_frontier.append((t, node, side))
                else:
                    leaf_counts = child_counts[c][: widths[t]]
                    setattr(node, side, Leaf(classes[t][child_majority[c]], leaf_counts))
        if next_frontier:
            keep = grows[child]
            order = np.argsort(child[keep], kind="stable")
            rows, labels = rows[keep][order], labels[keep][order]
            counts, sizes = children[grows], child_sizes[grows]
            node_of = np.repeat(np.arange(len(next_frontier)), sizes)
        frontier = next_frontier
    return [top.left for top in tops]


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


def _prune(root: TreeNode, classes: list[object], z: float) -> TreeNode:
    nodes = []  # pre-order, so every split comes before its descendants
    stack = [root]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if isinstance(node, Split):
            stack.extend((node.right, node.left))
    counts = np.array([node.counts for node in nodes])
    estimates = _leaf_estimates(counts, z).tolist()
    majority = counts.argmax(axis=1).tolist()  # ties to the earlier class
    # id of an original node -> (its replacement, estimated errors)
    pruned = {id(node): (node, est) for node, est in zip(nodes, estimates)}
    for i in reversed(range(len(nodes))):
        node = nodes[i]
        if isinstance(node, Leaf):
            continue
        left, left_est = pruned[id(node.left)]
        right, right_est = pruned[id(node.right)]
        subtree_est = left_est + right_est
        if estimates[i] <= subtree_est + 1e-10:
            pruned[id(node)] = Leaf(classes[majority[i]], node.counts), estimates[i]
        else:
            split = Split(node.feature, node.threshold, left, right, node.counts)
            pruned[id(node)] = split, subtree_est
    return pruned[id(root)][0]


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
    column_names = list(matrix.column_names)
    roots = _grow(matrix.values, labels, row_sets, classes, column_names, config)
    if config.pruning:
        z = normal_quantile(1.0 - config.pruning_confidence)
        roots = [_prune(root, cls, z) for root, cls in zip(roots, classes)]
    return [
        TreeModel(cls, column_names, root, config) for cls, root in zip(classes, roots)
    ]


def train_tree(train: FeatureMatrix, config: TreeConfig | None = None) -> TreeModel:
    """Grow (and optionally prune) a classification tree."""
    return train_trees(train, [np.arange(train.n_rows)], config)[0]


def _row_reader(model: TreeModel, row):
    """Function from a feature name to that feature's value in ``row``."""
    if isinstance(row, Mapping):

        def value(feature: str) -> float:
            try:
                return float(row[feature])
            except KeyError:
                raise PredictionError(f"row is missing feature {feature!r}") from None

        return value
    if len(row) != len(model.column_names):
        raise PredictionError(
            f"row has {len(row)} values, model expects {len(model.column_names)}"
        )
    index = model._column_index
    return lambda feature: float(row[index[feature]])


def predict_tree(model: TreeModel, row) -> object:
    """Class of the leaf reached; values equal to a threshold go left."""
    node = model.root
    if isinstance(node, Split):
        value = _row_reader(model, row)
        while isinstance(node, Split):
            node = node.left if value(node.feature) <= node.threshold else node.right
    return node.label


def predict_many(model: TreeModel, values: np.ndarray) -> list[object]:
    # Python floats read and compare faster than numpy scalars, node by node.
    return [predict_tree(model, row) for row in np.asarray(values).tolist()]


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
