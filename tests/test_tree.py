import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradecast.errors import PredictionError, TrainingError
from gradecast.features import FeatureMatrix
from gradecast import tree as tree_module
from gradecast.labeling import PerformanceCategory, class_order
from gradecast.special import normal_quantile
from gradecast.tree import (
    Leaf,
    Split,
    TreeConfig,
    TreeModel,
    _best_split_arrays,
    _leaf_estimate,
    entropy,
    from_json,
    predict_many,
    predict_tree,
    to_json,
    train_tree,
    train_trees,
)

PP, SP, GP = PerformanceCategory.PP, PerformanceCategory.SP, PerformanceCategory.GP


def matrix_of(values, labels):
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values.reshape(-1, 1)
    return FeatureMatrix(
        [f"s{i}" for i in range(len(labels))],
        [f"f{j}" for j in range(values.shape[1])],
        values,
        np.array(labels, dtype=object),
        "category",
    )


# ---------------------------------------------------------------- entropy

def test_entropy_balanced_binary_is_one_bit():
    assert entropy([4, 4]) == pytest.approx(1.0)


def test_entropy_pure_node_is_zero():
    assert entropy([8, 0]) == 0.0


def test_entropy_frozen_three_class_value():
    # independent evaluation of -sum(p log2 p) for p = .2, .3, .5
    expected = -(0.2 * math.log2(0.2) + 0.3 * math.log2(0.3) + 0.5 * math.log2(0.5))
    assert expected == pytest.approx(1.4854752972273344, abs=1e-12)
    assert entropy([2, 3, 5]) == pytest.approx(expected, abs=1e-12)
    assert round(entropy([2, 3, 5]), 4) == 1.4855


def test_entropy_bounds_and_errors():
    rng = np.random.default_rng(0)
    for _ in range(100):
        k = int(rng.integers(2, 5))
        counts = rng.integers(0, 20, size=k)
        if counts.sum() == 0:
            continue
        h = entropy(counts.tolist())
        assert 0.0 <= h <= math.log2(k) + 1e-12
    assert entropy([7, 7, 7]) == pytest.approx(math.log2(3))
    with pytest.raises(ValueError):
        entropy([0, 0])
    with pytest.raises(ValueError):
        entropy([-1, 2])


# ------------------------------------------------------------- gain ratio

def two_child_split(children):
    """One column and class indices whose only candidate split, at 0.5, has
    these (left, right) class counts."""
    values, label_idx = [], []
    for value, counts in enumerate(children):
        for cls, count in enumerate(counts):
            values += [value] * count
            label_idx += [cls] * count
    return np.array(values, dtype=float).reshape(-1, 1), np.array(label_idx)


def test_gain_ratio_perfect_balanced_split():
    values, label_idx = two_child_split([[4, 0], [0, 4]])
    assert _best_split_arrays(values, label_idx, 2) == (0, 0.5, 1.0, 1.0)


def test_gain_ratio_zero_when_children_mirror_parent():
    # No positive gain, so no split.
    values, label_idx = two_child_split([[2, 2], [2, 2]])
    assert _best_split_arrays(values, label_idx, 2) is None


def test_gain_ratio_frozen_value():
    # gain = 1 - H(0.8, 0.2), split_info = 1
    h = -(0.8 * math.log2(0.8) + 0.2 * math.log2(0.2))
    expected = 1.0 - h
    assert expected == pytest.approx(0.27807190511263774, abs=1e-12)
    values, label_idx = two_child_split([[4, 1], [1, 4]])
    _column, _threshold, gain, ratio = _best_split_arrays(values, label_idx, 2)
    assert gain == pytest.approx(expected, abs=1e-12)
    assert ratio == pytest.approx(expected, abs=1e-12)
    assert round(ratio, 4) == 0.2781


def test_gain_ratio_invariant_under_class_relabeling():
    rng = np.random.default_rng(5)
    for _ in range(50):
        parent = rng.integers(1, 10, size=3)
        left = np.array([rng.integers(0, c + 1) for c in parent])
        children = [left.tolist(), (parent - left).tolist()]
        if sum(children[0]) == 0 or sum(children[1]) == 0:
            continue
        values, label_idx = two_child_split(children)
        base = _best_split_arrays(values, label_idx, 3)
        for perm in itertools.permutations(range(3)):
            hit = _best_split_arrays(values, np.array(perm)[label_idx], 3)
            if base is None:
                assert hit is None
            else:
                assert hit[:2] == base[:2]
                assert hit[2:] == pytest.approx(base[2:])


# ------------------------------------------------------------- best split

# Both the implementation and this oracle treat ratios within this relative
# tolerance as tied and keep the earliest (column, threshold) candidate.
_REL_TOL = 1e-9
_GAIN_EPS = 1e-12


def _oracle_entropy(labels):
    total = len(labels)
    ent = 0.0
    for value in sorted(set(labels), key=str):
        count = sum(1 for l in labels if l == value)
        if count:
            p = count / total
            ent -= p * math.log2(p)
    return ent


def oracle_best_split(values, labels):
    """Exhaustive enumeration of every (column, midpoint) candidate."""
    values = np.asarray(values, dtype=float)
    labels = list(labels)
    n = len(labels)
    h_parent = _oracle_entropy(labels)
    best = None  # (ratio, col, threshold)
    for j in range(values.shape[1]):
        distinct = sorted(set(values[:, j]))
        for a, b in zip(distinct, distinct[1:]):
            threshold = (a + b) / 2.0
            left = [labels[i] for i in range(n) if values[i, j] <= threshold]
            right = [labels[i] for i in range(n) if values[i, j] > threshold]
            nl, nr = len(left), len(right)
            wl, wr = nl / n, nr / n
            gain = h_parent - wl * _oracle_entropy(left) - wr * _oracle_entropy(right)
            if gain <= _GAIN_EPS:
                continue
            split_info = -(wl * math.log2(wl) + wr * math.log2(wr))
            ratio = gain / split_info
            if best is None or ratio > best[0] * (1.0 + _REL_TOL) + _GAIN_EPS:
                best = (ratio, j, threshold)
    if best is None:
        return None
    _, j, threshold = best
    return j, threshold


def test_best_split_unique_perfect_threshold():
    hit = _best_split_arrays(np.array([[1.0], [2.0], [3.0], [4.0]]), np.array([0, 0, 1, 1]), 2)
    assert hit[:2] == (0, 2.5)
    assert hit[3] == pytest.approx(1.0)


def test_best_split_none_when_pure():
    assert _best_split_arrays(np.array([[1.0], [2.0], [3.0]]), np.array([0, 0, 0]), 1) is None


def test_best_split_none_when_no_positive_gain():
    # same value everywhere: no candidate thresholds at all
    values = np.full((4, 1), 2.0)
    assert _best_split_arrays(values, np.array([0, 1, 0, 1]), 2) is None


def test_best_split_matches_bruteforce_oracle():
    rng = np.random.default_rng(1234)
    for _ in range(60):
        n = int(rng.integers(4, 16))
        p = int(rng.integers(1, 3))
        values = np.round(rng.uniform(0, 10, size=(n, p)), 1)
        labels = [str(c) for c in rng.integers(0, 3, size=n)]
        classes, label_idx = np.unique(labels, return_inverse=True)
        ours = _best_split_arrays(values, label_idx, len(classes))
        ref = oracle_best_split(values, labels)
        if ref is None:
            assert ours is None
            continue
        assert ours[:2] == ref


# Frozen per-column scan that node search used to run, one threshold at a
# time; the vectorised search must return exactly the same tuple.
def _reference_entropy_rows(count_rows, sizes):
    p = count_rows / sizes[:, None]
    safe = np.where(p > 0, p, 1.0)
    return -(np.where(p > 0, p * np.log2(safe), 0.0)).sum(axis=1)


def reference_best_split_arrays(values, label_idx, n_classes):
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
        gains = (
            h_parent
            - wl * _reference_entropy_rows(left, nl)
            - wr * _reference_entropy_rows(right, nr)
        )
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


@given(st.data())
def test_node_search_equals_reference_scan_exactly(data):
    n = data.draw(st.integers(2, 60))
    p = data.draw(st.integers(1, 5))
    k = data.draw(st.integers(1, 3))
    decimals = data.draw(st.sampled_from([0, 1]))
    cells = data.draw(st.lists(st.floats(0, 10), min_size=n * p, max_size=n * p))
    values = np.round(np.array(cells).reshape(n, p), decimals)
    label_idx = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    assert _best_split_arrays(values, label_idx, k) == reference_best_split_arrays(
        values, label_idx, k
    )


def test_node_search_ignores_roundoff_gain():
    # The split at 1.0 leaves both children at the parent's 50/50 mix; its
    # computed gain is 1.1e-16, below _GAIN_EPS, so there is no split.
    values = np.array([[0.0], [3.0], [3.0], [0.0], [2.0], [2.0]])
    label_idx = np.array([0, 0, 1, 1, 1, 0])
    assert _best_split_arrays(values, label_idx, 2) is None
    assert reference_best_split_arrays(values, label_idx, 2) is None


def test_node_search_keeps_earlier_of_identical_columns():
    column = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    values = np.column_stack([column, column])
    label_idx = np.array([0, 0, 1, 0, 1, 1])
    hit = _best_split_arrays(values, label_idx, 2)
    assert hit == reference_best_split_arrays(values, label_idx, 2)
    assert hit[0] == 0


# Frozen one-tree induction that training used to run: a node at a time
# from a stack, each searched by the frozen scan above, then pruned
# bottom-up. Every tree that train_trees grows must equal it.
def reference_grow(values, label_idx, classes, column_names, config):
    top = Split("", 0.0, None, None)
    stack = [(np.arange(len(label_idx)), top, "left")]
    while stack:
        rows, parent, slot = stack.pop()
        sub_values, sub_labels = values[rows], label_idx[rows]
        counts = np.bincount(sub_labels, minlength=len(classes))
        hit = None
        if np.count_nonzero(counts) > 1 and len(rows) >= 2 * config.min_leaf:
            hit = reference_best_split_arrays(sub_values, sub_labels, len(classes))
        if hit is None:
            setattr(parent, slot, Leaf(classes[int(np.argmax(counts))], counts.tolist()))
            continue
        j, threshold, _gain, _ratio = hit
        node = Split(column_names[j], threshold, None, None, counts.tolist())
        setattr(parent, slot, node)
        mask = sub_values[:, j] <= threshold
        stack.append((rows[~mask], node, "right"))
        stack.append((rows[mask], node, "left"))
    return top.left


@given(st.data())
def test_leaf_estimates_equal_the_scalar_estimate_bit_for_bit(data):
    k = data.draw(st.integers(1, 4))
    node = st.lists(st.integers(0, 10**6), min_size=k, max_size=k).filter(any)
    counts = data.draw(st.lists(node, min_size=1, max_size=20))
    z = normal_quantile(1.0 - data.draw(st.floats(0.01, 0.99)))
    estimates = tree_module._leaf_estimates(np.array(counts), z)
    assert estimates.tolist() == [_leaf_estimate(c, z) for c in counts]


def reference_prune(root, classes, z):
    splits, stack = [], [root]
    while stack:
        node = stack.pop()
        if isinstance(node, Split):
            splits.append(node)
            stack.extend((node.right, node.left))
    pruned = {}

    def result(node):
        if isinstance(node, Leaf):
            return node, _leaf_estimate(node.counts, z)
        return pruned[id(node)]

    for node in reversed(splits):
        left, left_est = result(node.left)
        right, right_est = result(node.right)
        as_leaf_est = _leaf_estimate(node.counts, z)
        if as_leaf_est <= left_est + right_est + 1e-10:
            label = classes[int(np.argmax(node.counts))]
            pruned[id(node)] = Leaf(label, node.counts), as_leaf_est
        else:
            split = Split(node.feature, node.threshold, left, right, node.counts)
            pruned[id(node)] = split, left_est + right_est
    return result(root)[0]


@pytest.mark.parametrize(
    "as_leaf, collapses", [(2.0, True), (2.0 + 5e-11, True), (2.0 + 1e-9, False)]
)
def test_pruning_collapses_a_split_whose_estimate_ties_its_children_within_1e_10(
    monkeypatch, as_leaf, collapses
):
    # A root split over two leaves whose estimates sum to 2.0: a tie, or an
    # excess within the 1e-10 tolerance, collapses it; a larger excess keeps it.
    model = TreeModel(
        [PP, GP],
        ["f0"],
        TreeConfig(),
        feature=np.array([0, -1, -1]),
        threshold=np.array([0.5, 0.0, 0.0]),
        child=np.array([1, -1, -1]),
        counts=np.array([[2, 2], [2, 0], [0, 2]]),
    )
    estimates = np.array([as_leaf, 1.0, 1.0])
    monkeypatch.setattr(tree_module, "_leaf_estimates", lambda counts, z: estimates)
    kept = Split("f0", 0.5, Leaf(PP, [2, 0]), Leaf(GP, [0, 2]), [2, 2])
    assert tree_module._prune(model).root == (Leaf(PP, [2, 2]) if collapses else kept)


def reference_train_tree(train, config):
    classes = class_order(train.target)
    index = {c: i for i, c in enumerate(classes)}
    label_idx = np.array([index[t] for t in train.target])
    root = reference_grow(train.values, label_idx, classes, train.column_names, config)
    if config.pruning:
        root = reference_prune(root, classes, normal_quantile(1.0 - config.pruning_confidence))
    return classes, root


@settings(deadline=None)
@given(st.data())
def test_train_trees_equals_frozen_one_tree_induction(data):
    n = data.draw(st.integers(1, 30))
    p = data.draw(st.integers(1, 3))
    decimals = data.draw(st.sampled_from([0, 1]))
    cells = data.draw(st.lists(st.floats(0, 4), min_size=n * p, max_size=n * p))
    values = np.round(np.array(cells).reshape(n, p), decimals)
    if data.draw(st.booleans()):
        values = np.column_stack([values, values[:, data.draw(st.integers(0, p - 1))]])
    pool = [PP, SP, GP] if data.draw(st.booleans()) else ["a", "b", "c", "d"]
    labels = data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    rows = st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)
    row_sets = data.draw(st.lists(rows, min_size=1, max_size=4))
    config = TreeConfig(min_leaf=data.draw(st.integers(1, 3)), pruning=data.draw(st.booleans()))
    # A cap of one cell searches every node alone; 64 mixes batch sizes.
    cap = data.draw(st.sampled_from([1, 64, tree_module._CHUNK_CELLS]))
    m = matrix_of(values, labels)
    with mock.patch.object(tree_module, "_CHUNK_CELLS", cap):
        models = train_trees(m, row_sets, config)
    assert len(models) == len(row_sets)
    for model, rows in zip(models, row_sets):
        classes, root = reference_train_tree(m.take(rows), config)
        assert model.classes == classes
        assert model.config == config
        assert model.root == root


def node_arrays(model):
    return [getattr(model, name).tolist() for name in ("feature", "threshold", "child", "counts")]


@settings(deadline=None)
@given(st.data())
def test_train_trees_ignores_row_order_and_a_constant_column(data):
    n = data.draw(st.integers(1, 40))
    p = data.draw(st.integers(1, 4))
    cells = data.draw(st.lists(st.integers(0, 5), min_size=n * p, max_size=n * p))
    values = np.array(cells, dtype=float).reshape(n, p) / data.draw(st.sampled_from([1, 2, 3]))
    labels = data.draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=n, max_size=n))
    rows = st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)
    row_sets = data.draw(st.lists(rows, min_size=1, max_size=4))
    config = TreeConfig(min_leaf=data.draw(st.integers(1, 3)), pruning=data.draw(st.booleans()))
    # Old row i is row moved[i] of the permuted matrix; each row set is
    # shuffled too, so that the rows of a depth arrive in another order.
    order = np.array(data.draw(st.permutations(range(n))), dtype=np.intp)
    moved = np.argsort(order)
    moved_sets = [moved[data.draw(st.permutations(rows))] for rows in row_sets]
    constant = np.full((n, 1), data.draw(st.sampled_from([0.0, 2.0, 7.5])))
    m = matrix_of(values, labels)
    permuted = matrix_of(values[order], np.array(labels, dtype=object)[order])
    widened = matrix_of(np.hstack([values, constant]), labels)
    # A cap of one cell searches every node alone; 64 mixes batch sizes.
    cap = data.draw(st.sampled_from([1, 64, tree_module._CHUNK_CELLS]))
    with mock.patch.object(tree_module, "_CHUNK_CELLS", cap):
        models = train_trees(m, row_sets, config)
        permuted_models = train_trees(permuted, moved_sets, config)
        widened_models = train_trees(widened, row_sets, config)
    for model, again, wide in zip(models, permuted_models, widened_models, strict=True):
        assert node_arrays(again) == node_arrays(model)
        assert to_json(again) == to_json(model)
        assert node_arrays(wide) == node_arrays(model)
        doc, wide_doc = json.loads(to_json(model)), json.loads(to_json(wide))
        assert wide_doc.pop("columns") == doc.pop("columns") + [f"f{p}"]
        assert wide_doc == doc


def benchmark_shaped_matrix(kind):
    """Three classes over 48 columns: 350 rows of 0/1 values, as a fold of a
    testcase-outcome matrix, or those rows and 100 SMOTE-style rows between
    two of them, whose many distinct values give thousands of bins."""
    rng = np.random.default_rng(28)
    ability = rng.random(350)
    values = (rng.random((350, 48)) < ability[:, None]).astype(float)
    grade = ability + rng.normal(0.0, 0.15, 350)
    if kind == "distinct":
        a, b = rng.integers(0, 350, size=(2, 100))
        gap = rng.random((100, 1))
        values = np.vstack([values, values[a] + gap * (values[b] - values[a])])
        grade = np.concatenate([grade, grade[a] + gap[:, 0] * (grade[b] - grade[a])])
    labels = np.array([PP, SP, GP], dtype=object)[np.digitize(grade, [0.4, 0.7])]
    return matrix_of(values, labels)


class BincountLengths:
    """numpy, as tree.py sees it, recording the length of every bincount."""

    def __init__(self):
        self.lengths = []

    def __getattr__(self, name):
        return getattr(np, name)

    def bincount(self, x, minlength=0):
        self.lengths.append(minlength)
        return np.bincount(x, minlength=minlength)


@pytest.mark.parametrize(
    "kind, expected_layouts",
    [("binary", {"all bins"}), ("distinct", {"all bins", "occupied bins"})],
)
def test_train_tree_equals_frozen_induction_at_benchmark_shapes(kind, expected_layouts):
    m = benchmark_shaped_matrix(kind)
    numpy, layouts = BincountLengths(), set()
    search = tree_module._search

    def recording_search(bins, rows, node_of, labels, counts):
        # The search's one bincount is its histogram: one slot per bin of
        # the matrix, and an empty slot 0, for each node and class, or fewer.
        hits = search(bins, rows, node_of, labels, counts)
        every_bin = numpy.lengths[-1] == counts.size * (len(bins[1]) + 1)
        layouts.add("all bins" if every_bin else "occupied bins")
        return hits

    for pruning in (False, True):
        config = TreeConfig(pruning=pruning)
        with mock.patch.object(tree_module, "_search", recording_search):
            with mock.patch.object(tree_module, "np", numpy):
                model = train_tree(m, config)
        assert (model.classes, model.root) == reference_train_tree(m, config)
    # 0/1 columns have so few bins that the histogram spans them all; with
    # thousands of bins it spans the occupied ones, until deep nodes hold
    # more cells than all bins would take.
    assert layouts == expected_layouts
    assert _depth(model.root) >= 3


def test_split_whose_midpoint_rounds_onto_the_upper_value_is_not_taken():
    low = 1.0 + 2.0**-52
    high = float(np.nextafter(low, 2.0))
    # The midpoint rounds onto ``high``, so both rows would go left and the
    # left child would be its parent again.
    assert (low + high) / 2.0 == high
    m = matrix_of([low, high], ["a", "b"])
    assert _best_split_arrays(m.values, np.array([0, 1]), 2)[1] == high
    model = train_tree(m, TreeConfig(min_leaf=1, pruning=False))
    assert isinstance(model.root, Leaf)
    assert model.root.counts == [1, 1]


# ---------------------------------------------------------------- training

def test_train_pure_input_yields_single_leaf():
    m = matrix_of([1, 2, 3], [PP, PP, PP])
    model = train_tree(m)
    assert isinstance(model.root, Leaf)
    assert model.root.label is PP


def test_train_simple_1d_split():
    m = matrix_of([1, 2, 3, 4], [PP, PP, GP, GP])
    model = train_tree(m, TreeConfig(pruning=False))
    root = model.root
    assert isinstance(root, Split)
    assert root.threshold == pytest.approx(2.5)
    assert isinstance(root.left, Leaf) and root.left.label is PP
    assert isinstance(root.right, Leaf) and root.right.label is GP


def test_train_xor_style_matches_per_node_oracle():
    values = np.array(
        [[0, 0], [0, 1], [1, 0], [1, 1], [0.2, 0.1], [0.1, 0.9], [0.9, 0.2], [0.8, 0.8]]
    )
    labels = ["A", "B", "B", "A", "A", "B", "B", "A"]
    m = matrix_of(values, labels)
    model = train_tree(m, TreeConfig(min_leaf=1, pruning=False))

    def check(node, idx):
        if isinstance(node, Leaf):
            return
        ref = oracle_best_split(values[idx], [labels[i] for i in idx])
        assert ref is not None
        j, threshold = ref
        assert node.feature == f"f{j}"
        assert node.threshold == threshold
        mask = values[idx, j] <= threshold
        check(node.left, idx[mask])
        check(node.right, idx[~mask])

    check(model.root, np.arange(len(labels)))
    # depth-2 tree that classifies the XOR layout perfectly
    assert all(
        predict_tree(model, row) == lab for row, lab in zip(values, labels)
    )


def test_training_rows_reproduced_by_unpruned_tree():
    rng = np.random.default_rng(77)
    values = rng.uniform(0, 1, size=(24, 3))
    labels = ["A" if v[0] + v[1] > 1 else "B" for v in values]
    m = matrix_of(values, labels)
    model = train_tree(m, TreeConfig(min_leaf=1, pruning=False))
    assert predict_many(model, values) == labels


def test_training_is_deterministic():
    rng = np.random.default_rng(3)
    values = rng.uniform(0, 5, size=(30, 2))
    labels = [str(c) for c in rng.integers(0, 2, size=30)]
    m = matrix_of(values, labels)
    a = train_tree(m)
    b = train_tree(m)
    assert to_json(a) == to_json(b)


def test_leaf_tie_breaks_to_earlier_category():
    m = matrix_of([1, 1, 2, 2], [SP, GP, GP, SP])
    model = train_tree(m, TreeConfig(pruning=False))
    assert isinstance(model.root, Leaf)
    # tie between SP and GP resolves to SP (earlier in PP < SP < GP)
    assert model.root.label is SP


def test_pruning_never_improves_training_accuracy():
    rng = np.random.default_rng(21)
    for seed in range(8):
        rng = np.random.default_rng(seed)
        values = rng.uniform(0, 1, size=(40, 2))
        labels = [
            ("A" if v[0] > 0.5 else "B") if rng.random() > 0.2 else ("B" if v[0] > 0.5 else "A")
            for v in values
        ]
        m = matrix_of(values, labels)
        unpruned = train_tree(m, TreeConfig(min_leaf=1, pruning=False))
        pruned = train_tree(m, TreeConfig(min_leaf=1, pruning=True))
        acc_u = np.mean([predict_tree(unpruned, v) == l for v, l in zip(values, labels)])
        acc_p = np.mean([predict_tree(pruned, v) == l for v, l in zip(values, labels)])
        assert acc_u >= acc_p


def test_chosen_splits_always_have_positive_gain():
    rng = np.random.default_rng(9)
    values = rng.uniform(0, 1, size=(30, 3))
    labels = [str(c) for c in rng.integers(0, 3, size=30)]
    model = train_tree(matrix_of(values, labels), TreeConfig(min_leaf=1, pruning=False))

    def walk(node):
        if isinstance(node, Split):
            assert math.isfinite(node.threshold)
            walk(node.left)
            walk(node.right)

    walk(model.root)


def test_empty_training_set_raises():
    m = matrix_of(np.zeros((0, 1)), [])
    with pytest.raises(TrainingError):
        train_tree(m)


def _depth(root):
    deepest, stack = 0, [(root, 0)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        if isinstance(node, Split):
            stack.extend([(node.left, depth + 1), (node.right, depth + 1)])
    return deepest


@pytest.mark.parametrize(
    "config",
    [TreeConfig(min_leaf=1, pruning=False), TreeConfig()],
    ids=["unpruned-min-leaf-1", "defaults"],
)
def test_deep_one_feature_tree_trains_and_predicts_without_recursion(config):
    n = 2500
    labels = [PP if i % 2 == 0 else GP for i in range(n)]
    m = matrix_of(np.arange(n), labels)
    model = train_tree(m, config)
    # Deeper than CPython's default recursion limit of 1000.
    assert _depth(model.root) > 1000
    predictions = predict_many(model, m.values)
    assert len(predictions) == n
    assert all(p in (PP, GP) for p in predictions)


def test_deep_one_feature_tree_round_trips_through_json():
    n = 2500
    labels = [PP if i % 2 == 0 else GP for i in range(n)]
    m = matrix_of(np.arange(n), labels)
    model = train_tree(m, TreeConfig(min_leaf=1, pruning=False))
    text = to_json(model)
    again = from_json(text)
    assert to_json(again) == text
    assert predict_many(again, m.values) == labels


# -------------------------------------------------------------- prediction

def reference_predict(root, column_names, row):
    """Frozen per-row walk that prediction used to run."""
    index = {name: j for j, name in enumerate(column_names)}
    node = root
    while isinstance(node, Split):
        node = node.left if row[index[node.feature]] <= node.threshold else node.right
    return node.label


@settings(deadline=None)
@given(st.data())
def test_predict_many_equals_a_per_row_walk_of_the_root(data):
    n = data.draw(st.integers(1, 30))
    p = data.draw(st.integers(1, 3))
    cells = data.draw(st.lists(st.integers(0, 4), min_size=n * p, max_size=n * p))
    values = np.array(cells, dtype=float).reshape(n, p)
    labels = data.draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=n, max_size=n))
    config = TreeConfig(min_leaf=data.draw(st.integers(1, 2)), pruning=data.draw(st.booleans()))
    model = train_tree(matrix_of(values, labels), config)
    root = model.root
    thresholds, stack = [], [root]
    while stack:
        node = stack.pop()
        if isinstance(node, Split):
            thresholds.append(node.threshold)
            stack.extend((node.left, node.right))
    # Cells equal to a threshold, training values, NaN and values between.
    cell = st.sampled_from(thresholds + cells + [math.nan]) | st.floats(-1, 5)
    m = data.draw(st.integers(0, 20))  # no rows at all too
    rows = np.array(data.draw(st.lists(cell, min_size=m * p, max_size=m * p))).reshape(m, p)
    expected = [reference_predict(root, model.column_names, row) for row in rows.tolist()]
    assert predict_many(model, rows) == expected
    assert [predict_tree(model, row) for row in rows] == expected


def test_predict_boundary_value_goes_left():
    m = matrix_of([1, 2, 3, 4], [PP, PP, GP, GP])
    model = train_tree(m, TreeConfig(pruning=False))
    assert predict_tree(model, [2.5]) is PP
    assert predict_tree(model, [2.5000001]) is GP


def test_predict_accepts_mapping_and_reports_missing_feature():
    m = matrix_of([1, 2, 3, 4], [PP, PP, GP, GP])
    model = train_tree(m, TreeConfig(pruning=False))
    assert predict_tree(model, {"f0": 1.0}) is PP
    with pytest.raises(PredictionError):
        predict_tree(model, {"other": 1.0})
    with pytest.raises(PredictionError):
        predict_tree(model, [1.0, 2.0])


def test_single_leaf_predicts_its_class_for_any_row():
    m = matrix_of([5, 6], [GP, GP])
    model = train_tree(m)
    assert predict_tree(model, [0.0]) is GP
    assert predict_tree(model, [99.0]) is GP


# ------------------------------------------------------------ serialization

@settings(deadline=None)
@given(st.data())
def test_pruning_a_reloaded_unpruned_tree_equals_training_with_pruning(data):
    n = data.draw(st.integers(1, 40))
    cells = data.draw(st.lists(st.integers(0, 6), min_size=2 * n, max_size=2 * n))
    labels = data.draw(st.lists(st.sampled_from([PP, SP, GP]), min_size=n, max_size=n))
    m = matrix_of(np.array(cells).reshape(n, 2), labels)
    min_leaf = data.draw(st.integers(1, 3))
    confidence = data.draw(st.sampled_from([0.1, 0.25, 0.5]))
    config = TreeConfig(min_leaf=min_leaf, pruning_confidence=confidence, pruning=False)
    reloaded = from_json(to_json(train_tree(m, config)))
    assert reloaded.config == config
    pruned = train_tree(m, TreeConfig(min_leaf=min_leaf, pruning_confidence=confidence))
    assert tree_module._prune(reloaded).root == pruned.root


def test_json_round_trip_exact():
    rng = np.random.default_rng(6)
    values = rng.uniform(0, 1, size=(40, 3))
    labels = np.where(values[:, 0] + 0.3 * values[:, 1] > 0.7, PP, GP).tolist()
    m = matrix_of(values, labels)
    model = train_tree(m, TreeConfig(min_leaf=1, pruning=False))
    text = to_json(model)
    again = from_json(text)
    assert to_json(again) == text
    assert predict_many(again, values) == predict_many(model, values)
    assert again.classes == model.classes


def test_json_round_trip_generic_labels():
    m = matrix_of([1, 2, 3, 4], ["cat", "cat", "dog", "dog"])
    model = train_tree(m, TreeConfig(pruning=False))
    again = from_json(to_json(model))
    assert predict_tree(again, [1.5]) == "cat"
