import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gradecast.errors import PredictionError, TrainingError
from gradecast.features import FeatureMatrix
from gradecast.labeling import PerformanceCategory
from gradecast.tree import (
    Leaf,
    Split,
    TreeConfig,
    _best_split_arrays,
    best_split,
    entropy,
    from_json,
    gain_ratio,
    predict_many,
    predict_tree,
    to_json,
    train_tree,
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

def test_gain_ratio_perfect_balanced_split():
    assert gain_ratio([4, 4], [[4, 0], [0, 4]]) == pytest.approx(1.0)


def test_gain_ratio_zero_when_children_mirror_parent():
    assert gain_ratio([4, 4], [[2, 2], [2, 2]]) == pytest.approx(0.0)


def test_gain_ratio_frozen_value():
    # gain = 1 - H(0.8, 0.2), split_info = 1
    h = -(0.8 * math.log2(0.8) + 0.2 * math.log2(0.2))
    expected = 1.0 - h
    assert expected == pytest.approx(0.27807190511263774, abs=1e-12)
    assert gain_ratio([5, 5], [[4, 1], [1, 4]]) == pytest.approx(expected, abs=1e-12)
    assert round(gain_ratio([5, 5], [[4, 1], [1, 4]]), 4) == 0.2781


def test_gain_ratio_requires_partition():
    with pytest.raises(ValueError):
        gain_ratio([4, 4], [[4, 0], [0, 3]])


def test_gain_ratio_invariant_under_class_relabeling():
    rng = np.random.default_rng(5)
    for _ in range(50):
        parent = rng.integers(1, 10, size=3)
        left = np.array([rng.integers(0, c + 1) for c in parent])
        children = [left.tolist(), (parent - left).tolist()]
        if sum(children[0]) == 0 or sum(children[1]) == 0:
            continue
        base = gain_ratio(parent.tolist(), children)
        for perm in itertools.permutations(range(3)):
            permuted_parent = [parent[i] for i in perm]
            permuted_children = [[c[i] for i in perm] for c in children]
            assert gain_ratio(permuted_parent, permuted_children) == pytest.approx(base)


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
    m = matrix_of([1, 2, 3, 4], ["A", "A", "B", "B"])
    hit = best_split(m)
    assert hit.feature == "f0"
    assert hit.threshold == pytest.approx(2.5)
    assert hit.ratio == pytest.approx(1.0)


def test_best_split_none_when_pure():
    m = matrix_of([1, 2, 3], ["A", "A", "A"])
    assert best_split(m) is None


def test_best_split_none_when_no_positive_gain():
    # same value everywhere: no candidate thresholds at all
    m = matrix_of([2, 2, 2, 2], ["A", "B", "A", "B"])
    assert best_split(m) is None


def test_best_split_matches_bruteforce_oracle():
    rng = np.random.default_rng(1234)
    for _ in range(60):
        n = int(rng.integers(4, 16))
        p = int(rng.integers(1, 3))
        values = np.round(rng.uniform(0, 10, size=(n, p)), 1)
        labels = [str(c) for c in rng.integers(0, 3, size=n)]
        m = matrix_of(values, labels)
        ours = best_split(m)
        ref = oracle_best_split(values, labels)
        if ref is None:
            assert ours is None
            continue
        j, threshold = ref
        assert ours.feature == f"f{j}"
        assert ours.threshold == threshold


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


# -------------------------------------------------------------- prediction

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
