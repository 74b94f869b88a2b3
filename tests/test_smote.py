import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gradecast.errors import ConfigError, RebalanceError
from gradecast.features import FeatureMatrix
from gradecast.labeling import PerformanceCategory
from gradecast.smote import SmoteConfig, oversample

PP, SP, GP = PerformanceCategory.PP, PerformanceCategory.SP, PerformanceCategory.GP


def matrix_with(labels, values):
    values = np.asarray(values, dtype=float)
    return FeatureMatrix(
        [f"s{i}" for i in range(len(labels))],
        [f"f{j}" for j in range(values.shape[1])],
        values,
        np.array(labels, dtype=object),
        "category",
    )


def test_two_point_minority_interpolates_on_segment():
    m = matrix_with([PP, PP, GP, GP], [[0, 0], [1, 1], [5, 5], [6, 6]])
    out = oversample(m, SmoteConfig(k_neighbors=1, percentage=100, seed=1))
    synth = out.values[4:]
    assert synth.shape == (2, 2)
    for row in synth:
        # on the segment between (0,0) and (1,1): x == y, both in [0,1]
        assert row[0] == pytest.approx(row[1])
        assert 0.0 <= row[0] <= 1.0


def test_percentage_zero_is_identity():
    m = matrix_with([PP, PP, GP], [[0, 0], [1, 1], [5, 5]])
    out = oversample(m, SmoteConfig(percentage=0, seed=7))
    assert out.n_rows == 3
    assert np.array_equal(out.values, m.values)
    assert out.student_ids == m.student_ids


def test_counts_law():
    labels = [PP] * 10 + [SP] * 30 + [GP] * 20
    rng = np.random.default_rng(3)
    m = matrix_with(labels, rng.normal(size=(60, 4)))
    for pct in (100, 200, 300):
        out = oversample(m, SmoteConfig(percentage=pct, seed=5))
        assert out.n_rows == 60 + (pct // 100) * 10
        pp_count = sum(1 for t in out.target if t is PP)
        assert pp_count == 10 + (pct // 100) * 10


def test_synthetic_rows_inside_minority_bounding_box():
    rng = np.random.default_rng(11)
    labels = [PP] * 15 + [GP] * 25
    values = np.vstack([rng.uniform(2, 3, size=(15, 3)), rng.uniform(8, 9, size=(25, 3))])
    m = matrix_with(labels, values)
    out = oversample(m, SmoteConfig(percentage=200, seed=2))
    synth = out.values[40:]
    lo = values[:15].min(axis=0)
    hi = values[:15].max(axis=0)
    assert np.all(synth >= lo - 1e-12)
    assert np.all(synth <= hi + 1e-12)


def test_originals_pass_through_unchanged():
    rng = np.random.default_rng(4)
    labels = [PP] * 5 + [SP] * 10
    values = rng.normal(size=(15, 3))
    m = matrix_with(labels, values)
    out = oversample(m, SmoteConfig(k_neighbors=4, percentage=100, seed=9))
    assert np.array_equal(out.values[:15], values)
    assert out.target[:15].tolist() == labels


def test_deterministic_per_seed():
    rng = np.random.default_rng(8)
    labels = [PP] * 6 + [GP] * 10
    m = matrix_with(labels, rng.normal(size=(16, 2)))
    a = oversample(m, SmoteConfig(percentage=100, seed=13))
    b = oversample(m, SmoteConfig(percentage=100, seed=13))
    assert np.array_equal(a.values, b.values)
    c = oversample(m, SmoteConfig(percentage=100, seed=14))
    assert not np.array_equal(c.values, a.values)


def test_minority_too_small_raises():
    m = matrix_with([PP, SP, SP, GP], [[0], [1], [2], [3]])
    with pytest.raises(RebalanceError):
        oversample(m, SmoteConfig(percentage=100, seed=0))


def test_k_is_clamped_with_warning():
    m = matrix_with([PP, PP, PP, GP, GP], np.arange(10).reshape(5, 2))
    with pytest.warns(UserWarning, match="clamping"):
        out = oversample(m, SmoteConfig(k_neighbors=5, percentage=100, seed=0))
    assert out.n_rows == 8


def test_config_validation():
    with pytest.raises(ConfigError):
        SmoteConfig(k_neighbors=0)
    with pytest.raises(ConfigError):
        SmoteConfig(percentage=150)
    with pytest.raises(ConfigError):
        SmoteConfig(percentage=-100)


def test_requires_categorical_target():
    values = np.arange(6, dtype=float).reshape(3, 2)
    m = FeatureMatrix(["a", "b", "c"], ["f0", "f1"], values, np.array([1.0, 2.0, 3.0]), "midterm")
    with pytest.raises(ConfigError):
        oversample(m, SmoteConfig())


def on_segment(row, a, b, tol=1e-9):
    """``row`` is ``a + u * (b - a)`` for some u in [0, 1], up to ``tol``."""
    d = b - a
    span = float(d @ d)
    u = 0.0 if span == 0.0 else float((row - a) @ d) / span
    return -tol <= u <= 1 + tol and np.max(np.abs(a + u * d - row)) <= tol


@given(st.data())
def test_synthetic_rows_lie_between_minority_row_and_a_k_nearest_neighbour(data):
    m = data.draw(st.integers(2, 8))
    n_major = data.draw(st.integers(1, 8))
    p = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(1, 6))
    percentage = data.draw(st.sampled_from([100, 200, 300]))
    seed = data.draw(st.integers(0, 2**16))
    # The minority sits in [0, 1]^p and the majority in [2, 3]^p.
    minority = np.array(data.draw(st.lists(st.floats(0, 1), min_size=m * p, max_size=m * p)))
    majority = np.array(
        data.draw(st.lists(st.floats(2, 3), min_size=n_major * p, max_size=n_major * p))
    )
    labels = [PP] * m + [GP] * n_major
    order = data.draw(st.permutations(range(m + n_major)))
    values = np.vstack([minority.reshape(m, p), majority.reshape(n_major, p)])[order]
    m_in = matrix_with([labels[i] for i in order], values)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # k clamped to m - 1
        out = oversample(m_in, SmoteConfig(k_neighbors=k, percentage=percentage, seed=seed))

    minority = m_in.values[[t is PP for t in m_in.target]]
    majority = m_in.values[[t is GP for t in m_in.target]]
    k = min(k, m - 1)
    synthetic = out.values[m + n_major:]
    assert len(synthetic) == m * percentage // 100
    # Synthetic rows come percentage / 100 per minority row, in minority order.
    reps = percentage // 100
    for r, row in enumerate(synthetic):
        assert not any(np.array_equal(row, other) for other in majority)
        i = r // reps
        dist = np.sqrt(((minority - minority[i]) ** 2).sum(axis=1))
        dist[i] = np.inf
        kth = np.sort(dist)[k - 1]
        near = [j for j in range(m) if dist[j] <= kth]
        assert any(on_segment(row, minority[i], minority[j]) for j in near)
