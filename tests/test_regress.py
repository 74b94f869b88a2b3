import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from gradecast.errors import PredictionError, SingularityError, TrainingError
from gradecast.regress import (
    Diagnostics,
    FitStats,
    PowerTransform,
    RegressionModel,
    diagnostics,
    fit_least_squares,
    fit_transformed,
    fold_predictions,
    predict_grade,
    predict_grades,
    suggest_power,
)


def normal_equations_oracle(X, y):
    """Independent solution of (X'X) beta = X'y on the intercept-augmented design."""
    X = np.asarray(X, dtype=float)
    design = np.column_stack([np.ones(len(X)), X])
    return np.linalg.solve(design.T @ design, design.T @ y)


# ------------------------------------------------------------------ fitting

def test_exact_line_recovers_coefficients():
    x = np.array([0.0, 1.0, 2.0, 3.0, 4.0]).reshape(-1, 1)
    y = 2.0 * x[:, 0] + 1.0
    model = fit_least_squares(x, y)
    assert model.coefficients == pytest.approx([1.0, 2.0], abs=1e-12)
    assert model.fit_stats.residual_std == pytest.approx(0.0, abs=1e-9)
    assert model.fit_stats.r2 == pytest.approx(1.0)


def test_intercept_only_model_is_the_mean():
    y = np.array([3.0, 5.0, 10.0])
    model = fit_least_squares(np.zeros((3, 0)), y)
    assert model.coefficients == pytest.approx([y.mean()])
    assert model.fit_stats.f_statistic is None
    assert model.fit_stats.p_value is None


def test_matches_normal_equations_oracle():
    rng = np.random.default_rng(42)
    X = rng.normal(size=(12, 3))
    y = rng.normal(size=12)
    model = fit_least_squares(X, y)
    expected = normal_equations_oracle(X, y)
    assert np.allclose(model.coefficients, expected, rtol=1e-9, atol=1e-12)


def test_residuals_orthogonal_to_design():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(40, 4))
    y = rng.normal(size=40) * 5 + 3
    model = fit_least_squares(X, y)
    design = np.column_stack([np.ones(40), X])
    residuals = y - design @ model.coefficients
    bound = 1e-8 * np.linalg.norm(y)
    assert np.all(np.abs(design.T @ residuals) <= bound)


def test_r2_never_decreases_with_extra_column():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(30, 2))
    y = X[:, 0] * 2 + rng.normal(size=30)
    small = fit_least_squares(X[:, :1], y)
    big = fit_least_squares(X, y)
    assert big.fit_stats.r2 >= small.fit_stats.r2 - 1e-12
    assert 0.0 <= small.fit_stats.r2 <= 1.0


def test_rank_deficient_design_names_columns():
    X = np.column_stack([np.arange(8.0), np.arange(8.0) * 2.0])
    y = np.arange(8.0)
    with pytest.raises(SingularityError) as err:
        fit_least_squares(X, y, columns=["a", "twice_a"])
    assert "twice_a" in err.value.columns or "a" in err.value.columns


def test_too_few_rows_raises():
    with pytest.raises(TrainingError):
        fit_least_squares(np.ones((3, 2)), np.ones(3))


def test_f_test_pvalue_matches_scipy():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(25, 3))
    y = X[:, 0] + rng.normal(size=25)
    model = fit_least_squares(X, y)
    s = model.fit_stats
    assert s.p_value == pytest.approx(
        scipy.stats.f.sf(s.f_statistic, s.p, s.n - s.p - 1), rel=1e-9
    )
    assert 0.0 <= s.p_value <= 1.0


def test_null_pvalues_are_roughly_uniform():
    # pure-noise targets: p < .05 should happen in roughly 5% of runs
    rng_master = np.random.default_rng(100)
    hits = 0
    runs = 200
    for _ in range(runs):
        rng = np.random.default_rng(rng_master.integers(2**63))
        X = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        model = fit_least_squares(X, y)
        if model.fit_stats.p_value < 0.05:
            hits += 1
    assert 0.01 * runs <= hits <= 0.12 * runs


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["X", "y"])
def test_a_non_finite_input_is_a_training_error(bad, where):
    rng = np.random.default_rng(6)
    X = rng.uniform(1.0, 10.0, size=(12, 2))
    y = X @ [2.0, 3.0] + rng.normal(size=12) + 20.0
    if where == "X":
        X[4, 1] = bad
    else:
        y[4] = bad
    with pytest.raises(TrainingError, match="NaN or an infinity"):
        fit_least_squares(X, y)
    # Row 4 is in every fold's training rows but fold 2's.
    test = np.arange(12).reshape(6, 2)
    train = np.stack([np.setdiff1d(np.arange(12), rows) for rows in test])
    with pytest.raises(TrainingError, match="NaN or an infinity"):
        fold_predictions(np.column_stack([np.ones(12), X]), y, train, test)
    if where == "y" and bad < 0:
        with pytest.raises(ValueError, match="target \\+ offset > 0"):
            fit_transformed(X, y)
    else:
        with pytest.raises(TrainingError, match="NaN or an infinity"):
            fit_transformed(X, y)


def test_fold_predictions_raise_the_first_failing_folds_error():
    # Column "a" is nonzero on row 0 only and the target is NaN on row 1, so
    # a fold that tests rows 0 and 1 has a singular but finite training
    # design, and every other fold trains on the NaN.
    rng = np.random.default_rng(9)
    X = rng.normal(size=(12, 2))
    X[1:, 0] = 0.0
    y = rng.normal(size=12)
    y[1] = math.nan
    singular, non_finite, both = [0, 1], [2, 3], [0, 2]

    def first_error(*tests):
        test = np.array(tests)
        train = np.stack([np.setdiff1d(np.arange(12), rows) for rows in test])
        with pytest.raises((SingularityError, TrainingError)) as err:
            fold_predictions(np.column_stack([np.ones(12), X]), y, train, test, ["a", "b"])
        return err.value

    err = first_error(singular, non_finite)
    assert isinstance(err, SingularityError) and err.columns == ["a"]
    assert type(first_error(non_finite, singular)) is TrainingError
    # An item both non-finite and singular fails its finiteness test first.
    assert type(first_error(both, singular)) is TrainingError


# -------------------------------------------------------------- diagnostics

def test_exact_fit_has_zero_residuals():
    x = np.linspace(1, 10, 8).reshape(-1, 1)
    y = 3 * x[:, 0] + 2
    model = fit_least_squares(x, y)
    diag = diagnostics(model, x, y)
    assert np.allclose(diag.residuals, 0, atol=1e-9)
    assert np.allclose(diag.fitted, y, atol=1e-9)


def test_leverage_sums_to_parameter_count():
    rng = np.random.default_rng(19)
    for p in (1, 2, 4):
        X = rng.normal(size=(30, p))
        y = rng.normal(size=30)
        model = fit_least_squares(X, y)
        diag = diagnostics(model, X, y)
        assert diag.leverage.sum() == pytest.approx(p + 1, abs=1e-9)
        assert np.all((diag.leverage >= -1e-12) & (diag.leverage <= 1 + 1e-12))
        # residuals of an intercept model sum to ~0
        assert abs(diag.residuals.sum()) <= 1e-8 * np.abs(y).sum()


def test_studentized_residuals_formula():
    rng = np.random.default_rng(23)
    X = rng.normal(size=(15, 2))
    y = rng.normal(size=15)
    model = fit_least_squares(X, y)
    diag = diagnostics(model, X, y)
    s = model.fit_stats.residual_std
    expected = diag.residuals / (s * np.sqrt(1 - diag.leverage))
    assert np.allclose(diag.studentized, expected)


# ------------------------------------------------------------ power suggest

def _simulate(n, seed, spread_proportional):
    rng = np.random.default_rng(seed)
    x = rng.uniform(1.0, 10.0, size=(n, 1))
    mu = 20.0 + 8.0 * x[:, 0]
    sd = 0.08 * mu if spread_proportional else 4.0
    y = mu + rng.normal(size=n) * sd
    return x, y


def test_homoscedastic_data_suggests_lambda_near_one():
    lams = []
    for seed in range(30):
        x, y = _simulate(150, seed, spread_proportional=False)
        model = fit_least_squares(x, y)
        lams.append(suggest_power(model, diagnostics(model, x, y)))
    assert abs(np.median(lams) - 1.0) < 0.15


def test_spread_proportional_to_level_suggests_lambda_near_zero():
    lams = []
    for seed in range(30):
        x, y = _simulate(150, seed, spread_proportional=True)
        model = fit_least_squares(x, y)
        lams.append(suggest_power(model, diagnostics(model, x, y)))
    assert abs(np.median(lams)) < 0.2


def test_zero_residuals_is_a_domain_error():
    x = np.arange(1.0, 9.0).reshape(-1, 1)
    y = 2 * x[:, 0] + 5
    model = fit_least_squares(x, y)
    diag = diagnostics(model, x, y)
    with pytest.raises(ValueError):
        suggest_power(model, diag)


def _rows_of(diag, rows):
    columns = diag.fitted, diag.residuals, diag.leverage, diag.studentized
    return Diagnostics(*(column[rows] for column in columns))


def test_nonpositive_fitted_rows_are_left_out_of_the_power():
    # as car::spreadLevelPlot does: the slope is read over the rows fitted above 0
    x = np.arange(-5.0, 5.0).reshape(-1, 1)
    y = x[:, 0] * 3.0 + np.sin(x[:, 0])
    model = fit_least_squares(x, y)
    diag = diagnostics(model, x, y)
    positive = diag.fitted > 0
    assert 3 <= positive.sum() < len(x)
    assert suggest_power(model, diag) == suggest_power(model, _rows_of(diag, positive))


def test_under_three_positive_fitted_rows_is_a_domain_error():
    x = np.arange(-5.0, 5.0).reshape(-1, 1)
    y = x[:, 0] * 3.0 - 8.0 + np.sin(x[:, 0])
    model = fit_least_squares(x, y)
    diag = diagnostics(model, x, y)
    assert 0 < (diag.fitted > 0).sum() < 3
    with pytest.raises(ValueError, match="fewer than 3 rows"):
        suggest_power(model, diag)


def test_fit_transformed_reads_its_power_from_the_positive_first_fit():
    # grades near 0 for low x and steep growth: the first line extrapolates
    # below 0 at the low end, where the target + offset is still positive
    x = np.arange(10.0).reshape(-1, 1)
    y = np.array([0.0, 0.5, 0.0, 1.0, 3.0, 6.0, 12.0, 20.0, 35.0, 50.0])
    first = fit_least_squares(x, y + 1.0)
    diag = diagnostics(first, x, y + 1.0)
    positive = diag.fitted > 0
    assert 3 <= positive.sum() < len(x)
    model = fit_transformed(x, y, offset=1.0)
    assert model.transform.lam == pytest.approx(
        suggest_power(first, _rows_of(diag, positive)), rel=1e-9
    )
    assert np.isfinite(model.coefficients).all()


# ---------------------------------------------------------- transformed fit

def test_lambda_exactly_one_coincides_with_identity_fit():
    # balanced +-1 design with equal-magnitude residuals: the spread-level
    # slope is exactly 0, so the suggested power is exactly 1
    x = np.array([-1.0, -1.0, 1.0, 1.0]).reshape(-1, 1)
    y = np.array([50.0 + 5, 50.0 - 5, 70.0 - 5, 70.0 + 5])
    model = fit_transformed(x, y, offset=1.0)
    assert model.transform.lam == 1.0
    identity = fit_least_squares(x, y + 1.0)
    assert np.allclose(model.coefficients, identity.coefficients, atol=1e-6)


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1e3, 1e6])
def test_roundoff_slope_gives_lambda_one_at_any_target_scale(scale):
    # the zero-slope design above, scaled: at 1e-6 the offset swamps the
    # residuals and the computed slope is ~1e-6 of pure rounding error
    x = np.array([-1.0, -1.0, 1.0, 1.0]).reshape(-1, 1)
    y = np.array([50.0 + 5, 50.0 - 5, 70.0 - 5, 70.0 + 5]) * scale
    model = fit_transformed(x, y, offset=1.0)
    assert model.transform.lam == 1.0


def test_small_true_slope_is_not_read_as_zero():
    # balanced three-level design: every residual is +-3, so the spread-level
    # slope comes only from the leverage term -log(1 - h) / 2, about -0.0117
    x = np.repeat([1.0, 2.0, 3.0], 4).reshape(-1, 1)
    y = 10.0 + 20.0 * x[:, 0] + np.tile([3.0, -3.0, -3.0, 3.0], 3)
    h = 1.0 / 12 + (x[:, 0] - 2.0) ** 2 / 8
    expected_slope = np.polyfit(np.log(11.0 + 20.0 * x[:, 0]), -0.5 * np.log(1.0 - h), 1)[0]
    assert expected_slope == pytest.approx(-0.0117, abs=1e-4)
    model = fit_transformed(x, y, offset=1.0)
    assert model.transform.lam == pytest.approx(1.0 - expected_slope, rel=1e-12)


def test_transformed_fit_is_significant_on_sti_shaped_cohort():
    rng = np.random.default_rng(2016)
    n = 400
    sti = rng.uniform(10, 140, size=(n, 4))
    grades = np.clip(0.6 * sti.mean(axis=1) + rng.normal(scale=8, size=n) + 5, 0, 110)
    model = fit_transformed(sti, grades, offset=1.0)
    assert model.fit_stats.p_value < 0.05


def test_zero_grade_with_zero_offset_is_a_domain_error():
    x = np.arange(8.0).reshape(-1, 1)
    y = np.array([0.0, 1, 2, 3, 4, 5, 6, 7])
    with pytest.raises(ValueError):
        fit_transformed(x, y, offset=0.0)


def test_power_transform_round_trips():
    t = PowerTransform(0.5, 1.0)
    y = np.array([3.0, 8.0, 24.0])
    transformed = t.apply(y)
    assert np.allclose(transformed**2 - 1.0, y)


# -------------------------------------------------------------- prediction

def test_identity_prediction_arithmetic():
    model = fit_least_squares(np.array([[0.0], [1.0], [2.0]]), np.array([1.0, 3.0, 5.0]))
    assert model.coefficients == pytest.approx([1.0, 2.0])
    pred = predict_grade(model, [3.0])
    assert pred.value == pytest.approx(7.0)
    assert not pred.clamped


def test_sqrt_lambda_inverse():
    from gradecast.regress import FitStats, RegressionModel

    model = RegressionModel(
        np.array([10.0]),
        PowerTransform(0.5, 1.0),
        [],
        FitStats(1.0, 0.0, None, None, 4, 0),
    )
    pred = predict_grade(model, [])
    assert pred.value == pytest.approx(100.0 - 1.0)


def test_negative_linear_prediction_clamps_to_zero_with_flag():
    from gradecast.regress import FitStats, RegressionModel

    model = RegressionModel(
        np.array([-3.0, 0.0]),
        PowerTransform(0.5, 1.0),
        ["x"],
        FitStats(1.0, 0.0, None, None, 4, 1),
    )
    pred = predict_grade(model, [1.0])
    assert pred.value == 0.0
    assert pred.clamped


def test_an_overflowing_power_raises_a_training_error_naming_lambda():
    # A draw whose spread-level slope suggests lambda ~ 123: the transformed
    # target is finite, but its squares are not.
    rng = np.random.default_rng(3)
    for _ in range(33):
        n = rng.integers(8, 20)
        X = rng.normal(size=(n, 1))
        y = abs(rng.normal(size=n) * 20 + 60)
    with pytest.raises(TrainingError, match=r"lambda=123\.\d+"):
        fit_transformed(X, y)


def test_predictions_respect_exam_range():
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 140, size=(50, 2))
    y = np.clip(0.7 * x[:, 0] + rng.normal(scale=10, size=50), 0, 110)
    model = fit_transformed(x, y + 0.0, offset=1.0)
    values, _ = predict_grades(model, np.vstack([x, [[1000.0, 1000.0], [-50.0, -50.0]]]), 110.0)
    assert np.all(values >= 0.0)
    assert np.all(values <= 110.0)


def test_prediction_row_shape_checked():
    model = fit_least_squares(np.array([[0.0], [1.0], [2.0]]), np.array([1.0, 3.0, 5.0]))
    with pytest.raises(PredictionError):
        predict_grade(model, [1.0, 2.0])


def constant_model(value: float, transform: PowerTransform):
    from gradecast.regress import FitStats, RegressionModel

    return RegressionModel(
        np.array([value, 0.0]), transform, ["x"], FitStats(1.0, 0.0, None, None, 4, 1)
    )


@pytest.mark.parametrize(
    "linear, transform",
    [(1000.0, PowerTransform(0.0, 1.0)), (1e-300, PowerTransform(-0.5, 1.0))],
)
def test_overflowing_inverse_clamps_to_target_max(linear, transform):
    model = constant_model(linear, transform)
    pred = predict_grade(model, [0.0], target_max=110.0)
    assert pred.value == 110.0
    assert pred.clamped
    with pytest.raises(PredictionError):
        predict_grade(model, [0.0])
    values, clamped = predict_grades(model, np.zeros((2, 1)), 110.0)
    assert values.tolist() == [110.0, 110.0]
    assert clamped.tolist() == [True, True]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_row_is_rejected(bad):
    model = constant_model(2.0, PowerTransform(0.0, 1.0))
    with pytest.raises(PredictionError):
        predict_grade(model, [bad], target_max=110.0)
    with pytest.raises(PredictionError):
        predict_grades(model, np.array([[1.0], [bad]]), 110.0)


# ------------------------------------------- predict_grades against scalars

def reference_predict_grade(model, row, target_max=None):
    """predict_grade as it was, one row in scalar Python (frozen): the grade
    and its clamp flag."""
    row = np.asarray(row, dtype=float)
    if row.shape != (len(model.column_names),) or not np.isfinite(row).all():
        raise PredictionError("bad row")
    linear = float(model.coefficients[0] + model.coefficients[1:] @ row)
    t = model.transform
    try:
        if t.log_mode:
            raw, clamped = math.exp(linear) - t.offset, False
        elif t.lam == 1.0:
            raw, clamped = linear - t.offset, False
        elif linear < 0 or (linear == 0 and t.lam < 0):
            raw, clamped = 0.0, True
        else:
            raw, clamped = linear ** (1.0 / t.lam) - t.offset, False
    except OverflowError:
        raw, clamped = math.inf, False
    if raw < 0:
        raw, clamped = 0.0, True
    if target_max is not None and raw > target_max:
        raw, clamped = float(target_max), True
    if math.isinf(raw):
        raise PredictionError("overflow")
    return raw, clamped


def ulps(a, b):
    """Distance in units in the last place between non-negative doubles."""
    a = np.asarray(a, dtype=float) + 0.0  # -0.0 -> 0.0
    b = np.asarray(b, dtype=float) + 0.0
    return np.abs(a.view(np.int64) - b.view(np.int64))


def linear_model(coefficients, lam, offset):
    p = len(coefficients) - 1
    return RegressionModel(
        np.array(coefficients, dtype=float),
        PowerTransform(lam, offset),
        [f"x{i}" for i in range(p)],
        FitStats(1.0, 0.0, None, None, 10, p),
    )


# Identity, power, negative powers and both log-mode cases (|lambda| < 0.01).
LAMBDAS = [1.0, 0.5, 1.3, 2.0, 0.02, -0.5, -1.7, 0.0, 0.004, -0.009]


def assert_matches_scalar_reference(model, values, target_max):
    """Within 4 ulp of the scalar reference per row, with equal clamp flags,
    or PredictionError where the reference raises on some row."""
    try:
        expected = [reference_predict_grade(model, row, target_max) for row in values]
    except PredictionError:
        with pytest.raises(PredictionError):
            predict_grades(model, values, target_max)
        return
    got, clamped = predict_grades(model, values, target_max)
    assert got.shape == clamped.shape == (len(expected),)
    assert clamped.tolist() == [c for _, c in expected]
    assert np.all(ulps(got, [v for v, _ in expected]) <= 4)
    for row, value, flag in zip(values, got, clamped):
        single = predict_grade(model, row, target_max)
        assert (single.value, single.clamped) == (value, flag)


@settings(deadline=None, max_examples=300)
@given(
    lam=st.sampled_from(LAMBDAS),
    offset=st.sampled_from([0.0, 1.0, 2.5]),
    intercept=st.sampled_from([0.0, -3.0, 0.5, 2.0, 40.0, 800.0, 1e200, 5e-324]),
    slopes=st.lists(st.floats(-50, 50), max_size=4),
    data=st.data(),
    target_max=st.sampled_from([None, 110.0]),
)
def test_predict_grades_matches_the_scalar_reference(lam, offset, intercept, slopes, data, target_max):
    model = linear_model([intercept, *slopes], lam, offset)
    cell = st.one_of(st.just(0.0), st.floats(-5, 5))
    rows = data.draw(st.lists(st.lists(cell, min_size=len(slopes), max_size=len(slopes)), max_size=20))
    values = np.array(rows, dtype=float).reshape(len(rows), len(slopes))
    assert_matches_scalar_reference(model, values, target_max)


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("target_max", [None, 110.0])
def test_predict_grades_on_zero_negative_and_overflowing_linear_values(lam, target_max):
    rows = np.array([[0.0], [-2.0], [-1e-300], [1e-300], [3.0], [90.0], [1000.0], [1e200]])
    for offset in (0.0, 1.0):
        model = linear_model([0.0, 1.0], lam, offset)
        for row in rows:
            assert_matches_scalar_reference(model, row[None], target_max)
        assert_matches_scalar_reference(model, rows[:6], target_max)
    # Linear values whose inverse is about 1, so grades near 0 with offset 1:
    # the offset nearly cancels the inverse, and one ulp of the inverse is
    # thousands of ulps of the grade.
    rng = np.random.default_rng(0)
    linear = np.concatenate([rng.uniform(0.0, 0.01, 150), rng.uniform(0.99, 1.01, 150)])
    assert_matches_scalar_reference(linear_model([0.0, 1.0], lam, 1.0), linear[:, None], target_max)


def test_predict_grades_overflow_without_target_max_raises():
    model = linear_model([1000.0, 0.0], 0.0, 1.0)
    with pytest.raises(PredictionError, match="1000.0"):
        predict_grades(model, np.zeros((3, 1)))


@pytest.mark.parametrize("shape", [(3,), (3, 2), (2, 1, 1), (0,)])
def test_predict_grades_rejects_a_wrong_shape(shape):
    model = linear_model([1.0, 2.0], 1.0, 0.0)
    with pytest.raises(PredictionError):
        predict_grades(model, np.ones(shape))


def test_predict_grades_of_no_rows_is_empty():
    values, clamped = predict_grades(linear_model([1.0, 2.0], 0.5, 1.0), np.zeros((0, 1)))
    assert values.shape == clamped.shape == (0,)
    assert clamped.dtype == bool
