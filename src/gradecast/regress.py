"""Least-squares regression with spread-level power transformation.

The solver runs on an orthogonal (QR) factorization of the design matrix;
the explicit normal-equations route exists only in the test suite as an
independent oracle. A two-pass transformed fit factors the design once: it
regresses the shifted target, reads the suggested power off the
spread-level slope (one minus the slope of log |studentized residual|
against log fitted), then refits the power-transformed target on the same
factors. A slope no larger than the rounding error of the residuals is
taken as 0, so lambda = 1 exactly and the refit is the identity fit.
Predictions invert the transform and are clamped to the valid grade range.

Every fit factors a stack of equal-shape problems in ``_factor``, the one
place that decides whether least squares can run and raises when it cannot:
``fit_least_squares`` and ``fit_transformed`` factor a stack of one,
cross-validation one stack per fold size (``fold_predictions``). One stacked
QR and one stacked solve give, item for item, the coefficients
``fit_least_squares`` gives, because numpy runs the same LAPACK and BLAS
calls on each item of a stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import PredictionError, SingularityError, TrainingError
from .special import f_survival

_LOG_LAMBDA = 0.01  # |lambda| below this uses the log transform
_RANK_TOL = 1e-10


@dataclass(frozen=True)
class PowerTransform:
    lam: float = 1.0
    offset: float = 0.0

    @property
    def log_mode(self) -> bool:
        return abs(self.lam) < _LOG_LAMBDA

    def apply(self, raw: np.ndarray) -> np.ndarray:
        shifted = np.asarray(raw, dtype=float) + self.offset
        if np.any(shifted <= 0):
            raise ValueError("power transform requires target + offset > 0")
        if self.log_mode:
            return np.log(shifted)
        return shifted**self.lam


@dataclass
class FitStats:
    r2: float
    residual_std: float
    f_statistic: float | None
    p_value: float | None
    n: int
    p: int


@dataclass
class RegressionModel:
    coefficients: np.ndarray  # intercept first
    transform: PowerTransform
    column_names: list[str]
    fit_stats: FitStats


@dataclass
class Diagnostics:
    fitted: np.ndarray
    residuals: np.ndarray
    leverage: np.ndarray
    studentized: np.ndarray  # NaN marks rows with leverage 1 or zero spread


@dataclass
class GradePrediction:
    value: float
    clamped: bool = False


def _design(X) -> np.ndarray:
    """The intercept column, then X: of one matrix (a 1-D X is one column)
    or of each matrix in a stack."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    return np.concatenate([np.ones((*X.shape[:-1], 1)), X], axis=-1)


def _column_labels(p: int, columns) -> list[str]:
    names = list(columns) if columns is not None else [f"x{i + 1}" for i in range(p)]
    return ["intercept", *names]


def _qr(design: np.ndarray):
    """Q, R and the rank-deficient columns of a design or of a stack of them."""
    q, r = np.linalg.qr(design)
    diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    return q, r, diag <= _RANK_TOL * np.maximum(diag.max(axis=-1, keepdims=True), 1.0)


def fit_least_squares(X, y, columns=None) -> RegressionModel:
    """Ordinary least squares via QR: ``_factor`` of a stack of one, so it
    raises TrainingError on too few rows or a NaN or infinite input, and
    SingularityError on a rank-deficient design."""
    y = np.asarray(y, dtype=float)
    design = _design(X)
    q, r = _factor(design[None], y[None], columns)
    return _fit(design, q[0], r[0], y, columns)


def _factor(design: np.ndarray, y: np.ndarray, columns):
    """Q and R of a stack of designs (k, n, p + 1) with targets y (k, n).

    The one check of whether least squares can run. Too few rows, or a y
    that does not match the designs, raise TrainingError for every item.
    Otherwise the first item in stack order that cannot be fitted raises:
    TrainingError when its design or target holds a NaN or infinity, else
    SingularityError naming its rank-deficient columns.
    """
    k, n, p_plus_1 = design.shape
    if y.shape != (k, n):
        raise TrainingError("X and y have different row counts")
    if n <= p_plus_1:
        raise TrainingError(f"need n > p + 1 rows (n={n}, p={p_plus_1 - 1})")
    finite = np.isfinite(design).all(axis=(1, 2)) & np.isfinite(y).all(axis=1)
    usable = k if finite.all() else int(np.argmin(finite))
    q, r, bad = _qr(design[:usable])
    singular = np.flatnonzero(bad.any(axis=1))
    if singular.size:
        labels = _column_labels(p_plus_1 - 1, columns)
        raise SingularityError([labels[i] for i in np.flatnonzero(bad[singular[0]])])
    if usable < k:
        raise TrainingError("X or y holds a NaN or an infinity")
    return q, r


def _fit(design, q, r, y, columns, f_test: bool = True) -> RegressionModel:
    """The least-squares model of y on a design factored as q r; without
    ``f_test``, its F statistic and p-value are None."""
    n, p_plus_1 = design.shape
    p = p_plus_1 - 1
    beta = np.linalg.solve(r, q.T @ y)

    fitted = design @ beta
    residuals = y - fitted
    sse = float(residuals @ residuals)
    centered = y - y.mean()
    sst = float(centered @ centered)
    ssr = max(sst - sse, 0.0)

    dof = n - p - 1
    residual_std = math.sqrt(sse / dof)
    if sst > 0:
        r2 = 1.0 - sse / sst
    else:
        r2 = 1.0 if sse <= 1e-12 else 0.0

    f_stat: float | None = None
    p_value: float | None = None
    if p >= 1 and f_test:
        if sse > 0:
            f_stat = (ssr / p) / (sse / dof)
            p_value = f_survival(f_stat, p, dof)
        else:
            f_stat = math.inf
            p_value = 0.0

    stats = FitStats(r2, residual_std, f_stat, p_value, n, p)
    return RegressionModel(beta, PowerTransform(), _column_labels(p, columns)[1:], stats)


def fold_predictions(X, y, train, test, columns=None) -> np.ndarray:
    """Untransformed least-squares predictions of held-out rows.

    Row i is ``fit_least_squares(X[train[i]], y[train[i]], columns)``
    applied to ``X[test[i]]``, bit for bit, for index arrays ``train``
    (k, n_train) and ``test`` (k, n_test). The k fits are one stacked QR and
    one stacked solve. ``_factor`` raises the error of the first fold that
    cannot be fitted, as a loop over the fits would.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)[train]
    q, r = _factor(_design(X[train]), y, columns)
    # b as (k, n, 1): numpy 1.x and 2.x both read it as a stack of columns.
    beta = np.linalg.solve(r, q.transpose(0, 2, 1) @ y[..., None])
    return (_design(X[test]) @ beta)[..., 0]


def diagnostics(model: RegressionModel, X, y) -> Diagnostics:
    """Fitted values, residuals, hat diagonals and studentized residuals.

    ``y`` must be in the model's (transformed) target space.
    """
    design = _design(X)
    q, _ = np.linalg.qr(design)
    return _diagnostics(model, design, q, np.asarray(y, dtype=float))


def _diagnostics(model: RegressionModel, design, q, y) -> Diagnostics:
    fitted = design @ model.coefficients
    residuals = y - fitted
    leverage = (q**2).sum(axis=1)
    s = model.fit_stats.residual_std
    denom = s * np.sqrt(np.clip(1.0 - leverage, 0.0, None))
    with np.errstate(divide="ignore", invalid="ignore"):
        studentized = np.where(denom > 0, residuals / np.where(denom > 0, denom, 1.0), np.nan)
    return Diagnostics(fitted, residuals, leverage, studentized)


def suggest_power(model: RegressionModel, diag: Diagnostics) -> float:
    """Suggested transformation power: one minus the spread-level slope.

    The slope is read over the rows with a positive fitted value and a
    finite, nonzero studentized residual; as in ``car::spreadLevelPlot``,
    rows fitted at or below 0, which have no log, are left out. Fewer than
    3 such rows raise ValueError.

    A slope no larger than the rounding error of the residuals is taken as 0,
    so lambda = 1 exactly. Each residual y - fitted carries a relative error
    up to delta_i = eps * (|y_i| + fitted_i) / |residual_i| from cancellation,
    which moves the slope by at most ||delta|| / ||centred log fitted||.
    """
    magnitude = np.abs(diag.studentized)
    keep = np.isfinite(magnitude) & (magnitude > 0) & (diag.fitted > 0)
    if keep.sum() < 3:
        raise ValueError(
            "fewer than 3 rows with a positive fitted value and a nonzero residual"
            " to suggest a power from"
        )
    lx = np.log(diag.fitted[keep])
    ly = np.log(magnitude[keep])
    lx_c = lx - lx.mean()
    denom = float(lx_c @ lx_c)
    if denom <= 0:
        raise ValueError("fitted values carry no spread on the log scale")
    slope = float(lx_c @ (ly - ly.mean())) / denom
    fitted, residuals = diag.fitted[keep], diag.residuals[keep]
    delta = np.finfo(float).eps * (np.abs(fitted + residuals) + fitted) / np.abs(residuals)
    if abs(slope) <= float(np.linalg.norm(delta)) / math.sqrt(denom):
        return 1.0
    return 1.0 - slope


def fit_transformed(X, y, offset: float = 1.0, columns=None) -> RegressionModel:
    """Two-pass fit: identity on the shifted target, then on its suggested power.

    Both fits, and the leverage the power is read from, share one QR of the
    design. The power is read from the first fit's rows with a positive
    fitted value (``suggest_power``), so a first fit that extrapolates below
    0 on some rows still gets a power; fewer than 3 usable rows raise
    ValueError. A target + offset that is not positive raises ValueError; a
    design or shifted target that cannot be fitted raises what ``_factor``
    raises. A power under which the target's sum of squares overflows
    raises TrainingError before the refit.
    """
    if offset < 0:
        raise ValueError("offset must be non-negative")
    shifted = PowerTransform(offset=offset).apply(y)
    design = _design(X)
    q, r = (a[0] for a in _factor(design[None], shifted[None], columns))
    first = _fit(design, q, r, shifted, columns, f_test=False)
    lam = suggest_power(first, _diagnostics(first, design, q, shifted))
    transform = PowerTransform(lam, offset)
    # The refit's sums of squares (residual, centred) are at most 4 times
    # the target's, so they are finite when this bound is.
    with np.errstate(over="ignore"):
        target = transform.apply(y)
        overflows = not np.isfinite(4.0 * (target @ target))
    if overflows:
        raise TrainingError(f"the target under the power lambda={lam!r} overflows a float")
    return replace(_fit(design, q, r, target, columns), transform=transform)


def _each(f, values: np.ndarray) -> np.ndarray:
    """f of each value as a Python float; inf where f overflows.

    numpy's own exp and power differ from the C library's by an ulp on some
    inputs, and subtracting the offset can magnify that into many ulps of a
    small grade, so the inverse keeps the C library's.
    """
    out = []
    for v in values.tolist():
        try:
            out.append(f(v))
        except OverflowError:
            out.append(math.inf)
    return np.array(out, dtype=float)


def _invert(transform: PowerTransform, linear: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse transform minus offset; flags (and zeroes) values outside the
    inverse's domain."""
    invalid = np.zeros(len(linear), dtype=bool)
    if transform.log_mode:
        inverse = _each(math.exp, linear)
    elif transform.lam == 1.0:
        return linear - transform.offset, invalid
    else:
        invalid = (linear < 0) | ((linear == 0) & (transform.lam < 0))
        inverse = _each((1.0 / transform.lam).__rpow__, np.where(invalid, 1.0, linear))
    return np.where(invalid, 0.0, inverse - transform.offset), invalid


def predict_grades(model: RegressionModel, values, target_max: float | None = None):
    """Inverse-transformed predictions of the rows of ``values``, clamped to
    [0, target_max], and a flag per row that was clamped.

    An inverse too large for a float is clamped to ``target_max``; without
    a ``target_max`` it raises PredictionError, as does a non-finite row.
    """
    values = np.asarray(values, dtype=float)
    p = len(model.column_names)
    if values.ndim != 2 or values.shape[1] != p:
        raise PredictionError(f"rows have shape {values.shape[1:]}, model expects {p} values")
    # Checked before the product, where inf x 0 would warn before the error.
    if not np.isfinite(values).all():
        raise PredictionError("row contains non-finite values")
    b = model.coefficients
    # One dot product per row, as (n, 1, p) @ (p, 1): a matrix-vector product
    # would sum each row in another order.
    linear = b[0] + (values[:, None, :] @ b[1:, None])[:, 0, 0]
    raw, clamped = _invert(model.transform, linear)
    negative = raw < 0
    raw[negative] = 0.0
    clamped |= negative
    if target_max is not None:
        over = raw > target_max
        raw[over] = target_max
        clamped |= over
    overflow = np.flatnonzero(np.isinf(raw))
    if overflow.size:
        raise PredictionError(f"inverse transform of {float(linear[overflow[0]])!r} overflows")
    return raw, clamped


def predict_grade(model: RegressionModel, row, target_max: float | None = None) -> GradePrediction:
    """``predict_grades`` of one row."""
    values, clamped = predict_grades(model, np.asarray(row, dtype=float)[None], target_max)
    return GradePrediction(float(values[0]), bool(clamped[0]))

