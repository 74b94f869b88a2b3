"""Least-squares regression with spread-level power transformation.

The solver runs on an orthogonal (QR) factorization of the design matrix;
the explicit normal-equations route exists only in the test suite as an
independent oracle. A two-pass transformed fit first regresses the shifted
target, reads the suggested power off the spread-level slope (one minus
the slope of log |studentized residual| against log fitted), then refits
on the power-transformed target. A slope no larger than the rounding error
of the residuals is taken as 0, so lambda = 1 exactly and the refit is the
identity fit. Predictions invert the transform and are clamped to the
valid grade range.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from .errors import PredictionError, SingularityError, TrainingError
from .special import f_survival, normal_quantile, ppoints

_LOG_LAMBDA = 0.01  # |lambda| below this uses the log transform
_RANK_TOL = 1e-10


@dataclass(frozen=True)
class PowerTransform:
    lam: float = 1.0
    offset: float = 0.0

    @property
    def is_identity(self) -> bool:
        return self.lam == 1.0 and self.offset == 0.0

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


def _design(X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    return np.column_stack([np.ones(X.shape[0]), X])


def _column_labels(p: int, columns) -> list[str]:
    names = list(columns) if columns is not None else [f"x{i + 1}" for i in range(p)]
    return ["intercept", *names]


def fit_least_squares(X, y, columns=None) -> RegressionModel:
    """Ordinary least squares via QR; raises on rank-deficient designs."""
    y = np.asarray(y, dtype=float)
    design = _design(X)
    n, p_plus_1 = design.shape
    p = p_plus_1 - 1
    if len(y) != n:
        raise TrainingError("X and y have different row counts")
    if n <= p + 1:
        raise TrainingError(f"need n > p + 1 rows (n={n}, p={p})")

    q, r = np.linalg.qr(design)
    diag = np.abs(np.diag(r))
    bad = diag <= _RANK_TOL * max(diag.max(), 1.0)
    if bad.any():
        labels = _column_labels(p, columns)
        raise SingularityError([labels[i] for i in np.nonzero(bad)[0]])
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
    if p >= 1:
        if sse > 0:
            f_stat = (ssr / p) / (sse / dof)
            p_value = f_survival(f_stat, p, dof)
        else:
            f_stat = math.inf
            p_value = 0.0

    stats = FitStats(r2, residual_std, f_stat, p_value, n, p)
    return RegressionModel(beta, PowerTransform(), _column_labels(p, columns)[1:], stats)


def diagnostics(model: RegressionModel, X, y) -> Diagnostics:
    """Fitted values, residuals, hat diagonals and studentized residuals.

    ``y`` must be in the model's (transformed) target space.
    """
    y = np.asarray(y, dtype=float)
    design = _design(X)
    fitted = design @ model.coefficients
    residuals = y - fitted
    q, _ = np.linalg.qr(design)
    leverage = (q**2).sum(axis=1)
    s = model.fit_stats.residual_std
    denom = s * np.sqrt(np.clip(1.0 - leverage, 0.0, None))
    with np.errstate(divide="ignore", invalid="ignore"):
        studentized = np.where(denom > 0, residuals / np.where(denom > 0, denom, 1.0), np.nan)
    return Diagnostics(fitted, residuals, leverage, studentized)


def qq_table(diag: Diagnostics) -> tuple[np.ndarray, np.ndarray]:
    """Normal Q-Q ordinates: theoretical quantiles vs sorted studentized residuals."""
    sample = np.sort(diag.studentized[np.isfinite(diag.studentized)])
    theoretical = np.array([normal_quantile(p) for p in ppoints(len(sample))])
    return theoretical, sample


def suggest_power(model: RegressionModel, diag: Diagnostics) -> float:
    """Suggested transformation power: one minus the spread-level slope.

    A slope no larger than the rounding error of the residuals is taken as 0,
    so lambda = 1 exactly. Each residual y - fitted carries a relative error
    up to delta_i = eps * (|y_i| + fitted_i) / |residual_i| from cancellation,
    which moves the slope by at most ||delta|| / ||centred log fitted||.
    """
    if np.any(diag.fitted <= 0):
        raise ValueError(
            "suggest_power requires all fitted values > 0; raise the offset first"
        )
    magnitude = np.abs(diag.studentized)
    keep = np.isfinite(magnitude) & (magnitude > 0)
    if keep.sum() < 3:
        raise ValueError("not enough spread in the residuals to suggest a power")
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
    """Two-pass fit: identity on the shifted target, then on its suggested power."""
    y = np.asarray(y, dtype=float)
    if offset < 0:
        raise ValueError("offset must be non-negative")
    shifted = y + offset
    if np.any(shifted <= 0):
        raise ValueError("target + offset must be positive for the power transform")
    first = fit_least_squares(X, shifted, columns)
    lam = suggest_power(first, diagnostics(first, X, shifted))
    transform = PowerTransform(lam, offset)
    refit = fit_least_squares(X, transform.apply(y), columns)
    return RegressionModel(refit.coefficients, transform, refit.column_names, refit.fit_stats)


def _linear_prediction(model: RegressionModel, row) -> float:
    row = np.asarray(row, dtype=float)
    if row.shape != (len(model.column_names),):
        raise PredictionError(
            f"row has shape {row.shape}, model expects {len(model.column_names)} values"
        )
    # Checked before the product, where inf x 0 would warn before the error.
    if not np.isfinite(row).all():
        raise PredictionError("row contains non-finite values")
    return float(model.coefficients[0] + model.coefficients[1:] @ row)


def _invert(transform: PowerTransform, value: float) -> tuple[float, bool]:
    """Inverse transform minus offset; flags an invalid inverse domain."""
    if transform.log_mode:
        return math.exp(value) - transform.offset, False
    lam = transform.lam
    if lam == 1.0:
        return value - transform.offset, False
    if value < 0 or (value == 0 and lam < 0):
        return 0.0, True
    return value ** (1.0 / lam) - transform.offset, False


def predict_grade(model: RegressionModel, row, target_max: float | None = None) -> GradePrediction:
    """Inverse-transformed prediction clamped to [0, target_max].

    An inverse too large for a float is clamped to ``target_max``; without
    a ``target_max`` it raises PredictionError, as does a non-finite row.
    """
    linear = _linear_prediction(model, row)
    try:
        raw, clamped = _invert(model.transform, linear)
    except OverflowError:
        raw, clamped = math.inf, False
    if raw < 0:
        raw, clamped = 0.0, True
    if target_max is not None and raw > target_max:
        raw, clamped = float(target_max), True
    if math.isinf(raw):
        raise PredictionError(f"inverse transform of {linear!r} overflows")
    return GradePrediction(raw, clamped)


def predict_grades(model: RegressionModel, values, target_max: float | None = None):
    """Vector version of predict_grade over the rows of ``values``."""
    predictions = [predict_grade(model, row, target_max) for row in np.asarray(values, dtype=float)]
    return (
        np.array([p.value for p in predictions]),
        np.array([p.clamped for p in predictions]),
    )


def model_to_json(model: RegressionModel) -> str:
    doc = {
        "coefficients": [float(b) for b in model.coefficients],
        "columns": list(model.column_names),
        "lambda": model.transform.lam,
        "offset": model.transform.offset,
        "fit_stats": asdict(model.fit_stats),
    }
    return json.dumps(doc, indent=2)


def model_from_json(text: str) -> RegressionModel:
    doc = json.loads(text)
    stats = FitStats(**doc["fit_stats"])
    return RegressionModel(
        np.array(doc["coefficients"], dtype=float),
        PowerTransform(doc["lambda"], doc["offset"]),
        list(doc["columns"]),
        stats,
    )
