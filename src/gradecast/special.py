"""Scalar special functions backing the regression statistics.

Self-contained so the p-values do not depend on an external statistics
toolchain; the accuracy target is 1e-10 relative for the incomplete beta.
The tree's pruning quantile comes from ``statistics.NormalDist``.
"""

from __future__ import annotations

import math

_BETA_MAX_ITER = 300
_BETA_EPS = 1e-15
_TINY = 1e-300


def _nonzero(v: float) -> float:
    """v, or _TINY where |v| < _TINY: the Lentz guard against dividing by 0."""
    return _TINY if abs(v) < _TINY else v


def _beta_cont_frac(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz method)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 / _nonzero(1.0 - qab * x / qap)
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even, odd):
            d = 1.0 / _nonzero(1.0 + aa * d)
            c = _nonzero(1.0 + aa / c)
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _BETA_EPS:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction failed to converge (a={a}, b={b}, x={x})"
    )


def betainc_regularized(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b).

    Valid for a > 0, b > 0 and 0 <= x <= 1.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError("betainc requires a > 0 and b > 0")
    if x < 0.0 or x > 1.0:
        raise ValueError("betainc requires 0 <= x <= 1")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # Use whichever tail the continued fraction converges fastest on.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_frac(a, b, x) / a
    return 1.0 - front * _beta_cont_frac(b, a, 1.0 - x) / b


def f_survival(f: float, d1: float, d2: float) -> float:
    """Upper-tail probability P(F > f) for an F(d1, d2) variate."""
    if d1 <= 0 or d2 <= 0:
        raise ValueError("degrees of freedom must be positive")
    if f <= 0.0:
        return 1.0
    x = d2 / (d2 + d1 * f)
    return betainc_regularized(d2 / 2.0, d1 / 2.0, x)
