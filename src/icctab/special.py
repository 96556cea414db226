"""Scalar special-function kernel: regularized incomplete beta and gamma,
and the distribution quantiles built on them.

The incomplete functions are evaluated by standard continued fractions
(modified Lentz) to ~1e-14 relative accuracy, so the 1e-6 bisection
tolerance of the quantile searches dominates the overall error.  All
functions are pure; no state is kept between calls.
"""

import math

from .errors import NumericError, PreconditionError

__all__ = [
    "reg_inc_beta",
    "reg_upper_gamma",
    "beta_quantile",
    "f_quantile",
    "chi2_upper_tail",
]

_CF_MAX_ITER = 500
_CF_EPS = 1e-15
_TINY = 1e-300
_MAX_BISECT = 200
_QUANTILE_TOL = 1e-6  # bisection tolerance of the quantiles, in probability


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if a <= 0 or b <= 0:
        raise PreconditionError("reg_inc_beta requires a > 0 and b > 0")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # Symmetry switch keeps the continued fraction in its fast-converging region.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def _beta_cf(a: float, b: float, x: float) -> float:
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        coeff = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + coeff * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + coeff / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        coeff = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + coeff * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + coeff / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise NumericError(
        f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})"
    )


def beta_quantile(p: float, a: float, b: float) -> float:
    """Quantile of the Beta(a, b) distribution.

    Bisects on [0, 1] until ``|I_x(a, b) - p| <= _QUANTILE_TOL`` (the
    tolerance is in probability space, not in x).
    """
    if not 0.0 < p < 1.0:
        raise PreconditionError(f"beta_quantile requires p in (0, 1), got {p}")
    lo, hi = 0.0, 1.0
    x = 0.5
    dp = reg_inc_beta(x, a, b) - p
    iterations = 0
    while abs(dp) > _QUANTILE_TOL:
        if dp <= 0.0:
            lo = x
        if dp >= 0.0:
            hi = x
        x = 0.5 * (lo + hi)
        dp = reg_inc_beta(x, a, b) - p
        iterations += 1
        if iterations > _MAX_BISECT:
            raise NumericError(
                f"beta_quantile did not converge (p={p}, a={a}, b={b})"
            )
    return x


def f_quantile(p: float, d1: float, d2: float) -> float:
    """Quantile of the F(d1, d2) distribution via the beta quantile."""
    x = beta_quantile(p, d1 / 2.0, d2 / 2.0)
    return x * d2 / ((1.0 - x) * d1)


def reg_upper_gamma(a: float, x: float) -> float:
    """Regularized upper incomplete gamma function Q(a, x)."""
    if a <= 0:
        raise PreconditionError("reg_upper_gamma requires a > 0")
    if x < 0:
        raise PreconditionError("reg_upper_gamma requires x >= 0")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _lower_gamma_series(a, x)
    return _upper_gamma_cf(a, x)


def _lower_gamma_series(a: float, x: float) -> float:
    ap = a
    total = 1.0 / a
    term = total
    for _ in range(_CF_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _CF_EPS:
            return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise NumericError(f"incomplete gamma series did not converge (a={a}, x={x})")


def _upper_gamma_cf(a: float, x: float) -> float:
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _CF_MAX_ITER + 1):
        coeff = -i * (i - a)
        b += 2.0
        d = coeff * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + coeff / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h
    raise NumericError(
        f"incomplete gamma continued fraction did not converge (a={a}, x={x})"
    )


def chi2_upper_tail(x: float, df: float) -> float:
    """Upper-tail probability P(X >= x) for a chi-square with ``df`` degrees."""
    if df <= 0:
        raise PreconditionError("chi2_upper_tail requires df > 0")
    if x < 0:
        raise PreconditionError("chi2_upper_tail requires x >= 0")
    return reg_upper_gamma(df / 2.0, x / 2.0)
