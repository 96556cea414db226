"""Scalar special-function kernel: the regularized incomplete beta, the
beta and F quantiles built on it, and the chi-square upper tail.

The incomplete beta is evaluated by a standard continued fraction (modified
Lentz) to ~1e-14 relative accuracy, so the 1e-6 bisection tolerance of the
quantile searches dominates the overall error.  The chi-square tail of an
integer df is a closed-form finite sum.  All functions are pure; no state
is kept between calls.
"""

import math

from . import _EXPORTS
from .errors import NumericError, PreconditionError

__all__ = _EXPORTS["special"].split()

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
    lower = x < (a + 1.0) / (a + b + 2.0)
    if front == 0.0:
        # the fraction's factor underflowed, so its value cannot matter: this
        # is the 0.0 or 1.0 the full evaluation returns, without its iterations
        return 0.0 if lower else 1.0
    if lower:
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


def chi2_upper_tail(x: float, df: int) -> float:
    """Upper-tail probability P(X >= x) for a chi-square with ``df`` degrees.

    For an integer ``df`` the tail is a finite sum (Abramowitz & Stegun
    26.4.4 and 26.4.5).  With ``h = x/2`` and ``k`` running over the
    ``df // 2`` values 0, 1, 2, ... (even df) or 1/2, 3/2, ... (odd df)
    below ``df/2``:

        P = [erfc(sqrt(h)) if df is odd] + sum_k exp(-h) h**k / gamma(k + 1)

    Each term is formed in log space, ``exp(k log h - h - lgamma(k + 1))``,
    so a large ``x`` or ``df`` cannot overflow.
    """
    if not (df >= 1 and float(df).is_integer()):
        raise PreconditionError(f"chi2_upper_tail requires an integer df >= 1, got {df}")
    if not x >= 0:
        raise PreconditionError(f"chi2_upper_tail requires x >= 0, got {x}")
    h = 0.5 * x
    if h == 0.0:  # x is 0, or so small that x/2 underflows
        return 1.0
    if h == math.inf:
        return 0.0
    log_h = math.log(h)
    odd = df % 2 == 1
    head = math.erfc(math.sqrt(h)) if odd else 0.0
    return head + sum(
        math.exp(k * log_h - h - math.lgamma(k + 1.0))
        for k in (j + 0.5 * odd for j in range(int(df) // 2))
    )
