"""Scalar special-function kernel: the regularized incomplete beta, the
beta and F quantiles built on it, and the chi-square upper tail.

The incomplete beta is evaluated by a standard continued fraction (modified
Lentz) to ~1e-14 relative accuracy.  The beta quantile inverts it by
safeguarded Newton steps from a closed-form start until a step moves ``x``
by at most ``4e-16·x`` or meets the rounding noise of ``I_x``, so the
quantiles are as accurate as ``I_x`` itself (the measured ranges are in
README.md's Notes).  The chi-square tail of an integer df is a closed-form
finite sum.  Every function is pure.  :func:`f_quantile` remembers its last
``_F_QUANTILE_MEMO`` distinct arguments (a bounded ``functools.lru_cache``),
because repeated ICC reports with bounds on tables of one shape and missing
count ask for the same degrees of freedom; a remembered value is the
computed one, bit for bit.
"""

import functools
import math

from . import _EXPORTS
from .errors import NumericError, PreconditionError

__all__ = _EXPORTS["special"].split()

_CF_MAX_ITER = 500  # plus sqrt(max(a, b)): near the mean, the fraction needs about half that
_CF_EPS = 1e-15
_TINY = 1e-300
_MAX_NEWTON = 200
_NEWTON_TOL = 4e-16  # a step of at most this share of x ends the Newton search
_F_QUANTILE_MEMO = 256  # distinct (p, d1, d2) arguments f_quantile remembers


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if a <= 0 or b <= 0:
        raise PreconditionError("reg_inc_beta requires a > 0 and b > 0")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(_ln_front(x, a, b))
    # Symmetry switch keeps the continued fraction in its fast-converging region.
    lower = x < (a + 1.0) / (a + b + 2.0)
    if front == 0.0:
        # the fraction's factor underflowed, so its value cannot matter: this
        # is the 0.0 or 1.0 the full evaluation returns, without its iterations
        return 0.0 if lower else 1.0
    if lower:
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def _ln_front(x: float, a: float, b: float) -> float:
    """``log(x**a (1-x)**b / B(a, b))`` for ``0 < x < 1``: the factor of the
    continued fraction, and ``x(1-x)`` times the Beta(a, b) density."""
    return (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )


def _beta_cf(a: float, b: float, x: float) -> float:
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    d = _TINY if abs(d) < _TINY else d
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + int(math.sqrt(max(a, b))) + 1):
        m2 = 2 * m
        coeff = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + coeff * d
        d = _TINY if abs(d) < _TINY else d
        c = 1.0 + coeff / c
        c = _TINY if abs(c) < _TINY else c
        d = 1.0 / d
        h *= d * c
        coeff = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + coeff * d
        d = _TINY if abs(d) < _TINY else d
        c = 1.0 + coeff / c
        c = _TINY if abs(c) < _TINY else c
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

    Safeguarded Newton on ``I_x(a, b) = p`` (the scheme of Cran, Martin &
    Thomas 1977, AS 109): a closed-form start (:func:`_beta_start`), then
    steps ``(I_x - p) / density`` inside a bracket kept from the sign of
    ``I_x - p``, bisecting whenever a step would leave it, until a step moves
    ``x`` by at most ``4e-16·x`` or meets the noise of ``I_x``.  A quantile
    whose start lies above 1/2 is solved as ``1 - x`` on the complementary
    problem, so ``1 - x`` keeps its relative precision (see
    :func:`f_quantile`).  The median of a symmetric beta is exactly 1/2,
    where the rounding noise of ``I_x`` would leave the search a few ulps away.
    """
    return _beta_quantile_pair(p, a, b)[0]


@functools.lru_cache(maxsize=_F_QUANTILE_MEMO)
def f_quantile(p: float, d1: float, d2: float) -> float:
    """Quantile of the F(d1, d2) distribution via the beta quantile.

    Memoized on ``(p, d1, d2)`` for the last ``_F_QUANTILE_MEMO`` distinct
    arguments; the uncached function is ``f_quantile.__wrapped__``.
    """
    x, one_minus_x = _beta_quantile_pair(p, d1 / 2.0, d2 / 2.0)
    return x * d2 / (one_minus_x * d1)


def _beta_quantile_pair(p: float, a: float, b: float) -> tuple[float, float]:
    """``x`` and ``1 - x``, each to full relative precision, where
    ``I_x(a, b) = p``."""
    if not 0.0 < p < 1.0:
        raise PreconditionError(f"beta_quantile requires p in (0, 1), got {p}")
    if p == 0.5 and a == b:  # the median of a symmetric beta
        return 0.5, 0.5
    x = _beta_start(p, a, b)
    if x > 0.5:  # I_x(a, b) = p is I_{1-x}(b, a) = 1 - p
        y = _beta_newton(1.0 - p, b, a, _beta_start(1.0 - p, b, a))
        return 1.0 - y, y
    x = _beta_newton(p, a, b, x)
    return x, 1.0 - x


def _beta_start(p: float, a: float, b: float) -> float:
    """Closed-form approximation to the Beta(a, b) quantile at ``p``.

    The start of AS 109: the normal deviate of A&S 26.2.22, then A&S 26.5.22
    when ``a, b > 1``, else a Wilson-Hilferty chi-square quantile choosing
    between the two tail expansions of ``I_x``.  It may be poor in places;
    the Newton search only takes longer there.
    """
    r = math.sqrt(-2.0 * math.log(min(p, 1.0 - p)))
    y = r - (2.30753 + 0.27061 * r) / (1.0 + (0.99229 + 0.04481 * r) * r)
    if p > 0.5:
        y = -y  # the upper deviate: I_x rises as y falls
    if a > 1.0 and b > 1.0:
        lam = (y * y - 3.0) / 6.0
        s = 1.0 / (2.0 * a - 1.0)
        t = 1.0 / (2.0 * b - 1.0)
        h = 2.0 / (s + t)
        w = y * math.sqrt(h + lam) / h - (t - s) * (lam + 5.0 / 6.0 - 2.0 / (3.0 * h))
        return a / (a + b * math.exp(min(2.0 * w, 700.0)))
    ln_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    t = 1.0 / (9.0 * b)
    chi2 = 2.0 * b * (1.0 - t + y * math.sqrt(t)) ** 3
    if chi2 <= 0.0:
        return -math.expm1((math.log((1.0 - p) * b) + ln_beta) / b)
    t = (4.0 * a + 2.0 * b - 2.0) / chi2
    if t <= 1.0:
        return math.exp((math.log(p * a) + ln_beta) / a)
    return 1.0 - 2.0 / (t + 1.0)


def _beta_newton(p: float, a: float, b: float, x: float) -> float:
    """Root of ``I_x(a, b) = p`` by Newton steps from ``x``, bisecting the
    bracket ``[lo, hi]`` whenever a step would leave it.  A Newton step that
    stays on its side of the root but does not lower ``|I_x - p|`` shows the
    rounding noise of ``I_x``: the ``x`` of least ``|I_x - p|`` is returned."""
    lo, hi = 0.0, 1.0
    if not lo < x < hi:
        x = 0.5
    best, newton_dp = (math.inf, x), math.nan  # I_x - p where a Newton step began, else NaN
    for _ in range(_MAX_NEWTON):
        dp = reg_inc_beta(x, a, b) - p
        if dp == 0.0:
            return x
        if (dp < 0.0) == (newton_dp < 0.0) and abs(dp) >= abs(newton_dp):
            return best[1]
        best = min(best, (abs(dp), x))
        if dp < 0.0:
            lo = x
        else:
            hi = x
        density = math.exp(_ln_front(x, a, b)) / (x * (1.0 - x))
        step = dp / density if density > 0.0 else math.inf
        if abs(step) <= _NEWTON_TOL * x:
            return x - step
        x -= step
        newton_dp = dp if lo < x < hi else math.nan
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if hi - lo <= _NEWTON_TOL * x:
                return x
    raise NumericError(f"beta_quantile did not converge (p={p}, a={a}, b={b})")


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
