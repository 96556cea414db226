"""Two-way ANOVA for tables with missing cells, and ICC statistics.

Rows (items) and columns (participants) are both treated as random
effects; the consistency-of-averages intraclass correlation ICC(C,k) is
estimated from the variance components.  An empty cell simply drops out of
every sum, so the same code path serves complete and incomplete tables.
The first :func:`anova` of a table runs its moment pass (the valid counts, and
the sums of the values less a shift near column 0's mean, see
:func:`icctab.table._moments`), holding one row block besides its input; the
table keeps the moments, and every call runs the O(m + n) decomposition.  An
``ssij`` within ``N·eps·ss`` of 0 is 0; a spread within the values' own
rounding, ``ss <= eps²·Σx²`` (``_constant_to_rounding`` with n = 1), is a
``NumericError``.

The corrected coefficient compensates for randomly missing data: a
proportion ``p`` of missing cells reduces the mean number of averaged
values per item from ``n`` to ``(1-p)n``, which depresses the observed
ICC.  Inverting that relation gives

    icc_cor = icc / (1 - p * (1 - icc))

an estimate of the ICC the complete table would have had.  The estimate is
reliable when the column (participant) effect is small or removed, as with
Z-scores; the report carries a warning when that condition fails.

The module also holds the package's one correlation-closing formula,
:func:`_correlation`, with its two-pass front end :func:`_pearson`: the
ECVT, the r2/ICC curve and predictor fits all close their correlations with
it, and every kernel already imports this module.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .errors import NumericError, PreconditionError, StructuralError
from .special import f_quantile
from .table import DataTable, _constant_to_rounding

__all__ = _EXPORTS["anova"].split()


@dataclass(frozen=True)
class AnovaDecomposition:
    """Sums of squares, degrees of freedom and variance components of one
    table, derived from the moments the table keeps (``DataTable._sums``).

    ``vi`` is the row (item) effect variance, ``vj`` the column
    (participant) effect variance, and ``vij`` the interaction/noise
    variance; ``vi`` and ``vj`` are floored at zero.
    """

    n_valid: int
    ss: float
    ssi: float
    ssj: float
    ssij: float
    dfi: int
    dfj: int
    dfij: int
    msi: float
    msj: float
    vij: float
    vi: float
    vj: float

    @property
    def q(self) -> float:
        """Variance ratio ``vi / vij`` (item effect over noise); inf at ``vij = 0``."""
        return math.inf if self.vij == 0.0 else self.vi / self.vij


def anova(table: DataTable) -> AnovaDecomposition:
    """Decompose a table into row, column and interaction components.

    Uses the unbalanced-data sums of squares with per-row/per-column valid
    counts and ``dfij = N - 1 - dfi - dfj``, from the moments the table keeps.
    The decomposition runs on every call, so a table that fails it raises each time.
    """
    return _decompose(table._sums, *table.shape)


def _decompose(sums, m: int, n: int) -> AnovaDecomposition:
    """:func:`anova` of an m x n table from its moments (:func:`icctab.table._moments`)."""
    shift, row_counts, col_counts, row_sums, col_sums, sq = sums
    n_valid = int(row_counts.sum())
    dfi, dfj = m - 1, n - 1
    dfij = n_valid - 1 - dfi - dfj
    if dfij < 1:
        raise StructuralError(
            f"insufficient data for the interaction term: dfij={dfij} "
            f"({n_valid} valid cells in a {m}x{n} table)"
        )
    total = row_sums.sum()
    correction = total * total / n_valid
    ss = float(sq - correction)
    # sums about a shift near the data carry the values' own rounding, with no factor of N
    if ss != 0.0 and _constant_to_rounding(ss, sq + shift * (2 * total + n_valid * shift), 1):
        raise NumericError(f"the table is constant to rounding (sum of squares {ss:.3e})")
    ssi = float((row_sums**2 / row_counts).sum() - correction)
    ssj = float((col_sums**2 / col_counts).sum() - correction)
    ssij = ss - ssi - ssj
    ssij = 0.0 if abs(ssij) <= n_valid * np.finfo(float).eps * ss else ssij  # as _correlation
    msi, msj, vij = ssi / dfi, ssj / dfj, ssij / dfij
    if vij < 0:
        raise NumericError(
            f"negative interaction variance ({vij:.3e}): the table is too unbalanced for this "
            "decomposition, as happens when a raw table with missing cells has a column "
            "(participant) effect; standardize its columns first (--zscore)")
    vi, vj = max(0.0, (msi - vij) / n), max(0.0, (msj - vij) / m)
    return AnovaDecomposition(n_valid, ss, ssi, ssj, ssij, dfi, dfj, dfij, msi, msj, vij, vi, vj)


@dataclass(frozen=True)
class IccReport:
    """ICC statistics of one table.

    ``conf`` holds ``(probability, lower, upper)`` triples bracketing
    ``icc`` (not ``icc_cor``), with bounds below 0 taken as 0.
    ``warnings`` holds the column-effect warning when the column-effect
    variance exceeds both the row effect and the interaction while more than
    5% of cells are missing; the corrected statistics are then unreliable.
    """

    q: float
    icc: float
    f_obs: float
    pmiss: float
    icc_cor: float
    conf: tuple[tuple[float, float, float], ...]
    warnings: tuple[str, ...]
    item_means: np.ndarray


def icc_report(
    table: DataTable,
    conf_probs: tuple[float, ...] = (0.95, 0.99, 0.999),
) -> IccReport:
    """ICC, corrected ICC and F-based confidence intervals for a table.

    Raises
    ------
    NumericError
        Zero row-effect and interaction variances (a constant table), or a
        spread of rounding alone (:func:`anova`), leave the ICC undefined; or
        bounds are requested while ``f_obs`` is not positive (all item means equal).
    """
    for prob in conf_probs:
        if not 0.0 < prob < 1.0:
            raise PreconditionError(f"confidence probability {prob} not in (0, 1)")
    dec = anova(table)
    icc = _icc(dec.msi, dec.vij, table.cols)
    if math.isnan(icc):
        raise NumericError("undefined ICC: zero row-effect and interaction variance")
    f_obs = math.inf if dec.vij == 0.0 else dec.msi / dec.vij
    if conf_probs and f_obs <= 0.0:
        raise NumericError(
            f"undefined confidence bounds: Fobs = {f_obs:.3g} because all item means "
            "are equal (zero item mean square); request no bounds for the point estimates"
        )
    pmiss = (table.values.size - dec.n_valid) / table.values.size
    warnings = ()
    if dec.vj > min(dec.vij, dec.vi) and pmiss > 0.05:
        warnings = ("non-negligible column effect: corrected statistics unreliable",)
    return IccReport(
        q=dec.q,
        icc=icc,
        f_obs=f_obs,
        pmiss=pmiss,
        icc_cor=corrected_icc(icc, pmiss),
        conf=_conf_bounds(f_obs, dec.dfi, dec.dfij, conf_probs),
        warnings=warnings,
        item_means=table.row_means(),
    )


def _conf_bounds(f_obs: float, dfi: int, dfij: int, probs) -> tuple:
    """``(prob, lower, upper)`` ICC confidence bounds at each two-sided
    probability, from the observed F ratio and its degrees of freedom.

    A bound the F ratio puts below 0 (a small table, or one with little item
    variance) is 0, as the ICC estimate itself is (:func:`_icc`).
    """
    conf = []
    for prob in probs:
        level = 1.0 - (1.0 - prob) / 2.0
        q1 = f_quantile(level, dfi, dfij)
        q2 = f_quantile(level, dfij, dfi)
        # at f_obs = inf both bounds are exactly 1
        conf.append((prob, max(0.0, 1.0 - q1 / f_obs), max(0.0, 1.0 - 1.0 / (q2 * f_obs))))
    return tuple(conf)


def _icc(msi: float, vij: float, cols: int) -> float:
    """ICC(C,k) of a table with ``cols`` columns from its item mean square
    and interaction variance: 1 when only ``vij`` is 0, NaN when the
    row-effect variance is 0 too."""
    vi = max(0.0, (msi - vij) / cols)
    if vij == 0.0:
        return 1.0 if vi > 0 else math.nan
    return vi / (vi + vij / cols)


def corrected_icc(icc_p: float, p: float) -> float:
    """ICC corrected for a proportion ``p`` of randomly missing data.

    Monotone nondecreasing in both arguments and never below ``icc_p``.
    """
    if not 0.0 <= icc_p <= 1.0:
        raise PreconditionError(f"icc must lie in [0, 1], got {icc_p}")
    if not 0.0 <= p < 1.0:
        raise PreconditionError(f"missing proportion must lie in [0, 1), got {p}")
    return icc_p / (1.0 - p * (1.0 - icc_p))


def corrected_interval(
    triple: tuple[float, float, float], p: float
) -> tuple[float, float, float]:
    """Apply the missing-data correction to a confidence triple's bounds.

    This reproduces, without imputation, the interval one would obtain on a
    table imputed to the corrected ICC.  A bound below 0 is taken as 0
    before the correction, since an ICC is never below 0; :func:`icc_report`
    clips its own bounds already, and a triple from elsewhere may not.
    """
    prob, lower, upper = triple
    return (prob, corrected_icc(max(lower, 0.0), p), corrected_icc(max(upper, 0.0), p))


def expected_icc(q: float, group_size: int) -> float:
    """ICC expected for averages over ``group_size`` participants.

    For a variance ratio ``q`` (item effect over noise) the correlation
    between two independent group averages is ``q*g / (q*g + 1)``.
    """
    if q < 0:
        raise PreconditionError(f"q must be nonnegative, got {q}")
    if group_size < 1:
        raise PreconditionError(f"group size must be >= 1, got {group_size}")
    if math.isinf(q):
        return 1.0
    return q * group_size / (q * group_size + 1.0)


def _pearson(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pearson correlations along the last axis of ``x`` and ``y``.

    ``x`` and ``y`` broadcast to one shape.  The sums are two-pass
    (:func:`_centred`): the means are removed first, so a shift of the data
    does not cost precision and the first-moment sums passed to
    :func:`_correlation` are 0.  A side constant to rounding
    (:func:`icctab.table._constant_to_rounding`) is passed as 0, so its
    correlations are NaN.
    """
    xc, cxx, x_constant = _centred(x)
    yc, cyy, y_constant = _centred(y)
    return _correlation(np.shape(xc)[-1], 0.0, 0.0, np.where(x_constant, 0.0, cxx),
                        np.where(y_constant, 0.0, cyy), np.einsum("...i,...i->...", xc, yc))


def _centred(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``x`` less its mean along the last axis, its centred sum of squares,
    and where that sum is constant to rounding."""
    count = np.shape(x)[-1]
    ones = np.ones(count)
    xc = x - (np.einsum("...i,...i->...", ones, x) / count)[..., None]
    css = np.einsum("...i,...i->...", xc, xc)
    return xc, css, _constant_to_rounding(css, np.einsum("...i,...i->...", x, x), count)


def _correlation(n, sx, sy, sxx, syy, sxy):
    """Pearson correlations of ``n`` pairs from their moment sums.

    ``(sxy - sx*sy/n) / sqrt((sxx - sx²/n) * (syy - sy²/n))``, the one
    correlation-closing formula of the package.  A side whose centred sum is
    at most ``n·eps`` times its raw one (its rounding level in one-pass sums;
    callers that pass centred sums floor them first) is constant to working
    precision: its correlations (and those of fewer than 2 pairs) are NaN.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        cxx = sxx - sx * sx / n
        cyy = syy - sy * sy / n
        cxy = sxy - sx * sy / n
        tol = n * np.finfo(float).eps
        defined = (cxx > tol * sxx) & (cyy > tol * syy)
        return np.where(defined, cxy / np.sqrt(cxx * cyy), np.nan)
