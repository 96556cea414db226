"""Two-way ANOVA for tables with missing cells, and ICC statistics.

Rows (items) and columns (participants) are both treated as random
effects; the consistency-of-averages intraclass correlation ICC(C,k) is
estimated from the variance components.  An empty cell simply drops out of
every sum, so the same code path serves complete and incomplete tables.

The corrected coefficient compensates for randomly missing data: a
proportion ``p`` of missing cells reduces the mean number of averaged
values per item from ``n`` to ``(1-p)n``, which depresses the observed
ICC.  Inverting that relation gives

    icc_cor = icc / (1 - p * (1 - icc))

an estimate of the ICC the complete table would have had.  The estimate is
reliable when the column (participant) effect is small or removed, as with
Z-scores; the report carries a warning flag when that condition fails.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, PreconditionError, StructuralError
from .special import f_quantile
from .table import DataTable

__all__ = [
    "AnovaDecomposition",
    "IccReport",
    "anova",
    "icc_report",
    "corrected_icc",
    "corrected_interval",
    "expected_icc",
]


@dataclass(frozen=True)
class AnovaDecomposition:
    """Sums, degrees of freedom and variance components of one table.

    ``vi`` is the row (item) effect variance, ``vj`` the column
    (participant) effect variance, and ``vij`` the interaction/noise
    variance; ``vi`` and ``vj`` are floored at zero.
    """

    row_sums: np.ndarray
    row_counts: np.ndarray
    col_sums: np.ndarray
    col_counts: np.ndarray
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

    def item_means(self) -> np.ndarray:
        return self.row_sums / self.row_counts


def anova(table: DataTable) -> AnovaDecomposition:
    """Decompose a table into row, column and interaction components.

    Uses the unbalanced-data sums of squares with per-row/per-column valid
    counts and ``dfij = N - 1 - dfi - dfj``.
    """
    m, n = table.shape
    valid = table.valid
    x = np.where(valid, table.values, 0.0)
    row_sums = x.sum(axis=1)
    row_counts = valid.sum(axis=1)
    col_sums = x.sum(axis=0)
    col_counts = valid.sum(axis=0)
    n_valid = int(row_counts.sum())
    dfi = m - 1
    dfj = n - 1
    dfij = n_valid - 1 - dfi - dfj
    if dfij < 1:
        raise StructuralError(
            f"insufficient data for the interaction term: dfij={dfij} "
            f"({n_valid} valid cells in a {m}x{n} table)"
        )
    total = row_sums.sum()
    correction = total * total / n_valid
    ss = float((x * x).sum() - correction)
    ssi = float((row_sums**2 / row_counts).sum() - correction)
    ssj = float((col_sums**2 / col_counts).sum() - correction)
    ssij = ss - ssi - ssj
    msi = ssi / dfi
    msj = ssj / dfj
    vij = ssij / dfij
    if vij < 0:
        raise NumericError(
            f"negative interaction variance ({vij:.3e}); "
            "the table is too unbalanced for this decomposition"
        )
    vi = max(0.0, (msi - vij) / n)
    vj = max(0.0, (msj - vij) / m)
    return AnovaDecomposition(
        row_sums=row_sums,
        row_counts=row_counts,
        col_sums=col_sums,
        col_counts=col_counts,
        n_valid=n_valid,
        ss=ss,
        ssi=ssi,
        ssj=ssj,
        ssij=ssij,
        dfi=dfi,
        dfj=dfj,
        dfij=dfij,
        msi=msi,
        msj=msj,
        vij=vij,
        vi=vi,
        vj=vj,
    )


@dataclass(frozen=True)
class IccReport:
    """ICC statistics of one table.

    ``conf`` holds ``(probability, lower, upper)`` triples bracketing
    ``icc`` (not ``icc_cor``).  ``column_effect_warning`` is set when the
    column-effect variance exceeds both the row effect and the interaction
    while more than 5% of cells are missing; the corrected statistics are
    then unreliable.
    """

    q: float
    icc: float
    f_obs: float
    pmiss: float
    icc_cor: float
    conf: tuple[tuple[float, float, float], ...]
    column_effect_warning: bool
    item_means: np.ndarray


def icc_report(
    table: DataTable,
    conf_probs: tuple[float, ...] = (0.95, 0.99, 0.999),
) -> IccReport:
    """ICC, corrected ICC and F-based confidence intervals for a table.

    Raises
    ------
    NumericError
        Both the row-effect and interaction variances are zero, so the ICC
        is undefined (e.g. a constant table); or confidence bounds are
        requested while ``f_obs`` is not positive (all item means equal).
    """
    for prob in conf_probs:
        if not 0.0 < prob < 1.0:
            raise PreconditionError(f"confidence probability {prob} not in (0, 1)")
    dec = anova(table)
    n = table.cols
    if dec.vij == 0.0 and dec.vi == 0.0:
        raise NumericError("undefined ICC: zero row-effect and interaction variance")
    if dec.vij == 0.0:
        q = math.inf
        icc = 1.0
        f_obs = math.inf
    else:
        q = dec.vi / dec.vij
        icc = dec.vi / (dec.vi + dec.vij / n)
        f_obs = dec.msi / dec.vij
    if conf_probs and f_obs <= 0.0:
        raise NumericError(
            f"undefined confidence bounds: Fobs = {f_obs:.3g} because all item means "
            "are equal (zero item mean square); request no bounds for the point estimates"
        )
    pmiss = table.pmiss
    conf = []
    for prob in conf_probs:
        level = 1.0 - (1.0 - prob) / 2.0
        q1 = f_quantile(level, dec.dfi, dec.dfij)
        q2 = f_quantile(level, dec.dfij, dec.dfi)
        if math.isinf(f_obs):
            lower, upper = 1.0, 1.0
        else:
            lower = 1.0 - q1 / f_obs
            upper = 1.0 - 1.0 / (q2 * f_obs)
        conf.append((prob, lower, upper))
    warning = bool(dec.vj > min(dec.vij, dec.vi)) and pmiss > 0.05
    return IccReport(
        q=q,
        icc=icc,
        f_obs=f_obs,
        pmiss=pmiss,
        icc_cor=corrected_icc(icc, pmiss),
        conf=tuple(conf),
        column_effect_warning=warning,
        item_means=dec.item_means(),
    )


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
    table imputed to the corrected ICC.
    """
    prob, lower, upper = triple
    return (prob, corrected_icc(lower, p), corrected_icc(upper, p))


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
