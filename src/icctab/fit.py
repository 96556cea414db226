"""Predictor goodness of fit against item means, corrected for missing data.

A predictor is scored by the squared Pearson correlation ``r2`` between its
values and the per-item means of the valid data.  Because the ICC bounds
the reproducible proportion of item-related variance, the ratio
``r2 / icc`` estimates the proportion of *reproducible* variance the
predictor accounts for — a quantity independent of the noise level and of
the number of participants.  Multiplying that ratio by the corrected ICC
gives ``r2_cor``, an estimate of the squared correlation the predictor
would reach on the table without missing data:

    r2_cor = icc_cor * r2 / icc

Every fit carries the ICC report it was computed against, so the statistic
and its reference ICC cannot be mismatched by callers.
"""

from dataclasses import dataclass

import numpy as np

from .anova import IccReport, icc_report
from .ecvt import _checked_group_sizes, _group_indicator_chunks
from .errors import NumericError, PreconditionError, StructuralError
from .rand import as_generator
from .synth import degrade_random
from .table import DataTable

__all__ = [
    "PredictorFit",
    "RatioCurvePoint",
    "R2BiasPoint",
    "corrected_r2",
    "fit_predictors",
    "r2_icc_curve",
    "r2cor_bias_demo",
]


@dataclass(frozen=True)
class PredictorFit:
    """Per-predictor r2, r2/ICC ratio and corrected r2, plus ICC context."""

    r2: np.ndarray
    r2_on_icc: np.ndarray
    r2_cor: np.ndarray
    icc_context: IccReport
    warnings: tuple[str, ...]


@dataclass(frozen=True)
class RatioCurvePoint:
    """Resampled ICC, r2 and their ratio at one participant group size."""

    g: int
    icc: float
    r2: float
    ratio: float
    excluded: float


@dataclass(frozen=True)
class R2BiasPoint:
    """Observed and corrected r2 at one degradation level."""

    p: float
    r2_observed: float
    r2_cor: float
    r2_exact: float


def corrected_r2(r2, icc: float, icc_cor: float):
    """The (r2/ICC, corrected r2) pair for observed r2 values."""
    r2 = np.asarray(r2, dtype=float)
    ratio = r2 / icc
    return ratio, icc_cor * ratio


def fit_predictors(
    table: DataTable,
    predictors,
    conf_probs: tuple[float, ...] = (0.95, 0.99, 0.999),
) -> PredictorFit:
    """Score one or more predictors against the table's item means.

    ``predictors`` is an m x k array (or a length-m vector for a single
    predictor) aligned with the table's rows.

    Raises
    ------
    StructuralError
        Predictor rows do not match the table's rows.
    NumericError
        A predictor column is constant.
    """
    pred = np.asarray(predictors, dtype=float)
    if pred.ndim == 1:
        pred = pred[:, None]
    if pred.ndim != 2 or pred.shape[0] != table.rows:
        raise StructuralError(
            f"predictors must have {table.rows} rows, got shape {pred.shape}"
        )
    constant = np.flatnonzero(pred.std(axis=0) == 0)
    if constant.size:
        raise NumericError(f"constant predictor column(s): {(constant + 1).tolist()}")
    report = icc_report(table, conf_probs)
    item_means = report.item_means
    r2 = _pearson(pred.T, item_means) ** 2
    ratio, r2_cor = corrected_r2(r2, report.icc, report.icc_cor)
    warnings = ()
    if report.column_effect_warning:
        warnings = ("non-negligible column effect: corrected statistics unreliable",)
    return PredictorFit(
        r2=r2,
        r2_on_icc=ratio,
        r2_cor=r2_cor,
        icc_context=report,
        warnings=warnings,
    )


def r2_icc_curve(
    table: DataTable,
    predictor,
    group_sizes,
    resamples: int = 200,
    rng=None,
) -> list[RatioCurvePoint]:
    """Resampled r2/ICC ratio as a function of participant group size.

    For each size ``g``, two disjoint participant groups are drawn
    ``resamples`` times; the ICC is estimated as the mean correlation
    between the two groups' item means, and r2 as the mean squared
    correlation of the first group's item means with the predictor.  Items
    without any valid value inside a drawn group are excluded pairwise from
    that resample; the mean number of exclusions is reported per size.

    The draws come in chunks of one n x 2B group-indicator block ``W``
    (group A in its first B columns, group B in the next B), sized by a
    fixed byte budget; a chunk's draws are one ``permuted`` call that gives
    the groups of a draw-by-draw loop (see :mod:`icctab.ecvt`).  A chunk's
    per-item valid counts are ``W' valid`` and its sums ``W' filled``
    (missing cells filled with 0), two GEMMs whose results are kept one
    row per group.  A group's item means are its sums over its counts,
    with an empty count taken as 1 (its sum is 0), and its 0/1 item
    weights are the counts capped at 1; the pairwise exclusion is a
    weighted Pearson correlation per draw.
    """
    pred = np.asarray(predictor, dtype=float).ravel()
    if pred.size != table.rows:
        raise StructuralError(
            f"predictor must have {table.rows} values, got {pred.size}"
        )
    n = table.cols
    sizes = _checked_group_sizes(group_sizes, n)
    if resamples < 1:
        raise PreconditionError("at least 1 resample is required")
    gen = as_generator(rng)
    # transposed so that each chunk's results are 2B x m, one row per group
    filled = np.where(table.valid, table.values, 0.0).T
    valid = table.valid.T.astype(float)
    points = []
    for g in sizes:
        r_icc, r2_vals, excluded = [], [], []
        for block in _group_indicator_chunks(gen, n, g, resamples, table.rows):
            size = block.shape[1] // 2
            counts = block.T @ valid
            means = block.T @ filled
            means /= np.maximum(counts, 1.0)
            weight = np.minimum(counts, 1.0, out=counts)
            both = weight[:size] * weight[size:]
            r_icc.append(_pearson(means[:size], means[size:], both))
            r2_vals.append(_pearson(means[:size], pred, weight[:size]) ** 2)
            excluded.append(table.rows - both.sum(axis=1))
        icc_g = float(np.concatenate(r_icc).mean())
        r2_g = float(np.concatenate(r2_vals).mean())
        points.append(
            RatioCurvePoint(
                g=g,
                icc=icc_g,
                r2=r2_g,
                ratio=r2_g / icc_g,
                excluded=float(np.concatenate(excluded).mean()),
            )
        )
    return points


def r2cor_bias_demo(
    table: DataTable,
    predictor,
    p_grid,
    replications: int,
    rng=None,
) -> list[R2BiasPoint]:
    """Track observed and corrected r2 while cells are masked at random.

    ``r2_exact`` is the predictor's r2 on the complete input table; each
    degradation level reports the mean observed r2 and mean corrected r2
    over ``replications``.
    """
    if table.missing.any():
        raise PreconditionError("the reference table must have no missing cells")
    pred = np.asarray(predictor, dtype=float).ravel()
    gen = as_generator(rng)
    r2_exact = float(fit_predictors(table, pred, conf_probs=()).r2[0])
    points = []
    for p in p_grid:
        observed = np.empty(replications)
        cor = np.empty(replications)
        for r in range(replications):
            degraded = degrade_random(table, p, gen)
            fit = fit_predictors(degraded, pred, conf_probs=())
            observed[r] = fit.r2[0]
            cor[r] = fit.r2_cor[0]
        points.append(
            R2BiasPoint(
                p=float(p),
                r2_observed=float(observed.mean()),
                r2_cor=float(cor.mean()),
                r2_exact=r2_exact,
            )
        )
    return points


def _pearson(x: np.ndarray, y: np.ndarray, weight=None) -> np.ndarray:
    """Pearson correlations along the last axis of ``x`` and ``y``.

    ``x``, ``y`` and the float 0/1 ``weight`` (default all ones) broadcast
    to one shape; only entries of weight 1 enter a row's correlation.  The
    sums are two-pass (means first, then centered products), so a shift of
    the data does not cost precision.  Rows with a constant side, or no
    entries, give NaN.
    """
    if weight is None:
        weight = np.ones(np.shape(x)[-1])
    count = weight.sum(axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        xc = x - (np.einsum("...i,...i->...", weight, x) / count)[..., None]
        yc = y - (np.einsum("...i,...i->...", weight, y) / count)[..., None]
        xc *= weight
        yc *= weight
        denom = np.sqrt(np.einsum("...i,...i->...", xc, xc)
                        * np.einsum("...i,...i->...", yc, yc))
        return np.divide(np.einsum("...i,...i->...", xc, yc), denom,
                         out=np.full(denom.shape, np.nan), where=denom != 0.0)
