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
from .ecvt import _checked_group_sizes, _chunk_draws, _group_indicator_chunks
from .errors import NumericError, PreconditionError, StructuralError
from .rand import as_generator
from .synth import _degradation_study
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
    """The (r2/ICC, corrected r2) pair for observed r2 values; both are
    undefined (NaN) at an ICC of 0."""
    r2 = np.asarray(r2, dtype=float)
    if icc == 0.0:
        return np.full(r2.shape, np.nan), np.full(r2.shape, np.nan)
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
    warnings = []
    if report.column_effect_warning:
        warnings.append("non-negligible column effect: corrected statistics unreliable")
    if report.icc == 0.0:
        warnings.append("ICC is 0: r2/ICC and r2_cor are undefined (nan)")
    return PredictorFit(
        r2=r2,
        r2_on_icc=ratio,
        r2_cor=r2_cor,
        icc_context=report,
        warnings=tuple(warnings),
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
    per-item valid counts are ``W' valid`` and its sums ``W' filled``, two
    GEMMs whose results are kept one row per group.  The counts GEMM runs
    in float32: its products are 0 or 1 and its sums integers of at most
    n, all exact in float32 on any BLAS.  Each group then gets three rows
    over the items: its 0/1 item weights ``w`` (the counts capped at 1),
    its item means ``x`` (sums over counts, an empty count taken as 1, so
    ``x`` is 0 at the items the group excludes) and ``x²``.

    Each draw's correlations come from moment sums, closed by
    :func:`_correlation`.  Group A's ``[w, x, x²]`` against ``[1, p, p²]``
    (one GEMM per chunk) gives the r2 sums ``n, Σp, Σp², Σx, Σxp, Σx²``
    over A's items, and against group B's ``[w, x, x²]`` (one batched
    product) the ICC sums over the items valid in both groups, their count
    included.  A one-pass centred sum such as ``Σx² − (Σx)²/n`` cancels
    the mean's share of ``Σx²`` and loses as many digits as the mean
    outweighs the spread, so ``filled`` is centred once on the grand valid
    mean and the predictor on its mean: a group's means then sit near 0
    whatever the table's offset, and a shift of the data costs no
    precision.
    """
    pred = np.asarray(predictor, dtype=float).ravel()
    if pred.size != table.rows:
        raise StructuralError(
            f"predictor must have {table.rows} values, got {pred.size}"
        )
    m, n = table.shape
    sizes = _checked_group_sizes(group_sizes, n)
    if resamples < 1:
        raise PreconditionError("at least 1 resample is required")
    gen = as_generator(rng)
    # centred, 0 at missing cells; transposed so that each chunk's results
    # are 2B x m, one row per group
    filled = np.where(table.valid, table.values, 0.0)
    np.subtract(filled, filled.sum() / table.valid.sum(), out=filled, where=table.valid)
    filled = filled.T
    valid = table.valid.T.astype(np.float32)
    centred = pred - pred.mean()
    basis = np.stack([np.ones(m), centred, centred * centred], axis=1)
    # each group's [w, x, x²] rows, one buffer for every chunk
    stacked = np.empty((2 * min(_chunk_draws(m), resamples), 3, m))
    points = []
    for g in sizes:
        r2_sums = np.empty((resamples, 3, 3))
        icc_sums = np.empty((resamples, 3, 3))
        start = 0
        for block in _group_indicator_chunks(gen, n, g, resamples, m):
            size = block.shape[1] // 2
            counts = block.astype(np.float32).T @ valid
            group = stacked[: 2 * size]
            np.divide(block.T @ filled, np.maximum(counts, 1.0), out=group[:, 1])
            np.minimum(counts, 1.0, out=group[:, 0])
            np.multiply(group[:, 1], group[:, 1], out=group[:, 2])
            group_a, group_b = group[:size], group[size:]
            draws = slice(start, start + size)
            r2_sums[draws] = (group_a.reshape(3 * size, m) @ basis).reshape(size, 3, 3)
            np.matmul(group_a, group_b.transpose(0, 2, 1), out=icc_sums[draws])
            start += size
        icc_g = float(_moment_correlation(icc_sums).mean())
        r2_g = float((_moment_correlation(r2_sums) ** 2).mean())
        points.append(
            RatioCurvePoint(
                g=g,
                icc=icc_g,
                r2=r2_g,
                ratio=r2_g / icc_g,
                excluded=float((m - icc_sums[:, 0, 0]).mean()),
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
    over ``replications``.  Requires a complete input table.
    """
    pred = np.asarray(predictor, dtype=float).ravel()

    def measure(degraded, gen):
        fit = fit_predictors(degraded, pred, conf_probs=())
        return fit.r2[0], fit.r2_cor[0]

    rows = _degradation_study(table, p_grid, replications, rng, measure)
    r2_exact = float(fit_predictors(table, pred, conf_probs=()).r2[0])
    return [R2BiasPoint(*row, r2_exact) for row in rows]


def _pearson(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pearson correlations along the last axis of ``x`` and ``y``.

    ``x`` and ``y`` broadcast to one shape.  The sums are two-pass: the
    means are removed first, so a shift of the data does not cost precision
    and the first-moment sums passed to :func:`_correlation` are 0.  Rows
    with a constant side give NaN.
    """
    ones = np.ones(np.shape(x)[-1])
    count = ones.sum()
    xc = x - (np.einsum("...i,...i->...", ones, x) / count)[..., None]
    yc = y - (np.einsum("...i,...i->...", ones, y) / count)[..., None]
    return _correlation(count, 0.0, 0.0, np.einsum("...i,...i->...", xc, xc),
                        np.einsum("...i,...i->...", yc, yc),
                        np.einsum("...i,...i->...", xc, yc))


def _correlation(n, sx, sy, sxx, syy, sxy):
    """Pearson correlations of ``n`` pairs from their moment sums.

    ``(sxy - sx*sy/n) / sqrt((sxx - sx²/n) * (syy - sy²/n))``, the one
    correlation-closing formula of the package.  A side whose centred sum
    does not exceed the rounding level of its one-pass form, ``n·eps`` times
    its raw sum of squares, is constant to working precision: its
    correlations (and those of fewer than 2 pairs) are NaN.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        cxx = sxx - sx * sx / n
        cyy = syy - sy * sy / n
        cxy = sxy - sx * sy / n
        tol = n * np.finfo(float).eps
        defined = (cxx > tol * sxx) & (cyy > tol * syy)
        return np.where(defined, cxy / np.sqrt(cxx * cyy), np.nan)


def _moment_correlation(sums: np.ndarray) -> np.ndarray:
    """Correlations from k x 3 x 3 moment matrices ``sums[:, i, j] = Σ u_i v_j``
    of ``u = [w, x, x²]`` and ``v = [w', y, y²]``, where ``x`` is 0 where the
    0/1 weight ``w`` is, and ``y`` where ``w'`` is."""
    return _correlation(sums[:, 0, 0], sums[:, 1, 0], sums[:, 0, 1],
                        sums[:, 2, 0], sums[:, 0, 2], sums[:, 1, 1])
