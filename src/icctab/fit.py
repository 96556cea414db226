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

from . import _EXPORTS
from .anova import IccReport, _centred, _correlation, _pearson, icc_report
from .ecvt import _checked_group_sizes, _chunk_draws, _group_indicator_chunks
from .errors import NumericError, PreconditionError, StructuralError
from .rand import as_generator
from .synth import _degradation_study
from .table import DataTable

__all__ = _EXPORTS["fit"].split()


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
    """Observed and corrected r2 at one degradation level.

    ``r2_cor`` averages the replications with an ICC above 0 (NaN if none);
    ``dropped`` counts the others.
    """

    p: float
    r2_observed: float
    r2_cor: float
    r2_exact: float
    dropped: int


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
        Predictor rows do not match the table's rows, or a predictor value
        is not finite.
    NumericError
        A predictor column is constant to rounding
        (:func:`icctab.table._constant_to_rounding`, as :func:`icctab.anova._pearson`
        tests it), so its r2 would be undefined.
    """
    pred = np.asarray(predictors, dtype=float)
    if pred.ndim == 1:
        pred = pred[:, None]
    if pred.ndim != 2 or pred.shape[0] != table.rows:
        raise StructuralError(
            f"predictors must have {table.rows} rows, got shape {pred.shape}"
        )
    _check_finite(pred)
    constant = np.flatnonzero(_centred(pred.T)[2])
    if constant.size:
        raise NumericError(f"constant predictor column(s): {(constant + 1).tolist()}")
    report = icc_report(table, conf_probs)
    item_means = report.item_means
    r2 = _pearson(pred.T, item_means) ** 2
    ratio, r2_cor = corrected_r2(r2, report.icc, report.icc_cor)
    warnings = report.warnings
    if report.icc == 0.0:
        warnings += ("ICC is 0: r2/ICC and r2_cor are undefined (nan)",)
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
    (group A in its first B columns, group B in the next B); a chunk's draws
    are one ``permuted`` call that gives the groups of a draw-by-draw loop
    (see :mod:`icctab.ecvt`).  Each group gets three rows over the items: its
    0/1 item weights ``w``, its item means ``x`` and ``x²``.  They are the
    rows of three contiguous 2B x m planes of one buffer, which is allocated
    once, as are a float32 counts buffer and a float32 copy of the block.
    The table enters as C-contiguous n x m operands, ``filled`` and float32
    ``valid``, built once, so both GEMMs read contiguous memory.  Both GEMMs
    and every elementwise step write into these buffers: no step allocates a
    chunk-sized temporary, and no output partly overlaps an operand, which
    would make numpy copy it first.  The counts ``W' valid`` run in float32:
    their products are 0 or 1 and their sums integers of at most n, exact on
    any BLAS.  ``w`` is the counts capped at 1; the sums ``W' filled`` go to
    the ``x`` plane and are divided there by the counts floored at 1, so
    ``x`` is 0 at the items a group excludes.  The counts are copied into
    the float64 ``w`` plane before any arithmetic, so no ufunc mixes float32
    and float64, which would make numpy allocate casting buffers on every
    chunk.  B is the number of draws whose whole footprint fits in the chunk
    budget of :func:`icctab.ecvt._group_indicator_chunks`, 56m + 40n bytes a
    draw: the planes (48m), the counts (8m), the float32 block copy (8n) and
    the indicator block with its two int64 rows (32n).

    Each draw's correlations come from moment sums, closed by
    :func:`icctab.anova._correlation`.  Group A's ``[w, x, x²]`` against
    ``[1, p, p²]`` (one GEMM per plane and chunk) gives the r2 sums
    ``n, Σp, Σp², Σx, Σxp, Σx²`` over A's items, and against group B's
    ``[w, x, x²]`` (one batched product) the ICC sums over the items valid
    in both groups, their count included.  A one-pass centred sum such as
    ``Σx² − (Σx)²/n`` cancels the mean's share of ``Σx²`` and loses as many
    digits as the mean outweighs the spread, so ``filled`` is centred once
    on the grand valid mean and the predictor on its mean: a group's means
    then sit near 0 whatever the table's offset, and a shift of the data
    costs no precision.

    Raises ``StructuralError`` when the predictor does not have one value
    per row or holds a non-finite value.
    """
    pred = np.asarray(predictor, dtype=float).ravel()
    if pred.size != table.rows:
        raise StructuralError(
            f"predictor must have {table.rows} values, got {pred.size}"
        )
    _check_finite(pred[:, None])
    m, n = table.shape
    sizes = _checked_group_sizes(group_sizes, n)
    if resamples < 1:
        raise PreconditionError("at least 1 resample is required")
    gen = as_generator(rng)
    # participants x items, so that each chunk's results are 2B x m, one row
    # per group; centred, 0 at missing cells
    valid = table.valid.T
    filled = np.zeros((n, m))
    np.copyto(filled, table.values.T, where=valid)
    np.subtract(filled, filled.sum() / valid.sum(), out=filled, where=valid)
    valid = valid.astype(np.float32, order="C")
    centred = pred - pred.mean()
    basis = np.stack([np.ones(m), centred, centred * centred], axis=1)
    draw_bytes = 56 * m + 40 * n
    rows = 2 * min(_chunk_draws(draw_bytes), resamples)
    # the w, x and x² planes, the counts and the float32 block, for every chunk
    planes = np.empty((3, rows, m))
    counts = np.empty((rows, m), dtype=np.float32)
    cells32 = np.empty(rows * n, dtype=np.float32)
    points = []
    for g in sizes:
        r2_sums = np.empty((resamples, 3, 3))
        icc_sums = np.empty((resamples, 3, 3))
        start = 0
        for block in _group_indicator_chunks(gen, n, g, resamples, draw_bytes):
            size = block.shape[1] // 2
            group = planes[:, : 2 * size]
            w, x, xx = group
            count = counts[: 2 * size]
            block32 = cells32[: block.size].reshape(block.shape)
            np.copyto(block32, block)
            np.matmul(block32.T, valid, out=count)
            np.matmul(block.T, filled, out=x)
            # the counts go to the w plane, floored at 1 in the x² plane to
            # divide the sums, then capped at 1
            np.copyto(w, count)
            np.maximum(w, 1.0, out=xx)
            np.divide(x, xx, out=x)
            np.minimum(w, 1.0, out=w)
            np.multiply(x, x, out=xx)
            # 3 x B x m views: [w, x, x²] of group A's draws, and of group B's
            group_a, group_b = group[:, :size], group[:, size:]
            draws = slice(start, start + size)
            np.matmul(group_a, basis, out=r2_sums[draws].transpose(1, 0, 2))
            np.matmul(group_a.transpose(1, 0, 2), group_b.transpose(1, 2, 0),
                      out=icc_sums[draws])
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
    degradation level reports the mean observed and corrected r2 over
    ``replications`` (see :class:`R2BiasPoint`).  Requires a complete input
    table.
    """
    pred = np.asarray(predictor, dtype=float).ravel()

    def measure(degraded, gen):
        fit = fit_predictors(degraded, pred, conf_probs=())
        return fit.r2[0], fit.r2_cor[0]

    levels = _degradation_study(table, p_grid, replications, rng, measure)
    r2_exact = float(fit_predictors(table, pred, conf_probs=()).r2[0])
    points = []
    for p, (r2, r2_cor) in levels:
        defined = r2_cor[~np.isnan(r2_cor)]
        points.append(R2BiasPoint(p, float(r2.mean()),
                                  float(defined.mean()) if defined.size else np.nan,
                                  r2_exact, r2_cor.size - defined.size))
    return points


def _check_finite(pred: np.ndarray) -> None:
    """Refuse an m x k predictor array that holds a NaN or an infinity,
    naming its columns (1-based), as :class:`DataTable` refuses such cells."""
    bad = np.flatnonzero(~np.isfinite(pred).all(axis=0))
    if bad.size:
        raise StructuralError(f"non-finite predictor value(s) in column(s): {(bad + 1).tolist()}")


def _moment_correlation(sums: np.ndarray) -> np.ndarray:
    """Correlations from k x 3 x 3 moment matrices ``sums[:, i, j] = Σ u_i v_j``
    of ``u = [w, x, x²]`` and ``v = [w', y, y²]``, where ``x`` is 0 where the
    0/1 weight ``w`` is, and ``y`` where ``w'`` is."""
    return _correlation(sums[:, 0, 0], sums[:, 1, 0], sums[:, 0, 1],
                        sums[:, 2, 0], sums[:, 0, 2], sums[:, 1, 1])
