"""Random-donor imputation that preserves item means and targets an ICC.

Two methods are provided.

Adjusted random imputation (:func:`ari_impute`) works row by row: each
missing cell is filled with a valid value drawn (with replacement) from the
same row, the fills are centered by their own mean, and the row's valid
mean is added back.  Item means are preserved exactly, but the data
consistency drifts: the ICC of a row-imputed table overestimates the ICC
the complete table would have had.

Column-and-row adjusted random imputation (:func:`crari_impute`) fixes
that.  Donors are drawn column-wise (so even one-valid-value rows receive
fills with nonzero spread), fills are then re-centered per row, and every
fill is scaled by a coefficient ``c`` before the row's valid mean is added
back.  The fills are centered per row, so the row sums do not depend on
``c`` and the interaction sum of squares of the completed table is an exact
quadratic in ``c``: the ICC peaks at one ``c`` (0 unless a column effect
moves it) and falls to 0 as ``c`` grows past it, so some ``c`` at or past the
peak drives the imputed table to any target ICC between 0 and the peak, such
as the observed ("low") ICC or the missing-data-corrected estimate.  The
coefficient is the larger root of the quadratic: the limit of the paper's
dichotomic search on ``c``, computed exactly, not a different method.

Both methods draw their donors with one ``integers`` call in cell order,
row-major for ARI and column-major for CRARI, which matches a per-row or
per-column loop of draws draw for draw (see :func:`_donor_fills`), and take
the valid counts and means from the table's kept moments (a mean is the shifted
sum over the count, plus the shift).  Their index arrays are sized by the
missing cells, and a transposed view is read without a copy.  Besides those,
each holds one float table, its output, and row blocks: CRARI draws its fills
``F`` less the table's shift and takes the moments of the row-mean table ``B``
from the input's kept ones, never summing it, so all its sums share one shift,
and forms ``B + c*F`` block by block in ``F``, which its output keeps.

Two degradation studies run on :func:`icctab.synth._degradation_study`:
:func:`ari_bias_demo` (the ICC bias of row-wise imputation) and
:func:`crari_recovery_study` (how well CRARI recovers the complete-table ICC).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .anova import _decompose, _icc, _pearson, anova, icc_report
from .errors import PreconditionError, UnreachableTargetError
from .rand import as_generator
from .synth import _degradation_study
from .table import DataTable, _handed_over, _Moments, _row_blocks

__all__ = _EXPORTS["impute"].split()


@dataclass(frozen=True)
class ImputationOutcome:
    """Result of a CRARI run: the complete table plus diagnostics.

    ``c`` is the fill scale that attains ``target`` (0 when the fills are
    zero, as when each row misses at most one cell or none: a complete
    table comes back as an equal copy).  It is diagnostic output: it
    depends on the random donor draws, so only the attained ICC
    ``icc_after``, measured on ``imputed``, is reproducible across streams.
    ``row_mean_drift`` is the largest change of an item mean, warned above
    1e-9 or their rounding (``n·eps`` times the largest), if larger.
    """

    imputed: DataTable
    c: float
    icc_before: float
    icc_cor: float
    icc_after: float
    target: float
    row_mean_drift: float
    warnings: tuple[str, ...]


@dataclass(frozen=True)
class AriBiasPoint:
    """One row of the row-imputation bias experiment."""

    p: float
    icc_missing: float
    icc_ari: float
    icc_cor: float


@dataclass(frozen=True)
class RecoveryPoint:
    """ICC statistics plus item-mean fidelity at one degradation level."""

    p: float
    icc_missing: float
    icc_cor: float
    icc_imputed: float
    r_item_means: float
    icc_exact: float


def ari_impute(table: DataTable, rng=None) -> DataTable:
    """Row-wise adjusted random imputation.

    Every missing cell is filled from its own row's valid values; row means
    are preserved exactly.  Rows without missing cells are untouched.
    """
    fills = _donor_fills(table.values, table.missing, table._sums.row_counts, table.row_means(),
                         0.0, as_generator(rng))
    values = np.array(table.values, order="C")  # so the flat view writes in place
    values.reshape(-1)[np.flatnonzero(table.missing)] = fills
    return DataTable(_handed_over(values), _handed_over(np.zeros(table.shape, dtype=bool)))


def crari_impute(
    table: DataTable,
    target: str | float = "corrected",
    rng=None,
) -> ImputationOutcome:
    """Column-and-row adjusted random imputation with ICC targeting.

    Parameters
    ----------
    table
        Input table.  A complete one gets zero fills and draws nothing, so
        its reachable range is its own ICC, met at ``c = 0`` by an equal
        copy; any other explicit target is unreachable.
    target
        ``"low"`` (the table's observed ICC), ``"corrected"`` (the
        missing-data-corrected ICC) or an explicit float.
    rng
        Seed or generator for the donor draws.

    Notes
    -----
    With ``B`` the table filled with row means and ``F`` the row-centered
    donor fills, the completed table is ``B + c*F``.  Its row sums, hence
    ``msi``, do not depend on ``c``, and the cross term ``sum(B*F)``
    vanishes, so its interaction sum of squares is
    ``ssij(c) = a0 + a1*c + a2*c**2`` with ``a0 = ssij(B)``,
    ``a1 = -2 * sum_j colsum(B)_j * colsum(F)_j / m`` and
    ``a2 = sum(F**2) - sum_j colsum(F)_j**2 / m >= 0``.  The ICC of a
    complete table is ``1 - vij/msi``, so it peaks where ``ssij`` is least,
    at ``c_top = max(0, -a1 / (2*a2))`` (a column effect can make
    ``a1 < 0``), and falls to 0 as ``c`` grows past it.  The reachable range
    is therefore ``[0, ICC(c_top)]``, or the one point ``ICC(0)`` when ``F``
    is zero (each row missing at most one cell, so ``a2 = 0``); a target
    outside it raises :class:`UnreachableTargetError`.  A target is attained
    at the larger root of ``ssij(c) = (1 - target) * msi * dfij``, past the
    peak, where the paper's dichotomic search on ``c`` converges.  A target
    equal to ``ICC(0)`` (the zero-ICC plateau included) or a zero ``F``
    gives ``c = 0``, one equal to ``ICC(c_top)`` gives ``c_top``; the
    attained ICC is measured on the output.

    Raises
    ------
    PreconditionError
        Malformed explicit target.
    UnreachableTargetError
        Target outside the reachable ICC range.
    """
    report = icc_report(table, ())
    warnings: list[str] = []
    if isinstance(target, str):
        if target == "low":
            target_icc = report.icc
        elif target == "corrected":
            target_icc = report.icc_cor
            if report.warnings:
                warnings.append("non-negligible column effect: target ICC possibly biased")
        else:
            raise PreconditionError(
                f"target must be 'low', 'corrected' or a float, got {target!r}"
            )
    else:
        target_icc = float(target)
        if not 0.0 <= target_icc <= 1.0:
            raise PreconditionError(f"explicit target must lie in [0, 1], got {target}")

    (m, n), values, missing = table.shape, table.values, table.missing
    means = report.item_means[:, None]  # the base B: the table filled with its row means
    centered = _column_donor_fills(table, as_generator(rng))
    dec, a1, a2 = _quadratic(table, centered)

    def icc_at(c: float) -> float:
        return _icc(dec.msi, (dec.ssij + c * (a1 + c * a2)) / dec.dfij, table.cols)

    c_top = max(0.0, -a1 / (2.0 * a2)) if a2 > 0.0 else 0.0
    icc_zero, icc_high = icc_at(0.0), icc_at(c_top)
    icc_low = 0.0 if a2 > 0.0 else icc_zero
    if not icc_low <= target_icc <= icc_high:
        raise UnreachableTargetError(
            f"target ICC {target_icc:.4f} outside the reachable range "
            f"[{icc_low:.4f}, {icc_high:.4f}]",
            reachable=(icc_low, icc_high),
        )

    if target_icc == icc_zero:  # zero fills included: their range is this one point
        c = 0.0
    elif target_icc == icc_high:
        c = c_top
    else:
        # a2*c**2 + a1*c + k = 0 has the roots q/a2 and k/q, free of cancellation;
        # the larger (k/q when a1 > 0) lies past the peak
        k = dec.ssij - (1.0 - target_icc) * dec.msi * dec.dfij
        root = math.sqrt(max(a1 * a1 - 4.0 * a2 * k, 0.0))
        q = -0.5 * (a1 + root) if a1 > 0 else 0.5 * (root - a1)
        c = k / q if a1 > 0 else q / a2

    for rows in _row_blocks(m, n):  # B + c*F, formed in the fills buffer
        block = centered[rows]
        np.multiply(c, block, out=block)
        np.add(np.where(missing[rows], means[rows], values[rows]), block, out=block)
    imputed = DataTable(_handed_over(centered), _handed_over(np.zeros(table.shape, dtype=bool)))
    after = anova(imputed)
    drift = float(np.abs(imputed.row_means() - report.item_means).max())
    if drift > max(1e-9, table.cols * np.finfo(float).eps * np.abs(report.item_means).max()):
        warnings.append(f"item mean inaccuracy: {drift:.3e}")
    icc_after = _icc(after.msi, after.vij, table.cols)
    return ImputationOutcome(imputed=imputed, c=c, icc_before=report.icc, icc_cor=report.icc_cor,
                             icc_after=icc_after, target=target_icc, row_mean_drift=drift,
                             warnings=tuple(warnings))


def _quadratic(table: DataTable, centered: np.ndarray):
    """The decomposition of ``B`` from the table's kept moments plus, at each missing
    cell, its row's shift-free mean ``d`` (``B`` is never built or summed), and
    ``a1``, ``a2`` for the fills ``F`` (:func:`crari_impute`)."""
    (m, n), missing, blocks = table.shape, table.missing, _row_blocks(*table.shape)
    shift, row_counts, _, row_sums, col_sums, sq = table._sums
    d = row_sums / row_counts  # less the shift, so not rounded at an offset
    added = (n - row_counts) * d
    col_sums = sum((d[rows] @ missing[rows] for rows in blocks), col_sums)
    dec = _decompose(_Moments(shift, np.full(m, n), np.full(n, m), row_sums + added, col_sums,
                              sq + added @ d), m, n)
    fill_col_sums, buffer = centered.sum(axis=0), np.empty((blocks[0].stop, n))
    # the fills' squares, one row block at a time in the block buffer
    fill_sq = sum(np.square(centered[rows], out=buffer[:rows.stop - rows.start]).sum()
                  for rows in blocks)
    return (dec, -2.0 * float(col_sums @ fill_col_sums) / m,
            float(fill_sq - fill_col_sums @ fill_col_sums / m))


def _donor_fills(values: np.ndarray, missing: np.ndarray, counts: np.ndarray,
                 means: np.ndarray, shift: float, gen: np.random.Generator) -> np.ndarray:
    """Adjusted donor fills of the missing cells less ``shift``, in row-major order.

    Each missing cell draws one of its row's ``counts`` valid values (in column
    order) with replacement; each row's draws, less the shift, are centered by
    their own mean and moved to the row's valid mean less the shift in
    ``means``, the adjustment rule of both imputation methods (a single draw
    becomes the valid mean).  One ``gen.integers`` call with one bound per cell
    matches one ``integers(0, k, size=s)`` call per row, ``gen`` state included.
    """
    m, k = values.shape
    counts = counts.astype(np.int64)  # int64 bounds, as one integers call per row takes
    miss = k - counts
    rows = np.repeat(np.arange(m), miss)
    # one name, rebound from donor positions to flat indices to values
    draws = gen.integers(0, counts[rows])
    draws += (np.cumsum(counts) - counts)[rows]  # each row's first valid cell
    draws = np.flatnonzero(~missing)[draws]  # flat indices gather faster than a random boolean mask
    if values.flags.f_contiguous and not values.flags.c_contiguous:
        # a transposed view: read (no copy) its C-ordered transpose, where i*k + j is j*m + i
        draws *= m
        draws += rows * (1 - k * m)
        values = values.T
    draws = np.take(values, draws)
    draws -= shift
    draws -= (np.bincount(rows, draws, m) / np.maximum(miss, 1))[rows]
    return np.add(draws, means[rows], out=draws)


def _column_donor_fills(table: DataTable, gen: np.random.Generator) -> np.ndarray:
    """Column-wise donor draws, adjusted per column then centered per row.

    The donor kernel runs on the transpose less the table's shift, so cells
    draw in column-major order.  The result is 0 at valid cells (the mask keeps
    each row's centre off them) and the centered fills at missing cells; scaled
    by ``c`` and added to the row-mean base, it is the table at ``c``.
    """
    missing, sums = table.missing, table._sums
    draws = _donor_fills(table.values.T, missing.T, sums.col_counts,
                         sums.col_sums / sums.col_counts, sums.shift, gen)
    fills = np.zeros(table.shape)
    fills.T[missing.T] = draws
    centre = fills.sum(axis=1) / np.maximum(table.cols - sums.row_counts, 1)
    for rows in _row_blocks(*table.shape):  # a masked subtract (where=) branches per cell: slower
        fills[rows] -= centre[rows, None] * missing[rows]
    return fills


def ari_bias_demo(
    table: DataTable,
    p_grid,
    replications: int,
    rng=None,
) -> list[AriBiasPoint]:
    """Measure how row-wise imputation biases the ICC under degradation.

    For each missing proportion in ``p_grid`` the complete reference table
    is degraded, and three statistics are averaged over ``replications``:
    the degraded table's ICC, the ICC after row-wise imputation, and the
    corrected estimate.  Requires a complete input table.
    """
    def measure(degraded, gen):
        report = icc_report(degraded, ())
        return report.icc, icc_report(ari_impute(degraded, gen), ()).icc, report.icc_cor

    return [AriBiasPoint(p, *(float(column.mean()) for column in columns))
            for p, columns in _degradation_study(table, p_grid, replications, rng, measure)]


def crari_recovery_study(
    table: DataTable,
    p_grid,
    replications: int,
    rng=None,
) -> list[RecoveryPoint]:
    """Check that targeted imputation recovers the complete-table ICC.

    Tracks, up to large missing proportions, how the observed ICC and the
    correlation between degraded and complete item means fall together
    while the corrected ICC and the ICC of the table imputed to it stay
    near the exact value.  Requires a complete input table.
    """
    exact_means = table.row_means()

    def measure(degraded, gen):
        outcome = crari_impute(degraded, target="corrected", rng=gen)
        return (outcome.icc_before, outcome.icc_cor, outcome.icc_after,
                _pearson(exact_means, degraded.row_means()))

    levels = _degradation_study(table, p_grid, replications, rng, measure)
    icc_exact = icc_report(table, ()).icc
    return [RecoveryPoint(p, *(float(column.mean()) for column in columns), icc_exact)
            for p, columns in levels]
