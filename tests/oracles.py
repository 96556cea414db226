"""Independent numerical oracles used by the test suite.

These deliberately avoid the code paths they check: distribution functions
are evaluated by adaptive quadrature over the densities (scipy.integrate),
quantiles by root-finding on those quadrature CDFs, and the balanced ANOVA
by the textbook cell-mean formulas.  The exact decomposition forms the
unbalanced sums of squares and the ICC over ``fractions.Fraction``, with
no rounding at all.  The split-group resampling oracles are
the draw-by-draw loops that the batched kernels replaced: each draw is its
own ``permutation(n)`` call (``disjoint_groups``), where the code under
test makes one ``permuted`` call per chunk of draws, so they share only the
generator with it.  The ``virtualize`` oracle is the per-row loop of
``permutation(width)`` calls that the one-call kernel replaced.  The
CRARI oracle is the dichotomic search on the fill scale that the closed
form replaced; it shares only the donor draws with the code under test,
finds where the ICC peaks from three ``anova`` sums of squares, and
doubles the upper end of its bracket until the ICC there is at most the
target.
The donor oracles are the per-row and per-column loops that the one-call
donor kernel replaced: one ``integers(0, k, size=s)`` call per line; the
masked-index kernels are the one-call kernel before it took each row's
missing count once, kept verbatim so that the two can be compared bit for
bit.
The allocating kernels are ``anova``, ``zscore``, the donor kernels and
``crari_impute`` as they were before their table-sized temporaries were
reused in place, kept verbatim (the names of the copies they call aside,
and ``anova``'s shift and rounding floors and CRARI's reachable range, root
rule and drift threshold, which follow the code under test) so that the two
can be compared bit for bit.  The ``zscore`` copy and
the ECVT loop test a spread by the package's two-pass rule
(``table._constant_to_rounding``), as the code under test does.
The CSV oracles are the per-cell reader and writer that the row-streaming
kernels replaced: the reader holds every cell string of the file before
parsing, the writer runs ``csv.writer`` over one ``repr`` per cell.  The
reader states the missing-token rule on its own: a cell is missing when
it is blank, when its text is the token's, or when it equals a numeric
token, and a first row of such cells and numbers is data.
``drop_sidecar`` removes the binary copy that ``save_csv`` leaves beside a
CSV, so that a test which means the parser reads the file through it.
"""

import csv
import math
import os
from fractions import Fraction
from functools import partial

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from icctab.anova import AnovaDecomposition, _icc, anova, expected_icc, icc_report
from icctab.ecvt import default_group_sizes
from icctab.errors import (
    NumericError,
    PreconditionError,
    StructuralError,
    TableFormatError,
    UnreachableTargetError,
)
from icctab.impute import ImputationOutcome, _column_donor_fills
from icctab.rand import as_generator
from icctab.special import chi2_upper_tail
from icctab.table import DataTable, _constant_to_rounding, _row_blocks


def beta_cdf(x: float, a: float, b: float) -> float:
    ln_b = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(t):
        return math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - ln_b)

    value, _ = quad(density, 0.0, x, limit=300)
    return value


def beta_quantile(p: float, a: float, b: float) -> float:
    return brentq(lambda x: beta_cdf(x, a, b) - p, 1e-12, 1 - 1e-12, xtol=1e-14)


def f_pdf(x: float, d1: float, d2: float) -> float:
    if x <= 0:
        return 0.0
    ln_b = math.lgamma(d1 / 2) + math.lgamma(d2 / 2) - math.lgamma((d1 + d2) / 2)
    return math.exp(
        0.5 * (d1 * math.log(d1 * x) + d2 * math.log(d2) - (d1 + d2) * math.log(d1 * x + d2))
        - math.log(x)
        - ln_b
    )


def f_cdf(x: float, d1: float, d2: float) -> float:
    value, _ = quad(f_pdf, 0.0, x, args=(d1, d2), limit=300)
    return value


def f_quantile(p: float, d1: float, d2: float, hi: float = 60.0) -> float:
    return brentq(lambda x: f_cdf(x, d1, d2) - p, 1e-9, hi, xtol=1e-11)


def chi2_upper(x: float, df: float) -> float:
    """Upper chi-square tail by quadrature over the shorter side of the mode."""
    def density(t):
        return math.exp(
            (df / 2 - 1) * math.log(t) - t / 2 - (df / 2) * math.log(2) - math.lgamma(df / 2)
        )

    if x < max(df - 2, 0):
        low, _ = quad(density, 0.0, x, epsabs=0, epsrel=1e-13, limit=500)
        return 1.0 - low
    value, _ = quad(density, x, np.inf, epsabs=0, epsrel=1e-13, limit=500)
    return value


def balanced_anova(x: np.ndarray) -> tuple[float, float, float, float]:
    """Textbook two-way ANOVA sums of squares for a complete grid.

    Returns (ss_total, ss_rows, ss_cols, ss_interaction) from cell-mean
    formulas, independent of the valid-count formulation under test.
    """
    m, n = x.shape
    grand = x.mean()
    row_means = x.mean(axis=1)
    col_means = x.mean(axis=0)
    ss_total = float(((x - grand) ** 2).sum())
    ss_rows = float(n * ((row_means - grand) ** 2).sum())
    ss_cols = float(m * ((col_means - grand) ** 2).sum())
    residual = x - row_means[:, None] - col_means[None, :] + grand
    ss_inter = float((residual**2).sum())
    return ss_total, ss_rows, ss_cols, ss_inter


def exact_decomposition(table: DataTable, fills=None) -> dict[str, Fraction]:
    """``ss``, ``ssi``, ``ssj``, ``ssij`` and the ICC of a table's valid
    cells in exact rational arithmetic, and with ``fills`` CRARI's ``a1``
    and ``a2`` (with ``a0``).

    Each valid value is taken exactly as a ``Fraction``, and the unbalanced
    sums of :func:`icctab.anova.anova` (per-row and per-column valid counts)
    are formed with no rounding.  The ICC is ICC(C,k) with the row-effect
    variance floored at 0; ``None`` when it is undefined.  ``a0``, ``a1`` and
    ``a2`` are the coefficients of 1, ``c`` and ``c**2`` in the interaction sum
    of squares of ``B + c*F``: ``B`` is the table with each missing cell at its
    row's exact valid mean, ``F`` the float ``fills`` taken exactly, and the
    sum is that of the two-way residuals of the complete table, with no
    assumption that the rows of ``F`` sum to 0.
    """
    m, n = table.shape
    cells = [[Fraction(float(x)) if ok else None for x, ok in zip(row, valid)]
             for row, valid in zip(table.values, table.valid)]
    rows = [[x for x in row if x is not None] for row in cells]
    cols = [[row[j] for row in cells if row[j] is not None] for j in range(n)]
    n_valid = sum(map(len, rows))
    correction = sum(map(sum, rows)) ** 2 / n_valid
    ss = sum(x * x for row in rows for x in row) - correction
    ssi = sum(sum(row) ** 2 / len(row) for row in rows) - correction
    ssj = sum(sum(col) ** 2 / len(col) for col in cols) - correction
    ssij = ss - ssi - ssj
    vij = ssij / (n_valid - m - n + 1)
    vi = max(Fraction(0), (ssi / (m - 1) - vij) / n)
    if vij == 0:
        icc = Fraction(1) if vi > 0 else None
    else:
        icc = vi / (vi + vij / n)
    exact = {"ss": ss, "ssi": ssi, "ssj": ssj, "ssij": ssij, "icc": icc}
    if fills is not None:
        base = [[sum(valid) / len(valid) if x is None else x for x in row]
                for row, valid in zip(cells, rows)]
        rb = _residuals(base)
        rf = _residuals([[Fraction(float(x)) for x in row] for row in fills])
        exact["a0"] = sum(b * b for row in rb for b in row)
        exact["a1"] = 2 * sum(b * f for row_b, row_f in zip(rb, rf) for b, f in zip(row_b, row_f))
        exact["a2"] = sum(f * f for row in rf for f in row)
    return exact


def _residuals(x: list[list[Fraction]]) -> list[list[Fraction]]:
    """Two-way residuals of a complete grid: each cell less its row and
    column means, plus the grand mean."""
    m, n = len(x), len(x[0])
    row_means = [sum(row) / n for row in x]
    col_means = [sum(row[j] for row in x) / m for j in range(n)]
    grand = sum(row_means) / m
    return [[v - row_means[i] - col_means[j] + grand for j, v in enumerate(row)]
            for i, row in enumerate(x)]


def ks_distance(sample: np.ndarray, cdf) -> float:
    """One-sample Kolmogorov-Smirnov distance against a callable CDF."""
    ordered = np.sort(np.asarray(sample, dtype=float))
    n = ordered.size
    cdf_vals = np.array([cdf(v) for v in ordered])
    upper = np.abs(np.arange(1, n + 1) / n - cdf_vals).max()
    lower = np.abs(np.arange(0, n) / n - cdf_vals).max()
    return float(max(upper, lower))


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float(xc @ xc) * float(yc @ yc))
    if denom == 0.0:
        return math.nan
    return float(xc @ yc) / denom


def disjoint_groups(gen: np.random.Generator, n: int, g: int) -> tuple[np.ndarray, np.ndarray]:
    """Two disjoint uniformly random participant groups of size ``g``."""
    draw = gen.permutation(n)[: 2 * g]
    return draw[:g], draw[g:]


def ecvt_loop(table, group_sizes=None, resamples=200, rng=None) -> dict:
    """ECVT statistics with one item-mean pair per draw."""
    n = table.cols
    sizes = default_group_sizes(n) if group_sizes is None else tuple(group_sizes)
    dec = anova(table)
    q = math.inf if dec.vij == 0.0 else dec.vi / dec.vij
    gen = as_generator(rng)
    # one contiguous row per participant, so a group's rows are gathered whole
    by_participant = np.ascontiguousarray(table.values.T)
    mean_r, sd_r = [], []
    chi2 = 0.0
    df = 0
    for g in sizes:
        rs = np.empty(resamples)
        for b in range(resamples):
            group_a, group_b = disjoint_groups(gen, n, g)
            rs[b] = pearson(by_participant[group_a].mean(axis=0),
                            by_participant[group_b].mean(axis=0))
        center, spread = rs.mean(), rs.std(ddof=1)
        mean_r.append(center)
        sd_r.append(spread)
        target = expected_icc(q, g)
        if _constant_to_rounding(spread**2 * (resamples - 1), rs @ rs, resamples):
            continue
        chi2 += ((center - target) / (spread / math.sqrt(resamples))) ** 2
        df += 1
    return {
        "observed_mean_r": np.array(mean_r),
        "observed_sd_r": np.array(sd_r),
        "chi2": chi2,
        "df": df,
        "p_value": 1.0 if df == 0 else chi2_upper_tail(chi2, df),
    }


def r2_icc_curve_loop(table, predictor, group_sizes, resamples=200, rng=None) -> list:
    """(g, icc, r2, ratio, excluded) per group size, one draw at a time."""
    pred = np.asarray(predictor, dtype=float).ravel()
    n = table.cols
    gen = as_generator(rng)
    filled = np.where(table.valid, table.values, 0.0)
    valid = table.valid.astype(float)
    points = []
    for g in group_sizes:
        r_icc = np.empty(resamples)
        r2_vals = np.empty(resamples)
        excluded = np.empty(resamples)
        for b in range(resamples):
            group_a, group_b = disjoint_groups(gen, n, g)
            counts_a = valid[:, group_a].sum(axis=1)
            counts_b = valid[:, group_b].sum(axis=1)
            means_a = np.divide(filled[:, group_a].sum(axis=1), counts_a,
                                out=np.zeros(table.rows), where=counts_a > 0)
            means_b = np.divide(filled[:, group_b].sum(axis=1), counts_b,
                                out=np.zeros(table.rows), where=counts_b > 0)
            both = (counts_a > 0) & (counts_b > 0)
            r_icc[b] = pearson(means_a[both], means_b[both])
            has_a = counts_a > 0
            r2_vals[b] = pearson(means_a[has_a], pred[has_a]) ** 2
            excluded[b] = table.rows - int(both.sum())
        icc_g = float(r_icc.mean())
        r2_g = float(r2_vals.mean())
        points.append((g, icc_g, r2_g, r2_g / icc_g, float(excluded.mean())))
    return points


def _complete_icc(values: np.ndarray) -> float:
    dec = anova(DataTable(values))
    if dec.vij == 0.0:
        return 1.0 if dec.vi > 0 else math.nan
    return dec.vi / (dec.vi + dec.vij / values.shape[1])


def _fill_with_row_means(table) -> np.ndarray:
    """The table's values with each missing cell set to its row's valid mean."""
    return np.where(table.missing, table.row_means()[:, None], table.values)


def crari_bisect(table, target_icc, rng=None, c_tol=1e-4):
    """(c, attained ICC, completed values) by dichotomic search on ``c``.

    CRARI with the paper's search: the same donor draws as
    ``crari_impute``, halving ``[c_top, c_hi]``, where the ICC falls, until
    the interval is narrower than ``c_tol``.  ``c_top`` is where the ICC
    peaks: the vertex of the parabola through the interaction sums of
    squares at ``c`` = 0, 1 and 2, or 0 when it lies below 0 or the fills
    are zero.  ``c_hi`` doubles from ``max(1, c_top)`` until the ICC there
    is at most the target.  The reachable range is ``[0, ICC(c_top)]``, or
    the point ``ICC(0)`` for zero fills.  Raises the same
    ``UnreachableTargetError`` as the code under test.
    """
    gen = as_generator(rng)
    centered = _column_donor_fills(table, gen)
    base = _fill_with_row_means(table)

    def candidate(c):
        return base + c * centered

    s0, s1, s2 = (anova(DataTable(candidate(c))).ssij for c in (0.0, 1.0, 2.0))
    curvature = s2 - 2.0 * s1 + s0
    c_top = max(0.0, (s0 - s1) / curvature + 0.5) if curvature > 0 else 0.0
    icc_zero, icc_high = (_complete_icc(candidate(c)) for c in (0.0, c_top))
    icc_low = 0.0 if curvature > 0 else icc_zero
    if not icc_low <= target_icc <= icc_high:
        raise UnreachableTargetError(
            f"target ICC {target_icc:.4f} outside the reachable range "
            f"[{icc_low:.4f}, {icc_high:.4f}]",
            reachable=(icc_low, icc_high),
        )
    c_lo, c_hi = c_top, max(1.0, c_top)
    while _complete_icc(candidate(c_hi)) > target_icc:
        c_hi *= 2.0
    c = 0.5 * (c_lo + c_hi)
    values = candidate(c)
    icc_after = _complete_icc(values)
    while True:
        if icc_after > target_icc:
            c_lo = c
        else:
            c_hi = c
        if c_hi - c_lo < c_tol:
            break
        c = 0.5 * (c_lo + c_hi)
        values = candidate(c)
        icc_after = _complete_icc(values)
    return c, icc_after, values


def ari_impute_loop(table, rng=None) -> np.ndarray:
    """Values of the row-wise adjusted random imputation, one row at a time."""
    gen = as_generator(rng)
    values = np.array(table.values)
    for i in range(table.rows):
        missing = np.flatnonzero(table.missing[i])
        if missing.size == 0:
            continue
        valid_values = table.values[i, table.valid[i]]
        draws = valid_values[gen.integers(0, valid_values.size, size=missing.size)]
        values[i, missing] = draws - draws.mean() + valid_values.mean()
    return values


def column_donor_fills_loop(table, gen) -> np.ndarray:
    """CRARI's centered fills: donors one column at a time, then per-row centering."""
    fills = np.zeros(table.shape)
    for j in range(table.cols):
        missing = np.flatnonzero(table.missing[:, j])
        if missing.size == 0:
            continue
        valid_values = table.values[table.valid[:, j], j]
        draws = valid_values[gen.integers(0, valid_values.size, size=missing.size)]
        fills[missing, j] = draws - draws.mean() + valid_values.mean()
    for i in range(table.rows):
        missing = np.flatnonzero(table.missing[i])
        if missing.size:
            fills[i, missing] -= fills[i, missing].mean()
    return fills


def donor_fills_masked(values: np.ndarray, missing: np.ndarray, means, shift,
                       gen) -> np.ndarray:
    """The donor kernel as it was before it counted each row's cells once,
    moving each row's draws less ``shift`` to its valid mean less the shift in
    ``means``."""
    valid = ~missing
    rows = np.nonzero(missing)[0]
    counts = valid.sum(axis=1)
    donors = values[valid]
    starts = np.cumsum(counts) - counts
    draws = donors[starts[rows] + gen.integers(0, counts[rows])] - shift
    m = values.shape[0]
    draw_means = np.bincount(rows, draws, m)[rows] / np.bincount(rows, minlength=m)[rows]
    return draws - draw_means + means[rows]


def column_donor_fills_masked(table, gen) -> np.ndarray:
    """CRARI's centered fills, re-centered through a masked gather and scatter."""
    missing = table.missing
    fills = np.zeros(table.shape)
    fills.T[missing.T] = donor_fills_masked(table.values.T, missing.T, *shifted_col_means(table),
                                            gen)
    rows = np.nonzero(missing)[0]
    fills[missing] -= fills.sum(axis=1)[rows] / missing.sum(axis=1)[rows]
    return fills


def blocked_square_sum(x: np.ndarray) -> float:
    """The sum of squares of the C-ordered ``x`` in the kernels' order: the
    pairwise sums of its row blocks, added block by block."""
    total = 0.0
    for rows in _row_blocks(*x.shape):
        total += (x[rows] * x[rows]).sum()
    return total


def shifted_allocating(table: DataTable):
    """The shift, a fresh C-ordered table of the values less it (0 at empty
    cells), and its row sums, row counts, column sums and column counts,
    summed whole: the sums the kernel adds block by block."""
    valid = table.valid
    column = table.values[valid[:, 0], 0]
    mean, sd = float(column.mean()), float(column.std())
    step = math.ldexp(1.0, math.frexp(sd)[1])
    shift = round(mean / step) * step if sd else mean
    x = np.ascontiguousarray(np.where(valid, table.values - shift, 0.0))
    return (shift, x, x.sum(axis=1), valid.sum(axis=1, dtype=np.int32), x.sum(axis=0),
            valid.sum(axis=0, dtype=np.int32))


def shifted_col_means(table: DataTable) -> tuple[np.ndarray, float]:
    """The column means less the shift (the shifted sums over the valid
    counts), and the shift: the donor means of CRARI's fills."""
    shift, _, _, _, col_sums, col_counts = shifted_allocating(table)
    return col_sums / col_counts, shift


def valid_means(table: DataTable) -> tuple[np.ndarray, np.ndarray]:
    """Row and column means of the valid cells as the kernels define them:
    the shifted sums over the valid counts, plus the shift."""
    shift, _, row_sums, row_counts, col_sums, col_counts = shifted_allocating(table)
    return row_sums / row_counts + shift, col_sums / col_counts + shift


def anova_allocating(table: DataTable) -> AnovaDecomposition:
    """``anova`` from :func:`shifted_allocating`, with a fresh product per
    row block for the total sum of squares."""
    shift, x, row_sums, row_counts, col_sums, col_counts = shifted_allocating(table)
    return decompose_allocating(table.shape, shift, row_sums, row_counts, col_sums, col_counts,
                                blocked_square_sum(x))


def decompose_allocating(shape, shift, row_sums, row_counts, col_sums, col_counts,
                         sq) -> AnovaDecomposition:
    """The decomposition of an m x n table from its sums less ``shift``, its
    valid counts and its sum of squares less the shift."""
    m, n = shape
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
    ss = float(sq - correction)
    if ss != 0.0 and _constant_to_rounding(ss, sq + shift * (2 * total + n_valid * shift), 1):
        raise NumericError(f"the table is constant to rounding (sum of squares {ss:.3e})")
    ssi = float((row_sums**2 / row_counts).sum() - correction)
    ssj = float((col_sums**2 / col_counts).sum() - correction)
    ssij = ss - ssi - ssj
    ssij = 0.0 if abs(ssij) <= n_valid * np.finfo(float).eps * ss else ssij
    msi = ssi / dfi
    msj = ssj / dfj
    vij = ssij / dfij
    if vij < 0:
        raise NumericError(
            f"negative interaction variance ({vij:.3e}): the table is too unbalanced for this "
            "decomposition, as happens when a raw table with missing cells has a column "
            "(participant) effect; standardize its columns first (--zscore)")
    vi = max(0.0, (msi - vij) / n)
    vj = max(0.0, (msj - vij) / m)
    return AnovaDecomposition(
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


def zscore_allocating(table: DataTable) -> DataTable:
    """``zscore`` through three ``np.where`` selects, each a fresh table."""
    valid = table.valid
    counts = valid.sum(axis=0)
    thin = np.flatnonzero(counts < 2)
    if thin.size:
        raise StructuralError(
            f"column(s) {(thin + 1).tolist()} have fewer than 2 valid entries"
        )
    filled = np.where(valid, table.values, 0.0)
    means = filled.sum(axis=0) / counts
    centered = np.where(valid, table.values - means, 0.0)
    sums = (centered**2).sum(axis=0)
    degenerate = np.flatnonzero(_constant_to_rounding(sums, (filled**2).sum(axis=0), counts))
    if degenerate.size:
        raise NumericError(
            f"column(s) {(degenerate + 1).tolist()} have zero variance"
        )
    scaled = np.where(valid, centered / np.sqrt(sums / (counts - 1)), np.nan)
    return DataTable(scaled, table.missing)


def donor_fills_allocating(values: np.ndarray, missing: np.ndarray, means, shift,
                           gen) -> np.ndarray:
    """The donor kernel gathering through ``np.take`` on ``values`` (a copy
    of a transposed view), with a fresh array per adjustment step, moving
    each row's draws less ``shift`` to its valid mean less the shift in
    ``means``."""
    m, k = values.shape
    miss = np.count_nonzero(missing, axis=1)
    rows = np.repeat(np.arange(m), miss)
    counts = k - miss
    starts = np.cumsum(counts) - counts
    cells = np.flatnonzero(~missing)  # flat indices gather faster than a random boolean mask
    draws = np.take(values, cells[starts[rows] + gen.integers(0, counts[rows])]) - shift
    draw_means = np.bincount(rows, draws, m) / np.maximum(miss, 1)
    return draws - draw_means[rows] + means[rows]


def column_donor_fills_allocating(table, gen) -> np.ndarray:
    """CRARI's centered fills, shifted through a fresh product table."""
    missing = table.missing
    fills = np.zeros(table.shape)
    fills.T[missing.T] = donor_fills_allocating(table.values.T, missing.T,
                                                *shifted_col_means(table), gen)
    centre = fills.sum(axis=1) / np.maximum(np.count_nonzero(missing, axis=1), 1)
    fills -= centre[:, None] * missing
    return fills


def ari_impute_allocating(table, rng=None) -> DataTable:
    """``ari_impute`` scattering its fills through ``np.put``."""
    values = np.array(table.values)
    np.put(values, np.flatnonzero(table.missing),
           donor_fills_allocating(table.values, table.missing, valid_means(table)[0], 0.0,
                                  as_generator(rng)))
    return DataTable(values, np.zeros(table.shape, dtype=bool))


def crari_impute_allocating(table, target="corrected", rng=None) -> ImputationOutcome:
    """``crari_impute`` with the base's moments from a fresh
    :func:`shifted_allocating` pass (the table's, plus each row's missing cells
    at its shift-free valid mean, through a C-ordered float copy of the mask), the sums
    of squares of :func:`blocked_square_sum`, and the table at ``c`` formed in
    two fresh arrays."""
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

    outcome = partial(ImputationOutcome, icc_before=report.icc, icc_cor=report.icc_cor,
                      target=target_icc)
    centered = column_donor_fills_allocating(table, as_generator(rng))
    (m, n), mask = table.shape, table.missing.astype(float, order="C")
    shift, x, row_sums, row_counts, col_sums, _ = shifted_allocating(table)
    means = row_sums / row_counts
    added = (n - row_counts) * means
    col_sums = sum((means[rows] @ mask[rows] for rows in _row_blocks(m, n)), col_sums)
    dec = decompose_allocating(table.shape, shift, row_sums + added, np.full(m, n), col_sums,
                               np.full(n, m), blocked_square_sum(x) + added @ means)
    fill_col_sums = centered.sum(axis=0)
    a1 = -2.0 * float(col_sums @ fill_col_sums) / table.rows
    a2 = float(blocked_square_sum(centered) - fill_col_sums @ fill_col_sums / table.rows)

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

    if target_icc == icc_zero:
        c = 0.0
    elif target_icc == icc_high:
        c = c_top
    else:
        k = dec.ssij - (1.0 - target_icc) * dec.msi * dec.dfij
        root = math.sqrt(max(a1 * a1 - 4.0 * a2 * k, 0.0))
        q = -0.5 * (a1 + root) if a1 > 0 else 0.5 * (root - a1)
        c = k / q if a1 > 0 else q / a2

    base = np.where(table.missing, report.item_means[:, None], table.values)
    imputed = DataTable(base + c * centered, np.zeros(table.shape, dtype=bool))
    after = anova_allocating(imputed)
    drift = float(np.abs(valid_means(imputed)[0] - report.item_means).max())
    if drift > max(1e-9, table.cols * np.finfo(float).eps * np.abs(report.item_means).max()):
        warnings.append(f"item mean inaccuracy: {drift:.3e}")
    icc_after = _icc(after.msi, after.vij, table.cols)
    return outcome(imputed=imputed, c=c, icc_after=icc_after, row_mean_drift=drift,
                   warnings=tuple(warnings))


def virtualize_loop(table, rng=None) -> DataTable:
    """``virtualize`` with one ``permutation(width)`` call per row."""
    gen = as_generator(rng)
    valid = table.valid
    counts = valid.sum(axis=1)
    width = int(counts.max())
    values = np.full((table.rows, width), np.nan)
    mask = np.ones((table.rows, width), dtype=bool)
    for i in range(table.rows):
        targets = gen.permutation(width)[: counts[i]]
        values[i, targets] = table.values[i, valid[i]]
        mask[i, targets] = False
    return DataTable(values, mask)


def read_cells_loop(path, missing_code=None) -> tuple[np.ndarray, np.ndarray]:
    """A cell is missing when it is blank, when its stripped text is the
    token's (``repr`` of a number), or when it equals a numeric token; a
    missing cell holds NaN."""
    if missing_code is None or isinstance(missing_code, str):
        token = (missing_code or "").strip()
    else:
        token = repr(float(missing_code))
    try:
        number = float(token)
    except ValueError:
        number = None
    with open(path, newline="", encoding="utf-8") as handle:
        raw = [row for row in csv.reader(handle) if row]
    if not raw:
        raise StructuralError(f"{path}: file contains no data")
    if _looks_like_header(raw[0], token):
        raw = raw[1:]
    if not raw:
        raise StructuralError(f"{path}: file contains no data rows")
    width = len(raw[0])
    values = np.full((len(raw), width), np.nan)
    mask = np.zeros((len(raw), width), dtype=bool)
    for i, row in enumerate(raw):
        if len(row) != width:
            raise TableFormatError(
                f"{path}: row {i + 1} has {len(row)} columns, expected {width}"
            )
        for j, cell in enumerate(row):
            text = cell.strip()
            if text == "" or text == token:
                mask[i, j] = True
                continue
            try:
                value = float(text)
            except ValueError:
                raise TableFormatError(
                    f"{path}: row {i + 1}, column {j + 1}: cannot parse {text!r}"
                ) from None
            if number is not None and value == number:
                mask[i, j] = True
            else:
                values[i, j] = value
    return values, mask


def _looks_like_header(row: list[str], token: str) -> bool:
    for cell in row:
        text = cell.strip()
        if text == "" or text == token:
            continue
        try:
            float(text)
        except ValueError:
            return True
    return False


def save_csv_loop(table, path, missing_code=None) -> None:
    if isinstance(missing_code, (int, float)) and not isinstance(missing_code, bool):
        token = repr(float(missing_code))
    else:
        token = "" if missing_code is None else str(missing_code)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        for i in range(table.rows):
            writer.writerow(
                token if table.missing[i, j] else repr(float(table.values[i, j]))
                for j in range(table.cols)
            )


def drop_sidecar(path):
    """Remove the sidecar ``save_csv`` left beside ``path`` (it must be there),
    so that ``load_csv(path)`` parses the CSV; returns ``path``."""
    os.remove(f"{path}.icctab")
    return path
