"""Independent numerical oracles used by the test suite.

These deliberately avoid the code paths they check: distribution functions
are evaluated by adaptive quadrature over the densities (scipy.integrate),
quantiles by root-finding on those quadrature CDFs, and the balanced ANOVA
by the textbook cell-mean formulas.  The split-group resampling oracles are
the draw-by-draw loops that the batched kernels replaced: each draw is its
own ``permutation(n)`` call (``disjoint_groups``), where the code under
test makes one ``permuted`` call per chunk of draws, so they share only the
generator with it.  The ``virtualize`` oracle is the per-row loop of
``permutation(width)`` calls that the one-call kernel replaced.  The
CRARI oracle is the dichotomic search on the fill scale that the closed
form replaced; it shares only the donor draws with the code under test.
The donor oracles are the per-row and per-column loops that the one-call
donor kernel replaced: one ``integers(0, k, size=s)`` call per line.
The CSV oracles are the per-cell reader and writer that the row-streaming
kernels replaced: the reader holds every cell string of the file before
parsing, the writer runs ``csv.writer`` over one ``repr`` per cell.
"""

import csv
import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from icctab.anova import anova, expected_icc
from icctab.ecvt import default_group_sizes
from icctab.errors import StructuralError, TableFormatError, UnreachableTargetError
from icctab.impute import _column_donor_fills, _fill_with_row_means, adjust_fills
from icctab.rand import as_generator
from icctab.special import chi2_upper_tail
from icctab.table import DataTable


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
    def density(t):
        return math.exp(
            (df / 2 - 1) * math.log(t) - t / 2 - (df / 2) * math.log(2) - math.lgamma(df / 2)
        )

    value, _ = quad(density, x, np.inf, limit=300)
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
    values = table.values
    mean_r, sd_r = [], []
    chi2 = 0.0
    df = 0
    for g in sizes:
        rs = np.empty(resamples)
        for b in range(resamples):
            group_a, group_b = disjoint_groups(gen, n, g)
            rs[b] = pearson(values[:, group_a].mean(axis=1), values[:, group_b].mean(axis=1))
        center, spread = rs.mean(), rs.std(ddof=1)
        mean_r.append(center)
        sd_r.append(spread)
        target = expected_icc(q, g)
        if rs.std(ddof=1) == 0.0:
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


def crari_bisect(table, target_icc, rng=None, c_max=10.0, c_tol=1e-4):
    """(c, attained ICC, completed values) by dichotomic search on ``c``.

    The random path of CRARI with the paper's search: the same donor draws
    as ``crari_impute``, halving ``[0, c_max]`` until it is narrower than
    ``c_tol``.  Raises the same ``UnreachableTargetError`` as the code it
    replaced.
    """
    gen = as_generator(rng)
    centered = _column_donor_fills(table, gen)
    base = _fill_with_row_means(table).values

    def candidate(c):
        return base + c * centered

    icc_high = _complete_icc(candidate(0.0))
    icc_low = _complete_icc(candidate(c_max))
    if icc_high < icc_low:
        raise UnreachableTargetError(
            f"ICC is not decreasing in c on [0, {c_max}] "
            f"(ICC {icc_high:.4f} at 0 vs {icc_low:.4f} at {c_max})",
            reachable=(icc_low, icc_high),
        )
    if not icc_low <= target_icc <= icc_high:
        raise UnreachableTargetError(
            f"target ICC {target_icc:.4f} outside the reachable range "
            f"[{icc_low:.4f}, {icc_high:.4f}]",
            reachable=(icc_low, icc_high),
        )
    c_lo, c_hi = 0.0, c_max
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
        values[i, missing] = adjust_fills(draws, valid_values.mean())
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
        fills[missing, j] = adjust_fills(draws, valid_values.mean())
    for i in range(table.rows):
        missing = np.flatnonzero(table.missing[i])
        if missing.size:
            fills[i, missing] -= fills[i, missing].mean()
    return fills


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
    with open(path, newline="", encoding="utf-8") as handle:
        raw = [row for row in csv.reader(handle) if row]
    if not raw:
        raise StructuralError(f"{path}: file contains no data")
    if _looks_like_header(raw[0]):
        raw = raw[1:]
    if not raw:
        raise StructuralError(f"{path}: file contains no data rows")
    width = len(raw[0])
    values = np.zeros((len(raw), width))
    mask = np.zeros((len(raw), width), dtype=bool)
    for i, row in enumerate(raw):
        if len(row) != width:
            raise TableFormatError(
                f"{path}: row {i + 1} has {len(row)} columns, expected {width}"
            )
        for j, cell in enumerate(row):
            text = cell.strip()
            if text == "":
                mask[i, j] = True
                continue
            try:
                value = float(text)
            except ValueError:
                raise TableFormatError(
                    f"{path}: row {i + 1}, column {j + 1}: cannot parse {text!r}"
                ) from None
            if missing_code is not None and value == missing_code:
                mask[i, j] = True
            else:
                values[i, j] = value
    return values, mask


def _looks_like_header(row: list[str]) -> bool:
    for cell in row:
        text = cell.strip()
        if text == "":
            continue
        try:
            float(text)
        except ValueError:
            return True
    return False


def save_csv_loop(table, path, missing_code="") -> None:
    if isinstance(missing_code, (int, float)) and not isinstance(missing_code, bool):
        token = repr(float(missing_code))
    else:
        token = str(missing_code)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        for i in range(table.rows):
            writer.writerow(
                token if table.missing[i, j] else repr(float(table.values[i, j]))
                for j in range(table.cols)
            )
