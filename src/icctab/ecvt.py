"""Expected Correlation Validity Test (ECVT).

Checks whether a complete table is compatible with the additive two-way
model by permutation resampling: for each group size ``g``, two disjoint
random participant groups are drawn repeatedly, the Pearson correlation
between their item-mean vectors is recorded, and the mean observed
correlation is compared with the value the table's own variance ratio
predicts, ``q*g / (q*g + 1)``.  Standardized deviations are summed over
group sizes into a chi-square statistic with one degree of freedom per
group size.

The correlations are computed without forming any item-mean vector.  With
``Vc`` the table centered per participant column over items and ``w_A`` the
0/1 indicator of group A, the centered item means of A are ``Vc w_A / g``,
so with the participant Gram matrix ``G = Vc' Vc`` (n x n, formed once)

    r = w_A' G w_B / sqrt(w_A' G w_A * w_B' G w_B)

and the ``1/g`` factors cancel.

The test forms no ANOVA: ``G`` gives the variance ratio too.  On a complete
m x n table ``ΣG = n·ssi`` and ``tr G = ssi + ssij``, so ``vi/vij`` is

    q = (ΣG - tr G) / (n·tr G - ΣG)

and ``q*g / (q*g + 1)`` is exactly the ratio of the split means of
``w_A' G w_B`` and ``w_A' G w_A``.  The numerator is floored at 0, as ``vi``
is; the denominator, ``n·ssij >= 0``, only against rounding (``q = inf`` at
0).  ``G`` comes from centred columns, so an added constant costs it no digits.

The draws are processed in chunks of B.
A chunk is one C-contiguous n x 2B indicator block, group A in its first B
columns and group B in the next B, so a chunk costs one ``G @ W`` product
over the whole block.  B is the number of draws whose whole footprint fits
in a fixed byte budget: 48n bytes a draw, for the block's two columns, a
row of ``arange(n)`` and the permutation row drawn from it, and the
product's two columns.  The block and the two rows are allocated once per
group size and reused by every chunk.  A chunk's B draws are one
``Generator.permuted`` call over B rows of ``arange(n)``, which shuffles
each row as ``permutation(n)`` does, so a seed yields the same groups and
report as a draw-by-draw loop, whatever B.

The test requires a complete table — resampling cannot form full item-mean
vectors when cells are missing — so incomplete tables must be imputed
first (see :mod:`icctab.impute`).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .anova import _correlation, expected_icc
from .errors import NumericError, PreconditionError
from .rand import as_generator
from .special import chi2_upper_tail
from .table import DataTable, _constant_to_rounding

__all__ = _EXPORTS["ecvt"].split()

# Bytes that the arrays of one chunk may take together: the indicator block
# and permutation rows of ``_group_indicator_chunks`` and every buffer and
# temporary of the caller's kernel.  Each caller states its bytes per draw,
# and a chunk holds as many draws as fit.  At the paper's 1400 x 80 shape the
# r2/ICC curve gets 16 draws a chunk at the traced peak it had when only one
# 1400 x B block was budgeted (in 128 KiB, 11 draws).
_CHUNK_BYTES = 5 << 18


@dataclass(frozen=True)
class EcvtReport:
    """Observed vs. predicted split-group correlations and the verdict.

    ``compatible`` is True when the chi-square p-value exceeds ``alpha``.
    Group sizes whose correlation distribution collapsed (a spread constant
    to rounding, :func:`icctab.table._constant_to_rounding`) are dropped
    from the statistic, with ``df`` decremented and a warning recorded.
    """

    group_sizes: tuple[int, ...]
    observed_mean_r: np.ndarray
    observed_sd_r: np.ndarray
    predicted_r: np.ndarray
    chi2: float
    df: int
    p_value: float
    alpha: float
    compatible: bool
    warnings: tuple[str, ...]

    @property
    def verdict(self) -> str:
        return "compatible" if self.compatible else "incompatible"


def default_group_sizes(n_participants: int) -> tuple[int, ...]:
    """Doubling group sizes 1, 2, 4, ... up to and including n // 2."""
    half = n_participants // 2
    sizes = []
    g = 1
    while g < half:
        sizes.append(g)
        g *= 2
    sizes.append(half)
    return tuple(sizes)


def ecvt(
    table: DataTable,
    group_sizes=None,
    resamples: int = 200,
    alpha: float = 0.01,
    rng=None,
) -> EcvtReport:
    """Run the validity test on a complete table.

    A group size whose correlations are constant to rounding
    (:func:`icctab.table._constant_to_rounding`) is dropped from the
    statistic with a warning.

    Parameters
    ----------
    table
        Complete table (no missing cells).
    group_sizes
        Participant group sizes to test; defaults to doubling sizes up to
        half the participant count.  Two disjoint groups of each size must
        fit, so ``2 * max(group_sizes) <= n``.
    resamples
        Number of disjoint group pairs drawn per size.
    alpha
        Significance level of the verdict, in (0, 1).

    Raises
    ------
    PreconditionError
        Missing cells present (impute first), no group size, a size below
        1 or too large, fewer than 2 resamples, or ``alpha`` outside (0, 1).
    NumericError
        A drawn group's item means are constant to rounding, so its
        correlation is undefined.
    """
    if table.missing.any():
        raise PreconditionError(
            "the table has missing cells; impute them (e.g. crari_impute) "
            "before running the validity test"
        )
    n = table.cols
    sizes = _checked_group_sizes(
        default_group_sizes(n) if group_sizes is None else group_sizes, n
    )
    if resamples < 2:
        raise PreconditionError("at least 2 resamples are required")
    if not 0.0 < alpha < 1.0:
        raise PreconditionError(f"alpha must lie in (0, 1), got {alpha}")
    gen = as_generator(rng)
    centered = table.values - table.values.mean(axis=0)
    gram = centered.T @ centered
    del centered
    total, trace = gram.sum(), gram.trace()
    noise = max(0.0, n * trace - total)
    q = math.inf if noise == 0.0 else max(0.0, total - trace) / noise
    peak = max(table.values.max(), -table.values.min())

    observed_mean = np.empty(len(sizes))
    observed_sd = np.empty(len(sizes))
    predicted = np.empty(len(sizes))
    chi2 = 0.0
    df = 0
    warnings = []
    for k, g in enumerate(sizes):
        rs = np.concatenate([
            _gram_correlations(gram, block, table.rows, g, peak)
            for block in _group_indicator_chunks(gen, n, g, resamples, 48 * n)
        ])
        if np.isnan(rs).any():
            raise NumericError(
                f"group size {g}: undefined correlation, because the item means "
                "of a drawn group are constant"
            )
        observed_mean[k] = rs.mean()
        observed_sd[k] = rs.std(ddof=1)
        predicted[k] = expected_icc(q, g)
        if _constant_to_rounding(observed_sd[k] ** 2 * (resamples - 1), rs @ rs, resamples):
            warnings.append(
                f"group size {g}: constant correlations, dropped from the statistic"
            )
            continue
        chi2 += ((observed_mean[k] - predicted[k])
                 / (observed_sd[k] / math.sqrt(resamples))) ** 2
        df += 1

    if df == 0:
        warnings.append("all group sizes degenerate; verdict defaults to compatible")
        p_value = 1.0
    else:
        p_value = chi2_upper_tail(chi2, df)
    return EcvtReport(
        group_sizes=sizes,
        observed_mean_r=observed_mean,
        observed_sd_r=observed_sd,
        predicted_r=predicted,
        chi2=chi2,
        df=df,
        p_value=p_value,
        alpha=alpha,
        compatible=p_value > alpha,
        warnings=tuple(warnings),
    )


def _checked_group_sizes(group_sizes, n: int) -> tuple[int, ...]:
    """The sizes as ints; PreconditionError unless each is an integral
    number (not a bool) >= 1 and two disjoint groups of the largest fit in
    ``n`` participants."""
    sizes = tuple(group_sizes)
    if not sizes or not all(
        not isinstance(g, (bool, np.bool_)) and g >= 1 and float(g).is_integer() for g in sizes
    ):
        raise PreconditionError("group sizes must be positive integers")
    sizes = tuple(int(g) for g in sizes)
    if 2 * max(sizes) > n:
        raise PreconditionError(
            f"two disjoint groups of size {max(sizes)} do not fit in "
            f"{n} participants"
        )
    return sizes


def _group_indicator_chunks(
    gen: np.random.Generator, n: int, g: int, resamples: int, draw_bytes: int
):
    """Yield ``resamples`` draws of two disjoint size-``g`` groups in chunks.

    Each chunk is one C-contiguous n x 2B 0/1 block.  For the chunk's draw
    ``k``, column ``k`` marks the first ``g`` entries of one permutation of
    the participants (group A) and column ``B + k`` the next ``g`` (group
    B).  The B permutations are one ``permuted`` call, equal to B successive
    ``permutation(n)`` calls, so the random stream is that of a draw-by-draw
    loop for any B.  ``draw_bytes`` is the caller's whole footprint per
    draw, and B draws take at most ``_CHUNK_BYTES``.  Of that footprint
    this helper holds 32n bytes for the whole call, in three buffers
    allocated once: the block's two float64 columns, a row of ``arange(n)``
    and the int64 row its permutation is drawn into.  Each chunk zeroes
    the block and turns the first 2g entries of each drawn row in place
    into the flat indices of the cells to mark, so nothing carries over
    between chunks, but a yielded block is valid only until the next one
    is drawn.
    """
    chunk = min(_chunk_draws(draw_bytes), resamples)
    order = np.tile(np.arange(n), (chunk, 1))
    draws = np.empty_like(order)
    cells = np.empty(n * 2 * chunk)
    for start in range(0, resamples, chunk):
        size = min(chunk, resamples - start)
        gen.permuted(order[:size], axis=1, out=draws[:size])
        cells[: n * 2 * size] = 0.0
        # each draw's 2g participants become the flat indices of their cells
        # in columns k and size + k of the n x 2*size block
        marks = draws[:size, : 2 * g]
        marks *= 2 * size
        marks += np.arange(size)[:, None]
        marks[:, g:] += size
        cells[marks] = 1.0
        yield cells[: n * 2 * size].reshape(n, 2 * size)


def _chunk_draws(draw_bytes: int) -> int:
    return max(1, _CHUNK_BYTES // draw_bytes)


def _gram_correlations(gram: np.ndarray, block: np.ndarray, m: int, g: int,
                       peak: float) -> np.ndarray:
    """Item-mean correlations over ``m`` items of the size-``g`` group pairs
    marked by an indicator block (group A in its first half of columns, B in
    the second), from the participant Gram matrix: the centred moment sums
    that :func:`icctab.anova._correlation` closes.

    A group's ``w'Gw`` adds g² Gram entries, each off by up to about
    ``m·eps·max_j G_jj``.  The centring adds an error that grows with the
    raw values: with ``peak`` the largest ``|x_ij|`` of the table, each
    centred value is off by up to about ``4·eps·peak`` (its own rounding and
    the mean's), so each of the group's m centred sums by g times that and
    ``w'Gw`` by ``16·m·g²·eps²·peak²``.  A ``w'Gw`` at most
    ``m·g²·eps·(max_j G_jj + 16·eps·peak²)``, the sum of the two bounds, is
    constant to rounding: passed as 0, NaN.

    One GEMM gives ``G W`` for the whole block, 16n bytes a draw, and the
    three column sums are taken from it without a product temporary.  The
    sums run down axis 0 in row order whatever the zero pattern, and the
    0/1 factors make every product exact, so identical columns give r == 1
    exactly.
    """
    size = block.shape[1] // 2
    product = gram @ block
    in_a, in_b = block[:, :size], block[:, size:]
    gram_a, gram_b = product[:, :size], product[:, size:]
    eps = np.finfo(float).eps
    floor = m * g * g * eps * (gram.diagonal().max() + 16 * eps * peak * peak)
    saa = np.einsum("ij,ij->j", in_a, gram_a)
    sbb = np.einsum("ij,ij->j", in_b, gram_b)
    saa[saa <= floor] = 0.0
    sbb[sbb <= floor] = 0.0
    return _correlation(m, 0.0, 0.0, saa, sbb, np.einsum("ij,ij->j", in_b, gram_a))
