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

and the ``1/g`` factors cancel.  The draws are processed in chunks of B,
sized by a fixed byte budget.  A chunk is one n x 2B indicator block, group
A in its first B columns and group B in the next B, so a chunk costs two
small ``G @ W`` products, one per half.  A chunk's B draws are one
``Generator.permuted`` call over B rows of ``arange(n)``, which shuffles
each row as ``permutation(n)`` does, so a seed yields the same groups and
report as a draw-by-draw loop.

The test requires a complete table — resampling cannot form full item-mean
vectors when cells are missing — so incomplete tables must be imputed
first (see :mod:`icctab.impute`).
"""

import math
from dataclasses import dataclass

import numpy as np

from .anova import anova, expected_icc
from .errors import PreconditionError
from .rand import as_generator
from .special import chi2_upper_tail
from .table import DataTable

__all__ = ["EcvtReport", "ecvt", "default_group_sizes"]

# Bytes of one float block of ``rows`` x B that sets the number B of draws per
# chunk; a chunk's temporaries are a few such blocks.
_CHUNK_BYTES = 1 << 17


@dataclass(frozen=True)
class EcvtReport:
    """Observed vs. predicted split-group correlations and the verdict.

    ``compatible`` is True when the chi-square p-value exceeds ``alpha``.
    Group sizes whose correlation distribution collapsed (zero standard
    deviation) are dropped from the statistic, with ``df`` decremented and
    a warning recorded.
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
        Significance level of the verdict.

    Raises
    ------
    PreconditionError
        Missing cells present (impute first), no group size, or a size
        below 1 or too large.
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
    dec = anova(table)
    q = math.inf if dec.vij == 0.0 else dec.vi / dec.vij
    gen = as_generator(rng)
    centered = table.values - table.values.mean(axis=0)
    gram = centered.T @ centered
    del centered

    observed_mean = np.empty(len(sizes))
    observed_sd = np.empty(len(sizes))
    predicted = np.empty(len(sizes))
    chi2 = 0.0
    df = 0
    warnings = []
    for k, g in enumerate(sizes):
        rs = np.concatenate([
            _gram_correlations(gram, block)
            for block in _group_indicator_chunks(gen, n, g, resamples, n)
        ])
        observed_mean[k] = rs.mean()
        observed_sd[k] = rs.std(ddof=1)
        predicted[k] = expected_icc(q, g)
        if observed_sd[k] == 0.0:
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
    gen: np.random.Generator, n: int, g: int, resamples: int, rows: int
):
    """Yield ``resamples`` draws of two disjoint size-``g`` groups in chunks.

    Each chunk is one n x 2B 0/1 block.  For the chunk's draw ``k``, column
    ``k`` marks the first ``g`` entries of one permutation of the
    participants (group A) and column ``B + k`` the next ``g`` (group B).
    The B permutations are one ``permuted`` call, equal to B successive
    ``permutation(n)`` calls, so the random stream is that of a draw-by-draw
    loop.  B is set so that one ``rows`` x B float block, the caller's
    per-chunk temporary, fits in ``_CHUNK_BYTES``.
    """
    chunk = _chunk_draws(rows)
    for start in range(0, resamples, chunk):
        size = min(chunk, resamples - start)
        draws = gen.permuted(np.tile(np.arange(n), (size, 1)), axis=1)
        cols = np.arange(size)[:, None]
        block = np.zeros((n, 2 * size))
        block[draws[:, :g], cols] = 1.0
        block[draws[:, g : 2 * g], cols + size] = 1.0
        yield block


def _chunk_draws(rows: int) -> int:
    return max(1, _CHUNK_BYTES // (8 * rows))


def _gram_correlations(gram: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Item-mean correlations of the group pairs marked by an indicator
    block (group A in its first half of columns, group B in the second),
    from the participant Gram matrix (NaN where a group's item means are
    constant).

    The sums run down axis 0, which numpy adds in row order whatever the
    zero pattern, so identical columns give r == 1 exactly.
    """
    size = block.shape[1] // 2
    in_a, in_b = block[:, :size], block[:, size:]
    gram_a = gram @ in_a
    gram_b = gram @ in_b
    cross = (in_b * gram_a).sum(axis=0)
    denom = np.sqrt((in_a * gram_a).sum(axis=0) * (in_b * gram_b).sum(axis=0))
    return np.divide(cross, denom, out=np.full(denom.shape, math.nan), where=denom != 0.0)
