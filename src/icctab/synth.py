"""Artificial data tables with known ground truth, plus degradation.

The generator produces item-by-participant tables from

    x[i, j] = mean + sign(b[i]) * |b[i]| ** e[j] + noise[i, j]

with item effects ``b ~ Normal(0, item_sd**2)``, cell noise
``Normal(0, noise_sd**2)`` and participant exponents

    e[j] = 1 - severity * log(1 - u[j]),   u ~ Uniform[0, 1).

At ``severity = 0`` every exponent is 1 and the table follows the additive
two-way model exactly; raising the severity injects a participant effect
that survives Z-scoring, which is what the model-validation test is meant
to detect.  The exponent distribution has the closed-form CDF
``1 - exp(-(e - 1) / severity)`` (see :func:`alpha_cdf`), used as the
generator's oracle.

Degradation masks uniformly random cells of a complete table to simulate
missing data; :func:`_degradation_study` repeats it over a grid of missing
proportions and averages what a study measures on each degraded table.
:func:`generate` draws its noise a row block at a time.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .anova import expected_icc
from .errors import PreconditionError, StructuralError
from .rand import as_generator
from .table import DataTable, _handed_over, _row_blocks

__all__ = _EXPORTS["synth"].split()

_MAX_RETRIES = 100  # degrade_random's rejection-sampling attempts


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of one generated table.

    Default standard deviations give a variance ratio q = 0.16, i.e. an
    ICC of about 0.93 for an 80-participant table.
    """

    rows: int
    cols: int
    mean: float = 0.0
    item_sd: float = 0.4
    noise_sd: float = 1.0
    severity: float = 0.0
    seed: int | np.random.SeedSequence | None = None

    def __post_init__(self):
        if self.rows < 2 or self.cols < 2:
            raise PreconditionError("generated tables must be at least 2x2")
        if self.item_sd <= 0 or self.noise_sd <= 0:
            raise PreconditionError("item_sd and noise_sd must be positive")
        if self.severity < 0:
            raise PreconditionError("severity must be nonnegative")

    @property
    def q(self) -> float:
        """Variance ratio item_sd**2 / noise_sd**2 of the additive model."""
        return (self.item_sd / self.noise_sd) ** 2


@dataclass(frozen=True)
class SynthTruth:
    """Hidden quantities behind a generated table.

    ``expected_icc`` is the ICC implied by the spec's variances at the
    table's participant count; it is meaningful at severity 0 only.
    """

    item_effects: np.ndarray
    participant_exponents: np.ndarray
    expected_icc: float


def _signed_power(base: float | np.ndarray, exponent: float | np.ndarray):
    """sign(base) * |base| ** exponent, with sign(0) defined as 0."""
    power = np.abs(base) ** exponent
    power *= np.sign(base)
    return power


def generate(spec: SynthSpec) -> tuple[DataTable, SynthTruth]:
    """Generate a complete table and its ground truth from ``spec``.

    Draw order (item effects, then exponents, then noise) is fixed, so a
    given spec always produces the same table.
    """
    gen = as_generator(spec.seed)
    item_effects = gen.normal(0.0, spec.item_sd, size=spec.rows)
    uniforms = gen.random(spec.cols)
    exponents = 1.0 - spec.severity * np.log1p(-uniforms)
    # mean + signed power + noise, summed in that order in the power's buffer
    cells = _signed_power(item_effects[:, None], exponents[None, :])
    cells += spec.mean
    for rows in _row_blocks(spec.rows, spec.cols):  # the stream of one whole-table draw
        cells[rows] += gen.normal(0.0, spec.noise_sd, size=cells[rows].shape)
    truth = SynthTruth(
        item_effects=item_effects,
        participant_exponents=exponents,
        expected_icc=expected_icc(spec.q, spec.cols),
    )
    return DataTable(_handed_over(cells)), truth


def alpha_cdf(alpha: float, severity: float) -> float:
    """CDF of the participant exponents at a given positive severity."""
    if severity <= 0:
        raise PreconditionError("alpha_cdf requires a positive severity")
    if alpha < 1.0:
        raise PreconditionError(f"exponents are >= 1, got {alpha}")
    return 1.0 - math.exp(-(alpha - 1.0) / severity)


def degrade_random(table: DataTable, p: float, rng=None) -> DataTable:
    """Mask ``round(p * m * n)`` uniformly random valid cells.

    The masked set is rejection-resampled until every row and column keeps
    at least one valid entry.  After ``_MAX_RETRIES`` rejected draws, one
    random valid cell per row and per column is kept aside (rows take
    uncovered columns first, so a complete table keeps ``max(m, n)``) and
    the cells are masked among the rest.
    """
    if not 0.0 <= p <= 0.95:
        raise PreconditionError(f"missing proportion must lie in [0, 0.95], got {p}")
    m, n = table.shape
    count = round(p * m * n)
    if count == 0:
        return table
    n_valid = table.n_valid
    if count > n_valid:
        raise StructuralError(f"cannot mask {count} cells: only {n_valid} valid cells remain")
    # choice by count draws what choice over the valid cells' flat indices draws
    cells = np.flatnonzero(table.valid.ravel()) if n_valid < m * n else None
    gen = as_generator(rng)
    for _ in range(_MAX_RETRIES):
        chosen = gen.choice(n_valid, size=count, replace=False)
        chosen = chosen if cells is None else cells[chosen]
        mask = np.array(table.missing, order="C")  # so the flat view writes in place
        mask.reshape(-1)[chosen] = True
        if not (mask.all(axis=1).any() or mask.all(axis=0).any()):
            return _masked(table, mask, chosen)
    valid = table.valid
    kept, covered = np.zeros_like(valid), np.zeros(n, bool)
    for i in gen.permutation(m):
        free = np.flatnonzero(valid[i] & ~covered)
        j = gen.choice(free if free.size else np.flatnonzero(valid[i]))
        kept[i, j] = covered[j] = True
    for j in np.flatnonzero(~covered):
        kept[gen.choice(np.flatnonzero(valid[:, j])), j] = True
    rest = np.flatnonzero((valid & ~kept).ravel())
    if count > rest.size:
        raise StructuralError(f"cannot mask {count} cells without emptying a row or column")
    chosen = gen.choice(rest, size=count, replace=False)
    mask = np.array(table.missing, order="C")
    mask.reshape(-1)[chosen] = True
    return _masked(table, mask, chosen)


def _masked(table: DataTable, mask: np.ndarray, chosen: np.ndarray) -> DataTable:
    """``table`` under its C-ordered new ``mask``, which adds the cells at
    the flat indices ``chosen``: NaN goes to those cells alone."""
    values = np.array(table.values, order="C")
    values.reshape(-1)[chosen] = np.nan
    return DataTable(_handed_over(values), _handed_over(mask))


def _degradation_study(table: DataTable, p_grid, replications: int, rng,
                       measure) -> list[tuple[float, np.ndarray]]:
    """``(p, columns)`` per missing proportion ``p`` in ``p_grid``.

    Each level degrades the complete ``table`` ``replications`` times;
    ``columns`` holds one row per statistic ``measure(degraded, gen)``
    returns, with its value in each replication, for the caller to average.
    Every draw comes from the one stream ``gen``, in order.
    """
    if table.missing.any():
        raise PreconditionError("the reference table must have no missing cells")
    if replications < 1:
        raise PreconditionError(f"at least 1 replication is required, got {replications}")
    gen = as_generator(rng)
    return [(float(p), np.array([measure(degrade_random(table, p, gen), gen)
                                 for _ in range(replications)]).T)
            for p in p_grid]
