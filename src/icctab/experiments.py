"""Canned reproducible studies binding the library modules together.

A study starts from a complete generated table, degrades it over a grid of
missing proportions and tracks how the statistics of interest respond.
The studies back the command-line ``experiment`` subcommand and return
plain lists of per-level dataclass rows suitable for CSV emission and
external plotting.  The row-imputation and predictor studies are
:func:`icctab.impute.ari_bias_demo` and :func:`icctab.fit.r2cor_bias_demo`.
"""

from dataclasses import dataclass

import numpy as np

from .anova import icc_report
from .errors import PreconditionError
from .fit import _pearson
from .impute import crari_impute
from .rand import as_generator
from .synth import SynthSpec, degrade_random, generate
from .table import DataTable, zscore

__all__ = [
    "RecoveryPoint",
    "crari_recovery_study",
    "default_table",
]

DEFAULT_ROWS = 1400
DEFAULT_COLS = 80


@dataclass(frozen=True)
class RecoveryPoint:
    """ICC statistics plus item-mean fidelity at one degradation level."""

    p: float
    icc_missing: float
    icc_cor: float
    icc_imputed: float
    r_item_means: float
    icc_exact: float


def default_table(rows: int = DEFAULT_ROWS, cols: int = DEFAULT_COLS, seed=None) -> DataTable:
    """A Z-scored additive-model table with a known variance ratio."""
    raw, _ = generate(SynthSpec(rows=rows, cols=cols, seed=seed))
    return zscore(raw)


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
    near the exact value.
    """
    if table.missing.any():
        raise PreconditionError("the reference table must have no missing cells")
    gen = as_generator(rng)
    icc_exact = icc_report(table).icc
    exact_means = table.row_means()
    points = []
    for p in p_grid:
        missing = np.empty(replications)
        cor = np.empty(replications)
        imputed = np.empty(replications)
        r_means = np.empty(replications)
        for r in range(replications):
            degraded = degrade_random(table, p, gen)
            outcome = crari_impute(degraded, target="corrected", rng=gen)
            missing[r] = outcome.icc_before
            cor[r] = outcome.icc_cor
            imputed[r] = outcome.icc_after
            r_means[r] = _pearson(exact_means, degraded.row_means())
        points.append(
            RecoveryPoint(
                p=float(p),
                icc_missing=float(missing.mean()),
                icc_cor=float(cor.mean()),
                icc_imputed=float(imputed.mean()),
                r_item_means=float(r_means.mean()),
                icc_exact=icc_exact,
            )
        )
    return points
