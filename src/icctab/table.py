"""Item-by-participant data tables with an explicit missing-entry mask.

A :class:`DataTable` is a rectangular grid of measurements (rows are items,
columns are participants) paired with a boolean mask marking missing cells.
Missing data are represented by the mask alone; numeric sentinels such as
``0`` or ``inf`` exist only at the CSV boundary and are converted on load.
This removes the classic failure mode where a sentinel value collides with
a legitimate measurement (``0`` is a perfectly good Z-score).

CSV files hold each value as its ``repr`` (round-trip precision), with
CRLF line ends.  Blank lines are skipped, a first non-blank row with a
non-numeric cell is a header, and error messages count rows after it.
Rows stream, so memory stays O(table), not one Python string per cell.

Tables are immutable: every operation returns a new table, so instances can
be shared freely across threads.
"""

import csv
import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, StructuralError, TableFormatError
from .rand import as_generator

__all__ = [
    "DataTable",
    "MissingPattern",
    "load_csv",
    "save_csv",
    "zscore",
    "mix_rows",
    "virtualize",
]


@dataclass(frozen=True, eq=False)
class DataTable:
    """An m x n grid of real measurements plus a missing mask.

    ``values`` stores NaN at masked cells; all valid entries are finite.
    If ``missing`` is omitted, NaN cells of ``values`` are taken as missing.

    Structural requirements (checked at construction): at least 2 rows and
    2 columns, and at least one valid entry in every row and every column.
    """

    values: np.ndarray
    missing: np.ndarray | None = None

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim != 2:
            raise StructuralError(f"expected a 2-D table, got {values.ndim} dimensions")
        if self.missing is None:
            missing = np.isnan(values)
        else:
            missing = np.array(self.missing, dtype=bool)
        if missing.shape != values.shape:
            raise StructuralError(
                f"mask shape {missing.shape} does not match values shape {values.shape}"
            )
        m, n = values.shape
        if m < 2 or n < 2:
            raise StructuralError(f"table must be at least 2x2, got {m}x{n}")
        valid = ~missing
        if not np.isfinite(values[valid]).all():
            raise StructuralError("valid entries must be finite")
        empty_rows = np.flatnonzero(~valid.any(axis=1))
        if empty_rows.size:
            raise StructuralError(f"empty row(s): {(empty_rows + 1).tolist()}")
        empty_cols = np.flatnonzero(~valid.any(axis=0))
        if empty_cols.size:
            raise StructuralError(f"empty column(s): {(empty_cols + 1).tolist()}")
        values[missing] = np.nan
        values.flags.writeable = False
        missing.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "missing", missing)

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @property
    def valid(self) -> np.ndarray:
        """Boolean mask of valid (non-missing) cells."""
        return ~self.missing

    @property
    def n_valid(self) -> int:
        return int(self.valid.sum())

    @property
    def pmiss(self) -> float:
        """Proportion of missing cells."""
        m, n = self.shape
        return float(self.missing.sum()) / (m * n)

    def row_means(self) -> np.ndarray:
        """Mean of the valid entries in each row."""
        filled = np.where(self.valid, self.values, 0.0)
        return filled.sum(axis=1) / self.valid.sum(axis=1)

    def col_means(self) -> np.ndarray:
        """Mean of the valid entries in each column."""
        filled = np.where(self.valid, self.values, 0.0)
        return filled.sum(axis=0) / self.valid.sum(axis=0)


@dataclass(frozen=True, eq=False)
class MissingPattern:
    """A recorded m x n grid of missing-cell locations."""

    mask: np.ndarray

    def __post_init__(self):
        mask = np.array(self.mask, dtype=bool)
        mask.flags.writeable = False
        object.__setattr__(self, "mask", mask)

    @classmethod
    def from_table(cls, table: DataTable) -> "MissingPattern":
        return cls(table.missing)

    @property
    def density(self) -> float:
        return float(self.mask.mean())


def load_csv(path, missing_code: float | None = None) -> DataTable:
    """Read a comma-separated table, converting sentinels to the mask.

    Empty cells are always treated as missing; additionally, any cell whose
    numeric value equals ``missing_code`` exactly is masked.  The file
    follows the CSV contract of the module docstring.

    Raises
    ------
    TableFormatError
        Ragged rows or unparseable cells (message carries the 1-based
        row/column location).
    StructuralError
        Fewer than 2 rows/columns of data, or a row/column with no valid
        entry after sentinel conversion.
    """
    return DataTable(*_read_cells(path, missing_code))


def _read_cells(path, missing_code: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Values and missing mask of a CSV grid of any shape, header skipped.

    Empty cells, and cells equal to ``missing_code``, are missing and hold
    0 in the values.  Shared by :func:`load_csv` and the predictor reader
    of the command line.
    """
    value_rows, mask_rows = [], []
    with open(path, newline="", encoding="utf-8") as handle:
        rows = filter(None, csv.reader(handle))
        first = next(rows, None)
        if first is None:
            raise StructuralError(f"{path}: file contains no data")
        if _first_non_number(first) is not None:
            first = next(rows, None)
            if first is None:
                raise StructuralError(f"{path}: file contains no data rows")
        width = len(first)
        for i, row in enumerate(itertools.chain([first], rows), 1):
            if len(row) != width:
                raise TableFormatError(f"{path}: row {i} has {len(row)} columns, expected {width}")
            texts = list(map(str.strip, row))
            empty = np.fromiter(map(operator.not_, texts), bool, width)
            try:
                parsed = np.fromiter(map(float, filter(None, texts)), float)
            except ValueError:
                j = _first_non_number(texts)
                raise TableFormatError(
                    f"{path}: row {i}, column {j + 1}: cannot parse {texts[j]!r}"
                ) from None
            row_values = np.zeros(width)
            row_values[~empty] = parsed
            value_rows.append(row_values)
            mask_rows.append(empty)
    values, mask = np.array(value_rows), np.array(mask_rows)
    if missing_code is not None:
        sentinel = values == missing_code
        values[sentinel] = 0.0
        mask |= sentinel
    return values, mask


def _first_non_number(cells) -> int | None:
    """Index of the first non-blank cell that ``float`` cannot parse."""
    for j, cell in enumerate(cells):
        text = cell.strip()
        if text:
            try:
                float(text)
            except ValueError:
                return j
    return None


def save_csv(table: DataTable, path, missing_code: float | str = "") -> None:
    """Write a table as CSV, serializing masked cells as ``missing_code``.

    Values are written with round-trip precision, so
    ``load_csv(save_csv(t))`` reproduces values exactly and the mask
    bit-for-bit (given a matching missing token).  The bytes, token
    quoting included, are those of ``csv.writer``.
    """
    if isinstance(missing_code, (int, float)) and not isinstance(missing_code, bool):
        token = repr(float(missing_code))
    else:
        token = str(missing_code)
    if any(char in token for char in ',"\r\n'):
        token = '"' + token.replace('"', '""') + '"'
    with open(path, "w", newline="", encoding="utf-8") as handle:
        for row, missing in zip(table.values, table.missing):
            cells = list(map(repr, row.tolist()))
            for j in np.flatnonzero(missing).tolist():
                cells[j] = token
            handle.write(",".join(cells) + "\r\n")


def zscore(table: DataTable) -> DataTable:
    """Standardize each column of valid entries to mean 0 and variance 1.

    The variance is the sample variance (``ddof=1``).  The missing mask is
    untouched.

    Raises
    ------
    StructuralError
        A column has fewer than 2 valid entries.
    NumericError
        A column's valid entries have zero variance.
    """
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
    variances = (centered**2).sum(axis=0) / (counts - 1)
    degenerate = np.flatnonzero(variances <= 0)
    if degenerate.size:
        raise NumericError(
            f"column(s) {(degenerate + 1).tolist()} have zero variance"
        )
    scaled = np.where(valid, centered / np.sqrt(variances), np.nan)
    return DataTable(scaled, table.missing)


def mix_rows(table: DataTable, rng=None) -> DataTable:
    """Randomly permute the valid values within each row.

    Missing positions stay missing, so per-row valid counts, sums and means
    are preserved exactly.
    """
    gen = as_generator(rng)
    out = np.array(table.values)
    valid = table.valid
    for i in range(table.rows):
        slots = np.flatnonzero(valid[i])
        if slots.size > 1:
            out[i, slots] = out[i, slots][gen.permutation(slots.size)]
    return DataTable(out, table.missing)


def virtualize(table: DataTable, rng=None) -> DataTable:
    """Pack each row's valid values into randomly chosen virtual columns.

    The output has ``max(row valid counts)`` columns; each row's valid
    values land on a uniformly random subset of them, one value per column,
    and the remaining cells are masked.  Row value multisets are preserved.
    Input is expected to be Z-scores (not checked numerically).
    """
    gen = as_generator(rng)
    valid = table.valid
    counts = valid.sum(axis=1)
    width = int(counts.max())
    values = np.full((table.rows, width), np.nan)
    mask = np.ones((table.rows, width), dtype=bool)
    for i in range(table.rows):
        row_values = table.values[i, valid[i]]
        targets = gen.permutation(width)[: counts[i]]
        values[i, targets] = row_values
        mask[i, targets] = False
    return DataTable(values, mask)
