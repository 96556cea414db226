"""Item-by-participant data tables with an explicit missing-entry mask.

A :class:`DataTable` is a rectangular grid of measurements (rows are items,
columns are participants) paired with a boolean mask marking missing cells.
Missing data are represented by the mask alone; numeric sentinels such as
``0`` or ``inf`` exist only at the CSV boundary and are converted on load.
This removes the classic failure mode where a sentinel value collides with
a legitimate measurement (``0`` is a perfectly good Z-score).

Tables are immutable: every operation returns a new table, so instances can
be shared freely across threads.
"""

import csv
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
    numeric value equals ``missing_code`` exactly is masked.  An optional
    header row is detected by a non-numeric first line and skipped.

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


def save_csv(table: DataTable, path, missing_code: float | str = "") -> None:
    """Write a table as CSV, serializing masked cells as ``missing_code``.

    Values are written with round-trip precision, so
    ``load_csv(save_csv(t))`` reproduces values exactly and the mask
    bit-for-bit (given a matching missing token).
    """
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
