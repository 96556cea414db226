"""Item-by-participant data tables with an explicit missing-entry mask.

A :class:`DataTable` is a rectangular grid of measurements (rows are items,
columns are participants) paired with a boolean mask marking missing cells.
Missing data are represented by the mask alone; missing tokens such as
``NA``, ``0`` or ``inf`` exist only at the CSV boundary and are converted
on load.  This removes the classic failure mode where a sentinel value
collides with a legitimate measurement (``0`` is a perfectly good Z-score).

CSV files hold each value as its ``repr`` (round-trip precision), with
CRLF line ends.  A masked cell holds the missing token (a number's
``repr``, nothing for ``None``); on load a cell is missing when it is empty,
when its stripped text is the stripped token, or when it equals a numeric
token; a save refuses a numeric token that a valid value equals.  Blank
lines are skipped, a first non-blank row with a cell neither missing nor
numeric is a header, and error messages count rows after it.
Rows stream, so memory stays O(table), not one Python string per cell.

Reads and writes of at least ``_SPLIT_BYTES`` (512 KiB of file or of
values) use two processes when the host gives this one more than one CPU
and this process runs a single thread (a forked child could inherit a lock
another thread holds): a forked child parses the rows after the first
``\\n`` at or past the midpoint of the file the caller opened, or formats
the second half of the rows, while the caller does the first half.  The
child writes its half to an unnamed temp file, which the caller reads once
the child has exited cleanly; if it failed, or something else reaped it
(``SIGCHLD`` ignored, or a handler that waits for any child), the caller
does that half itself.  A file is read in one process when its first half
holds a ``"`` (a quoted field could span the split), when no ``\\n``
follows the midpoint, or when the first half holds no data row.  Values,
bytes and errors are the same either way: faults are raised in file order,
and bytes that are not UTF-8 raise ``TableFormatError`` naming their line
of the file.  The child runs no BLAS and leaves through ``os._exit``.
On Python 3.12 and later ``os.fork`` still warns (``DeprecationWarning``)
when OpenBLAS has started threads.

Tables are immutable: every operation returns a new table, so instances can
be shared freely across threads.  A table holds one copy of its values.
Kernels reuse their table-sized temporaries in place (ufunc ``out=``,
``np.copyto(where=)``), as each fresh one costs page faults: :func:`zscore`
holds at most two float tables besides its input.
"""

import csv
import itertools
import operator
import os
import shutil
import tempfile
import threading
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .errors import NumericError, PreconditionError, StructuralError, TableFormatError
from .rand import as_generator

__all__ = _EXPORTS["table"].split()

# A CSV read or write at least this large (file bytes read, value bytes
# written) is split in two, and a forked child takes the second half.
# Timed on 2 vCPUs with 80 columns: in a command-line process (36 MB, fork
# and wait 4 ms) a split pays from about 300 KB read and 100 KB of values
# written.  Forking costs more as the caller's Python heap grows (16 ms
# with 260 MB of Python objects; large numpy arrays add little), and there
# a split pays from about 300 KB of values written but only from about
# 1.3 MB read, so such a caller reads files of 0.5-1.3 MB up to 15% slower.
_SPLIT_BYTES = 512 * 1024


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
        if not (np.isfinite(values) | missing).all():
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


def load_csv(path, missing_code: str | float | None = None) -> DataTable:
    """Read a comma-separated table, converting missing tokens to the mask.

    The file follows the CSV contract of the module docstring, its missing
    cells included, so ``load_csv(path, t)`` reads back ``save_csv(table,
    path, t)`` for any token ``t`` (``save_csv`` refuses a numeric token
    that a valid value equals).

    Raises
    ------
    TableFormatError
        Ragged rows or unparseable cells (message carries the 1-based
        row/column location), a cell longer than ``csv.field_size_limit()``
        (message carries the row), or bytes that are not UTF-8 (message
        carries the 1-based line of the file, blank and header lines
        included).
    StructuralError
        Fewer than 2 rows/columns of data, or a row/column with no valid
        entry after token conversion.
    """
    return DataTable(*_read_cells(path, missing_code))


def _read_cells(path, missing_code: str | float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Values and missing mask of a CSV grid of any shape, header skipped.

    Missing cells, by the rule of :func:`load_csv`, hold 0 in the values.
    Shared by :func:`load_csv` and the predictor reader of the command line.
    """
    token = _token_text(missing_code).strip()
    with open(path, "rb") as handle:
        try:
            split = _split_point(handle)
            first, rows, header = _first_data_row(handle, path, split, token)
            if first is None and split is not None:  # the head holds no data row
                handle.seek(0)
                split = None
                first, rows, header = _first_data_row(handle, path, None, token)
            if first is None:
                raise StructuralError(f"{path}: file contains no data{' rows' if header else ''}")
            width = len(first)
            head = itertools.chain([first], rows)
            if split is None:
                value_rows, mask_rows = _parse_rows(head, path, width, 1, token)
            else:
                value_rows, mask_rows = _read_halves(path, handle, split, head, width, token)
        except UnicodeDecodeError:
            raise _not_utf8(path, handle) from None
    values, mask = np.vstack(value_rows), np.vstack(mask_rows)
    try:
        sentinel = values == float(token)
    except ValueError:  # no token, or a token that is not a number
        return values, mask
    values[sentinel] = 0.0
    mask |= sentinel
    return values, mask


def _token_text(missing_code: str | float | None) -> str:
    """Text of a missing cell: a number's ``repr``, else the string ("" for None)."""
    if isinstance(missing_code, (int, float)) and not isinstance(missing_code, bool):
        return repr(float(missing_code))
    return "" if missing_code is None else str(missing_code)


def _not_utf8(path, handle) -> TableFormatError:
    """The error for a file that is not UTF-8, naming its first such line."""
    handle.seek(0)
    lines = itertools.chain.from_iterable(raw.splitlines() for raw in handle)
    for k, line in enumerate(lines, 1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError as exc:
            return TableFormatError(
                f"{path}: line {k}: not UTF-8 ({exc.reason} at byte {exc.start + 1})"
            )
    return TableFormatError(f"{path}: not UTF-8")


def _forks(nbytes: int) -> bool:
    """Whether an input of ``nbytes`` is split between two processes."""
    return (
        nbytes >= _SPLIT_BYTES
        and hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) > 1
        and threading.active_count() == 1
    )


def _split_point(handle) -> int | None:
    """Offset just past the first ``\\n`` at or after the file's midpoint.

    None when the file is read in one process: it is small, it has no such
    ``\\n`` before its last byte, or its head holds a ``"`` (a quoted
    field could run across the split).  Leaves the handle at offset 0.
    """
    size = os.fstat(handle.fileno()).st_size
    if not _forks(size):
        return None
    handle.seek(size // 2)
    handle.readline()
    split = handle.tell()
    handle.seek(0)
    step = 1 << 20
    if split >= size or any(
        b'"' in handle.read(min(step, split - at)) for at in range(0, split, step)
    ):
        split = None
    handle.seek(0)
    return split


def _lines(handle, stop: int | None = None):
    """Decoded lines of a binary file from its position up to byte ``stop``.

    Lines end at ``\\r``, ``\\n`` or ``\\r\\n``, as in a text file opened with
    ``newline=""``.  Each line is decoded on its own, so bytes that are not
    UTF-8 raise at their row, whichever process reads it.
    """
    left = None if stop is None else stop - handle.tell()
    for raw in handle:
        for line in raw.splitlines(True):
            yield line.decode("utf-8")
        if left is not None:
            left -= len(raw)
            if left <= 0:
                return


def _rows(handle, stop: int | None = None):
    """Non-blank CSV rows of a binary file from its position up to byte ``stop``."""
    return filter(None, csv.reader(_lines(handle, stop)))


def _first_data_row(handle, path, stop: int | None, token: str):
    """First data row up to byte ``stop``, the rows after it, and whether a
    header row came before it.  A row that ``csv.reader`` rejects here is
    named row 1, even a header."""
    rows = _rows(handle, stop)
    try:
        first = next(rows, None)
        header = first is not None and _first_non_number(first, token) is not None
        if header:
            first = next(rows, None)
    except csv.Error as exc:
        raise TableFormatError(f"{path}: row 1: {exc}") from None
    return first, rows, header


def _parse_rows(rows, path, width: int, start: int, token: str) -> tuple[list, list]:
    """Value and mask arrays, one pair per row, of CSV rows numbered from ``start``."""
    value_rows, mask_rows = [], []
    i = start - 1
    try:
        for i, row in enumerate(rows, start):
            if len(row) != width:
                raise TableFormatError(f"{path}: row {i} has {len(row)} columns, expected {width}")
            texts = list(map(str.strip, row))
            if token:
                texts = ["" if text == token else text for text in texts]
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
    except csv.Error as exc:  # a cell longer than csv.field_size_limit()
        raise TableFormatError(f"{path}: row {i + 1}: {exc}") from None
    return value_rows, mask_rows


def _read_halves(path, handle, split: int, head, width: int, token: str) -> tuple[list, list]:
    """Parse ``head`` here while a forked child parses the rows from byte ``split`` on.

    The child reopens the caller's descriptor, so it reads the file that
    ``handle`` holds even if ``path`` has since been replaced, and writes
    its values and mask to an unnamed temp file, read here once it exits.
    If it fails in any way, the tail is parsed again here with its true
    row numbers, which raises the same fault a one-process read raises.
    A fault in the head is raised first.
    """
    with tempfile.TemporaryFile() as spill:

        def child():
            with open(f"/proc/self/fd/{handle.fileno()}", "rb") as tail:
                tail.seek(split)
                value_rows, mask_rows = _parse_rows(_rows(tail), path, width, 1, token)
            spill.write(np.array(value_rows, float).reshape(-1, width))
            spill.write(np.array(mask_rows, bool).reshape(-1, width))
            spill.flush()  # os._exit skips Python's buffers

        (value_rows, mask_rows), ok = _with_child(
            child, lambda: _parse_rows(head, path, width, 1, token))
        if ok:
            cells = os.fstat(spill.fileno()).st_size // 9  # 8 bytes of value, 1 of mask
            spill.seek(0)
            tail = ([np.fromfile(spill, float, cells).reshape(-1, width)],
                    [np.fromfile(spill, bool, cells).reshape(-1, width)])
    if not ok:
        handle.seek(split)
        tail = _parse_rows(_rows(handle), path, width, len(value_rows) + 1, token)
    return value_rows + tail[0], mask_rows + tail[1]


def _first_non_number(cells, token: str = "") -> int | None:
    """Index of the first cell, not blank or ``token``, that ``float`` cannot parse."""
    for j, cell in enumerate(cells):
        text = cell.strip()
        if text and text != token:
            try:
                float(text)
            except ValueError:
                return j
    return None


def save_csv(table: DataTable, path, missing_code: str | float | None = None) -> None:
    """Write a table as CSV, serializing masked cells as ``missing_code``.

    Values are written with round-trip precision, so ``load_csv(path,
    missing_code)`` reproduces values exactly and the mask bit for bit.
    The bytes, token quoting included, are those of ``csv.writer``.

    Raises
    ------
    PreconditionError
        The token parses as a number and a valid value equals it, so the
        read-back would mask that value (message carries the 1-based
        row/column of the first such cell); no file is opened.
    """
    token = _token_text(missing_code)
    try:
        clash = table.values == float(token)  # masked cells hold NaN
    except ValueError:  # no token, or a token that is not a number
        pass
    else:
        if clash.any():
            i, j = divmod(int(clash.argmax()), table.cols)
            raise PreconditionError(f"{path}: row {i + 1}, column {j + 1}: valid value "
                                    f"equals the missing token {token.strip()!r}")
    if any(char in token for char in ',"\r\n'):
        token = '"' + token.replace('"', '""') + '"'
    values = table.values
    with open(path, "w", newline="", encoding="utf-8") as handle:
        if _forks(values.nbytes):
            _write_halves(handle, values, token)
        else:
            _write_rows(handle, values, token)


def _write_rows(handle, values, token: str) -> None:
    """Write each row as ``repr`` cells, ``token`` in its masked slots, CRLF-ended.

    Masked cells hold NaN and valid ones are finite, and no finite float's
    ``repr`` holds ``nan``, so the token replaces each ``nan`` of the row.
    """
    for row in values:
        handle.write(",".join(map(repr, row.tolist())).replace("nan", token) + "\r\n")


def _write_halves(handle, values, token: str) -> None:
    """Write the first half of the rows here while a forked child formats
    the second half into an unnamed temp file, then append that file.

    The child streams its rows to disk rather than into memory: a forked
    child's resident set starts at its parent's.  If it fails, the second
    half is written here.
    """
    half = len(values) // 2
    with tempfile.TemporaryFile() as spill:

        def child():
            with open(spill.fileno(), "w", newline="", encoding="utf-8", closefd=False) as out:
                _write_rows(out, values[half:], token)

        def parent():
            _write_rows(handle, values[:half], token)

        _, ok = _with_child(child, parent)
        if ok:
            handle.flush()
            spill.seek(0)
            shutil.copyfileobj(spill, handle.buffer)
        else:
            _write_rows(handle, values[half:], token)


def _with_child(child, parent):
    """Run ``child()`` in a forked process while ``parent()`` runs here.

    Returns ``parent()``'s result and whether the child exited cleanly.  It
    did not if the fork failed, or if something else reaped it (``SIGCHLD``
    ignored, or a handler that waits for any child), as its exit status is
    then lost.  The child leaves through ``os._exit`` whatever happens, so
    it never returns into the caller.  The parent always reaps it, and kills
    it first when ``parent()`` raises.
    """
    try:
        pid = os.fork()
    except OSError:
        return parent(), False
    if pid == 0:
        code = 1
        try:
            child()
            code = 0
        finally:
            os._exit(code)
    try:
        result = parent()
    except BaseException:
        import signal  # error path only: importing it costs start-up time

        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:  # already reaped elsewhere
            pass
        raise
    finally:
        try:
            status = os.waitpid(pid, 0)[1]
        except ChildProcessError:  # reaped elsewhere: exit status lost
            status = None
    return result, status == 0


def zscore(table: DataTable) -> DataTable:
    """Standardize each column of valid entries to mean 0 and variance 1.

    The variance is the sample variance (``ddof=1``).  The missing mask is
    untouched.

    Raises
    ------
    StructuralError
        A column has fewer than 2 valid entries.
    NumericError
        A column's valid entries have zero variance: their centred sum of
        squares is constant to rounding (:func:`_constant_to_rounding`).
    """
    valid = table.valid
    counts = valid.sum(axis=0)
    thin = np.flatnonzero(counts < 2)
    if thin.size:
        raise StructuralError(
            f"column(s) {(thin + 1).tolist()} have fewer than 2 valid entries"
        )
    centered = np.where(valid, table.values, 0.0)
    raw = np.einsum("ij,ij->j", centered, centered)
    means = centered.sum(axis=0) / counts
    np.subtract(table.values, means, out=centered)
    np.copyto(centered, 0.0, where=table.missing)
    sums = np.square(centered).sum(axis=0)
    degenerate = np.flatnonzero(_constant_to_rounding(sums, raw, counts))
    if degenerate.size:
        raise NumericError(
            f"column(s) {(degenerate + 1).tolist()} have zero variance"
        )
    # the table sets NaN at the masked cells
    return DataTable(np.divide(centered, np.sqrt(sums / (counts - 1)), out=centered),
                     table.missing)


def _constant_to_rounding(centred, raw, n):
    """Where a two-pass centred sum of squares of ``n`` values is zero to rounding.

    The package's one spread test for two-pass sums.  Computed with the mean
    removed first, the sum ``S`` of ``n`` values ``x`` is off by up to about
    ``n·eps·S + (n·eps)²·Σx²`` (Chan, Golub & LeVeque 1983), so an ``S`` of
    at most ``(n·eps)²`` times the raw sum of squares ``raw = Σx²`` may be
    rounding alone: the values are constant to working precision.  The
    arguments broadcast; the result is a boolean array.
    """
    return centred <= (n * np.finfo(float).eps) ** 2 * raw


def mix_rows(table: DataTable, rng=None) -> DataTable:
    """Randomly permute the valid values within each row.

    Missing positions stay missing, so per-row valid counts, sums and means
    are preserved exactly.  Rows permute different lengths, so the draws stay
    a loop: one ``permuted`` call, as in :func:`virtualize`, would change them.
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
    All rows permute the same width, so one ``permuted`` call over a rows x
    width block draws what one ``permutation(width)`` call per row would.
    """
    gen = as_generator(rng)
    valid = table.valid
    counts = valid.sum(axis=1)
    width = int(counts.max())
    keep = np.arange(width) < counts[:, None]
    cols = gen.permuted(np.tile(np.arange(width), (table.rows, 1)), axis=1)[keep]
    rows = np.repeat(np.arange(table.rows), counts)
    values = np.full((table.rows, width), np.nan)
    mask = np.ones((table.rows, width), dtype=bool)
    values[rows, cols] = table.values[valid]
    mask[rows, cols] = False
    return DataTable(values, mask)
