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
Rows stream into one flat buffer of numbers and one of empty flags, so
memory stays O(table), with no Python object or array per row or cell.

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
be shared freely across threads.  A table holds one copy of its values, and
it keeps the arrays it is given when their caller has given them up: a
contiguous read-only array that no writeable array reaches (it owns its
data, or its base is read-only), whose masked cells already hold NaN.  Any
other input is copied, so a caller's writeable array never changes a table.
Each kernel here and in the imputation module marks the fresh table-sized
array it built read-only and hands it to its output table, so no table is
copied on the way out; tables built from one another's arrays share them.
Kernels also reuse their table-sized temporaries in place (ufunc ``out=``,
``np.copyto(where=)``), as each fresh one costs page faults; a table's checks
run in row blocks of ``_BLOCK_CELLS`` cells.
"""

import csv
import itertools
import math
import operator
import os
import shutil
import tempfile
import threading
from array import array
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _EXPORTS
from .errors import NumericError, PreconditionError, StructuralError, TableFormatError
from .rand import as_generator

__all__ = _EXPORTS["table"].split()

# A CSV read or write at least this large (file bytes read, value bytes
# written) is split in two, and a forked child takes the second half; the
# timings that set it are in the Notes of README.md.
_SPLIT_BYTES = 512 * 1024

# Cells per row block of the kernels that work a table block by block
# (:func:`_row_blocks`): their temporaries stay this size however large the
# table is.
_BLOCK_CELLS = 1 << 15


@dataclass(frozen=True, eq=False)
class DataTable:
    """An m x n grid of real measurements plus a missing mask.

    ``values`` stores NaN at masked cells; all valid entries are finite.
    If ``missing`` is omitted, NaN cells of ``values`` are taken as missing.
    Arrays their caller has given up are kept, any other input is copied
    (see :func:`_kept`).

    Structural requirements (checked at construction): at least 2 rows and
    2 columns, and at least one valid entry in every row and every column.

    The first kernel that asks forms the table's moments (``_sums``, see
    :func:`_moments`), O(m + n) numbers the table keeps: its arrays are
    read-only, so they cannot go stale.  The ANOVA, the donor kernels and the
    row and column means read them.
    """

    values: np.ndarray
    missing: np.ndarray | None = None

    def __post_init__(self):
        values = _kept(self.values, float)
        if values.ndim != 2:
            raise StructuralError(f"expected a 2-D table, got {values.ndim} dimensions")
        if self.missing is None:
            missing = np.isnan(values)
        else:
            missing = _kept(self.missing, bool)
        if missing.shape != values.shape:
            raise StructuralError(
                f"mask shape {missing.shape} does not match values shape {values.shape}"
            )
        m, n = values.shape
        if m < 2 or n < 2:
            raise StructuralError(f"table must be at least 2x2, got {m}x{n}")
        nan_at_mask = True  # whether NaN is where the mask is, in a kept array
        for rows in _row_blocks(m, n):  # one block-sized flag buffer, reused in place
            flags = np.isfinite(values[rows])
            if not np.logical_or(flags, missing[rows], out=flags).all():
                i, j = divmod(int(flags.argmin()), n)  # the block's first such cell
                raise StructuralError(f"row {rows.start + i + 1}, column {j + 1}: valid entries "
                                      f"must be finite, got {float(values[rows.start + i, j])}")
            if not values.flags.writeable and nan_at_mask:
                np.isnan(values[rows], out=flags)
                nan_at_mask = not np.not_equal(flags, missing[rows], out=flags).any()
        for axis, name in ((1, "row"), (0, "column")):
            empty = np.flatnonzero(missing.all(axis=axis))
            if empty.size:
                raise StructuralError(f"empty {name}(s): {(empty + 1).tolist()}")
        if not nan_at_mask:
            values = np.array(values)  # kept, but a masked cell holds a number
        if values.flags.writeable:  # a copy
            np.put(values, np.flatnonzero(missing), np.nan)
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
        return self.missing.size - int(np.count_nonzero(self.missing))

    @property
    def pmiss(self) -> float:
        """Proportion of missing cells."""
        return (self.missing.size - self.n_valid) / self.missing.size

    @cached_property
    def _sums(self):
        """The moments of the valid cells, formed on first use and kept."""
        return _moments(self.values, self.missing)

    def row_means(self) -> np.ndarray:
        """Mean of the valid entries in each row: its shifted sum over its count, plus the shift."""
        return self._sums.row_sums / self._sums.row_counts + self._sums.shift

    def col_means(self) -> np.ndarray:
        """Mean of the valid entries in each column, as :meth:`row_means`."""
        return self._sums.col_sums / self._sums.col_counts + self._sums.shift


# valid counts (int32 for a table's cells), and sums of the values less the shift
_Moments = namedtuple("_Moments", "shift row_counts col_counts row_sums col_sums sq")


def _moments(values, missing) -> _Moments:
    """The ANOVA's moment pass over the cells of ``values`` not ``missing``, in row
    blocks less a shift: column 0's mean rounded to a multiple of the power of two
    above its sd (the mean at sd 0), so a Z-scored table has shift 0 and an offset
    costs no precision (the shifted sums of Chan, Golub & LeVeque 1983)."""
    m, n = values.shape
    column = values[~missing[:, 0], 0]
    # counts as int32 sums of the mask, in about half the time of count_nonzero(axis=)
    counts = n - missing.sum(axis=1, dtype=np.int32), m - missing.sum(axis=0, dtype=np.int32)
    mean, sd = float(column.mean()), float(column.std())
    step = math.ldexp(1.0, math.frexp(sd)[1])  # the power of two above sd
    shift = round(mean / step) * step if sd else mean
    blocks = _row_blocks(m, n)
    buffer = np.empty((blocks[0].stop + 1, n))  # the running column sums lead each block
    row_sums, sq = np.empty(m), 0.0
    for rows in blocks:  # a select, then the shift taken off in the block buffer
        x = buffer[:rows.stop - rows.start + 1]
        np.subtract(np.where(missing[rows], shift, values[rows]), shift, out=x[1:])
        row_sums[rows] = x[1:].sum(axis=1)
        buffer[0] = col_sums = (x if rows.start else x[1:]).sum(axis=0)
        sq += np.square(x[1:], out=x[1:]).sum()
    for array in (*counts, row_sums, col_sums):  # read-only, as the table's arrays
        _handed_over(array)
    return _Moments(shift, *counts, row_sums, col_sums, sq)


def _kept(array, dtype) -> np.ndarray:
    """``array`` itself if its caller has given it up, else a writeable copy.

    A table keeps a contiguous read-only array of ``dtype`` that no
    writeable array reaches (it owns its data, or its base is read-only):
    the read-only flag is the caller's word that the data will not change.
    The copy keeps the array's layout, so either way the table holds the
    same bytes in the same order.
    """
    if (type(array) is np.ndarray and array.dtype == dtype and not array.flags.writeable
            and (array.flags.c_contiguous or array.flags.f_contiguous)
            and (array.flags.owndata
                 or isinstance(array.base, np.ndarray) and not array.base.flags.writeable)):
        return array
    return np.array(array, dtype=dtype)


def _row_blocks(m: int, n: int) -> list[slice]:
    """Successive row blocks of an m x n table, ``_BLOCK_CELLS`` cells (a row at least) each."""
    step = max(1, _BLOCK_CELLS // n)
    return [slice(start, min(start + step, m)) for start in range(0, m, step)]


def _handed_over(array: np.ndarray) -> np.ndarray:
    """A kernel's fresh ``array``, made read-only so a :class:`DataTable` keeps it."""
    array.flags.writeable = False
    return array


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
    values, mask = _read_cells(path, missing_code)
    return DataTable(_handed_over(values), _handed_over(mask))


def _read_cells(path, missing_code: str | float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Values and missing mask of a CSV grid of any shape, header skipped.

    Missing cells, by the rule of :func:`load_csv`, hold NaN in the values.
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
                values, mask = _parse_rows(head, path, width, 1, token)
            else:
                values, mask = _read_halves(path, handle, split, head, width, token)
        except UnicodeDecodeError:
            raise _not_utf8(path, handle) from None
    try:
        sentinel = values == float(token)
    except ValueError:  # no token, or a token that is not a number
        return values, mask
    values[sentinel] = np.nan
    return values, mask | sentinel


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


def _parse_rows(rows, path, width: int, start: int, token: str) -> tuple[np.ndarray, np.ndarray]:
    """Values and mask, each one ``(rows, width)`` array, of CSV rows numbered
    from ``start``; an empty cell holds NaN."""
    numbers, empty = array("d"), bytearray()
    i = start - 1
    try:
        for i, row in enumerate(rows, start):
            if len(row) != width:
                raise TableFormatError(f"{path}: row {i} has {len(row)} columns, expected {width}")
            texts = list(map(str.strip, row))
            if token:
                texts = ["" if text == token else text for text in texts]
            empty.extend(map(operator.not_, texts))
            try:
                numbers.extend(map(float, filter(None, texts)))
            except ValueError:
                j = _first_non_number(texts)
                raise TableFormatError(
                    f"{path}: row {i}, column {j + 1}: cannot parse {texts[j]!r}"
                ) from None
    except csv.Error as exc:  # a cell longer than csv.field_size_limit()
        raise TableFormatError(f"{path}: row {i + 1}: {exc}") from None
    mask = _handed_over(np.frombuffer(empty, bool)).reshape(-1, width)  # so a table keeps it
    values = np.full(mask.shape, np.nan)
    np.place(values, ~mask, numbers)
    return values, mask


def _read_halves(path, handle, split: int, head, width: int,
                 token: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse ``head`` here while a forked child parses the rows from byte ``split`` on.

    The child reopens the caller's descriptor, so it reads the file that
    ``handle`` holds even if ``path`` has since been replaced, and writes
    its values and mask to an unnamed temp file.  Once it exits, the head
    rows are copied into one values array and one mask, and the file is
    read straight into their tail rows.  If the child fails in any way, the
    tail is parsed again here with its true row numbers, which raises the
    same fault a one-process read raises.  A fault in the head is raised
    first.
    """
    with tempfile.TemporaryFile() as spill:

        def child():
            with open(f"/proc/self/fd/{handle.fileno()}", "rb") as tail:
                tail.seek(split)
                spill.writelines(_parse_rows(_rows(tail), path, width, 1, token))
            spill.flush()  # os._exit skips Python's buffers

        (head_values, head_mask), ok = _with_child(
            child, lambda: _parse_rows(head, path, width, 1, token))
        if ok:
            h = len(head_values)
            rows = h + os.fstat(spill.fileno()).st_size // (9 * width)  # 8 bytes of value, 1 of mask
            values, mask = np.empty((rows, width)), np.empty((rows, width), bool)
            values[:h], mask[:h] = head_values, head_mask
            spill.seek(0)
            spill.readinto(values[h:])
            spill.readinto(mask[h:])
            return values, mask
    handle.seek(split)
    tail_values, tail_mask = _parse_rows(_rows(handle), path, width, len(head_values) + 1, token)
    return np.concatenate((head_values, tail_values)), np.concatenate((head_mask, tail_mask))


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
    sums = np.square(centered, out=centered).sum(axis=0)
    degenerate = np.flatnonzero(_constant_to_rounding(sums, raw, counts))
    if degenerate.size:
        raise NumericError(
            f"column(s) {(degenerate + 1).tolist()} have zero variance"
        )
    # centred again over the squares: NaN at the masked cells, as in the values
    np.subtract(table.values, means, out=centered)
    np.divide(centered, np.sqrt(sums / (counts - 1)), out=centered)
    return DataTable(_handed_over(centered), table.missing)


def _constant_to_rounding(centred, raw, n):
    """Where a two-pass centred sum of squares of ``n`` values is zero to rounding.

    The package's one spread test for two-pass sums.  Computed with the mean
    removed first, the sum ``S`` of ``n`` values ``x`` is off by up to about
    ``n·eps·S + (n·eps)²·Σx²`` (Chan, Golub & LeVeque 1983), so an ``S`` of
    at most ``(n·eps)²`` times the raw sum of squares ``raw = Σx²`` may be
    rounding alone: the values are constant to working precision.  Sums about
    a shift near the data (:func:`_moments`) hold only the values' own
    rounding, so the ANOVA takes n = 1.  The arguments broadcast.
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
    return DataTable(_handed_over(out), table.missing)


def virtualize(table: DataTable, rng=None) -> DataTable:
    """Pack each row's valid values into randomly chosen virtual columns.

    The output has ``max(row valid counts)`` columns; each row's valid
    values land on a uniformly random subset of them, one value per column,
    and the remaining cells are masked.  Row value multisets are preserved.
    Input is expected to be Z-scores (not checked numerically).
    All rows permute the same width, so ``permuted`` calls over successive
    blocks of rows draw what one ``permutation(width)`` call per row would,
    whatever the blocks' integer type: the smallest that holds the width.
    """
    gen = as_generator(rng)
    valid = table.valid
    counts = valid.sum(axis=1)
    m, width = table.rows, int(counts.max())
    values = np.full((m, width), np.nan)
    slots = np.arange(width, dtype=np.min_scalar_type(-width))
    for rows in _row_blocks(m, width):
        row_counts = counts[rows]
        block = np.tile(slots, (row_counts.size, 1))
        gen.permuted(block, axis=1, out=block)
        # flat index in the block of each valid value's virtual cell, row by row
        cells = np.repeat(np.arange(0, block.size, width), row_counts)
        cells += block[slots < row_counts[:, None]]
        values[rows].reshape(-1)[cells] = table.values[rows][valid[rows]]
    return DataTable(_handed_over(values), _handed_over(np.isnan(values)))
