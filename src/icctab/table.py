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
A save also leaves a binary sidecar, ``<path>.icctab``: the table's values
and a SHA-256 digest of them, of the missing token and of the CSV's bytes.
A load whose file and token the digest still matches reads the values from
it and parses nothing; any mismatch (the CSV edited, another token, a
damaged or foreign sidecar, a file that is not a regular one) parses the
CSV.  A sidecar takes its CSV's permission bits, and one owned by another
account than the CSV is never read.  Deleting a sidecar is always safe.

Every read parses in one process: faults are raised in file order, and
bytes that are not UTF-8 raise ``TableFormatError`` naming their line of
the file.  Writes of at least ``_SPLIT_BYTES`` (512 KiB of values) use two
processes when the host gives this one more than one CPU and this process
runs a single thread (a forked child could inherit a lock another thread
holds): a forked child formats the second half of the rows into an unnamed
temp file while the caller writes the first half, and the caller appends
that file once the child has exited cleanly; if it failed, or something
else reaped it (``SIGCHLD`` ignored, or a handler that waits for any
child), the caller writes that half itself.  The bytes are the same either
way.  The child runs no BLAS and leaves through ``os._exit``.  On Python
3.12 and later ``os.fork`` still warns (``DeprecationWarning``) when
OpenBLAS has started threads.

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

import contextlib
import csv
import itertools
import math
import operator
import os
import stat
import sys
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

# A CSV write of at least this many value bytes is split in two, and a forked
# child takes the second half; the timings that set it are in the Notes of
# README.md.
_SPLIT_BYTES = 512 * 1024

# Cells per row block of the kernels that work a table block by block
# (:func:`_row_blocks`): their temporaries stay this size however large the
# table is.
_BLOCK_CELLS = 1 << 15

# The first bytes of a CSV's sidecar (:func:`_write_sidecar`): the layout's
# version and its values' byte order, so that another host's sidecar is foreign.
_SIDECAR_TAG = f"icctab sidecar 1 float64 {sys.byteorder}\n".encode()

# The most characters in a field of a CSV with a sidecar: a float64's longest
# ``repr`` (``-2.2250738585072014e-308``), and the longest token given one.  A
# read parses the file whenever ``csv.field_size_limit()`` is below it, since
# the parser may then refuse a field.
_SIDECAR_FIELD = 24

# Bytes per read of a file hashed, or of a forked writer's half copied, block by block.
_HASH_BYTES = 1 << 16


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
    that a valid value equals).  It does so from the sidecar that save left
    while that still matches the file's bytes and ``t``: the same table, bit
    for bit, with nothing parsed.

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
    values = _sidecar_values(path, _token_text(missing_code).strip())
    if values is None:
        values, mask = _read_cells(path, missing_code)
    else:
        mask = np.isnan(values)
    return DataTable(_handed_over(values), _handed_over(mask))


def _read_cells(path, missing_code: str | float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Values and missing mask of a CSV grid of any shape, header skipped.

    Missing cells, by the rule of :func:`load_csv`, hold NaN in the values.
    Shared by :func:`load_csv` and the predictor reader of the command line.
    """
    token = _token_text(missing_code).strip()
    with open(path, "rb") as handle:
        try:
            first, rows, header = _first_data_row(handle, path, token)
            if first is None:
                raise StructuralError(f"{path}: file contains no data{' rows' if header else ''}")
            values, mask = _parse_rows(itertools.chain([first], rows), path, len(first), token)
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
    """Whether a write of ``nbytes`` of values is split between two processes."""
    return (
        nbytes >= _SPLIT_BYTES
        and hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) > 1
        and threading.active_count() == 1
    )


def _lines(handle):
    """Decoded lines of a binary file, each decoded on its own, so bytes that
    are not UTF-8 raise at their row, after every fault in the rows before it.

    Lines end at ``\\r``, ``\\n`` or ``\\r\\n``, as in a text file opened with
    ``newline=""``.
    """
    for raw in handle:
        for line in raw.splitlines(True):
            yield line.decode("utf-8")


def _first_data_row(handle, path, token: str):
    """First non-blank CSV row of a binary file that is data, the rows after
    it, and whether a header row came before it.  A row that ``csv.reader``
    rejects here is named row 1, even a header."""
    rows = filter(None, csv.reader(_lines(handle)))
    try:
        first = next(rows, None)
        header = first is not None and _first_non_number(first, token) is not None
        if header:
            first = next(rows, None)
    except csv.Error as exc:
        raise TableFormatError(f"{path}: row 1: {exc}") from None
    return first, rows, header


def _parse_rows(rows, path, width: int, token: str) -> tuple[np.ndarray, np.ndarray]:
    """Values and mask, each one ``(rows, width)`` array, of CSV rows numbered
    from 1; an empty cell holds NaN."""
    numbers, empty = array("d"), bytearray()
    i = 0
    try:
        for i, row in enumerate(rows, 1):
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
    The bytes, token quoting included, are those of ``csv.writer``.  Once
    the CSV is closed, the sidecar ``<path>.icctab`` is written beside it
    (:func:`_write_sidecar`); a failure to write it is silent.

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
    cell = token
    if any(char in cell for char in ',"\r\n'):
        cell = '"' + cell.replace('"', '""') + '"'
    values, digest = table.values, _sha256()
    with open(path, "wb") as handle:
        if _forks(values.nbytes):
            _write_halves(handle, values, cell, digest)
        else:
            _write_rows(handle, values, cell, digest)
    _write_sidecar(path, table, token, digest.digest())


def _write_rows(handle, values, token: str, digest=None) -> None:
    """Write each row as ``repr`` cells, ``token`` in its masked slots, CRLF-ended,
    in UTF-8 to a binary ``handle``, adding the bytes to ``digest`` if given.

    Masked cells hold NaN and valid ones are finite, and no finite float's
    ``repr`` holds ``nan``, so the token replaces each ``nan`` of the row.
    """
    for row in values:
        line = (",".join(map(repr, row.tolist())).replace("nan", token) + "\r\n").encode()
        if digest is not None:
            digest.update(line)
        handle.write(line)


def _write_halves(handle, values, token: str, digest) -> None:
    """Write the first half of the rows here while a forked child formats
    the second half into an unnamed temp file, then append that file.

    The child streams its rows to disk rather than into memory: a forked
    child's resident set starts at its parent's.  If it fails, the second
    half is written here.  Every byte written is added to ``digest``, in
    file order.
    """
    half = len(values) // 2
    with tempfile.TemporaryFile() as spill:

        def child():
            _write_rows(spill, values[half:], token)
            spill.flush()  # os._exit skips Python's buffers

        _, ok = _with_child(child, lambda: _write_rows(handle, values[:half], token, digest))
        if ok:
            spill.seek(0)
            for block in iter(lambda: spill.read(_HASH_BYTES), b""):
                digest.update(block)
                handle.write(block)
        else:
            _write_rows(handle, values[half:], token, digest)


def _sha256(data=b""):
    """A SHA-256 hash object; ``hashlib`` loads only when a CSV is saved or
    a sidecar is checked."""
    import hashlib

    return hashlib.sha256(data)


def _sidecar_path(path) -> str | None:
    """The sidecar name ``<path>.icctab``, or None unless ``path`` names a regular file."""
    if not isinstance(path, (str, bytes, os.PathLike)) or not os.path.isfile(path):
        return None  # a descriptor, a pipe, a device
    return os.fsdecode(path) + ".icctab"


def _token_field(token: str) -> bytes:
    """A sidecar's token field: the UTF-8 length of ``token``, then its text."""
    text = token.encode("utf-8", "surrogatepass")
    return len(text).to_bytes(8, "little") + text


def _write_sidecar(path, table: DataTable, token: str, csv_digest: bytes) -> None:
    """Leave ``<path>.icctab``, the table that ``load_csv(path, token)`` reads
    from the CSV whose bytes hash to ``csv_digest``, ``token`` at its masked
    cells.

    Layout: ``_SIDECAR_TAG``, a SHA-256 digest, the token field
    (:func:`_token_field`) of ``token`` stripped, as a read compares it, the
    shape as two 8-byte integers and the values in C order, canonical NaN at
    the masked cells as the parser leaves them.
    The digest covers the tag, the two fields, the values and
    ``csv_digest``.  The file is written under a unique temp name beside
    ``path``, given the CSV's permission bits and renamed over the sidecar,
    so a reader sees a whole sidecar or none.  No sidecar is left beside a file that is not a regular one,
    nor for a token longer than ``_SIDECAR_FIELD`` characters, and any
    ``OSError`` only leaves none: the CSV is the product.
    """
    name = _sidecar_path(path)
    if name is None or len(token) > _SIDECAR_FIELD:
        return
    shape = b"".join(size.to_bytes(8, "little") for size in table.shape)
    fields = _token_field(token.strip()) + shape
    digest = _sha256(_SIDECAR_TAG + fields)
    temp = None
    try:
        fd, temp = tempfile.mkstemp(prefix=os.path.basename(name) + ".",
                                    dir=os.path.dirname(name) or os.curdir)
        with open(fd, "wb") as out:
            out.write(_SIDECAR_TAG + bytes(32) + fields)
            blocks = _row_blocks(*table.shape)
            buffer = np.empty((blocks[0].stop, table.cols))
            for rows in blocks:  # block by block, in C order whatever the table's layout
                x = buffer[:rows.stop - rows.start]
                np.copyto(x, table.values[rows])
                np.copyto(x, np.nan, where=table.missing[rows])
                digest.update(x.reshape(-1))
                out.write(x)
            digest.update(csv_digest)
            out.seek(len(_SIDECAR_TAG))
            out.write(digest.digest())
        os.chmod(temp, stat.S_IMODE(os.stat(path).st_mode))  # mkstemp made it 0600
        os.replace(temp, name)
        temp = None
    except OSError:
        pass
    finally:
        if temp is not None:
            with contextlib.suppress(OSError):
                os.unlink(temp)


def _sidecar_values(path, token: str) -> np.ndarray | None:
    """The values of the sidecar of ``path`` (:func:`_write_sidecar`), if the
    CSV's owner owns it, it holds ``token`` and its digest matches its
    fields, its values and the file's current bytes; else None.

    The digest is unkeyed, and anyone who can read the CSV can form it, so
    a sidecar another account left beside the CSV (a shared directory) is
    never read.
    The values are read straight into a fresh array, which the table keeps.
    """
    name = _sidecar_path(path)
    if name is None or csv.field_size_limit() < _SIDECAR_FIELD or not os.path.isfile(name):
        return None
    token_field = _token_field(token)
    try:
        with open(name, "rb") as side:
            info = os.fstat(side.fileno())
            if info.st_uid != os.stat(path).st_uid or side.read(len(_SIDECAR_TAG)) != _SIDECAR_TAG:
                return None
            stored = side.read(32)
            if side.read(len(token_field)) != token_field:
                return None
            shape_field = side.read(16)
            m, n = (int.from_bytes(shape_field[k:k + 8], "little") for k in (0, 8))
            if info.st_size != side.tell() + 8 * m * n:
                return None
            values = np.empty((m, n))
            if side.readinto(values) != values.nbytes:
                return None
        digest = _sha256(_SIDECAR_TAG + token_field + shape_field)
        digest.update(values.reshape(-1))
        digest.update(_file_digest(path))
    except OSError:
        return None
    return values if digest.digest() == stored else None


def _file_digest(path) -> bytes:
    """SHA-256 of a file's bytes, read block by block into one buffer."""
    digest, block = _sha256(), bytearray(_HASH_BYTES)
    with open(path, "rb", buffering=0) as source, memoryview(block) as view:
        while count := source.readinto(block):
            digest.update(view[:count])
    return digest.digest()


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
