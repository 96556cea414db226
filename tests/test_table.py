import contextlib
import csv
import os
import signal
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import read_cells_loop, save_csv_loop, virtualize_loop

import icctab.table as table_module
from icctab import (
    DataTable,
    NumericError,
    PreconditionError,
    StructuralError,
    TableFormatError,
    degrade_random,
    icc_report,
    load_csv,
    mix_rows,
    save_csv,
    virtualize,
    zscore,
)
from icctab.table import _read_cells


def write(tmp_path, text, name="t.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestDataTable:
    def test_mask_defaults_to_nan_cells(self):
        t = DataTable(np.array([[1.0, np.nan], [3.0, 4.0]]))
        assert t.missing.tolist() == [[False, True], [False, False]]
        assert t.pmiss == 0.25

    def test_rejects_empty_row(self):
        values = np.array([[1.0, 2.0], [np.nan, np.nan], [3.0, 4.0]])
        with pytest.raises(StructuralError, match=r"empty row\(s\): \[2\]"):
            DataTable(values)

    def test_rejects_empty_column(self):
        values = np.array([[1.0, np.nan], [3.0, np.nan]])
        with pytest.raises(StructuralError, match=r"empty column\(s\): \[2\]"):
            DataTable(values)

    def test_rejects_degenerate_shape(self):
        with pytest.raises(StructuralError, match="2x2"):
            DataTable(np.array([[1.0, 2.0]]))
        with pytest.raises(StructuralError, match="expected a 2-D table, got 1 dimensions"):
            DataTable(np.array([1.0, 2.0]))
        with pytest.raises(StructuralError, match=r"mask shape \(2, 3\) does not match"):
            DataTable(np.ones((2, 2)), np.zeros((2, 3), bool))

    def test_rejects_nonfinite_valid_entry(self):
        with pytest.raises(StructuralError, match="finite"):
            DataTable(np.array([[1.0, np.inf], [3.0, 4.0]]), np.zeros((2, 2), bool))

    def test_masked_cell_may_hold_nonfinite(self):
        table = DataTable(np.array([[1.0, np.inf], [3.0, 4.0]]), [[False, True], [False, False]])
        assert np.isnan(table.values[0, 1])

    def test_arrays_are_frozen(self, small_table):
        with pytest.raises(ValueError):
            small_table.values[0, 0] = 99.0
        with pytest.raises(ValueError):
            small_table.missing[0, 0] = True

    def test_writeable_caller_array_is_copied(self):
        values = np.array([[1.0, np.nan], [3.0, 4.0]])
        table = DataTable(values)
        values[0, 0] = 99.0
        assert table.values[0, 0] == 1.0
        assert not np.shares_memory(table.values, values)

    def test_given_up_array_is_kept(self):
        values = np.array([[1.0, np.nan], [3.0, 4.0]])
        mask = np.isnan(values)
        values.flags.writeable = mask.flags.writeable = False
        table = DataTable(values, mask)
        assert table.values is values and table.missing is mask

    def test_read_only_view_of_writeable_base_is_copied(self):
        base = np.array([[1.0, 2.0], [3.0, 4.0]])
        view = base[:]
        view.flags.writeable = False
        table = DataTable(view, np.zeros((2, 2), bool))
        base[0, 0] = 99.0
        assert table.values[0, 0] == 1.0
        assert not np.shares_memory(table.values, base)

    def test_read_only_array_with_a_number_in_a_masked_cell_is_copied(self):
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        values.flags.writeable = False
        table = DataTable(values, [[False, True], [False, False]])
        assert np.isnan(table.values[0, 1])
        assert values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert not np.shares_memory(table.values, values)

    def test_table_from_another_tables_arrays_shares_them(self, small_table):
        table = DataTable(small_table.values, small_table.missing)
        assert np.shares_memory(table.values, small_table.values)
        assert np.shares_memory(table.missing, small_table.missing)
        transposed = DataTable(small_table.values.T, small_table.missing.T)
        assert np.shares_memory(transposed.values, small_table.values)

    def test_row_and_col_means_skip_missing(self, small_table):
        assert small_table.row_means()[1] == pytest.approx(5.0)
        assert small_table.col_means()[1] == pytest.approx((2 + 8 + 5) / 3)

    def test_means_read_the_kept_moments(self, z_table_1400x80):
        # shift 0: the where form, bit for bit; offset by 1e8: the shifted sums
        # over the counts plus the shift, within 1e-15 of the unshifted means
        table = degrade_random(z_table_1400x80, 0.2, rng=12)
        filled = np.where(table.valid, table.values, 0.0)
        assert table.row_means().tobytes() == (
            filled.sum(axis=1) / table.valid.sum(axis=1)).tobytes()
        assert table.col_means().tobytes() == (
            filled.sum(axis=0) / table.valid.sum(axis=0)).tobytes()
        moved = DataTable(table.values + 1e8)
        assert moved._sums.shift == 1e8
        for means, exact in ((moved.row_means(), table.row_means()),
                             (moved.col_means(), table.col_means())):
            assert means == pytest.approx(exact + 1e8, rel=1e-15, abs=0)
        assert moved.row_means() is not moved.row_means()  # a fresh array per call

    def test_kept_moments_are_read_only(self, small_table):
        sums = small_table._sums
        assert small_table._sums is sums
        for array in (sums.row_counts, sums.col_counts, sums.row_sums, sums.col_sums):
            with pytest.raises(ValueError):
                array[0] = 0


class TestLoadCsv:
    def test_no_sentinel_present(self, tmp_path):
        t = load_csv(write(tmp_path, "1,2\n3,4\n"), missing_code=0)
        assert t.missing.sum() == 0
        assert t.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_sentinel_becomes_mask(self, tmp_path):
        t = load_csv(write(tmp_path, "1,0\n3,4\n"), missing_code=0)
        assert t.missing.tolist() == [[False, True], [False, False]]

    def test_empty_cells_always_missing(self, tmp_path):
        t = load_csv(write(tmp_path, "1,\n3,4\n"))
        assert t.missing[0, 1]

    def test_column_of_sentinels_is_structural_error(self, tmp_path):
        path = write(tmp_path, "1,0\n3,0\n")
        with pytest.raises(StructuralError, match=r"empty column\(s\): \[2\]"):
            load_csv(path, missing_code=0)

    def test_parse_failure_names_location(self, tmp_path):
        path = write(tmp_path, "1,2\nx,4\n")
        with pytest.raises(TableFormatError, match="row 2, column 1"):
            load_csv(path)

    def test_ragged_row_is_format_error(self, tmp_path):
        path = write(tmp_path, "1,2\n3,4,5\n")
        with pytest.raises(TableFormatError, match="row 2"):
            load_csv(path)

    def test_header_row_is_skipped(self, tmp_path):
        t = load_csv(write(tmp_path, "item,p1\n1,2\n3,4\n"))
        assert t.rows == 2

    def test_inf_sentinel(self, tmp_path):
        t = load_csv(write(tmp_path, "1,inf\n3,4\n"), missing_code=float("inf"))
        assert t.missing[0, 1]

    @pytest.mark.parametrize("first", ["1", "a"], ids=["data", "header"])
    def test_overlong_first_row_is_row_1(self, tmp_path, first):
        # csv.reader refuses a cell longer than csv.field_size_limit()
        path = write(tmp_path, f"{first},{'2' * (csv.field_size_limit() + 1)}\n3,4\n5,6\n")
        with pytest.raises(TableFormatError, match=r"row 1: field larger than field limit"):
            load_csv(path)


class TestSaveCsv:
    def test_round_trip_values_and_mask(self, tmp_path, small_table):
        path = tmp_path / "out.csv"
        save_csv(small_table, path)
        back = load_csv(path)
        assert np.array_equal(back.missing, small_table.missing)
        valid = small_table.valid
        assert np.abs(back.values[valid] - small_table.values[valid]).max() < 1e-12

    def test_round_trip_under_token_change(self, tmp_path, small_table):
        path = tmp_path / "out.csv"
        save_csv(small_table, path, missing_code=0)
        back = load_csv(path, missing_code=0)
        assert np.array_equal(back.missing, small_table.missing)
        valid = small_table.valid
        assert np.array_equal(back.values[valid], small_table.values[valid])

    def test_masked_cell_serialized_as_token(self, tmp_path, small_table):
        path = tmp_path / "out.csv"
        save_csv(small_table, path, missing_code="inf")
        assert "inf" in path.read_text().splitlines()[1]

    @pytest.mark.parametrize("token", [0, "0"], ids=["number", "text"])
    def test_numeric_token_equal_to_a_valid_value_is_refused(self, tmp_path, token):
        # read back, the valid 0.0 at row 2, column 1 would be masked too
        table = DataTable(np.array([[1.0, np.nan], [0.0, 4.0], [5.0, 6.0]]))
        path = tmp_path / "out.csv"
        with pytest.raises(PreconditionError, match=r"row 2, column 1: valid value equals"):
            save_csv(table, path, token)
        assert not path.exists()

    def test_no_token_writes_empty_cells(self, tmp_path, small_table):
        empty, none = tmp_path / "empty.csv", tmp_path / "none.csv"
        save_csv(small_table, empty, "")
        save_csv(small_table, none, None)
        assert empty.read_bytes() == none.read_bytes()
        assert ",," in empty.read_text() or ",\r\n" in empty.read_text()


def read_outcome(reader, path, missing_code=None):
    """Values and mask of a read, or the exception's type and message."""
    try:
        values, mask = reader(path, missing_code)
    except Exception as exc:
        return type(exc), str(exc)
    return values.shape, values.tobytes(), mask.tobytes()


READ_CASES = {
    "blank-lines": (b"1,2\n\n3,4\n\n\n5,6\n", None),
    "header": (b"item,p1,p2\n1,2,3\n4,,6\n", None),
    "padded-and-quoted": (b' 1 ,"2", 3\n" 4 ", ,"6"\n', None),
    "padded-quote": (b'1,2\n3, "4"\n', None),
    "lf": (b"1,2\n3,4\n", None),
    "crlf": (b"1,2\r\n3,\r\n5,6\r\n", None),
    "mixed-line-ends": (b"1,2\r\n3,4\n5,6\r", None),
    "underscore": (b"1_000,2\n3,4\n", None),
    "nan-and-inf": (b"nan,1\n2,inf\n-inf,3\n", None),
    "sentinel": (b"1,-99\n-99,4\n5,-99.0\n", -99.0),
    "zero-sentinel": (b"1,-0.0\n0,4\n,5\n", 0.0),
    "inf-sentinel": (b"1,inf\n3,4\n", float("inf")),
    "empty-token": (b'1,""\n3,4\n', None),
    "na-token": (b"1,2\n3,NA\n", None),
    "na-header": (b"1,NA\n3,4\n5,6\n", None),
    # read with a token: a first row that holds it is data
    "na-token-read": (b"1,2\n3,NA\n", "NA"),
    "na-header-read": (b"1,NA\n3,4\n5,6\n", "NA"),
    "padded-quoted-token": (b'1, NA \n" NA",4\n5,6\n', " NA"),
    "nan-token": (b"1,nan\nnan,4\n5,6\n", "nan"),
    "sentinel-as-text": (b"1,-99\n-99,4\n5,-99.0\n", "-99"),
    "comma-token": (b'1,2\n3,"a,b"\n', None),
    "unparseable-after-empty": (b"1,2,3\n, x ,4\n", None),
    "whitespace-line": (b"1,2\n   \n3,4\n", None),
    "ragged-before-unparseable": (b"1,2\n3,4,5\nx,6\n", None),
    "ragged-after-unparseable": (b"1,2\nx,6\n3,4,5\n", None),
    "ragged-and-unparseable-row": (b"1,2\nx,4,5\n", None),
    "ragged-after-header": (b"a,b\n1,2\n3\n", None),
    "empty-file": (b"", None),
    "blank-file": (b"\n\r\n\n", None),
    "header-only": (b"a,b\n\n", None),
    "one-column-predictor": (b"freq\n0.1\n0.2\n0.3\n", None),
    # split at any size (_SPLIT_BYTES = 0): the tail starts after the first
    # "\n" at or past the middle byte
    "ragged-in-tail": (b"1,2\n3,4\n5,6\n7,8\n9,10,11\n", None),
    "unparseable-in-tail": (b"1,2\n3,4\n5,6\n7,8\n9,x\n", None),
    "faults-in-both-halves": (b"1,2\n3,x\n5,6\n7,8\n9,10,11\n", None),
    "quote-in-tail": (b'1,2\n3,4\n5,6\n7,"8"\n', None),
    "blank-tail": (b"1,2\n3,4\n\n\n\n\n\n\n\n\n", None),
    "header-then-split": (b"a,b\n1,2\n3,4\n5,6\n7,8\n", None),
    "cr-lines-in-head": (b"1,2\r3,4\r\n5,6\n7,8\n9,10\n", None),
    "sentinel-in-both-halves": (b"1,-99\n3,4\n5,6\n-99,8\n", -99.0),
    "token-in-both-halves": (b"1,NA\n3,4\n5,6\nNA,8\n", "NA"),
    "two-rows": (b"1,2\n3,4", None),
    # a half with no number in it
    "empty-cells-tail": (b"1,2\n3,4\n,\n,\n", None),
    "empty-cells-head": (b",\n,\n,\n,\n,\n5,6\n7,8\n", None),
    # read in one process at any size
    "quoted-head": (b'"1",2\n3,4\n5,6\n7,8\n', None),
    "cr-only": (b"1,2\r3,4\r5,6\r7,8\r", None),
    "midpoint-in-header": (b"item,participant_one,participant_two\n1,2,3\n", None),
    "two-rows-lf": (b"1,2\n3,4\n", None),
}
SPLIT_READS = {"ragged-in-tail", "unparseable-in-tail", "faults-in-both-halves", "quote-in-tail",
               "blank-tail", "header-then-split", "cr-lines-in-head", "sentinel-in-both-halves",
               "token-in-both-halves", "two-rows", "empty-cells-tail", "empty-cells-head"}
ONE_PROCESS_READS = {"quoted-head", "cr-only", "midpoint-in-header", "two-rows-lf", "empty-file"}

# Bytes that are not UTF-8 raise at their row, in file order, and name
# their line of the whole file; a cell longer than csv.field_size_limit()
# (131 072 characters) raises naming its row.  The per-cell oracle decodes
# the whole file before it parses a row, so it is no reference here: on the
# first case it raises UnicodeDecodeError.
_PAD = b" " * 131000  # a padded cell within the limit
_OVERLONG = b" " * 131073
FAULT_CASES = {
    "unparseable-head-undecodable-tail": (b"1,2\nx,4\n5,6\n7,8\n9,\xff\n",
                                          "row 2, column 1: cannot parse 'x'"),
    "undecodable-tail": (b"1,2\n3,4\n5,6\n7,8\n9,\xff\n",
                         "line 5: not UTF-8 (invalid start byte at byte 3)"),
    "undecodable-head": (b"1,2\n3,\xff\n5,6\n7,8\n",
                         "line 2: not UTF-8 (invalid start byte at byte 3)"),
    "undecodable-after-header-blank-and-cr": (b"a,b\r\n1,2\n\n3,4\r5,6\n7,\xff\n",
                                              "line 6: not UTF-8"),
    "overlong-cell-in-head": (b"1,2\n3," + _OVERLONG + b"4\n5,6\n7,8\n",
                              "row 2: field larger than field limit (131072)"),
    "unparseable-head-overlong-tail": (b"1," + _PAD + b"2\na,b\n3," + _PAD + b"4\n5,"
                                      + _OVERLONG + b"6\n7,8\n",
                                      "row 2, column 1: cannot parse 'a'"),
    "overlong-cell-in-tail": (b"1," + _PAD + b"2\n3," + _PAD + b"4\n5," + _OVERLONG
                              + b"6\n7,8\n", "row 3: field larger than field limit (131072)"),
}


# each read fixture at the default split size (all of them are smaller, so
# one process) and split at any size (_SPLIT_BYTES = 0)
READ_FIXTURES = [pytest.param(name, None, id=name) for name in READ_CASES] + [
    pytest.param(name, 0, id=f"{name}-split") for name in READ_CASES
]


class TestStreamingMatchesLoop:
    """The row-streaming reader and writer against the per-cell loops."""

    @pytest.mark.parametrize("name,split", READ_FIXTURES)
    def test_read_fixture(self, tmp_path, monkeypatch, name, split):
        text, missing_code = READ_CASES[name]
        path = tmp_path / "t.csv"
        path.write_bytes(text)
        if split is not None:
            monkeypatch.setattr(table_module, "_SPLIT_BYTES", split)
        forks = count_forks(monkeypatch)
        with leaves_nothing():
            assert read_outcome(_read_cells, path, missing_code) == read_outcome(
                read_cells_loop, path, missing_code
            )
        if split is None:
            assert forks == []
        elif name in SPLIT_READS | ONE_PROCESS_READS:
            assert len(forks) == (name in SPLIT_READS)

    @pytest.mark.parametrize("name", FAULT_CASES)
    def test_first_fault_in_file_order(self, tmp_path, monkeypatch, name):
        text, message = FAULT_CASES[name]
        path = tmp_path / "t.csv"
        path.write_bytes(text)
        monkeypatch.setattr(table_module, "_SPLIT_BYTES", 0)
        forks = count_forks(monkeypatch)
        split = read_outcome(_read_cells, path)
        assert len(forks) == 1 and split[0] is TableFormatError
        assert split[1].startswith(f"{path}: {message}")
        monkeypatch.setattr(table_module, "_SPLIT_BYTES", 1 << 62)
        assert read_outcome(_read_cells, path) == split

    @pytest.mark.parametrize("token", ["", "NA", "a,b", 'say "no"', "a\nb", 0, -99.0,
                                       float("inf")])
    def test_write_then_read_fixture_1400x80(self, tmp_path, z_table_1400x80, token):
        table = degrade_random(z_table_1400x80, 0.2, rng=3)
        path, loop_path = tmp_path / "t.csv", tmp_path / "loop.csv"
        save_csv(table, path, token)
        save_csv_loop(table, loop_path, token)
        assert path.read_bytes() == loop_path.read_bytes()
        back = read_outcome(_read_cells, path, token)
        assert back == read_outcome(read_cells_loop, path, token)
        assert back == (table.shape, table.values.tobytes(), table.missing.tobytes())


finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e300, 1e-300,
                     -1e-300, 1e16, 1.5e-7, 1e22]),
)


@st.composite
def masked_tables(draw):
    m, n = draw(st.integers(2, 7)), draw(st.integers(2, 7))
    values = draw(arrays(np.float64, (m, n), elements=finite))
    missing = draw(arrays(np.bool_, (m, n)))
    for k in range(max(m, n)):
        missing[k % m, k % n] = False
    return DataTable(values, missing)


def check_round_trip(tmp_path_factory, table, sentinel):
    """Written bytes equal the per-cell writer's, and values and mask read back."""
    assume(not (table.values[table.valid] == sentinel).any())
    path = tmp_path_factory.mktemp("rt") / "t.csv"
    loop_path = path.with_name("loop.csv")
    valid = table.valid
    for token in ("", sentinel, "NA"):
        save_csv(table, path, token)
        save_csv_loop(table, loop_path, token)
        assert path.read_bytes() == loop_path.read_bytes()
        back = load_csv(path, missing_code=token)
        assert np.array_equal(back.missing, table.missing)
        assert back.values[valid].tobytes() == table.values[valid].tobytes()


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(table=masked_tables(), sentinel=st.sampled_from([-99.0, 1e308, -7.25e-12]))
    def test_round_trip_is_bit_exact(self, tmp_path_factory, table, sentinel):
        check_round_trip(tmp_path_factory, table, sentinel)

    # half the examples: each one forks six times, about 11 ms a fork in
    # the test process
    @settings(max_examples=30, deadline=None)
    @given(table=masked_tables(), sentinel=st.sampled_from([-99.0, 1e308, -7.25e-12]))
    def test_split_round_trip_is_bit_exact(self, tmp_path_factory, table, sentinel):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(table_module, "_SPLIT_BYTES", 0)
            check_round_trip(tmp_path_factory, table, sentinel)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity", "1e999"])
    def test_literal_nonfinite_cell_is_structural_error(self, tmp_path, cell):
        path = write(tmp_path, f"1,{cell}\n3,4\n")
        with pytest.raises(StructuralError, match=f"^row 1, column 2: valid entries must be "
                                                  f"finite, got {float(cell)}$"):
            load_csv(path)

    def test_nonfinite_cell_is_named_past_the_first_row_block(self, monkeypatch):
        monkeypatch.setattr(table_module, "_BLOCK_CELLS", 4)
        values = np.ones((5, 3))
        values[3, 2] = values[4, 0] = -np.inf
        with pytest.raises(StructuralError, match="^row 4, column 3: .* got -inf$"):
            DataTable(values)


def count_forks(monkeypatch) -> list:
    """Patch ``os.fork`` to record each call; returns the record."""
    calls, fork = [], os.fork

    def counted():
        calls.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


@contextlib.contextmanager
def leaves_nothing(spill=None):
    """Check that the block leaves no child, no open descriptor and, in
    ``spill``, no temp file."""
    fds = sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else []
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert spill is None or list(spill.iterdir()) == []
    if fds:
        assert sorted(os.listdir("/proc/self/fd")) == fds


class TestSplitHygiene:
    """Children are reaped and temp files removed on every path, and a host
    that cannot fork gets the same results."""

    @pytest.fixture
    def spill(self, tmp_path, monkeypatch):
        spill = tmp_path / "spill"
        spill.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(spill))
        return spill

    @pytest.fixture
    def table(self, z_table_1400x80):
        return degrade_random(z_table_1400x80, 0.2, rng=3)

    def test_read_and_write(self, tmp_path, monkeypatch, spill, table):
        path = tmp_path / "t.csv"
        forks = count_forks(monkeypatch)
        with leaves_nothing(spill):
            save_csv(table, path)
            back = load_csv(path)
        assert len(forks) == 2
        assert back.values[back.valid].tobytes() == table.values[table.valid].tobytes()

    def test_head_fault_stops_a_running_child(self, tmp_path, spill, table):
        path = tmp_path / "t.csv"
        save_csv(table, path)
        lines = path.read_bytes().split(b"\r\n")
        lines[1] = b"x" + lines[1]
        path.write_bytes(b"\r\n".join(lines))
        assert path.stat().st_size >= table_module._SPLIT_BYTES
        with leaves_nothing(spill), pytest.raises(TableFormatError, match="row 2, column 1"):
            load_csv(path)

    def test_failed_child_read_is_redone_here(self, tmp_path, monkeypatch, spill):
        monkeypatch.setattr(table_module, "_SPLIT_BYTES", 0)
        path = tmp_path / "t.csv"
        monkeypatch.setattr(table_module, "_parse_rows", fail_in(os.getpid(), False,
                                                               table_module._parse_rows))
        for name in ("sentinel-in-both-halves", "empty-cells-tail", "empty-cells-head"):
            text, missing_code = READ_CASES[name]
            path.write_bytes(text)
            with leaves_nothing(spill):
                assert read_outcome(_read_cells, path, missing_code) == read_outcome(
                    read_cells_loop, path, missing_code)

    @pytest.mark.parametrize("undecodable", [False, True],
                             ids=["tail-lines-reversed", "undecodable-tail"])
    def test_path_replaced_before_the_fork(self, tmp_path, monkeypatch, spill, undecodable):
        """Both processes read the file the caller opened, and a fault is
        located in it, though ``path`` names another file once the child
        starts: one with the same head and the tail's lines reversed."""
        text = b"".join(b"%d,%d.5\n" % (i, 2 * i) for i in range(1, 9))
        if undecodable:
            text = text[:-2] + b"\xff\n"
        split = text.index(b"\n", len(text) // 2) + 1
        other = text[:split] + b"".join(reversed(text[split:].splitlines(True)))
        path, replacement = tmp_path / "t.csv", tmp_path / "other.csv"
        path.write_bytes(text)
        replacement.write_bytes(other.replace(b"\xff", b"9"))
        expected = read_outcome(_read_cells, path)
        assert expected[0] is TableFormatError if undecodable else expected[0] == (8, 2)
        monkeypatch.setattr(table_module, "_SPLIT_BYTES", 0)
        fork = os.fork

        def replace_then_fork():
            os.replace(replacement, path)
            return fork()

        monkeypatch.setattr(os, "fork", replace_then_fork)
        with leaves_nothing(spill):
            assert read_outcome(_read_cells, path) == expected
        assert not replacement.exists()

    @pytest.mark.parametrize("in_parent", [True, False], ids=["parent", "child"])
    def test_write_errors(self, tmp_path, monkeypatch, spill, table, in_parent):
        table = DataTable(table.values[:60, :10])
        path, reference = tmp_path / "t.csv", tmp_path / "one.csv"
        save_csv(table, reference)
        monkeypatch.setattr(table_module, "_SPLIT_BYTES", 0)
        monkeypatch.setattr(table_module, "_write_rows", fail_in(os.getpid(), in_parent,
                                                               table_module._write_rows))
        with leaves_nothing(spill):
            if in_parent:
                with pytest.raises(OSError, match="disk full"):
                    save_csv(table, path)
            else:
                save_csv(table, path)
                assert path.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("host", ["no-fork", "one-cpu", "second-thread"])
    def test_one_process_hosts_are_bit_identical(self, tmp_path, monkeypatch, spill, table,
                                                 host):
        table = DataTable(table.values[:60, :10])
        monkeypatch.setattr(table_module, "_SPLIT_BYTES", 0)
        path = tmp_path / "t.csv"
        cases = {name: READ_CASES[name] for name in SPLIT_READS}
        cases.update((name, (text, None)) for name, (text, _) in FAULT_CASES.items())

        def outcomes():
            found = {}
            for name, (text, missing_code) in cases.items():
                path.write_bytes(text)
                found[name] = read_outcome(_read_cells, path, missing_code)
            return found

        split = outcomes()
        save_csv(table, path, "NA")
        written = path.read_bytes()
        forks = count_forks(monkeypatch)
        if host == "no-fork":
            monkeypatch.delattr(os, "fork")
        elif host == "one-cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        if host == "second-thread":  # a forked child could inherit its held locks
            other.start()
        try:
            assert outcomes() == split
            with leaves_nothing(spill):
                save_csv(table, path, "NA")
        finally:
            stop.set()
            if other.is_alive():
                other.join()
        assert path.read_bytes() == written
        assert forks == []

    @pytest.mark.skipif(not hasattr(signal, "SIGCHLD"), reason="no SIGCHLD")
    def test_child_reaped_elsewhere(self, tmp_path, monkeypatch, spill, table):
        """With SIGCHLD ignored the kernel reaps the child and its exit status
        is lost, so the parent does the child's half itself."""
        path, reference = tmp_path / "t.csv", tmp_path / "one.csv"
        save_csv(table, reference)
        expected = read_outcome(_read_cells, reference)
        monkeypatch.setattr(table_module, "_SPLIT_BYTES", 1 << 62)
        one_process = read_outcome(_read_cells, reference)
        monkeypatch.setattr(table_module, "_SPLIT_BYTES", 0)
        forks = count_forks(monkeypatch)
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            save_csv(table, path)
            assert read_outcome(_read_cells, path) == expected == one_process
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert len(forks) == 2
        assert path.read_bytes() == reference.read_bytes()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert list(spill.iterdir()) == []


def fail_in(parent_pid: int, in_parent: bool, kernel):
    """``kernel`` that raises OSError in the parent or in a forked child only."""

    def kernel_or_fail(*args):
        if (os.getpid() == parent_pid) == in_parent:
            raise OSError("disk full")
        return kernel(*args)

    return kernel_or_fail


class TestZscore:
    def test_two_value_column_is_symmetric(self):
        t = DataTable(np.array([[2.0, 1.0], [4.0, 5.0]]))
        z = zscore(t)
        col = z.values[:, 0]
        assert col[0] == pytest.approx(-col[1])
        assert col.mean() == pytest.approx(0.0, abs=1e-12)
        assert col[1] > 0

    def test_idempotent_on_standardized_columns(self, complete_table):
        once = zscore(complete_table)
        twice = zscore(once)
        assert np.abs(twice.values - once.values).max() < 1e-12

    def test_column_moments_with_missing_cell(self):
        t = DataTable(np.array([[1.0, 4.0], [2.0, np.nan], [6.0, 5.0]]))
        z = zscore(t)
        assert np.array_equal(z.missing, t.missing)
        for j in range(2):
            col = z.values[:, j][z.valid[:, j]]
            assert abs(col.mean()) < 1e-12
            assert abs(col.std(ddof=1) - 1.0) < 1e-12

    def test_zero_variance_column_is_numeric_error(self):
        t = DataTable(np.array([[3.0, 1.0], [3.0, 5.0]]))
        with pytest.raises(NumericError, match=r"\[1\]"):
            zscore(t)
        # a constant column whose mean does not round back exactly used to be
        # scaled into one arbitrary z-score per cell; a 1e-9 relative spread
        # is far above rounding and is kept
        gen = np.random.default_rng(11)
        for _ in range(400):
            rows = int(gen.integers(2, 3001))
            value = 10.0 ** gen.uniform(-8, 8) * gen.choice([-1.0, 1.0])
            t = DataTable(np.column_stack([gen.normal(size=rows), np.full(rows, value)]))
            with pytest.raises(NumericError, match=r"column\(s\) \[2\] have zero variance"):
                zscore(t)
        for _ in range(200):
            rows = int(gen.integers(2, 3001))
            value = 10.0 ** gen.uniform(-8, 8)
            column = value * (1.0 + 1e-9 * gen.normal(size=rows))
            z = zscore(DataTable(np.column_stack([gen.normal(size=rows), column])))
            assert z.values[:, 1].std(ddof=1) == pytest.approx(1.0, rel=1e-6)

    def test_thin_column_is_structural_error(self):
        t = DataTable(np.array([[3.0, 1.0], [np.nan, 5.0], [np.nan, 2.0]]))
        with pytest.raises(StructuralError, match="fewer than 2"):
            zscore(t)

    def test_mask_bit_identical(self, small_table):
        assert np.array_equal(zscore(small_table).missing, small_table.missing)


def per_row_stats(table):
    stats = []
    for i in range(table.rows):
        vals = np.sort(table.values[i, table.valid[i]])
        stats.append((vals.size, vals.sum(), vals.min(), vals.max()))
    return stats


class TestMixRows:
    def test_row_multiset_preserved(self):
        t = DataTable(np.array([[1.0, 2.0, np.nan], [5.0, 6.0, 7.0]]))
        mixed = mix_rows(t, rng=3)
        assert np.array_equal(mixed.missing, t.missing)
        assert sorted(mixed.values[0, :2].tolist()) == [1.0, 2.0]
        assert mixed.values[0, :2].mean() == pytest.approx(1.5)

    def test_single_valid_row_unchanged(self):
        t = DataTable(np.array([[9.0, np.nan, np.nan], [1.0, 2.0, 3.0]]))
        mixed = mix_rows(t, rng=1)
        assert mixed.values[0, 0] == 9.0

    def test_per_row_invariants(self, small_table):
        mixed = mix_rows(small_table, rng=11)
        assert per_row_stats(mixed) == pytest.approx(per_row_stats(small_table))

    def test_seed_reproducibility(self, small_table):
        a = mix_rows(small_table, rng=7)
        b = mix_rows(small_table, rng=7)
        assert np.array_equal(a.values, b.values, equal_nan=True)

    def test_icc_stable_under_mixing(self, z_table_1400x80):
        degraded = degrade_random(z_table_1400x80, 0.16, rng=8)
        before = icc_report(degraded).icc
        for seed in range(10):
            after = icc_report(mix_rows(degraded, rng=seed)).icc
            assert abs(after - before) <= 0.005


class TestVirtualize:
    def test_equal_counts_gives_complete_table(self):
        t = DataTable(np.array([[1.0, np.nan, 2.0], [np.nan, 3.0, 4.0]]))
        out = virtualize(t, rng=5)
        assert out.shape == (2, 2)
        assert out.missing.sum() == 0

    def test_unequal_counts_leaves_holes(self):
        t = DataTable(np.array([[1.0, 2.0, np.nan], [4.0, 5.0, 6.0]]))
        out = virtualize(t, rng=5)
        assert out.cols == 3
        assert out.missing[0].sum() == 1
        assert out.missing[1].sum() == 0

    def test_row_means_preserved(self, small_table):
        out = virtualize(small_table, rng=9)
        assert out.row_means() == pytest.approx(small_table.row_means())

    def test_per_row_invariants(self, small_table):
        out = virtualize(small_table, rng=13)
        assert per_row_stats(out) == pytest.approx(per_row_stats(small_table))

    def test_seed_reproducibility(self, small_table):
        a = virtualize(small_table, rng=21)
        b = virtualize(small_table, rng=21)
        assert np.array_equal(a.values, b.values, equal_nan=True)

    @pytest.mark.parametrize("rows, cols, p", [(4, 3, 0.2), (30, 6, 0.3), (200, 40, 0.2)])
    def test_matches_per_row_loop(self, rows, cols, p):
        raw = DataTable(np.random.default_rng(rows).normal(size=(rows, cols)))
        table = degrade_random(raw, p, rng=cols)
        gen, gen_loop = np.random.default_rng(17), np.random.default_rng(17)
        out, loop = virtualize(table, gen), virtualize_loop(table, gen_loop)
        assert np.array_equal(out.values, loop.values, equal_nan=True)
        assert np.array_equal(out.missing, loop.missing)
        assert gen.bit_generator.state == gen_loop.bit_generator.state

    @pytest.mark.parametrize("cols", [240, 300])
    def test_wide_tables_match_per_row_loop(self, cols):
        # an int16 index block, and row blocks of the draws, keep the int64 stream
        raw = DataTable(np.random.default_rng(cols).normal(size=(300, cols)))
        table = degrade_random(raw, 0.1, rng=cols)
        gen, gen_loop = np.random.default_rng(23), np.random.default_rng(23)
        out, loop = virtualize(table, gen), virtualize_loop(table, gen_loop)
        assert out.cols > 128
        assert np.array_equal(out.values, loop.values, equal_nan=True)
        assert np.array_equal(out.missing, loop.missing)
        assert gen.bit_generator.state == gen_loop.bit_generator.state

    def test_paper_size_matches_per_row_loop(self, z_table_1400x80):
        degraded = degrade_random(z_table_1400x80, 0.2, rng=18)
        out, loop = virtualize(degraded, rng=19), virtualize_loop(degraded, rng=19)
        assert np.array_equal(out.values, loop.values, equal_nan=True)
        assert np.array_equal(out.missing, loop.missing)
