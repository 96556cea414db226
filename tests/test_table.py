import numpy as np
import pytest

from icctab import (
    DataTable,
    MissingPattern,
    NumericError,
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

    def test_rejects_nonfinite_valid_entry(self):
        with pytest.raises(StructuralError, match="finite"):
            DataTable(np.array([[1.0, np.inf], [3.0, 4.0]]), np.zeros((2, 2), bool))

    def test_arrays_are_frozen(self, small_table):
        with pytest.raises(ValueError):
            small_table.values[0, 0] = 99.0
        with pytest.raises(ValueError):
            small_table.missing[0, 0] = True

    def test_row_and_col_means_skip_missing(self, small_table):
        assert small_table.row_means()[1] == pytest.approx(5.0)
        assert small_table.col_means()[1] == pytest.approx((2 + 8 + 5) / 3)


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


class TestMissingPattern:
    def test_from_table_records_mask(self, small_table):
        pattern = MissingPattern.from_table(small_table)
        assert np.array_equal(pattern.mask, small_table.missing)
        assert pattern.density == pytest.approx(2 / 12)
