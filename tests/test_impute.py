import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import ari_impute_loop, column_donor_fills_loop, crari_bisect

from icctab import (
    DataTable,
    NumericError,
    PreconditionError,
    SynthSpec,
    UnreachableTargetError,
    adjust_fills,
    ari_bias_demo,
    ari_impute,
    crari_impute,
    degrade_random,
    anova,
    generate,
    icc_report,
    save_csv,
    zscore,
)
from icctab.cli import main
from icctab.impute import _column_donor_fills, _complete_icc, _fill_with_row_means
from icctab.rand import as_generator


class TestAdjustFills:
    def test_worked_example(self):
        # donors 620 and 500 for a row whose valid mean is 568
        fills = adjust_fills([620.0, 500.0], 568.0)
        assert fills.tolist() == [628.0, 508.0]

    def test_single_draw_collapses_to_valid_mean(self):
        assert adjust_fills([777.0], 42.0).tolist() == [42.0]


class TestAriImpute:
    def make_rt_row_table(self):
        row = [500.0, 570.0, np.nan, 630.0, 520.0, np.nan, 620.0]
        other = [400.0, 410.0, 420.0, 430.0, 440.0, 450.0, 460.0]
        return DataTable(np.array([row, other]))

    def test_row_mean_preserved_exactly(self):
        t = self.make_rt_row_table()
        filled = ari_impute(t, rng=2)
        assert filled.missing.sum() == 0
        assert filled.values[0].mean() == pytest.approx(568.0, abs=1e-12)

    def test_fills_come_from_row_donors(self):
        t = self.make_rt_row_table()
        filled = ari_impute(t, rng=2)
        # with two draws, fill - valid_mean = (own donor - other donor) / 2
        donors = {500.0, 570.0, 630.0, 520.0, 620.0}
        half_diffs = {round((a - b) / 2, 9) for a in donors for b in donors}
        for j in (2, 5):
            assert round(filled.values[0, j] - 568.0, 9) in half_diffs

    def test_row_without_missing_unchanged(self):
        t = self.make_rt_row_table()
        filled = ari_impute(t, rng=3)
        assert np.array_equal(filled.values[1], t.values[1])

    def test_single_missing_gets_row_mean_regardless_of_draw(self):
        t = DataTable(np.array([[1.0, 3.0, np.nan], [4.0, 5.0, 6.0]]))
        for seed in range(5):
            filled = ari_impute(t, rng=seed)
            assert filled.values[0, 2] == pytest.approx(2.0)

    def test_valid_cells_bit_identical(self, small_table):
        filled = ari_impute(small_table, rng=7)
        valid = small_table.valid
        assert np.array_equal(filled.values[valid], small_table.values[valid])

    def test_mean_preservation_on_synthetic_table(self):
        raw, _ = generate(SynthSpec(rows=200, cols=20, seed=5))
        degraded = degrade_random(raw, 0.25, rng=6)
        filled = ari_impute(degraded, rng=7)
        drift = np.abs(filled.row_means() - degraded.row_means()).max()
        assert drift <= 1e-9


def _one_valid_in_row_and_column():
    """Row 0 and column 5 keep one valid cell each; row 3 is complete."""
    values = generate(SynthSpec(rows=8, cols=6, seed=41))[0].values.copy()
    values[0, 1:] = np.nan
    values[[1, 2, 4, 5, 6, 7], 5] = np.nan
    values[2, 2:4] = np.nan
    values[6, [1, 3]] = np.nan
    return DataTable(values)


class TestDonorKernelMatchesLoops:
    """The one-call donor kernel against the per-row and per-column loops."""

    @pytest.mark.parametrize("make", [
        _one_valid_in_row_and_column,
        lambda: _degraded_table(60, 80, 42, 0.9),
        lambda: _degraded_table(200, 30, 43, 0.1, zscored=False),
    ], ids=["one-valid-row-and-column", "p0.9", "raw-p0.1"])
    def test_same_fills_and_generator_state(self, make):
        self.check(make())

    def test_paper_shape_table(self, degraded):
        self.check(degraded)

    @staticmethod
    def check(table):
        gen, gen_loop = as_generator(44), as_generator(44)
        # ARI then CRARI on one generator: the second call starts mid-stream
        filled = ari_impute(table, gen).values
        assert np.abs(filled - ari_impute_loop(table, gen_loop)).max() <= 1e-12
        assert gen.bit_generator.state == gen_loop.bit_generator.state
        fills = _column_donor_fills(table, gen)
        assert np.abs(fills - column_donor_fills_loop(table, gen_loop)).max() <= 1e-12
        assert gen.bit_generator.state == gen_loop.bit_generator.state

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), rows=st.integers(4, 30), cols=st.integers(4, 12),
           p=st.floats(0.05, 0.6), zscored=st.booleans())
    @example(seed=0, rows=29, cols=4, p=0.59375, zscored=False)
    def test_ari_fills_every_cell_and_keeps_item_means(self, seed, rows, cols, p, zscored):
        table = _degraded_table(rows, cols, seed, p, zscored)
        filled = ari_impute(table, rng=seed)
        assert not filled.missing.any()
        assert np.isfinite(filled.values).all()
        valid = table.valid
        assert np.array_equal(filled.values[valid], table.values[valid])
        assert np.abs(filled.row_means() - table.row_means()).max() <= 1e-9


class TestCrariDeterministicCases:
    def test_complete_table_returned_unchanged(self, complete_table):
        outcome = crari_impute(complete_table, rng=1)
        assert outcome.imputed is complete_table
        assert outcome.c == 1.0
        assert outcome.icc_after == outcome.icc_before

    ONE_PER_ROW = DataTable(np.array([
        [1.0, 2.0, np.nan, 3.0],
        [4.0, np.nan, 5.0, 6.0],
        [7.0, 8.0, 9.0, 1.0],
    ]))

    def test_at_most_one_missing_per_row_fills_with_row_mean(self):
        point = _complete_icc(_fill_with_row_means(self.ONE_PER_ROW))
        outcome = crari_impute(self.ONE_PER_ROW, target=point, rng=11)
        assert outcome.c == 1.0
        assert outcome.icc_after == point
        assert outcome.warnings == ()
        assert outcome.imputed.values[0, 2] == pytest.approx(2.0)
        assert outcome.imputed.values[1, 1] == pytest.approx(5.0)

    def test_target_miss_is_reported(self):
        raw, _ = generate(SynthSpec(rows=200, cols=40, seed=3))
        values = np.array(raw.values)
        values[np.arange(200), as_generator(1).integers(0, 40, size=200)] = np.nan
        table = DataTable(values)
        point = _complete_icc(_fill_with_row_means(table))
        with pytest.raises(UnreachableTargetError) as info:
            crari_impute(table, target=0.8, rng=2)
        assert info.value.reachable == (point, point)
        assert str(info.value) == (
            f"target ICC 0.8000 not reachable: no row has more than one missing cell, "
            f"so the fills are the row means, with ICC {point:.4f}"
        )

    @pytest.mark.parametrize("target", ["low", "corrected"])
    def test_named_targets_off_the_single_point_raise(self, target):
        point = _complete_icc(_fill_with_row_means(self.ONE_PER_ROW))
        with pytest.raises(UnreachableTargetError) as info:
            crari_impute(self.ONE_PER_ROW, target=target, rng=3)
        assert info.value.reachable == (point, point)

    def test_deterministic_case_independent_of_rng(self):
        point = _complete_icc(_fill_with_row_means(self.ONE_PER_ROW))
        a = crari_impute(self.ONE_PER_ROW, target=point, rng=1)
        b = crari_impute(self.ONE_PER_ROW, target=point, rng=999)
        assert np.array_equal(a.imputed.values, b.imputed.values)


@pytest.fixture(scope="module")
def degraded():
    raw, _ = generate(SynthSpec(rows=1400, cols=80, seed=31))
    return degrade_random(zscore(raw), 0.2, rng=32)


class TestCrariRandomCase:
    def test_explicit_low_target_attained(self, degraded):
        before = icc_report(degraded).icc
        outcome = crari_impute(degraded, target=before, rng=33)
        assert abs(outcome.icc_after - before) <= 1e-3
        assert outcome.imputed.missing.sum() == 0

    def test_row_means_and_valid_cells(self, degraded):
        outcome = crari_impute(degraded, target="corrected", rng=34)
        drift = np.abs(outcome.imputed.row_means() - degraded.row_means()).max()
        assert drift <= 1e-9
        valid = degraded.valid
        assert np.array_equal(outcome.imputed.values[valid], degraded.values[valid])

    def test_corrected_target_recovers_exact_icc(self):
        raw, _ = generate(SynthSpec(rows=1400, cols=80, seed=60))
        zt = zscore(raw)
        exact = icc_report(zt).icc
        recovered = []
        for seed in range(10):
            degraded = degrade_random(zt, 0.2, rng=100 + seed)
            recovered.append(crari_impute(degraded, target="corrected", rng=seed).icc_after)
        assert np.mean(recovered) == pytest.approx(exact, abs=0.01)

    def test_deterministic_given_seed(self, degraded):
        a = crari_impute(degraded, target="corrected", rng=35)
        b = crari_impute(degraded, target="corrected", rng=35)
        assert np.array_equal(a.imputed.values, b.imputed.values)
        assert a.c == b.c and a.icc_after == b.icc_after

    def test_unreachable_targets_report_range(self, degraded):
        with pytest.raises(UnreachableTargetError) as info:
            crari_impute(degraded, target=0.9999, rng=36)
        low, high = info.value.reachable
        assert low < high < 0.9999
        # with a short search interval the attainable range shrinks from below
        with pytest.raises(UnreachableTargetError):
            crari_impute(degraded, target=0.01, rng=36, c_max=0.5)

    def test_icc_monotone_in_scaling_coefficient(self, degraded):
        gen = as_generator(37)
        centered = _column_donor_fills(degraded, gen)
        base = _fill_with_row_means(degraded).values
        iccs = [_complete_icc(DataTable(base + c * centered)) for c in range(11)]
        diffs = np.diff(iccs)
        assert (diffs <= 1e-9).all()

    def test_target_and_search_parameters_validated(self, degraded):
        with pytest.raises(PreconditionError):
            crari_impute(degraded, target="exact", rng=1)
        with pytest.raises(PreconditionError):
            crari_impute(degraded, target=1.5, rng=1)
        with pytest.raises(PreconditionError):
            crari_impute(degraded, c_max=0.0, rng=1)

    def test_column_effect_warning_for_corrected_target(self):
        raw, _ = generate(SynthSpec(rows=200, cols=12, item_sd=0.2, seed=71))
        offsets = np.random.default_rng(72).normal(0, 0.5, size=12)
        degraded = degrade_random(DataTable(raw.values + offsets), 0.2, rng=73)
        outcome = crari_impute(degraded, target="corrected", rng=74)
        assert any("column effect" in w for w in outcome.warnings)
        outcome_low = crari_impute(degraded, target="low", rng=74)
        assert not any("column effect" in w for w in outcome_low.warnings)


def _degraded_table(rows, cols, seed, p, zscored=True, column_sd=0.0, item_sd=0.4):
    raw, _ = generate(SynthSpec(rows=rows, cols=cols, item_sd=item_sd, seed=seed))
    offsets = np.random.default_rng(seed).normal(0, column_sd, size=cols)
    table = DataTable(raw.values + offsets)
    return degrade_random(zscore(table) if zscored else table, p, rng=seed + 1)


class TestClosedFormMatchesBisection:
    """The quadratic solve against the dichotomic search it replaced."""

    @pytest.mark.parametrize("rows, cols, seed, p, zscored, column_sd, target, c_max, kind", [
        (30, 6, 1, 0.3, True, 0.0, "corrected", 10.0, "ok"),
        (60, 12, 2, 0.1, False, 0.0, "low", 10.0, "ok"),
        (200, 20, 3, 0.6, True, 0.0, 0.3, 10.0, "ok"),
        (200, 20, 4, 0.3, False, 0.0, 0.05, 10.0, "ok"),
        # column offsets: the ICC first rises with c (negative linear term)
        (30, 6, 5, 0.3, False, 3.0, 0.5, 10.0, "ok"),
        (60, 12, 6, 0.3, True, 0.0, 0.9999, 10.0, "outside"),
        (60, 12, 7, 0.3, True, 0.0, 0.01, 0.5, "outside"),
        (30, 6, 8, 0.3, False, 3.0, "low", 1.0, "not decreasing"),
    ])
    def test_same_coefficient_and_errors(self, rows, cols, seed, p, zscored, column_sd,
                                         target, c_max, kind):
        table = _degraded_table(rows, cols, seed, p, zscored, column_sd)
        report = icc_report(table)
        target_icc = {"low": report.icc, "corrected": report.icc_cor}.get(target, target)
        try:
            c_bisect, _, _ = crari_bisect(table, target_icc, rng=seed, c_max=c_max)
        except UnreachableTargetError as exc:
            with pytest.raises(UnreachableTargetError) as info:
                crari_impute(table, target=target, rng=seed, c_max=c_max)
            assert str(info.value) == str(exc)
            assert info.value.reachable == pytest.approx(exc.reachable, rel=0, abs=1e-12)
            assert kind in str(exc)
            return
        assert kind == "ok"
        outcome = crari_impute(table, target=target, rng=seed, c_max=c_max)
        assert outcome.c > 0.0
        assert abs(outcome.c - c_bisect) <= 1e-4
        assert abs(outcome.icc_after - target_icc) <= 1e-12

    def test_zero_icc_plateau_takes_zero_coefficient(self):
        table = _degraded_table(12, 6, 2, 0.3, item_sd=0.01)
        with pytest.raises(UnreachableTargetError) as info:
            crari_bisect(table, 0.5, rng=9)
        assert info.value.reachable == (0.0, 0.0)
        outcome = crari_impute(table, target=0.0, rng=9)
        assert outcome.c == 0.0
        assert outcome.icc_after == 0.0
        assert crari_bisect(table, 0.0, rng=9)[1] == 0.0


class TestCrariProperties:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), rows=st.integers(8, 40), cols=st.integers(4, 12),
           p=st.floats(0.1, 0.5), zscored=st.booleans(), share=st.floats(0.01, 0.99))
    @example(seed=8, rows=8, cols=4, p=0.46875, zscored=False, share=0.5)
    def test_reachable_target_attained_exactly(self, seed, rows, cols, p, zscored, share):
        table = _degraded_table(rows, cols, seed, p, zscored)
        assume(table.missing.sum(axis=1).max() > 1)
        # tables that anova cannot decompose fail before any target matters
        # (TestCrariUndecomposableTable)
        assume(_decomposes(table))
        try:
            crari_bisect(table, 2.0, rng=seed)
        except UnreachableTargetError as exc:
            low, high = exc.reachable
        assume(low < high)
        target = low + share * (high - low)
        outcome = crari_impute(table, target=target, rng=seed)
        assert abs(outcome.icc_after - target) <= 1e-12
        drift = np.abs(outcome.imputed.row_means() - table.row_means()).max()
        assert drift <= 1e-9
        valid = table.valid
        assert np.array_equal(outcome.imputed.values[valid], table.values[valid])


def _decomposes(table) -> bool:
    try:
        anova(table)
    except NumericError:
        return False
    return True


class TestCrariUndecomposableTable:
    """A small raw table so unbalanced that ``anova``'s interaction variance
    comes out negative (vij = -0.627): CRARI fails with the documented
    NumericError whatever the target."""

    @staticmethod
    def table():
        return _degraded_table(8, 4, 8, 0.46875, zscored=False)

    @pytest.mark.parametrize("target", ["corrected", "low", 0.5])
    def test_crari_raises_numeric_error(self, target):
        with pytest.raises(NumericError, match="negative interaction variance"):
            crari_impute(self.table(), target=target, rng=8)

    def test_cli_impute_exits_4(self, capsys, tmp_path):
        source = tmp_path / "unbalanced.csv"
        save_csv(self.table(), source)
        code = main(["impute", "--input", str(source), "--output", str(tmp_path / "x.csv")])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert captured.err.startswith("error[4] NumericError: ")
        assert not (tmp_path / "x.csv").exists()


class TestAriBiasDemo:
    def test_zero_proportion_row_equals_exact(self):
        raw, _ = generate(SynthSpec(rows=150, cols=15, seed=81))
        exact = icc_report(raw).icc
        point = ari_bias_demo(raw, [0.0], replications=2, rng=82)[0]
        assert point.icc_missing == pytest.approx(exact)
        assert point.icc_ari == pytest.approx(exact)
        assert point.icc_cor == pytest.approx(exact)

    def test_bias_ordering_at_twenty_percent(self):
        raw, _ = generate(SynthSpec(rows=400, cols=40, item_sd=0.25, seed=83))
        zt = zscore(raw)
        exact = icc_report(zt).icc
        point = ari_bias_demo(zt, [0.2], replications=5, rng=84)[0]
        assert point.icc_missing < exact < point.icc_ari

    def test_requires_complete_table(self, small_table):
        with pytest.raises(PreconditionError):
            ari_bias_demo(small_table, [0.1], replications=1, rng=1)
