import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icctab import (
    DataTable,
    NumericError,
    PreconditionError,
    StructuralError,
    SynthSpec,
    anova,
    corrected_icc,
    corrected_interval,
    crari_impute,
    degrade_random,
    expected_icc,
    f_quantile,
    fit_predictors,
    generate,
    icc_report,
    save_csv,
    zscore,
)
from icctab.anova import _pearson
from icctab.cli import main
from icctab.impute import _column_donor_fills, _quadratic
from icctab.rand import as_generator

import oracles
from test_ecvt import noise_free_table, rounding_constant_pair


class TestAnova:
    def test_constant_table(self):
        dec = anova(DataTable(np.ones((2, 2))))
        assert dec.ss == dec.ssi == dec.ssj == dec.ssij == 0.0
        assert dec.vi == dec.vj == dec.vij == 0.0

    def test_hand_computed_two_by_two(self):
        dec = anova(DataTable(np.array([[0.0, 0.0], [2.0, 2.0]])))
        assert dec.ssi == pytest.approx(4.0)
        assert dec.ssj == pytest.approx(0.0)
        assert dec.ssij == pytest.approx(0.0, abs=1e-12)

    def test_decomposition_sums_with_missing_cell(self):
        t = DataTable(np.array([[1.0, 4.0], [2.0, np.nan], [6.0, 5.0]]))
        dec = anova(t)
        vals = t.values[t.valid]
        ss_direct = float((vals**2).sum() - vals.sum() ** 2 / vals.size)
        assert dec.ss == pytest.approx(ss_direct, abs=1e-10)
        assert dec.ssi + dec.ssj + dec.ssij == pytest.approx(dec.ss, abs=1e-10)

    def test_counts_and_sums(self, small_table):
        # the table keeps the moments; the decomposition keeps what it derives
        sums = small_table._sums
        assert anova(small_table).n_valid == 10
        assert sums.row_counts.tolist() == [3, 2, 2, 3]
        assert sums.col_counts.sum() == sums.row_counts.sum() == 10
        means = sums.row_sums / sums.row_counts + sums.shift
        assert means == pytest.approx(np.nanmean(small_table.values, axis=1), rel=1e-15)

    def test_insufficient_data(self):
        t = DataTable(np.array([[1.0, 2.0], [3.0, np.nan]]))
        with pytest.raises(StructuralError, match="dfij"):
            anova(t)

    def test_matches_balanced_textbook_anova(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 1, size=(8, 5)) + rng.normal(0, 2, size=(8, 1))
        dec = anova(DataTable(x))
        ss, ssi, ssj, ssij = oracles.balanced_anova(x)
        assert dec.ss == pytest.approx(ss, rel=1e-8)
        assert dec.ssi == pytest.approx(ssi, rel=1e-8)
        assert dec.ssj == pytest.approx(ssj, rel=1e-8, abs=1e-10)
        assert dec.ssij == pytest.approx(ssij, rel=1e-8)



class TestExactArithmetic:
    """The sums of squares, the ICC, CRARI's attained ICC and the coefficients
    of its quadratic against rational arithmetic, on 15 small tables of each
    kind, each with a constant added to its (raw or Z-scored) values."""

    @pytest.mark.parametrize("p", [0.0, 0.3], ids=["complete", "missing"])
    @pytest.mark.parametrize("standardize", [False, True], ids=["raw", "zscored"])
    def test_within_1e_12_of_exact(self, standardize, p):
        shapes = np.random.default_rng(29)
        for seed in range(15):
            rows, cols = int(shapes.integers(6, 13)), int(shapes.integers(3, 7))
            table, _ = generate(SynthSpec(rows=rows, cols=cols, seed=seed))
            if p:
                table = degrade_random(table, p, rng=seed)
            if standardize:
                table = zscore(table)
            for offset in (0.0, 1e4, 1e8):
                self.check(DataTable(table.values + offset), seed if p else None)

    @staticmethod
    def check(table, seed):
        exact = oracles.exact_decomposition(table)
        dec = anova(table)
        for name in ("ss", "ssi", "ssj", "ssij"):
            assert abs(Fraction(getattr(dec, name)) - exact[name]) <= 1e-12 * exact["ss"], name
        assert abs(Fraction(icc_report(table, ()).icc) - exact["icc"]) <= 1e-12
        if seed is not None:
            outcome = crari_impute(table, "low", rng=seed)
            attained = oracles.exact_decomposition(outcome.imputed)["icc"]
            assert abs(Fraction(outcome.icc_after) - attained) <= 1e-12
            # CRARI's quadratic, every sum taken about the table's shift: a0 is the
            # base's, whose moments are the table's kept ones plus its shift-free
            # item means, and the fills F are drawn less the shift and moved to
            # the shift-free column means, so nothing is rounded at the offset
            fills = _column_donor_fills(table, as_generator(seed))
            base, a1, a2 = _quadratic(table, fills)
            exact = oracles.exact_decomposition(table, fills)
            assert abs(Fraction(a2) - exact["a2"]) <= 1e-12 * exact["a2"]
            assert abs(Fraction(base.ssij) - exact["a0"]) <= 1e-12 * exact["a0"]
            bound = 2 * math.sqrt(exact["a0"] * exact["a2"])  # the largest |a1| can be
            assert abs(Fraction(a1) - exact["a1"]) <= Fraction(1e-12 * bound)


class TestShift:
    """The sums are formed about a shift near column 0's valid mean."""

    def test_a_centred_table_takes_shift_0(self, z_table_1400x80):
        assert z_table_1400x80._sums.shift == 0.0
        assert DataTable(z_table_1400x80.values + 1e8)._sums.shift == 1e8

    def test_column_0_with_one_valid_value_or_constant(self):
        # its standard deviation is 0, so the shift is the mean itself
        values = np.random.default_rng(3).normal(size=(6, 4)) + 1e8
        values[1:, 0] = np.nan
        assert DataTable(values)._sums.shift == values[0, 0]
        values[:, 0] = 1e8 + 0.25
        table = DataTable(values)
        assert table._sums.shift == 1e8 + 0.25
        assert table.row_means() == pytest.approx(np.nanmean(values, axis=1), rel=1e-15)

    def test_item_means_add_the_shift_back(self, small_table):
        table = DataTable(small_table.values + 1e8)
        assert table._sums.shift != 0.0
        assert table.row_means() - 1e8 == pytest.approx(small_table.row_means(), abs=1e-7)


class TestNoiseFreeAndOffsetTables:
    """A complete table has no imbalance: the interaction sum of a noise-free
    table is rounding, taken as 0, at any offset."""

    @pytest.mark.parametrize("offset", [0.0, 1e8, 1e10, 1e12])
    def test_no_complete_table_is_refused(self, offset):
        for seed in range(40):
            noise_free = anova(DataTable(noise_free_table(100 + seed).values + offset))
            if offset == 0.0:
                assert noise_free.ssij == 0.0 and math.isinf(noise_free.q), seed
            anova(rounding_constant_pair(seed, offset))

    def test_a_spread_of_rounding_alone_raises(self):
        # one ulp of 1e8 is 1.5e-8: the spread is in the last bit of the values
        values = 1e8 + np.random.default_rng(4).integers(0, 2, size=(20, 5)) * 1.5e-8
        with pytest.raises(NumericError, match="constant to rounding"):
            anova(DataTable(values))
        with pytest.raises(NumericError, match="constant to rounding"):
            icc_report(DataTable(values), ())

    @pytest.mark.parametrize("ulps", [1, 2])
    def test_spreads_of_one_and_two_ulps_raise(self, ulps):
        # half the cells at each end of the spread: its largest sum of squares
        values = 1e8 + np.random.default_rng(5).integers(0, 2, size=(20, 5)) * ulps * np.spacing(1e8)
        table = DataTable(values)
        for _ in range(2):  # a refused table is refused on every call
            with pytest.raises(NumericError, match="constant to rounding"):
                anova(table)


class TestOffsetPaperShapeTable:
    """The table of the shift-stability measurements: 1400 x 80, 20% missing,
    Z-scored, then a constant up to 1e8 added to every cell.  The ICC, its
    bounds, CRARI's attained ICC and the r2 of the true item effects keep
    their values to 1e-9, with no drift warning."""

    def test_statistics_keep_their_values(self):
        raw, truth = generate(SynthSpec(1400, 80, seed=3))
        table = zscore(degrade_random(raw, 0.2, 4))
        report = icc_report(table)
        r2 = fit_predictors(table, truth.item_effects).r2
        for offset in (1e6, 1e7, 1e8):
            moved = DataTable(table.values + offset)
            moved_report = icc_report(moved)
            assert moved_report.icc == pytest.approx(report.icc, rel=1e-9, abs=0)
            assert np.ravel(moved_report.conf) == pytest.approx(np.ravel(report.conf),
                                                                rel=1e-9, abs=0)
            outcome = crari_impute(moved, 0.9, rng=1)
            assert abs(outcome.icc_after - 0.9) <= 1e-9 and outcome.warnings == ()
            assert fit_predictors(moved, truth.item_effects).r2 == pytest.approx(r2, rel=1e-9,
                                                                                abs=0)

    @pytest.mark.parametrize("scale", [1e-3, 1e-4])
    def test_a_narrow_spread_at_1e8_decomposes(self, scale):
        # sd 1e-4 at 1e8 is about 6700 ulps: far above the values' own
        # rounding, though within N ulps (N = 89 600 cells)
        raw, _ = generate(SynthSpec(1400, 80, seed=3))
        table = zscore(degrade_random(raw, 0.2, 4))
        icc = icc_report(DataTable(table.values * scale + 1e8), ()).icc
        assert icc == pytest.approx(icc_report(table, ()).icc, rel=1e-6, abs=0)


class TestInvariance:
    """The ICC, ``icc_cor``, CRARI's attained ICC and the fit r2 under an
    added constant up to 1e8, a positive scale and a row or column
    permutation.  The values are multiples of 2**-12, the constant an
    integer and the scale a power of two, so every moved table holds the
    same numbers exactly moved.  The ICC and ``icc_cor`` then agree to 1e-9
    relative, and so does the r2, which correlates the item means less
    the table's shift.  CRARI's attained ICC is measured on imputed cells
    that hold the constant, rounded to ``eps`` times it, so its bound adds
    that rounding: up to 2.2e-8 at 1e8, where 30 x 8 tables reach 2e-9.  An
    item effect of sd 1 keeps the ICC near 0.9, away from 0, where no
    relative bound holds."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**16), offset=st.integers(0, 10**8),
           exponent=st.integers(-8, 8), axis=st.sampled_from([0, 1]))
    def test_statistics_unchanged(self, seed, offset, exponent, axis):
        raw, truth = generate(SynthSpec(rows=30, cols=8, item_sd=1.0, seed=seed))
        table = degrade_random(DataTable(np.round(raw.values * 4096) / 4096), 0.2, rng=seed)
        predictor = truth.item_effects
        order = np.random.default_rng(seed).permutation(table.shape[axis])
        moved = DataTable((np.take(table.values, order, axis=axis) + offset) * 2.0**exponent)
        before = self.statistics(table, predictor, seed)
        after = self.statistics(moved, predictor[order] if axis == 0 else predictor, seed)
        assert after[:2] == pytest.approx(before[:2], rel=1e-9, abs=0)
        output_rounding = np.finfo(float).eps * offset
        assert after[2] == pytest.approx(before[2], rel=1e-9 + output_rounding, abs=0)
        assert after[3:] == pytest.approx(before[3:], rel=1e-9, abs=0)

    @staticmethod
    def statistics(table, predictor, seed):
        report = icc_report(table, ())
        return [report.icc, report.icc_cor, crari_impute(table, "low", rng=seed).icc_after,
                *fit_predictors(table, predictor).r2]


class TestNegativeInteraction:
    """A raw 30x6 additive table with column offsets of sd 3 and 30% of its
    cells masked: the unbalanced interaction variance comes out at -0.63."""

    @staticmethod
    def table() -> DataTable:
        raw, _ = generate(SynthSpec(rows=30, cols=6, seed=6))
        offsets = np.random.default_rng(6).normal(0, 3, size=6)
        return degrade_random(DataTable(raw.values + offsets), 0.3, rng=7)

    def test_error_names_the_column_effect_and_the_remedy(self):
        with pytest.raises(NumericError, match="negative interaction variance") as info:
            anova(self.table())
        assert "column (participant) effect" in str(info.value)
        assert "--zscore" in str(info.value)
        assert anova(zscore(self.table())).vij > 0

    def test_cli_exits_4_and_zscore_runs(self, capsys, tmp_path):
        source = tmp_path / "coleffect.csv"
        save_csv(self.table(), source)
        assert main(["icc", "--input", str(source)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error[4] NumericError: negative interaction variance")
        assert "--zscore" in captured.err
        assert main(["icc", "--input", str(source), "--zscore"]) == 0
        assert "icc: " in capsys.readouterr().out


class TestIccReport:
    def test_icc_identities(self):
        raw, _ = generate(SynthSpec(rows=120, cols=15, seed=9))
        table = degrade_random(raw, 0.1, rng=10)
        dec = anova(table)
        rep = icc_report(table)
        n = table.cols
        assert rep.icc == pytest.approx(rep.q * n / (rep.q * n + 1.0), abs=1e-12)
        assert rep.icc == pytest.approx((dec.msi - dec.vij) / dec.msi, abs=1e-10)
        assert rep.pmiss == pytest.approx(table.pmiss)
        assert 0.0 <= rep.icc <= rep.icc_cor <= 1.0

    def test_interval_brackets_icc_and_nests(self):
        raw, _ = generate(SynthSpec(rows=300, cols=20, seed=12))
        rep = icc_report(raw, conf_probs=(0.9, 0.95, 0.99))
        for _, lower, upper in rep.conf:
            assert lower <= rep.icc <= upper
        (p1, l1, u1), (p2, l2, u2), (p3, l3, u3) = rep.conf
        assert l3 <= l2 <= l1 and u1 <= u2 <= u3

    def test_undefined_icc(self):
        with pytest.raises(NumericError, match="undefined ICC"):
            icc_report(DataTable(np.ones((3, 3))))

    def test_equal_item_means_have_no_confidence_bounds(self):
        # a Latin square: every item mean is 2, so Fobs = msi / vij is 0
        latin = DataTable(np.array([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0], [2.0, 3.0, 1.0]]))
        with pytest.raises(NumericError, match="all item means are equal"):
            icc_report(latin)
        rep = icc_report(latin, ())
        assert rep.icc == 0.0 and rep.f_obs == 0.0 and rep.conf == ()

    def test_zero_interaction_with_signal_gives_icc_one(self):
        # identical columns: pure row effect, no interaction
        col = np.array([1.0, 5.0, 2.0, 8.0])
        rep = icc_report(DataTable(np.tile(col[:, None], (1, 4))))
        assert rep.icc == 1.0
        assert math.isinf(rep.q)
        # Fobs = inf puts both bounds at exactly 1
        assert rep.conf == ((0.95, 1.0, 1.0), (0.99, 1.0, 1.0), (0.999, 1.0, 1.0))

    def test_bounds_below_zero_are_zero(self):
        # a Latin square with item offsets far below its noise: Fobs is so
        # small that both F-based bounds fall below 0, where the ICC estimate
        # is floored
        square = np.array([[1.0, 2.0, 3.0, 4.0], [4.0, 1.0, 2.0, 3.0],
                           [3.0, 4.0, 1.0, 2.0], [2.0, 3.0, 4.0, 1.0]])
        table = DataTable(square + np.array([[0.0], [0.01], [0.02], [0.03]]))
        dec = anova(table)
        rep = icc_report(table)
        assert rep.icc == 0.0
        for prob, lower, upper in rep.conf:
            level = 1.0 - (1.0 - prob) / 2.0
            assert 1.0 - f_quantile(level, dec.dfi, dec.dfij) / rep.f_obs < 0.0
            assert 1.0 - 1.0 / (f_quantile(level, dec.dfij, dec.dfi) * rep.f_obs) < 0.0
            assert lower == upper == 0.0

    def test_column_effect_warning_rule(self):
        raw, _ = generate(SynthSpec(rows=200, cols=12, item_sd=0.2, seed=7))
        offsets = np.random.default_rng(8).normal(0, 3, size=12)
        shifted = DataTable(raw.values + offsets)
        degraded = degrade_random(shifted, 0.2, rng=9)
        assert icc_report(degraded).warnings == (
            "non-negligible column effect: corrected statistics unreliable",)
        assert icc_report(shifted).warnings == ()  # pmiss = 0

    def test_conf_probability_domain(self):
        raw, _ = generate(SynthSpec(rows=20, cols=5, seed=1))
        with pytest.raises(PreconditionError):
            icc_report(raw, conf_probs=(1.0,))

    def test_item_means(self, small_table):
        rep = icc_report(small_table)
        assert rep.item_means == pytest.approx(small_table.row_means())


class TestPearson:
    def test_a_constant_side_gives_nan(self):
        y = np.random.default_rng(5).normal(size=40)
        assert np.isnan(_pearson(np.full(40, 0.1), y))
        assert np.isnan(_pearson(y, np.full(40, 0.1)))
        assert np.isnan(_pearson(np.full(7, 0.3), np.arange(7.0)))

    def test_a_side_constant_to_rounding_gives_nan(self):
        # columns 0 and 1 sum to 0.7 on every row, so their mean is 0.35 up to
        # one ulp; an exact-equality test let most of these through
        for seed in range(200):
            v = np.random.default_rng(seed).normal(size=(30, 4))
            v[:, 0] = v[:, 0] * 0.37 + 0.1
            v[:, 1] = 0.7 - v[:, 0]
            assert np.isnan(_pearson((v[:, 0] + v[:, 1]) / 2, (v[:, 2] + v[:, 3]) / 2))

    def test_only_rows_with_a_constant_side_give_nan(self):
        x = np.array([[1.0, 2.0, 4.0], [0.3, 0.3, 0.3], [3.0, 1.0, 2.0]])
        r = _pearson(x, np.array([2.0, 1.0, 5.0]))
        assert np.isnan(r[1])
        assert r[[0, 2]] == pytest.approx([np.corrcoef(row, [2.0, 1.0, 5.0])[0, 1]
                                           for row in x[[0, 2]]])


class TestCorrectedIcc:
    def test_published_values(self):
        assert corrected_icc(0.8626, 0.1568) == pytest.approx(0.8816, abs=5e-4)
        assert corrected_icc(0.9261, 0.0361) == pytest.approx(0.9286, abs=5e-4)

    def test_fixed_points(self):
        assert corrected_icc(1.0, 0.7) == 1.0
        assert corrected_icc(0.42, 0.0) == 0.42

    def test_strictly_increases_for_partial_icc(self):
        for icc in (0.1, 0.5, 0.9):
            for p in (0.01, 0.2, 0.5):
                assert corrected_icc(icc, p) > icc

    def test_monotone_in_both_arguments(self):
        grid = np.linspace(0.05, 0.95, 10)
        values = [corrected_icc(icc, 0.3) for icc in grid]
        assert values == sorted(values)
        values = [corrected_icc(0.7, p) for p in np.linspace(0.0, 0.9, 10)]
        assert values == sorted(values)

    def test_domain_checks(self):
        with pytest.raises(PreconditionError):
            corrected_icc(1.2, 0.1)
        with pytest.raises(PreconditionError):
            corrected_icc(0.5, 1.0)


class TestCorrectedInterval:
    def test_no_missing_data_is_identity(self):
        triple = (0.95, 0.80, 0.90)
        assert corrected_interval(triple, 0.0) == pytest.approx(triple)

    def test_applies_correction_to_both_bounds(self):
        prob, lower, upper = corrected_interval((0.95, 0.859, 0.866), 0.1568)
        assert prob == 0.95
        assert lower == pytest.approx(corrected_icc(0.859, 0.1568))
        assert upper == pytest.approx(corrected_icc(0.866, 0.1568))

    def test_bound_below_zero_is_corrected_from_zero(self):
        # a 10x4 table with little item variance and 20% missing: every F-based
        # lower bound is below 0, where no ICC lies; the report gives it as 0,
        # and a triple that carries it unclipped is corrected from 0 too
        raw, _ = generate(SynthSpec(rows=10, cols=4, item_sd=0.2, seed=2))
        table = degrade_random(raw, 0.2, rng=2)
        report = icc_report(table)
        dec = anova(table)
        assert report.pmiss > 0
        for triple in report.conf:
            level = 1.0 - (1.0 - triple[0]) / 2.0
            f_lower = 1.0 - f_quantile(level, dec.dfi, dec.dfij) / report.f_obs
            assert f_lower < 0.0 and triple[1] == 0.0 < triple[2]
            for given in (triple, (triple[0], f_lower, triple[2])):
                prob, lower, upper = corrected_interval(given, report.pmiss)
                assert prob == triple[0] and lower == 0.0
                assert upper == corrected_icc(triple[2], report.pmiss)

    def test_negative_upper_bound_maps_to_zero(self):
        assert corrected_interval((0.95, -1.79, -0.2), 0.2) == (0.95, 0.0, 0.0)


class TestExpectedIcc:
    def test_zero_ratio(self):
        for g in (1, 5, 100):
            assert expected_icc(0.0, g) == 0.0

    def test_unit_ratio_single(self):
        assert expected_icc(1.0, 1) == 0.5

    def test_published_values(self):
        assert expected_icc(0.1610, 39) == pytest.approx(0.8626, abs=5e-4)
        assert expected_icc(0.1333, 94) == pytest.approx(0.9261, abs=5e-4)

    def test_infinite_ratio(self):
        assert expected_icc(math.inf, 3) == 1.0

    def test_domain_checks(self):
        with pytest.raises(PreconditionError):
            expected_icc(-0.1, 2)
        with pytest.raises(PreconditionError):
            expected_icc(0.5, 0)
