import math

import numpy as np
import pytest

from icctab import (
    DataTable,
    NumericError,
    PreconditionError,
    StructuralError,
    SynthSpec,
    anova,
    corrected_icc,
    corrected_interval,
    degrade_random,
    expected_icc,
    f_quantile,
    generate,
    icc_report,
    save_csv,
    zscore,
)
from icctab.anova import _pearson
from icctab.cli import main

import oracles


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
        dec = anova(small_table)
        assert dec.n_valid == 10
        assert dec.row_counts.tolist() == [3, 2, 2, 3]
        assert dec.col_counts.sum() == dec.row_counts.sum()

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
