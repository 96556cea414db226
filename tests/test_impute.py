import dataclasses
import sys
import tracemalloc
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import (
    _complete_icc,
    _fill_with_row_means,
    anova_allocating,
    ari_impute_allocating,
    ari_impute_loop,
    blocked_square_sum,
    column_donor_fills_allocating,
    column_donor_fills_loop,
    column_donor_fills_masked,
    crari_bisect,
    crari_impute_allocating,
    donor_fills_allocating,
    donor_fills_masked,
    drop_sidecar,
    shifted_allocating,
    shifted_col_means,
    valid_means,
    zscore_allocating,
)

import icctab.table as table_module
from icctab import (
    DataTable,
    NumericError,
    PreconditionError,
    SynthSpec,
    UnreachableTargetError,
    ari_bias_demo,
    ari_impute,
    crari_impute,
    degrade_random,
    anova,
    generate,
    icc_report,
    load_csv,
    mix_rows,
    save_csv,
    virtualize,
    zscore,
)
from icctab.cli import main
from icctab.errors import IccTabError
from icctab.impute import (
    AriBiasPoint,
    RecoveryPoint,
    _column_donor_fills,
    _donor_fills,
    _quadratic,
    crari_recovery_study,
)
from icctab.rand import as_generator

# the table and grid of the pinned degradation studies
STUDY_TABLE = zscore(generate(SynthSpec(rows=60, cols=10, seed=91))[0])
STUDY_GRID = [0.0, 0.2, 0.5]
GOLDEN = Path(__file__).parent / "golden"


class TestAdjustFills:
    """The adjustment rule of both imputation methods, as the donor kernel
    applies it: a row's draws, centered by their own mean, shifted to the
    row's valid mean."""

    def test_worked_example(self):
        # seed 3 draws the donors 620 and 500 for a row whose valid mean is 568
        row = np.array([[500.0, 570.0, np.nan, 630.0, 520.0, np.nan, 620.0]])
        fills = _donor_fills(row, np.isnan(row), np.array([5]), np.array([568.0]), 0.0,
                             as_generator(3))
        assert fills.tolist() == [628.0, 508.0]
        # less a shift of 512, with the valid mean less it: the same draws, less 512
        fills = _donor_fills(row, np.isnan(row), np.array([5]), np.array([56.0]), 512.0,
                             as_generator(3))
        assert fills.tolist() == [116.0, -4.0]

    def test_single_draw_collapses_to_valid_mean(self):
        row = np.array([[40.0, np.nan, 777.0, -691.0]])
        fills = _donor_fills(row, np.isnan(row), np.array([3]), np.array([42.0]), 0.0,
                             as_generator(0))
        assert fills.tolist() == [42.0]


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


class TestKeptMoments:
    """Each table's moments are formed once, by the first kernel that asks,
    and kept; the decomposition runs, and may raise, on every call."""

    def test_one_moment_pass_per_table(self, monkeypatch, degraded):
        table = DataTable(degraded.values, degraded.missing)  # none kept yet
        passes = []
        moments = table_module._moments

        def counted(values, missing):
            passes.append(values)
            return moments(values, missing)

        monkeypatch.setattr(table_module, "_moments", counted)
        icc_report(table)
        ari = ari_impute(table, rng=1)
        icc_report(ari)
        outcome = crari_impute(table, rng=2)
        table.row_means()
        outcome.imputed.row_means()
        # CRARI's base takes its moments from the input's: no pass of its own
        assert [id(values) for values in passes] == [
            id(table.values), id(ari.values), id(outcome.imputed.values)]

    def test_a_table_that_fails_the_decomposition_still_imputes(self):
        # criterion 5's raw worked example: too unbalanced to decompose
        table = DataTable(np.array([[500.0, 570.0, np.nan, 630.0, 520.0, np.nan, 620.0],
                                    np.arange(7.0)]))
        for _ in range(2):
            with pytest.raises(NumericError, match="too unbalanced"):
                anova(table)
        assert ari_impute(table, rng=3).values[0, [2, 5]].tolist() == [628.0, 508.0]


class TestCrariDeterministicCases:
    def test_complete_table_returned_unchanged(self, complete_table):
        # no cell to fill: the fills are 0 and draw nothing, so c = 0
        icc = icc_report(complete_table, ()).icc
        gen = as_generator(1)
        state = gen.bit_generator.state
        for target in ("low", "corrected", icc):
            outcome = crari_impute(complete_table, target, rng=gen)
            assert outcome.c == 0.0
            assert outcome.imputed is not complete_table
            assert outcome.imputed.values.tobytes() == complete_table.values.tobytes()
            assert not outcome.imputed.missing.any()
            assert outcome.icc_after == outcome.icc_before == icc
        assert gen.bit_generator.state == state
        # any other target is out of the one-point range
        with pytest.raises(UnreachableTargetError) as info:
            crari_impute(complete_table, 0.2, rng=1)
        assert info.value.reachable == (icc, icc)

    ONE_PER_ROW = DataTable(np.array([
        [1.0, 2.0, np.nan, 3.0],
        [4.0, np.nan, 5.0, 6.0],
        [7.0, 8.0, 9.0, 1.0],
    ]))

    def test_at_most_one_missing_per_row_fills_with_row_mean(self):
        # the row-centered fills are all 0, so every c gives the row-mean table
        point = _complete_icc(_fill_with_row_means(self.ONE_PER_ROW))
        outcome = crari_impute(self.ONE_PER_ROW, target=point, rng=11)
        assert outcome.c == 0.0
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
            f"target ICC 0.8000 outside the reachable range [{point:.4f}, {point:.4f}]"
        )

    @pytest.mark.parametrize("target", ["low", "corrected"])
    def test_named_targets_off_the_single_point_raise(self, target):
        point = _complete_icc(_fill_with_row_means(self.ONE_PER_ROW))
        with pytest.raises(UnreachableTargetError,
                           match=rf"outside the reachable range \[{point:.4f}, {point:.4f}\]") as info:
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

    def test_row_mean_drift_is_the_row_means_change(self, degraded):
        coleffect = load_csv(GOLDEN / "coleffect_table.csv")
        for table, seed in ((degraded, 34), (coleffect, 7)):
            outcome = crari_impute(table, target="corrected", rng=seed)
            assert outcome.row_mean_drift == float(
                np.abs(outcome.imputed.row_means() - table.row_means()).max())

    def test_deterministic_given_seed(self, degraded):
        a = crari_impute(degraded, target="corrected", rng=35)
        b = crari_impute(degraded, target="corrected", rng=35)
        assert np.array_equal(a.imputed.values, b.imputed.values)
        assert a.c == b.c and a.icc_after == b.icc_after

    def test_unreachable_targets_report_range(self, degraded):
        with pytest.raises(UnreachableTargetError) as info:
            crari_impute(degraded, target=0.9999, rng=36)
        low, high = info.value.reachable
        assert low == 0.0 < high < 0.9999

    def test_icc_monotone_in_scaling_coefficient(self, degraded):
        gen = as_generator(37)
        centered = _column_donor_fills(degraded, gen)
        base = _fill_with_row_means(degraded)
        iccs = [_complete_icc(base + c * centered) for c in range(11)]
        diffs = np.diff(iccs)
        assert (diffs <= 1e-9).all()

    def test_target_and_search_parameters_validated(self, degraded):
        with pytest.raises(PreconditionError):
            crari_impute(degraded, target="exact", rng=1)
        for target in (1.5, float("nan")):
            with pytest.raises(PreconditionError, match="explicit target must lie in"):
                crari_impute(degraded, target=target, rng=1)

    def test_column_effect_warning_for_corrected_target(self):
        raw, _ = generate(SynthSpec(rows=200, cols=12, item_sd=0.2, seed=71))
        offsets = np.random.default_rng(72).normal(0, 0.5, size=12)
        degraded = degrade_random(DataTable(raw.values + offsets), 0.2, rng=73)
        outcome = crari_impute(degraded, target="corrected", rng=74)
        assert any("column effect" in w for w in outcome.warnings)
        outcome_low = crari_impute(degraded, target="low", rng=74)
        assert not any("column effect" in w for w in outcome_low.warnings)


class TestDriftWarning:
    """CRARI warns of an item-mean drift above 1e-9 or above the rounding of
    item means that hold a constant, whichever is larger."""

    @staticmethod
    def table(offset, scale=1.0):
        raw, _ = generate(SynthSpec(rows=200, cols=20, seed=36))
        return DataTable(degrade_random(zscore(raw), 0.2, rng=37).values * scale + offset)

    @pytest.mark.parametrize("offset", [0.0, 1e7, 1e8])
    def test_rounding_does_not_warn(self, offset):
        # the fills are drawn and centred less the table's shift, so an offset
        # rounds no fill: the item means keep to 1e-9 (an ulp of 1e8 is 1.5e-8)
        outcome = crari_impute(self.table(offset), "corrected", rng=38)
        assert outcome.warnings == ()
        assert outcome.row_mean_drift <= 1e-9

    @pytest.mark.parametrize("scale", [1e7, 1e8])
    def test_rounding_of_scaled_means_does_not_warn(self, scale):
        # item means of up to 1.4e7 (1.4e8) are rounded to their ulps: the drift
        # passes 1e-9 but stays under n·eps times the largest (6.2e-8, 6.2e-7)
        table = self.table(0.0, scale)
        outcome = crari_impute(table, "corrected", rng=38)
        assert outcome.warnings == ()
        rounding = table.cols * np.finfo(float).eps * np.abs(table.row_means()).max()
        assert 1e-9 < outcome.row_mean_drift <= rounding

    @pytest.mark.parametrize("offset", [0.0, 1e8])
    def test_fills_that_are_not_row_centred_warn(self, monkeypatch, offset):
        impute_module = sys.modules["icctab.impute"]
        fills = impute_module._column_donor_fills
        monkeypatch.setattr(impute_module, "_column_donor_fills",
                            lambda table, gen: fills(table, gen) + 1e-3 * table.missing)
        outcome = crari_impute(self.table(offset), "corrected", rng=38)
        assert outcome.row_mean_drift > 1e-5
        assert outcome.warnings == (f"item mean inaccuracy: {outcome.row_mean_drift:.3e}",)


class TestTranslationEquivariance:
    """Every sum of CRARI is taken about the table's shift, so an offset that
    adds exactly (2**20 or 3 * 2**30 on multiples of 2**-10) moves the shift by
    exactly the offset and leaves the fills, the quadratic and ``c`` as they
    are on the unshifted table, bit for bit."""

    @pytest.mark.parametrize("offset", [2.0**20, 3 * 2.0**30])
    def test_crari_unmoved_by_an_exact_offset(self, offset):
        for seed in range(20):
            table = _degraded_table(60, 12, seed, 0.3)
            table = DataTable(np.round(table.values * 1024) / 1024)
            moved = DataTable(table.values + offset)
            assert np.array_equal(moved.values - offset, table.values, equal_nan=True)
            assert moved._sums.shift == table._sums.shift + offset
            fills = _column_donor_fills(table, as_generator(seed))
            assert _bits(_column_donor_fills(moved, as_generator(seed))) == _bits(fills)
            assert _bits(_quadratic(moved, fills)) == _bits(_quadratic(table, fills))
            assert (crari_impute(moved, "corrected", seed).c
                    == crari_impute(table, "corrected", seed).c)


def _degraded_table(rows, cols, seed, p, zscored=True, column_sd=0.0, item_sd=0.4):
    raw, _ = generate(SynthSpec(rows=rows, cols=cols, item_sd=item_sd, seed=seed))
    offsets = np.random.default_rng(seed).normal(0, column_sd, size=cols)
    table = DataTable(raw.values + offsets)
    return degrade_random(zscore(table) if zscored else table, p, rng=seed + 1)


class TestClosedFormMatchesBisection:
    """The quadratic solve against the dichotomic search it replaced."""

    @pytest.mark.parametrize("rows, cols, seed, p, zscored, column_sd, target, kind", [
        (30, 6, 1, 0.3, True, 0.0, "corrected", "ok"),
        (60, 12, 2, 0.1, False, 0.0, "low", "ok"),
        (200, 20, 3, 0.6, True, 0.0, 0.3, "ok"),
        (200, 20, 4, 0.3, False, 0.0, 0.05, "ok"),
        # column offsets: the ICC first rises with c (negative linear term)
        (30, 6, 5, 0.3, False, 3.0, 0.5, "ok"),
        (60, 12, 6, 0.3, True, 0.0, 0.9999, "outside"),
        (60, 12, 7, 0.3, True, 0.0, 0.01, "ok"),
        # the vertex c* lies inside (0, 1): the ICC rises from ICC(0) = 0.7296
        # to ICC(c*) = 0.7813, below the observed ICC, and falls past it
        (30, 6, 8, 0.3, False, 3.0, "low", "outside"),
        (30, 6, 8, 0.3, False, 3.0, 0.74, "ok"),
        (30, 6, 8, 0.3, False, 3.0, 0.75, "ok"),
        # a target between ICC(0) = 0.6917 and ICC(c*) = 0.7642
        (30, 6, 5, 0.3, False, 3.0, 0.75, "ok"),
        # a small Z-scored table whose target takes c = 17.4: the search
        # doubles its upper end until the ICC there is below the target
        (40, 8, 5, 0.05, True, 0.0, "corrected", "ok"),
    ])
    def test_same_coefficient_and_errors(self, rows, cols, seed, p, zscored, column_sd,
                                         target, kind):
        table = _degraded_table(rows, cols, seed, p, zscored, column_sd)
        report = icc_report(table)
        target_icc = {"low": report.icc, "corrected": report.icc_cor}.get(target, target)
        try:
            c_bisect, _, _ = crari_bisect(table, target_icc, rng=seed)
        except UnreachableTargetError as exc:
            with pytest.raises(UnreachableTargetError) as info:
                crari_impute(table, target=target, rng=seed)
            assert str(info.value) == str(exc)
            assert info.value.reachable == pytest.approx(exc.reachable, rel=0, abs=1e-12)
            assert kind in str(exc)
            return
        assert kind == "ok"
        outcome = crari_impute(table, target=target, rng=seed)
        assert outcome.c > 0.0
        assert abs(outcome.c - c_bisect) <= 1e-4
        assert abs(outcome.icc_after - target_icc) <= 1e-12

    def test_target_at_the_vertex_takes_the_vertex(self):
        table = _degraded_table(30, 6, 5, 0.3, False, 3.0)
        with pytest.raises(UnreachableTargetError) as info:
            crari_impute(table, target=1.0, rng=5)
        icc_top = info.value.reachable[1]
        assert icc_top > _complete_icc(_fill_with_row_means(table))
        # the search keeps the lower end of [c*, c_hi] when the target is ICC(c*);
        # its own top, which can sit an ulp from the closed form's
        with pytest.raises(UnreachableTargetError) as oracle_info:
            crari_bisect(table, 1.0, rng=5)
        c_bisect, _, _ = crari_bisect(table, oracle_info.value.reachable[1], rng=5)
        outcome = crari_impute(table, target=icc_top, rng=5)
        assert outcome.c > 0.0
        assert abs(outcome.c - c_bisect) <= 1e-4
        assert abs(outcome.icc_after - icc_top) <= 1e-12

    def test_zero_icc_plateau_takes_zero_coefficient(self):
        table = _degraded_table(12, 6, 2, 0.3, item_sd=0.01)
        with pytest.raises(UnreachableTargetError) as info:
            crari_bisect(table, 0.5, rng=9)
        assert info.value.reachable == (0.0, 0.0)
        outcome = crari_impute(table, target=0.0, rng=9)
        assert outcome.c == 0.0
        assert outcome.icc_after == 0.0
        assert crari_bisect(table, 0.0, rng=9)[1] == 0.0


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _donor_cases(table):
    """The donor kernel's rows and columns of ``table`` as ARI and CRARI take
    them: values, mask, the kernel's counts, means and shift (the table's kept
    moments: the row means at shift 0, the column means less the table's
    shift), and the oracle's means and shift, formed by its own allocating
    moment pass."""
    sums = table._sums
    return [(table.values, table.missing, (sums.row_counts, table.row_means(), 0.0),
             (valid_means(table)[0], 0.0)),
            (table.values.T, table.missing.T,
             (sums.col_counts, sums.col_sums / sums.col_counts, sums.shift),
             shifted_col_means(table))]


# (rows, cols, seed, p, zscored, column_sd): low p leaves rows with no or one
# missing cell, p = 0.95 leaves about one valid cell in twenty
KERNEL_TABLES = [
    ((12, 30, 60, 200)[i % 4], (5, 6, 12, 20)[i % 4], 50 + i, (0.05, 0.1, 0.3, 0.5, 0.7)[i % 5],
     i % 2 == 0, 3.0 if i % 3 == 0 else 0.0)
    for i in range(18)
] + [(60, 200, 70, 0.95, True, 0.0)]


class TestDonorKernelsMatchMaskedIndexKernels:
    """The counted-once kernels against the masked-index kernels they replaced,
    bit for bit (sign bits included), with the generator left in the same state."""

    @pytest.mark.parametrize("spec", KERNEL_TABLES, ids=lambda spec: "-".join(map(str, spec)))
    def test_same_bits(self, spec):
        self.check(_degraded_table(*spec[:5], column_sd=spec[5]))

    def test_one_valid_in_row_and_column(self):
        self.check(_one_valid_in_row_and_column())

    @staticmethod
    def check(table):
        missing = table.missing
        counts = missing.sum(axis=1)
        assert counts.max() > 1
        for values, mask, kernel_args, oracle_args in _donor_cases(table):
            gen, gen_old = as_generator(45), as_generator(45)
            assert _same_bits(_donor_fills(values, mask, *kernel_args, gen),
                              donor_fills_masked(values, mask, *oracle_args, gen_old))
            assert gen.bit_generator.state == gen_old.bit_generator.state
        gen, gen_old = as_generator(46), as_generator(46)
        assert _same_bits(_column_donor_fills(table, gen), column_donor_fills_masked(table, gen_old))
        assert gen.bit_generator.state == gen_old.bit_generator.state

    @pytest.mark.parametrize("spec", [KERNEL_TABLES[i] for i in (0, 1, 5, 8, 14, 18)],
                             ids=lambda spec: "-".join(map(str, spec)))
    def test_crari_raises_no_runtime_warning(self, spec):
        table = _degraded_table(*spec[:5], column_sd=spec[5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnreachableTargetError) as info:
                crari_impute(table, target=1.0, rng=47)
            low, high = info.value.reachable
            outcome = crari_impute(table, target=0.5 * (low + high), rng=47)
        assert abs(outcome.icc_after - 0.5 * (low + high)) <= 1e-12


def _bits(result):
    """A result as comparable bytes: arrays and floats by their bytes (sign
    bits and NaN payloads count), tables and dataclasses field by field."""
    if isinstance(result, DataTable):
        return _bits(result.values), _bits(result.missing)
    if isinstance(result, np.ndarray):
        return result.shape, result.dtype.str, result.tobytes()
    if isinstance(result, float):
        return np.float64(result).tobytes()
    if isinstance(result, (tuple, list)):
        return tuple(_bits(item) for item in result)
    if dataclasses.is_dataclass(result):
        return tuple(_bits(getattr(result, field.name)) for field in dataclasses.fields(result))
    return result


def _outcome_bits(kernel, *args, **kwargs):
    """``_bits`` of what ``kernel`` returns, or the type, message and
    reachable range of the package error it raises."""
    try:
        return _bits(kernel(*args, **kwargs))
    except IccTabError as err:
        return type(err), str(err), _bits(getattr(err, "reachable", None))


def _one_missing_per_row(rows, cols, seed):
    values = generate(SynthSpec(rows=rows, cols=cols, seed=seed))[0].values.copy()
    values[np.arange(rows), np.random.default_rng(seed).integers(0, cols, size=rows)] = np.nan
    return DataTable(values)


# (rows, cols, seed, p, zscored, column_sd): 8x4 to 1400x80, raw and
# Z-scored, column offsets of sd 3; raw tables with offsets include ones
# that anova cannot decompose, so the refusals are compared too
IN_PLACE_TABLES = [
    (8, 4, 80, 0.05, False, 0.0), (8, 4, 81, 0.3, True, 3.0), (12, 5, 82, 0.1, False, 3.0),
    (30, 6, 83, 0.5, True, 0.0), (30, 6, 84, 0.3, False, 3.0), (60, 12, 85, 0.7, True, 3.0),
    (60, 12, 86, 0.05, False, 0.0), (200, 20, 87, 0.9, True, 0.0), (200, 20, 88, 0.5, False, 3.0),
    (1400, 80, 89, 0.1, True, 0.0), (1400, 80, 90, 0.9, False, 3.0),
]


class TestInPlaceKernelsMatchAllocatingKernels:
    """``anova``, ``zscore``, the donor kernels, ARI and CRARI, which reuse
    their table-sized temporaries in place, against the allocating forms
    they replaced: the same bytes (sign bits included) and the same error,
    with the generator left in the same state."""

    @pytest.mark.parametrize("spec", IN_PLACE_TABLES, ids=lambda spec: "-".join(map(str, spec)))
    def test_same_bits(self, spec):
        rows, cols, seed, p, zscored, column_sd = spec
        raw, _ = generate(SynthSpec(rows=rows, cols=cols, seed=seed))
        offsets = np.random.default_rng(seed).normal(0, column_sd, size=cols)
        complete = DataTable(raw.values + offsets)
        assert _bits(zscore(complete)) == _bits(zscore_allocating(complete))
        self.check(_degraded_table(rows, cols, seed, p, zscored, column_sd))

    @pytest.mark.parametrize("table", [
        TestCrariDeterministicCases.ONE_PER_ROW,
        _one_missing_per_row(60, 12, 92),
        _one_valid_in_row_and_column(),
    ], ids=["one-per-row-3x4", "one-per-row-60x12", "one-valid-in-row-and-column"])
    def test_same_bits_on_sparse_masks(self, table):
        self.check(table)

    @pytest.mark.parametrize("spec", [(30, 6, 83, 0.5, True, 0.0), (200, 20, 88, 0.5, False, 3.0),
                                      (1400, 80, 89, 0.1, True, 0.0)],
                             ids=lambda spec: "-".join(map(str, spec)))
    def test_same_bits_on_fortran_ordered_tables(self, spec):
        # a table keeps the layout of the values it is given (a transpose, a
        # pandas frame); sums over such a layout can round differently from
        # the C-ordered table's, so each is compared with its allocating form
        table = _degraded_table(*spec)
        fortran = DataTable(np.asfortranarray(table.values), table.missing)
        assert fortran.values.flags.f_contiguous and not fortran.values.flags.c_contiguous
        self.check(fortran)
        self.check(DataTable(fortran.values, np.asfortranarray(table.missing)))

    @staticmethod
    def check(table):
        # the moments the table keeps (the decomposition holds only what it derives)
        shift, x, row_sums, row_counts, col_sums, col_counts = shifted_allocating(table)
        assert _bits(table._sums) == _bits(
            (shift, row_counts, col_counts, row_sums, col_sums, blocked_square_sum(x)))
        assert _outcome_bits(anova, table) == _outcome_bits(anova_allocating, table)
        assert _outcome_bits(zscore, table) == _outcome_bits(zscore_allocating, table)
        for values, mask, kernel_args, oracle_args in _donor_cases(table):
            gen, gen_old = as_generator(93), as_generator(93)
            assert _bits(_donor_fills(values, mask, *kernel_args, gen)) == _bits(
                donor_fills_allocating(values, mask, *oracle_args, gen_old))
            assert gen.bit_generator.state == gen_old.bit_generator.state
        pairs = [(_column_donor_fills, column_donor_fills_allocating),
                 (ari_impute, ari_impute_allocating)]
        pairs += [(lambda t, gen, target=target: crari_impute(t, target, gen),
                   lambda t, gen, target=target: crari_impute_allocating(t, target, gen))
                  for target in ("low", "corrected", 0.5)]
        for kernel, allocating in pairs:
            gen, gen_old = as_generator(94), as_generator(94)
            assert _outcome_bits(kernel, table, gen) == _outcome_bits(allocating, table, gen_old)
            assert gen.bit_generator.state == gen_old.bit_generator.state


class TestKernelTracedPeaks:
    """Traced peaks of the table kernels on the Z-scored 1400 x 80 table
    (896 000 bytes), in tables and besides the input.

    Measured peaks (numpy 2.4) at p = 0.1 / 0.5 / 0.9, with those before
    the kernels worked in row blocks and the table checks ran block by
    block: ``anova`` 0.62 (was 1.23), ``zscore`` 1.20 (was 1.51),
    ``ari_impute`` 1.30 / 2.04 / 2.84 (was 1.60 / 2.04 / 2.84),
    ``crari_impute`` 1.80 / 2.05 / 2.85 (was 2.41 / 2.41 / 2.97), its donor
    kernel ``_column_donor_fills`` 1.55 / 2.00 / 2.80 (was 2.16 / 2.16 /
    2.80), ``mix_rows`` 1.20 (was 1.50), ``virtualize`` 1.70 / 1.31 / 0.67
    (was 1.74 / 1.35 / 0.67), a table built from another table's arrays
    0.07 (was 0.38), ``degrade_random`` of the complete table 1.30 / 1.70 /
    2.10 (was 2.73 / 3.13 / 3.53; ``choice`` builds an index of every cell)
    and of the degraded one, 5% more, 2.15 / 1.75 / 1.69 (was 2.58 / 2.18 /
    1.99), ``generate`` 1.31 (was 2.18), and ``load_csv`` at p = 0 / 0.9
    2.33 / 1.39 in one process (was 2.33 / 1.64; the table now keeps the
    reader's mask) and 1.20 from ``save_csv``'s sidecar (the
    values read in place, their mask and one 64 KiB hash buffer).  Each bound
    is the largest peak plus 0.25 of a table (224 kB): room for three ufunc
    iterator buffers of 8192 float64 (numpy traces one in a masked
    subtract), so less than one table-sized temporary more.  The sidecar's
    is 1.3, so that even a copy of the mask fails it.
    """

    BOUNDS = {"anova": 0.87, "zscore": 1.46, "ari_impute": 3.09, "crari_impute": 3.10,
              "column_donor_fills": 3.06, "mix_rows": 1.46, "virtualize": 1.96,
              "table_from_arrays": 0.33, "degrade_random": 2.41, "generate": 1.56}
    KERNELS = {
        "anova": anova,
        "zscore": zscore,
        "ari_impute": partial(ari_impute, rng=95),
        "crari_impute": partial(crari_impute, rng=95),
        "column_donor_fills": lambda table: _column_donor_fills(table, as_generator(95)),
        "mix_rows": partial(mix_rows, rng=95),
        "virtualize": partial(virtualize, rng=95),
        "table_from_arrays": lambda table: DataTable(table.values, table.missing),
    }
    LOAD_BOUNDS = {"one-process": 2.58, "sidecar": 1.3}

    @staticmethod
    def peak(kernel, *args) -> int:
        tracemalloc.start()
        try:
            kernel(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("name", list(KERNELS))
    def test_traced_peak(self, z_table_1400x80, name, p):
        table = degrade_random(z_table_1400x80, p, rng=96)
        assert self.peak(self.KERNELS[name], table) <= self.BOUNDS[name] * table.values.nbytes

    # the one-process peak falls as p rises (the reader's buffer holds the
    # valid cells); p = 0 is the imputed complete table that ecvt reads
    @pytest.mark.parametrize("p", [0.0, 0.9])
    @pytest.mark.parametrize("how", list(LOAD_BOUNDS))
    def test_load_csv_traced_peak(self, tmp_path, z_table_1400x80, how, p):
        table = degrade_random(z_table_1400x80, p, rng=96)
        path = tmp_path / "t.csv"
        save_csv(table, path)
        if how != "sidecar":
            drop_sidecar(path)
        assert self.peak(load_csv, path) <= self.LOAD_BOUNDS[how] * table.values.nbytes

    # the complete table, as synth and the studies degrade it, then 5% more
    # of the degraded one, whose valid cells the draw's positions index
    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_degrade_random_traced_peak(self, z_table_1400x80, p):
        bound = self.BOUNDS["degrade_random"] * z_table_1400x80.values.nbytes
        assert self.peak(degrade_random, z_table_1400x80, p, 96) <= bound
        degraded = degrade_random(z_table_1400x80, p, rng=96)
        assert self.peak(degrade_random, degraded, 0.05, 95) <= bound

    def test_generate_traced_peak(self):
        nbytes = 1400 * 80 * 8
        assert self.peak(generate, SynthSpec(rows=1400, cols=80, seed=4242)) <= (
            self.BOUNDS["generate"] * nbytes)


class TestCrariProperties:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), rows=st.integers(8, 40), cols=st.integers(4, 12),
           p=st.floats(0.1, 0.5), zscored=st.booleans(), column_sd=st.sampled_from([0.0, 3.0]),
           share=st.floats(0.01, 0.99))
    @example(seed=8, rows=8, cols=4, p=0.46875, zscored=False, column_sd=0.0, share=0.5)
    # the ICC rises from 0.7296 at c = 0 to 0.7813 at c* and then falls: the
    # target 0.7422 lies above ICC(0) and is met past the peak
    @example(seed=8, rows=30, cols=6, p=0.3, zscored=False, column_sd=3.0, share=0.95)
    def test_reachable_target_attained_exactly(self, seed, rows, cols, p, zscored, column_sd,
                                               share):
        table = _degraded_table(rows, cols, seed, p, zscored, column_sd)
        # tables that anova cannot decompose fail before any target matters
        # (TestCrariUndecomposableTable)
        assume(_decomposes(table))
        try:
            crari_bisect(table, 2.0, rng=seed)
        except UnreachableTargetError as exc:
            low, high = exc.reachable
        assume(low < high)
        assert low == 0.0 and high <= 1.0
        target = share * high
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

    @pytest.mark.parametrize("replications", [0, -1])
    def test_needs_a_replication(self, complete_table, replications):
        with pytest.raises(PreconditionError, match="replication"):
            ari_bias_demo(complete_table, [0.1], replications=replications, rng=1)

    def test_pinned_points(self):
        # recorded before the three studies shared one degradation loop
        assert ari_bias_demo(STUDY_TABLE, STUDY_GRID, replications=10, rng=92) == [
            AriBiasPoint(p=0.0, icc_missing=0.6338197711417559, icc_ari=0.6338197711417559,
                         icc_cor=0.6338197711417559),
            AriBiasPoint(p=0.2, icc_missing=0.5953506743004467, icc_ari=0.7230760863283632,
                         icc_cor=0.6476639742461793),
            AriBiasPoint(p=0.5, icc_missing=0.44402649141358774, icc_ari=0.8076594128530402,
                         icc_cor=0.6115202301553617),
        ]


class TestCrariRecoveryStudy:
    def test_requires_complete_table(self, small_table):
        with pytest.raises(PreconditionError, match="no missing cells"):
            crari_recovery_study(small_table, [0.1], replications=1, rng=1)

    @pytest.mark.parametrize("replications", [0, -1])
    def test_needs_a_replication(self, complete_table, replications):
        with pytest.raises(PreconditionError, match="replication"):
            crari_recovery_study(complete_table, [0.1], replications=replications, rng=1)

    def test_solves_no_f_quantile(self, monkeypatch):
        """The study reads only point estimates, so it asks for no bounds."""
        anova_module = sys.modules["icctab.anova"]
        calls, quantile = [], anova_module.f_quantile
        monkeypatch.setattr(anova_module, "f_quantile",
                            lambda *args: calls.append(args) or quantile(*args))
        crari_recovery_study(STUDY_TABLE, STUDY_GRID, replications=2, rng=95)
        assert calls == []

    def test_equal_item_means(self):
        """A Latin square's item means are equal, so it has point estimates
        but no F bounds; the study needs only the former."""
        square = DataTable(np.array([np.roll(np.arange(8.0), i) for i in range(8)]))
        assert crari_recovery_study(square, [0.2], replications=2, rng=1)[0].icc_exact == 0.0

    def test_pinned_points(self):
        # recorded before the three studies shared one degradation loop
        exact = 0.6338197711417559
        assert crari_recovery_study(STUDY_TABLE, STUDY_GRID, replications=10, rng=95) == [
            RecoveryPoint(p=0.0, icc_missing=exact, icc_cor=exact, icc_imputed=exact,
                          r_item_means=1.0, icc_exact=exact),
            RecoveryPoint(p=0.2, icc_missing=0.5750181662731143, icc_cor=0.6283399741363129,
                          icc_imputed=0.628339974136313, r_item_means=0.9568833019866778,
                          icc_exact=exact),
            RecoveryPoint(p=0.5, icc_missing=0.45316406245908514, icc_cor=0.6198556828422,
                          icc_imputed=0.6198556828422, r_item_means=0.843012543175821,
                          icc_exact=exact),
        ]
