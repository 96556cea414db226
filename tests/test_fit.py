import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icctab import (
    DataTable,
    NumericError,
    PreconditionError,
    R2BiasPoint,
    StructuralError,
    SynthSpec,
    corrected_r2,
    degrade_random,
    fit_predictors,
    generate,
    icc_report,
    r2cor_bias_demo,
    r2_icc_curve,
    zscore,
)
from icctab.ecvt import _chunk_draws
from icctab.rand import as_generator
from oracles import r2_icc_curve_loop


class TestCorrectedR2:
    def test_published_transcript_values(self):
        ratio, cor = corrected_r2([0.1337, 0.0592], icc=0.9261, icc_cor=0.9286)
        assert ratio == pytest.approx([0.1443, 0.0639], abs=5e-4)
        assert cor == pytest.approx([0.1340, 0.0593], abs=5e-4)

    def test_identity(self):
        ratio, cor = corrected_r2(0.4, icc=0.8, icc_cor=0.9)
        assert cor == pytest.approx(0.9 * 0.4 / 0.8, abs=1e-15)

    def test_undefined_at_zero_icc(self):
        ratio, cor = corrected_r2([0.3, 0.0], icc=0.0, icc_cor=0.0)
        assert np.isnan(ratio).all() and np.isnan(cor).all()


@pytest.fixture(scope="module")
def table_and_predictor():
    raw, truth = generate(SynthSpec(rows=400, cols=30, seed=41))
    degraded = degrade_random(raw, 0.15, rng=42)
    gen = as_generator(43)
    predictor = truth.item_effects + gen.normal(0, 0.3, size=400)
    return degraded, predictor


class TestFitPredictors:
    def test_eq_identity_holds_exactly(self, table_and_predictor):
        table, predictor = table_and_predictor
        fit = fit_predictors(table, predictor)
        rep = fit.icc_context
        assert fit.r2_cor[0] == pytest.approx(
            rep.icc_cor * fit.r2[0] / rep.icc, abs=1e-12
        )
        assert 0.0 <= fit.r2[0] <= 1.0

    def test_item_means_predictor_is_perfect(self, table_and_predictor):
        table, _ = table_and_predictor
        rep = icc_report(table)
        fit = fit_predictors(table, rep.item_means)
        assert fit.r2[0] == pytest.approx(1.0, abs=1e-12)
        assert fit.r2_on_icc[0] == pytest.approx(1.0 / rep.icc, abs=1e-12)
        assert fit.r2_cor[0] == pytest.approx(rep.icc_cor / rep.icc, abs=1e-12)

    def test_complete_table_needs_no_correction(self):
        raw, truth = generate(SynthSpec(rows=200, cols=20, seed=44))
        fit = fit_predictors(raw, truth.item_effects)
        assert fit.r2_cor[0] == pytest.approx(fit.r2[0], abs=1e-12)

    def test_affine_scale_invariance(self, table_and_predictor):
        table, predictor = table_and_predictor
        base = fit_predictors(table, predictor)
        scaled = fit_predictors(table, -3.5 * predictor + 11.0)
        assert scaled.r2[0] == pytest.approx(base.r2[0], abs=1e-12)
        assert scaled.r2_cor[0] == pytest.approx(base.r2_cor[0], abs=1e-12)

    def test_multiple_predictors(self, table_and_predictor):
        table, predictor = table_and_predictor
        gen = as_generator(45)
        other = gen.normal(0, 1, size=table.rows)
        fit = fit_predictors(table, np.column_stack([predictor, other]))
        assert fit.r2.shape == (2,)
        assert fit.r2[0] > fit.r2[1]

    def test_constant_predictor_rejected(self, table_and_predictor):
        table, _ = table_and_predictor
        with pytest.raises(NumericError, match="constant"):
            fit_predictors(table, np.ones(table.rows))
        # constant to rounding: 0.1 and the next float up
        one_ulp = np.resize([0.1, np.nextafter(0.1, 1.0)], table.rows)
        with pytest.raises(NumericError, match=r"constant predictor column\(s\): \[2\]"):
            fit_predictors(table, np.column_stack([np.arange(table.rows), one_ulp]))

    def test_accepted_predictor_never_gives_nan(self, table_and_predictor):
        # near-constant predictors either raise or give a defined r2: the
        # item means vary, so a NaN r2 could only come from the predictor
        table, _ = table_and_predictor
        gen = np.random.default_rng(49)
        outcomes = set()
        for _ in range(300):
            value = 10.0 ** gen.uniform(-8, 8)
            spread = 10.0 ** gen.uniform(-17, -11)
            predictor = value * (1.0 + spread * gen.normal(size=table.rows))
            try:
                fit = fit_predictors(table, predictor, conf_probs=())
            except NumericError as exc:
                assert "constant predictor" in str(exc)
                outcomes.add("raised")
            else:
                assert np.isfinite(fit.r2).all(), (value, spread)
                outcomes.add("fitted")
        assert outcomes == {"raised", "fitted"}

    def test_shape_mismatch_rejected(self, table_and_predictor):
        table, _ = table_and_predictor
        with pytest.raises(StructuralError, match="rows"):
            fit_predictors(table, np.arange(10.0))
        with pytest.raises(StructuralError, match="predictor must have 400 values, got 10"):
            r2_icc_curve(table, np.arange(10.0), [2], rng=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_predictor_rejected(self, table_and_predictor, bad):
        table, predictor = table_and_predictor
        predictors = np.column_stack([predictor, predictor, predictor])
        predictors[3, 1] = predictors[7, 2] = bad
        with pytest.raises(StructuralError,
                           match=r"non-finite predictor value\(s\) in column\(s\): \[2, 3\]"):
            fit_predictors(table, predictors)
        with pytest.raises(StructuralError,
                           match=r"non-finite predictor value\(s\) in column\(s\): \[1\]"):
            r2_icc_curve(table, predictors[:, 1], [2], rng=1)

    def test_column_effect_warning_propagates(self):
        raw, truth = generate(SynthSpec(rows=200, cols=12, item_sd=0.2, seed=46))
        offsets = np.random.default_rng(47).normal(0, 3, size=12)
        degraded = degrade_random(DataTable(raw.values + offsets), 0.2, rng=48)
        fit = fit_predictors(degraded, truth.item_effects)
        assert fit.warnings == fit.icc_context.warnings == (
            "non-negligible column effect: corrected statistics unreliable",)

    def test_zero_icc_warns_instead_of_dividing(self):
        # item means vary less than the interaction allows: the ICC is clamped at 0
        table = DataTable(np.array([[1.0, 2.0, 3.1], [3.0, 2.0, 1.0],
                                    [2.0, 3.0, 1.0], [1.0, 3.0, 2.0]]))
        fit = fit_predictors(table, np.arange(4.0))
        assert fit.icc_context.icc == 0.0
        assert 0.0 < fit.r2[0] <= 1.0
        assert np.isnan(fit.r2_on_icc[0]) and np.isnan(fit.r2_cor[0])
        assert fit.warnings == ("ICC is 0: r2/ICC and r2_cor are undefined (nan)",)


class TestR2IccCurve:
    def test_ratio_flat_under_additive_model(self):
        raw, truth = generate(SynthSpec(rows=1400, cols=80, seed=51))
        zt = zscore(raw)
        gen = as_generator(52)
        predictor = truth.item_effects + gen.normal(0, 0.25, size=1400)
        points = r2_icc_curve(zt, predictor, group_sizes=[2, 4, 8, 16], resamples=200, rng=53)
        ratios = [pt.ratio for pt in points]
        assert max(ratios) - min(ratios) <= 0.04
        assert all(pt.excluded == 0 for pt in points)

    def test_independent_predictor_scores_zero(self):
        raw, _ = generate(SynthSpec(rows=1000, cols=40, seed=54))
        gen = as_generator(55)
        noise_pred = gen.normal(0, 1, size=1000)
        points = r2_icc_curve(raw, noise_pred, group_sizes=[4, 16], resamples=100, rng=56)
        for pt in points:
            assert pt.r2 < 0.01
            assert pt.ratio < 0.05

    def test_perfect_predictor_noise_free_table(self):
        gen = as_generator(57)
        effects = gen.normal(0, 1, size=50)
        table = DataTable(np.tile(effects[:, None], (1, 12)))
        points = r2_icc_curve(table, effects, group_sizes=[1, 2, 4], resamples=20, rng=58)
        for pt in points:
            assert pt.icc == pytest.approx(1.0)
            assert pt.ratio == pytest.approx(1.0)

    def test_exclusions_reported_for_sparse_rows(self):
        raw, truth = generate(SynthSpec(rows=300, cols=20, seed=59))
        degraded = degrade_random(raw, 0.5, rng=60)
        points = r2_icc_curve(degraded, truth.item_effects, group_sizes=[2], resamples=50, rng=61)
        assert points[0].excluded > 0

    def test_oversized_group_rejected(self, complete_table):
        with pytest.raises(PreconditionError):
            r2_icc_curve(complete_table, np.arange(5.0), group_sizes=[3], rng=1)

    @pytest.mark.parametrize("sizes, resamples, match", [
        ([], 200, "positive"),
        ([0], 200, "positive"),
        ([-1], 200, "positive"),
        ([1.9], 200, "positive integers"),
        ([True], 200, "positive integers"),
        ([1], 0, "resample"),
    ], ids=["no-size", "zero-size", "negative-size", "fraction", "bool", "zero-resamples"])
    def test_bad_arguments_rejected(self, complete_table, sizes, resamples, match):
        with pytest.raises(PreconditionError, match=match):
            r2_icc_curve(complete_table, np.arange(5.0), sizes, resamples=resamples, rng=1)


def curve_chunk(table) -> int:
    """Draws per chunk of ``r2_icc_curve`` on ``table``: its bytes per draw are
    56 per item and 40 per participant."""
    return _chunk_draws(56 * table.rows + 40 * table.cols)


@pytest.fixture(scope="module")
def ecvt_power_table():
    """The ecvt-power benchmark's table shape and missing share, and a predictor."""
    raw, truth = generate(SynthSpec(rows=1400, cols=80, seed=84))
    return degrade_random(raw, 0.16, rng=85), truth.item_effects


class TestR2IccCurveMatchesLoop:
    """The chunked GEMM kernel against the draw-by-draw loop."""

    @pytest.mark.parametrize("p_missing", [0.0, 0.5])
    @pytest.mark.parametrize("resamples", [2, 37, "chunk + 1"])
    def test_same_points_for_same_seed(self, p_missing, resamples):
        raw, truth = generate(SynthSpec(rows=120, cols=16, seed=81))
        table = degrade_random(raw, p_missing, rng=82)
        if resamples == "chunk + 1":
            resamples = curve_chunk(table) + 1
        sizes = (1, 2, 5, 8)
        points = self.check(table, truth.item_effects, sizes, resamples, rng=83)
        if p_missing:
            assert points[0].excluded > 0

    def test_ecvt_power_shape(self, ecvt_power_table):
        # one draw short of a chunk, one chunk, one more draw, two chunks and
        # one draw; g = 40 is half the participants
        table, predictor = ecvt_power_table
        chunk = curve_chunk(table)
        for resamples in (chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
            points = self.check(table, predictor, (1, 8, 40), resamples, rng=86)
            assert points[0].excluded > 0

    @staticmethod
    def check(table, predictor, sizes, resamples, rng):
        points = r2_icc_curve(table, predictor, sizes, resamples=resamples, rng=rng)
        loop = r2_icc_curve_loop(table, predictor, sizes, resamples=resamples, rng=rng)
        for point, (g, icc, r2, ratio, excluded) in zip(points, loop, strict=True):
            assert point.g == g
            assert point.icc == pytest.approx(icc, abs=1e-12)
            assert point.r2 == pytest.approx(r2, abs=1e-12)
            assert point.ratio == pytest.approx(ratio, abs=1e-12)
            assert point.excluded == excluded
        return points


class TestR2IccCurveMemory:
    # the traced peak of this curve under the previous chunk rule (11 draws
    # of separately allocated blocks) was 2 797 956 bytes, 2.67 MiB; one more
    # draw per chunk now adds about 80 kB
    PEAK_BOUND = 2.7 * 2**20

    def test_ecvt_power_curve_peak(self, ecvt_power_table):
        table, predictor = ecvt_power_table
        tracemalloc.start()
        try:
            r2_icc_curve(table, predictor, (1, 2, 4, 8, 16, 32, 40), resamples=200, rng=87)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.PEAK_BOUND


class TestR2IccCurveShiftScale:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), shift=st.sampled_from([0.0, 1e3]),
           scale=st.floats(1e-3, 1e3))
    def test_icc_unchanged(self, seed, shift, scale):
        raw, truth = generate(SynthSpec(rows=60, cols=12, seed=seed))
        table = degrade_random(raw, 0.3, rng=seed)
        moved = DataTable(table.values * scale + shift)
        # an affine map of the predictor leaves its squared correlations alone
        moved_pred = -scale * truth.item_effects + shift
        base = r2_icc_curve(table, truth.item_effects, (1, 3), resamples=20, rng=seed)
        after = r2_icc_curve(moved, moved_pred, (1, 3), resamples=20, rng=seed)
        for a, b in zip(base, after, strict=True):
            assert b.icc == pytest.approx(a.icc, abs=1e-9)
            assert b.r2 == pytest.approx(a.r2, abs=1e-9)
            assert b.ratio == pytest.approx(a.ratio, abs=1e-9)


class TestR2IccCurveMomentSums:
    """Edges of the one-pass moment sums that the draw-by-draw loop never meets."""

    def test_shifted_and_scaled_table_matches_loop_on_the_original(self):
        raw, truth = generate(SynthSpec(rows=120, cols=16, seed=87))
        table = degrade_random(raw, 0.3, rng=88)
        moved = DataTable((table.values + 1e6) * 1e-3)
        moved_pred = 250.0 * truth.item_effects - 1e6
        sizes = (1, 2, 5, 8)
        points = r2_icc_curve(moved, moved_pred, sizes, resamples=37, rng=89)
        loop = r2_icc_curve_loop(table, truth.item_effects, sizes, resamples=37, rng=89)
        for point, (g, icc, r2, ratio, excluded) in zip(points, loop, strict=True):
            assert point.icc == pytest.approx(icc, abs=1e-9)
            assert point.r2 == pytest.approx(r2, abs=1e-9)
            assert point.ratio == pytest.approx(ratio, abs=1e-9)
            assert point.excluded == excluded

    @pytest.mark.parametrize("offset", [0.0, 0.1, 1e3, 1e6])
    @pytest.mark.parametrize("p_missing", [0.0, 0.3])
    def test_constant_item_means_give_nan(self, offset, p_missing):
        # every participant gives one value to all items, so a group's item
        # means are one constant (with missing cells, only a group of one's);
        # the rounding residue of Σx² − (Σx)²/n must not pass for a spread
        gen = as_generator(90)
        columns = offset + gen.normal(0, 1, size=24)
        table = degrade_random(DataTable(np.tile(columns, (300, 1))), p_missing, rng=91)
        predictor = gen.normal(size=300)
        sizes = (1, 3, 12) if p_missing == 0.0 else (1,)
        # one draw per call: a mean over draws is NaN as soon as one draw is
        for seed in range(16):
            for point in r2_icc_curve(table, predictor, sizes, resamples=1, rng=seed):
                assert np.isnan(point.icc) and np.isnan(point.r2)

    def test_excluded_counts_equal_the_loop_at_half_missing(self):
        raw, truth = generate(SynthSpec(rows=300, cols=40, seed=93))
        table = degrade_random(raw, 0.5, rng=94)
        sizes = (1, 3, 20)
        resamples = 2 * curve_chunk(table) + 1
        points = r2_icc_curve(table, truth.item_effects, sizes, resamples=resamples, rng=95)
        loop = r2_icc_curve_loop(table, truth.item_effects, sizes, resamples=resamples,
                                 rng=95)
        assert [point.excluded for point in points] == [row[4] for row in loop]
        assert points[0].excluded > 0


class TestR2CorBiasDemo:
    def test_zero_proportion_coincides(self):
        raw, truth = generate(SynthSpec(rows=300, cols=25, seed=62))
        point = r2cor_bias_demo(raw, truth.item_effects, [0.0], replications=2, rng=63)[0]
        assert point.r2_observed == pytest.approx(point.r2_exact)
        assert point.r2_cor == pytest.approx(point.r2_exact)

    def test_requires_complete_table(self, small_table):
        with pytest.raises(PreconditionError):
            r2cor_bias_demo(small_table, np.arange(4.0), [0.1], replications=1, rng=1)

    @pytest.mark.parametrize("replications", [0, -1])
    def test_needs_a_replication(self, complete_table, replications):
        with pytest.raises(PreconditionError, match="replication"):
            r2cor_bias_demo(complete_table, np.arange(5.0), [0.1], replications=replications,
                            rng=1)

    def test_pinned_points(self):
        # recorded before the three studies shared one degradation loop
        raw, truth = generate(SynthSpec(rows=60, cols=10, seed=91))
        predictor = truth.item_effects + np.random.default_rng(93).normal(0, 0.25, size=60)
        exact = 0.4788077661539857
        assert r2cor_bias_demo(zscore(raw), predictor, [0.0, 0.2, 0.5], replications=10,
                               rng=94) == [
            R2BiasPoint(p=0.0, r2_observed=0.4788077661539856, r2_cor=0.4788077661539856,
                        r2_exact=exact, dropped=0),
            R2BiasPoint(p=0.2, r2_observed=0.45133960938365936, r2_cor=0.49270415057438166,
                        r2_exact=exact, dropped=0),
            R2BiasPoint(p=0.5, r2_observed=0.31314187318008513, r2_cor=0.4250001844569091,
                        r2_exact=exact, dropped=0),
        ]

    def test_correction_beats_observed_under_degradation(self):
        raw, truth = generate(SynthSpec(rows=1000, cols=40, item_sd=0.3, seed=64))
        zt = zscore(raw)
        gen = as_generator(65)
        predictor = truth.item_effects + gen.normal(0, 0.25, size=1000)
        point = r2cor_bias_demo(zt, predictor, [0.3], replications=5, rng=66)[0]
        assert abs(point.r2_cor - point.r2_exact) < abs(point.r2_observed - point.r2_exact)
        assert point.r2_observed < point.r2_exact
