import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icctab import (
    DataTable,
    NumericError,
    PreconditionError,
    SynthSpec,
    anova,
    ecvt,
    expected_icc,
    generate,
    zscore,
)
from icctab.ecvt import (
    _CHUNK_BYTES,
    _chunk_draws,
    _gram_correlations,
    _group_indicator_chunks,
    default_group_sizes,
)
from icctab.rand import as_generator
from oracles import disjoint_groups, ecvt_loop

IDENTICAL_COLUMNS = DataTable(np.tile(np.array([1.0, 5.0, 2.0, 8.0, 3.0, 9.0])[:, None], (1, 8)))
ORACLE_TABLE = zscore(generate(SynthSpec(rows=50, cols=16, severity=1.0, seed=71))[0])


class TestDefaultGroupSizes:
    def test_eighty_participants(self):
        assert default_group_sizes(80) == (1, 2, 4, 8, 16, 32, 40)

    def test_power_of_two_half(self):
        assert default_group_sizes(64) == (1, 2, 4, 8, 16, 32)

    def test_tiny(self):
        assert default_group_sizes(6) == (1, 2, 3)


class TestNumpyStreamIdentity:
    """The batched draws rest on ``permuted`` reproducing ``permutation``.

    A numpy release that changes either routine must fail here instead of
    silently changing every seeded ECVT, curve and ``virtualize`` report.
    """

    @pytest.mark.parametrize("n", [2, 3, 80, 240])
    @pytest.mark.parametrize("warm", [0, 3], ids=["fresh", "odd-uint32"])
    def test_permuted_rows_equal_successive_permutations(self, n, warm):
        gen, gen_loop = np.random.default_rng(41), np.random.default_rng(41)
        for each in (gen, gen_loop):
            each.integers(0, 2**32, size=warm, dtype=np.uint32)
        # as ``virtualize`` draws: a new block and no out buffer
        block = gen.permuted(np.tile(np.arange(n), (7, 1)), axis=1)
        loop = np.array([gen_loop.permutation(n) for _ in range(7)])
        assert np.array_equal(block, loop)
        assert gen.bit_generator.state == gen_loop.bit_generator.state
        # as ``_group_indicator_chunks`` draws: one order and one out buffer
        # for every chunk, the last chunk shorter, the buffer overwritten
        # between calls
        order = np.tile(np.arange(n), (7, 1))
        draws = np.empty_like(order)
        for size in (7, 7, 3):
            gen.permuted(order[:size], axis=1, out=draws[:size])
            loop = np.array([gen_loop.permutation(n) for _ in range(size)])
            assert np.array_equal(draws[:size], loop)
            assert gen.bit_generator.state == gen_loop.bit_generator.state
            draws[:size, : n // 2] *= 3
        assert np.array_equal(order, np.tile(np.arange(n), (7, 1)))


def _draws(gen, n, g, resamples, draw_bytes):
    """Sorted (group A, group B) indices per draw from the chunk helper, resamples x 2 x g."""
    pairs = []
    for block in _group_indicator_chunks(gen, n, g, resamples, draw_bytes):
        in_a, in_b = np.split(block, 2, axis=1)
        pairs += [(np.flatnonzero(a), np.flatnonzero(b)) for a, b in zip(in_a.T, in_b.T)]
    return np.array(pairs)


class TestDisjointGroups:
    """The chunked group-indicator draws shared by ``ecvt`` and the r2/ICC curve."""

    def test_groups_never_share_a_participant(self):
        # group A fills the first half of a chunk's columns, group B the second
        gen = as_generator(5)
        for g in (1, 3, 10, 12):
            sizes = []
            # an eighth of the budget per draw gives chunks of 8, so 50 draws span several
            for block in _group_indicator_chunks(gen, 25, g, 50, _CHUNK_BYTES // 8):
                assert block.shape[0] == 25 and block.shape[1] % 2 == 0
                assert set(np.unique(block)) <= {0.0, 1.0}
                in_a, in_b = np.split(block, 2, axis=1)
                assert (in_a.sum(axis=0) == g).all() and (in_b.sum(axis=0) == g).all()
                assert not (in_a * in_b).any()
                sizes.append(in_a.shape[1])
            assert sum(sizes) == 50 and sizes[0] == _chunk_draws(_CHUNK_BYTES // 8) == 8

    def test_reproducible(self):
        a = _draws(as_generator(9), 12, 4, 30, 12)
        assert a.shape == (30, 2, 4)
        assert np.array_equal(a, _draws(as_generator(9), 12, 4, 30, 12))

    @pytest.mark.parametrize("n, g, rows", [(16, 3, 16), (25, 12, 700)])
    def test_chunk_boundary_matches_per_draw_oracle(self, n, g, rows):
        # a caller holding one float64 column of ``rows`` per draw
        resamples = _chunk_draws(8 * rows) + 1
        gen, gen_loop = as_generator(13), as_generator(13)
        loop = [np.sort(disjoint_groups(gen_loop, n, g)) for _ in range(resamples)]
        assert np.array_equal(_draws(gen, n, g, resamples, 8 * rows), np.array(loop))
        assert gen.bit_generator.state == gen_loop.bit_generator.state


class TestEcvtPreconditions:
    def test_missing_cells_instruct_imputation(self, small_table):
        with pytest.raises(PreconditionError, match="impute"):
            ecvt(small_table)

    def test_oversized_groups(self, complete_table):
        with pytest.raises(PreconditionError, match="disjoint"):
            ecvt(complete_table, group_sizes=[3])

    def test_bad_group_list(self, complete_table):
        with pytest.raises(PreconditionError):
            ecvt(complete_table, group_sizes=[0, 2])

    # truncating [2.7, True] would run sizes (2, 1) without a word
    @pytest.mark.parametrize("sizes", [[1.5], [2.7, True], [True], [np.True_, 1]],
                             ids=["fraction", "fraction-and-bool", "bool", "numpy-bool"])
    def test_non_integral_or_bool_sizes_rejected(self, complete_table, sizes):
        with pytest.raises(PreconditionError, match="positive integers"):
            ecvt(complete_table, group_sizes=sizes)

    def test_empty_group_list(self, complete_table):
        with pytest.raises(PreconditionError, match="positive"):
            ecvt(complete_table, group_sizes=[])

    def test_one_resample_rejected(self, complete_table):
        with pytest.raises(PreconditionError, match="at least 2 resamples"):
            ecvt(complete_table, resamples=1, rng=1)

    # 7 was always incompatible, a negative alpha always compatible and NaN
    # always incompatible
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 7.0, -0.1, math.nan])
    def test_alpha_outside_unit_interval_rejected(self, complete_table, alpha):
        with pytest.raises(PreconditionError, match=r"alpha must lie in \(0, 1\)"):
            ecvt(complete_table, resamples=10, alpha=alpha, rng=1)

    def test_integral_sizes_of_any_number_type_accepted(self, complete_table):
        report = ecvt(complete_table, group_sizes=[np.int64(1), 2.0], resamples=10, rng=1)
        assert report.group_sizes == (1, 2)
        assert all(type(g) is int for g in report.group_sizes)


class TestEcvtClassification:
    def test_additive_table_judged_compatible(self):
        raw, _ = generate(SynthSpec(rows=600, cols=40, item_sd=0.7, seed=21))
        report = ecvt(zscore(raw), resamples=200, rng=22)
        assert report.compatible
        assert report.df == len(report.group_sizes)

    def test_violating_table_judged_incompatible(self):
        raw, _ = generate(SynthSpec(rows=1400, cols=80, item_sd=0.7, severity=2.0, seed=23))
        report = ecvt(zscore(raw), resamples=600, rng=24)
        assert not report.compatible
        assert report.p_value < 0.01

    def test_predicted_curve_increases_with_group_size(self):
        raw, _ = generate(SynthSpec(rows=300, cols=24, seed=25))
        report = ecvt(raw, resamples=50, rng=26)
        assert (np.diff(report.predicted_r) > 0).all()
        assert report.predicted_r[0] == pytest.approx(
            expected_icc(anova(raw).vi / anova(raw).vij, 1)
        )

    def test_observed_tracks_predicted_under_model(self):
        raw, _ = generate(SynthSpec(rows=1400, cols=80, seed=27))
        report = ecvt(zscore(raw), resamples=200, rng=28)
        for k in range(len(report.group_sizes)):
            margin = 3.0 * report.observed_sd_r[k] / math.sqrt(200)
            assert abs(report.observed_mean_r[k] - report.predicted_r[k]) <= margin

    def test_correlations_bounded(self):
        raw, _ = generate(SynthSpec(rows=200, cols=16, seed=29))
        report = ecvt(raw, resamples=100, rng=30)
        assert (np.abs(report.observed_mean_r) <= 1).all()
        assert (report.observed_sd_r >= 0).all()


def rounding_constant_pair(seed: int, shift: float = 0.0) -> DataTable:
    """30 x 4 table whose participants 0 and 1 sum to 0.7 on every item, so
    the item means of the group {0, 1} are constant up to one ulp (of the
    shifted values, once ``shift`` is added to every cell)."""
    v = np.random.default_rng(seed).normal(size=(30, 4))
    v[:, 0] = v[:, 0] * 0.37 + 0.1
    v[:, 1] = 0.7 - v[:, 0]
    return DataTable(v + shift)


def noise_free_table(seed: int) -> DataTable:
    """60 x 12 additive table without noise: item values plus column offsets."""
    gen = np.random.default_rng(seed)
    items = gen.normal(size=60)
    offsets = gen.normal(size=12) * 3
    return DataTable(items[:, None] + offsets[None, :])


class TestEcvtDegenerate:
    def test_identical_columns_drop_all_terms(self):
        report = ecvt(IDENTICAL_COLUMNS, resamples=20, rng=31)
        assert report.df == 0
        assert report.p_value == 1.0
        assert report.compatible
        assert report.warnings
        assert (report.observed_mean_r == 1.0).all()
        assert (report.predicted_r == 1.0).all()

    def test_constant_item_means_of_a_group_raise(self):
        # no two columns are identical, but participants 1 and 4 (as 2 and
        # 3) average to 2.5 on every item, so the correlation is undefined
        table = DataTable(np.array([[1.0, 2, 3, 4], [4, 3, 2, 1], [2, 2, 3, 3], [3, 3, 2, 2]]))
        with pytest.raises(NumericError, match="group size 2: undefined correlation, because "
                                               "the item means of a drawn group are constant"):
            ecvt(table, group_sizes=[1, 2], resamples=5, rng=0)

    def test_a_group_constant_to_rounding_gives_nan(self):
        block = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        for shift in (0.0, 1e10, 1e12):
            for seed in range(200):
                values = rounding_constant_pair(seed, shift).values
                centered = values - values.mean(axis=0)
                peak = np.abs(values).max()
                rs = _gram_correlations(centered.T @ centered, block, 30, 2, peak)
                assert np.isnan(rs).all(), (shift, seed)

    def test_item_means_constant_to_rounding_raise(self):
        for shift in (0.0, 1e8, 1e10, 1e12):
            for seed in range(40):
                with pytest.raises(NumericError, match="item means of a drawn group are constant"):
                    ecvt(rounding_constant_pair(seed, shift), group_sizes=(2,), resamples=50,
                         rng=seed)

    def test_noise_free_tables_are_compatible(self):
        # every correlation is 1 up to rounding, so every group size is dropped
        # as constant
        for seed in range(40):
            report = ecvt(noise_free_table(100 + seed), resamples=50, rng=seed)
            assert report.compatible, seed
            assert report.df == 0
            assert report.observed_sd_r == pytest.approx(0.0, abs=1e-15)


class TestPredictionFromGram:
    """The prediction comes from the moments of the participant Gram matrix."""

    @pytest.mark.parametrize("rows, cols, seeds", [(30, 4, 10), (60, 12, 10), (200, 20, 5),
                                                   (1400, 80, 5)])
    def test_equals_the_anova_variance_ratio(self, rows, cols, seeds):
        # raw tables with column offsets and their z-scored copies
        for seed in range(seeds):
            raw, _ = generate(SynthSpec(rows, cols, item_sd=0.7, seed=seed))
            offsets = np.random.default_rng(seed).normal(size=cols) * 5
            raw = DataTable(raw.values + offsets)
            for table in (raw, zscore(raw)):
                report = ecvt(table, resamples=2, rng=seed)
                q = anova(table).q
                expected = [expected_icc(q, g) for g in report.group_sizes]
                assert report.predicted_r == pytest.approx(expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize("shift", [1e7, 1e8])
    def test_an_added_constant_keeps_the_report(self, shift):
        # ``ΣG`` and ``tr G`` come from column-centred values, so the offset
        # costs no digits of ``q̂``
        table = zscore(generate(SynthSpec(200, 20, item_sd=0.7, seed=1))[0])
        base = ecvt(table, resamples=200, rng=3)
        shifted = ecvt(DataTable(table.values + shift), resamples=200, rng=3)
        assert shifted.verdict == base.verdict == "compatible"
        assert shifted.df == base.df
        assert shifted.chi2 == pytest.approx(base.chi2, rel=1e-7)
        assert shifted.p_value == pytest.approx(base.p_value, rel=1e-7)
        for field in ("predicted_r", "observed_mean_r", "observed_sd_r"):
            assert getattr(shifted, field) == pytest.approx(getattr(base, field), rel=1e-8)


class TestEcvtReproducibility:
    def test_same_seed_same_report(self, z_table_1400x80):
        a = ecvt(z_table_1400x80, group_sizes=[2, 8], resamples=50, rng=32)
        b = ecvt(z_table_1400x80, group_sizes=[2, 8], resamples=50, rng=32)
        assert a.chi2 == b.chi2
        assert a.p_value == b.p_value
        assert np.array_equal(a.observed_mean_r, b.observed_mean_r)


class TestBatchedMatchesLoop:
    """The chunked Gram-matrix kernel against the draw-by-draw loop."""

    @pytest.mark.parametrize("table, sizes, resamples", [
        (ORACLE_TABLE, None, 2),
        (ORACLE_TABLE, None, 37),
        (ORACLE_TABLE, (3,), "chunk + 1"),
        (IDENTICAL_COLUMNS, None, 37),
        (IDENTICAL_COLUMNS, (2,), "chunk + 1"),
    ])
    def test_same_statistics_for_same_seed(self, table, sizes, resamples):
        if resamples == "chunk + 1":
            resamples = _chunk_draws(48 * table.cols) + 1  # ecvt's bytes per draw
        report = ecvt(table, group_sizes=sizes, resamples=resamples, rng=72)
        loop = ecvt_loop(table, group_sizes=sizes, resamples=resamples, rng=72)
        assert report.df == loop["df"]
        assert report.observed_mean_r == pytest.approx(loop["observed_mean_r"], abs=1e-12)
        assert report.observed_sd_r == pytest.approx(loop["observed_sd_r"], abs=1e-12)
        assert report.chi2 == pytest.approx(loop["chi2"], rel=1e-12, abs=1e-12)
        assert report.p_value == pytest.approx(loop["p_value"], rel=1e-12, abs=1e-12)
        if table is IDENTICAL_COLUMNS:
            assert report.df == 0
            assert (report.observed_mean_r == 1.0).all()


class TestEcvtPowerShape:
    """The chunked kernel at the ecvt-power benchmark's 1400 x 80 shape."""

    # one draw short of a chunk, one more draw, two chunks and one draw; a
    # block not zeroed between chunks keeps the first chunk's marks, gives
    # groups larger than g and fails the per-draw loop; g = 40 is half the
    # participants
    def test_chunk_boundaries_match_loop(self, z_table_1400x80):
        chunk = _chunk_draws(48 * z_table_1400x80.cols)  # ecvt's bytes per draw
        for resamples in (chunk - 1, chunk + 1, 2 * chunk + 1):
            report = ecvt(z_table_1400x80, group_sizes=(1, 40), resamples=resamples, rng=73)
            loop = ecvt_loop(z_table_1400x80, group_sizes=(1, 40), resamples=resamples, rng=73)
            assert report.observed_mean_r == pytest.approx(loop["observed_mean_r"], abs=1e-12)
            assert report.observed_sd_r == pytest.approx(loop["observed_sd_r"], abs=1e-12)
            assert report.chi2 == pytest.approx(loop["chi2"], rel=1e-12, abs=1e-12)

    # the traced peak of this call was 1 929 640 bytes (1.84 MiB) while
    # ``anova`` squared into a fresh table; with the square taken in place it
    # is 1 402 158 (1.337 MiB), set by the chunk loop.  The margin (0.05 MiB)
    # is the curve memory test's
    PEAK_BOUND = 1.387 * 2**20

    def test_traced_peak(self, z_table_1400x80):
        tracemalloc.start()
        try:
            ecvt(z_table_1400x80, resamples=1000, rng=74)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.PEAK_BOUND

    # the chunk loop is traced alone too, under a bound of its own (once
    # ``anova``'s temporaries set the whole call's peak).  Before the draw
    # buffers were reused its peak was
    # 1 389 806 bytes (1.33 MiB) for either size, now 1 340 499 (1.28 MiB);
    # a product temporary per column sum reaches 1 665 990, a block zeroed
    # afresh each chunk 1 448 592 at g = 40
    LOOP_PEAK_BOUND = 1.34 * 2**20

    @pytest.mark.parametrize("g", [1, 40])
    def test_chunk_loop_traced_peak(self, z_table_1400x80, g):
        centered = z_table_1400x80.values - z_table_1400x80.values.mean(axis=0)
        gram = centered.T @ centered
        n = z_table_1400x80.cols
        largest = np.abs(z_table_1400x80.values).max()
        gen = as_generator(74)
        tracemalloc.start()
        try:
            for block in _group_indicator_chunks(gen, n, g, 1000, 48 * n):
                _gram_correlations(gram, block, z_table_1400x80.rows, g, largest)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.LOOP_PEAK_BOUND


class TestShiftScaleInvariance:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), shift=st.sampled_from([0.0, 1e3]),
           scale=st.floats(1e-3, 1e3))
    def test_observed_mean_r_unchanged(self, seed, shift, scale):
        raw, _ = generate(SynthSpec(rows=40, cols=12, seed=seed))
        base = ecvt(raw, resamples=30, rng=seed)
        moved = ecvt(DataTable(raw.values * scale + shift), resamples=30, rng=seed)
        assert moved.observed_mean_r == pytest.approx(base.observed_mean_r, abs=1e-9)
