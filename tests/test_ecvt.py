import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icctab import (
    DataTable,
    PreconditionError,
    SynthSpec,
    anova,
    ecvt,
    expected_icc,
    generate,
    zscore,
)
from icctab.ecvt import _chunk_draws, _group_indicator_chunks, default_group_sizes
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
        block = gen.permuted(np.tile(np.arange(n), (7, 1)), axis=1)
        loop = np.array([gen_loop.permutation(n) for _ in range(7)])
        assert np.array_equal(block, loop)
        assert gen.bit_generator.state == gen_loop.bit_generator.state


def _draws(gen, n, g, resamples, rows):
    """Sorted (group A, group B) indices per draw from the chunk helper, resamples x 2 x g."""
    pairs = []
    for block in _group_indicator_chunks(gen, n, g, resamples, rows):
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
            # 2000 rows give chunks of 8 draws, so 50 draws span several
            for block in _group_indicator_chunks(gen, 25, g, 50, 2000):
                assert block.shape[0] == 25 and block.shape[1] % 2 == 0
                assert set(np.unique(block)) <= {0.0, 1.0}
                in_a, in_b = np.split(block, 2, axis=1)
                assert (in_a.sum(axis=0) == g).all() and (in_b.sum(axis=0) == g).all()
                assert not (in_a * in_b).any()
                sizes.append(in_a.shape[1])
            assert sum(sizes) == 50 and sizes[0] == _chunk_draws(2000) < 50

    def test_reproducible(self):
        a = _draws(as_generator(9), 12, 4, 30, 12)
        assert a.shape == (30, 2, 4)
        assert np.array_equal(a, _draws(as_generator(9), 12, 4, 30, 12))

    @pytest.mark.parametrize("n, g, rows", [(16, 3, 16), (25, 12, 700)])
    def test_chunk_boundary_matches_per_draw_oracle(self, n, g, rows):
        resamples = _chunk_draws(rows) + 1
        gen, gen_loop = as_generator(13), as_generator(13)
        loop = [np.sort(disjoint_groups(gen_loop, n, g)) for _ in range(resamples)]
        assert np.array_equal(_draws(gen, n, g, resamples, rows), np.array(loop))
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


class TestEcvtDegenerate:
    def test_identical_columns_drop_all_terms(self):
        report = ecvt(IDENTICAL_COLUMNS, resamples=20, rng=31)
        assert report.df == 0
        assert report.p_value == 1.0
        assert report.compatible
        assert report.warnings
        assert (report.observed_mean_r == 1.0).all()
        assert (report.predicted_r == 1.0).all()


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
            resamples = _chunk_draws(table.cols) + 1
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


class TestShiftScaleInvariance:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), shift=st.sampled_from([0.0, 1e3]),
           scale=st.floats(1e-3, 1e3))
    def test_observed_mean_r_unchanged(self, seed, shift, scale):
        raw, _ = generate(SynthSpec(rows=40, cols=12, seed=seed))
        base = ecvt(raw, resamples=30, rng=seed)
        moved = ecvt(DataTable(raw.values * scale + shift), resamples=30, rng=seed)
        assert moved.observed_mean_r == pytest.approx(base.observed_mean_r, abs=1e-9)
