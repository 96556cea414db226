import math

import numpy as np
import pytest

from icctab import (
    DataTable,
    PreconditionError,
    StructuralError,
    SynthSpec,
    alpha_cdf,
    degrade_random,
    generate,
    icc_report,
)
from icctab.synth import _signed_power
from icctab.table import _row_blocks


class TestGenerate:
    def test_zero_severity_is_additive(self):
        spec = SynthSpec(rows=50, cols=8, mean=3.0, severity=0.0, seed=1)
        table, truth = generate(spec)
        assert np.all(truth.participant_exponents == 1.0)
        residuals = table.values - 3.0 - truth.item_effects[:, None]
        assert abs(residuals.mean()) < 0.1
        assert abs(residuals.std() - spec.noise_sd) < 0.1

    def test_reproducible_from_spec(self):
        spec = SynthSpec(rows=30, cols=6, severity=1.5, seed=44)
        a, truth_a = generate(spec)
        b, truth_b = generate(spec)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(truth_a.item_effects, truth_b.item_effects)

    def test_icc_matches_target_q(self):
        # item_sd chosen for q = 0.161 so the 39-column ICC lands near 0.8626
        spec_q = 0.161
        iccs = []
        for seed in range(10):
            spec = SynthSpec(rows=1400, cols=39, item_sd=math.sqrt(spec_q), seed=seed)
            table, _ = generate(spec)
            iccs.append(icc_report(table).icc)
        assert np.mean(iccs) == pytest.approx(0.8626, abs=0.01)

    def test_expected_icc_field(self):
        spec = SynthSpec(rows=10, cols=80, seed=0)
        _, truth = generate(spec)
        assert truth.expected_icc == pytest.approx(0.16 * 80 / (0.16 * 80 + 1))

    def test_severity_spreads_exponents(self):
        _, truth = generate(SynthSpec(rows=10, cols=500, severity=2.0, seed=5))
        assert truth.participant_exponents.min() >= 1.0
        assert truth.participant_exponents.max() > 2.0

    def test_spec_validation(self):
        with pytest.raises(PreconditionError):
            SynthSpec(rows=1, cols=5)
        with pytest.raises(PreconditionError):
            SynthSpec(rows=5, cols=5, item_sd=0.0)
        with pytest.raises(PreconditionError):
            SynthSpec(rows=5, cols=5, severity=-1.0)


class TestSignedPower:
    def test_zero_base(self):
        assert _signed_power(0.0, 3.7) == 0.0

    def test_negative_base_keeps_sign(self):
        assert _signed_power(-2.0, 3.0) == pytest.approx(-8.0)

    def test_unit_exponent_is_identity(self):
        x = np.array([-1.5, 0.0, 0.4, 2.0])
        assert _signed_power(x, 1.0) == pytest.approx(x)


class TestAlphaCdf:
    def test_lower_boundary(self):
        assert alpha_cdf(1.0, 2.0) == 0.0

    def test_upper_limit(self):
        assert alpha_cdf(200.0, 2.0) == pytest.approx(1.0)

    def test_characteristic_point(self):
        s = 2.0
        assert alpha_cdf(1.0 + s, s) == pytest.approx(1.0 - math.exp(-1.0))

    def test_domain_checks(self):
        with pytest.raises(PreconditionError):
            alpha_cdf(0.5, 2.0)
        with pytest.raises(PreconditionError):
            alpha_cdf(1.5, 0.0)


class TestNumpyStreamIdentity:
    """The numpy identities that ``generate`` and ``degrade_random`` rely on
    to draw what one whole-table call draws, generator state included."""

    @pytest.mark.parametrize("shape", [(4200, 240), (1400, 80), (30, 6)])
    def test_row_blocked_normal_draws_are_one_draw(self, shape):
        one, blocked = np.random.default_rng(21), np.random.default_rng(21)
        whole = one.normal(0.0, 1.5, size=shape)
        blocks = [blocked.normal(0.0, 1.5, size=(rows.stop - rows.start, shape[1]))
                  for rows in _row_blocks(*shape)]
        assert len(blocks) > 1 or shape == (30, 6)
        assert np.array_equal(np.concatenate(blocks), whole)
        assert one.bit_generator.state == blocked.bit_generator.state

    # the draw of 22 400 of 112 000 cells shuffles a tail, that of 100 of
    # 112 000 (under 1/50 of them) runs Floyd's algorithm
    @pytest.mark.parametrize("size, count", [(112000, 22400), (112000, 100), (40, 39), (7, 0)])
    def test_choice_by_count_indexes_choice_over_an_array(self, size, count):
        candidates = np.flatnonzero(np.random.default_rng(22).random(2 * size) < 0.75)[:size]
        assert candidates.size == size
        by_count, over_array = np.random.default_rng(23), np.random.default_rng(23)
        chosen = candidates[by_count.choice(candidates.size, size=count, replace=False)]
        assert np.array_equal(chosen, over_array.choice(candidates, size=count, replace=False))
        assert by_count.bit_generator.state == over_array.bit_generator.state


class TestDegradeRandom:
    def test_zero_proportion_is_identity(self, complete_table):
        assert degrade_random(complete_table, 0.0, rng=1) is complete_table

    def test_exact_mask_count(self):
        raw, _ = generate(SynthSpec(rows=80, cols=25, seed=2))
        degraded = degrade_random(raw, 0.16, rng=3)
        assert degraded.missing.sum() == round(0.16 * 80 * 25)

    def test_pmiss_recount(self):
        raw, _ = generate(SynthSpec(rows=60, cols=20, seed=4))
        degraded = degrade_random(raw, 0.3, rng=5)
        assert abs(icc_report(degraded).pmiss - 0.3) <= 1.0 / (60 * 20)

    def test_unmasked_values_untouched(self, complete_table):
        degraded = degrade_random(complete_table, 0.25, rng=6)
        valid = degraded.valid
        assert np.array_equal(degraded.values[valid], complete_table.values[valid])

    def test_transposed_table_masks_the_same_cells(self):
        # a table keeps a transposed (Fortran-ordered) array and mask; the
        # flat indices of the draw still address its cells in C order
        raw, _ = generate(SynthSpec(rows=25, cols=80, seed=7))
        transposed = DataTable(raw.values.T)
        assert transposed.missing.flags.f_contiguous
        degraded = degrade_random(transposed, 0.3, rng=8)
        expected = degrade_random(DataTable(np.ascontiguousarray(raw.values.T)), 0.3, rng=8)
        assert degraded.missing.sum() == round(0.3 * 80 * 25)
        assert np.array_equal(degraded.missing, expected.missing)
        assert np.array_equal(degraded.values, expected.values, equal_nan=True)

    def test_reproducible(self, complete_table):
        a = degrade_random(complete_table, 0.25, rng=9)
        b = degrade_random(complete_table, 0.25, rng=9)
        assert np.array_equal(a.missing, b.missing)

    def test_feasible_request_after_rejected_draws(self):
        # rejection sampling alone misses it on 100 draws: at p = 0.59 a
        # 4-cell row is fully masked with probability 0.12
        raw, _ = generate(SynthSpec(rows=29, cols=4, seed=0))
        degraded = degrade_random(raw, 0.59375, rng=1)
        assert degraded.missing.sum() == 69
        assert np.array_equal(degraded.values[degraded.valid], raw.values[degraded.valid])

    @pytest.mark.parametrize("rng", range(5))
    def test_tightest_request_keeps_one_cell_per_row_and_column(self, rng):
        raw, _ = generate(SynthSpec(rows=10, cols=10, seed=3))
        degraded = degrade_random(raw, 0.9, rng=rng)
        assert (degraded.valid.sum(axis=0) == 1).all()
        assert (degraded.valid.sum(axis=1) == 1).all()

    def test_unsatisfiable_constraint(self):
        t = DataTable(np.arange(4.0).reshape(2, 2) + 1)
        with pytest.raises(StructuralError, match="without emptying"):
            degrade_random(t, 0.75, rng=1)
        # round(0.95 * 4) = 4 cells asked of a table with 3 valid ones
        t = DataTable(np.array([[1.0, 2.0], [3.0, np.nan]]))
        with pytest.raises(StructuralError, match="cannot mask 4 cells: only 3 valid cells remain"):
            degrade_random(t, 0.95, rng=1)

    def test_proportion_domain(self, complete_table):
        with pytest.raises(PreconditionError):
            degrade_random(complete_table, 0.96, rng=1)
