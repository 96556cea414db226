import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import beta as beta_distribution
from scipy.stats import f as f_distribution

from icctab import NumericError, PreconditionError, beta_quantile, chi2_upper_tail, f_quantile
from icctab import special
from icctab.special import reg_inc_beta

import oracles


class TestRegIncBeta:
    def test_endpoints(self):
        assert reg_inc_beta(0.0, 2, 3) == 0.0
        assert reg_inc_beta(1.0, 2, 3) == 1.0

    def test_uniform_case_is_identity(self):
        assert reg_inc_beta(0.3, 1, 1) == pytest.approx(0.3, abs=1e-14)

    def test_symmetry(self):
        for x, a, b in [(0.2, 2, 5), (0.7, 3.5, 1.5), (0.4, 10, 4)]:
            assert reg_inc_beta(x, a, b) == pytest.approx(
                1.0 - reg_inc_beta(1.0 - x, b, a), abs=1e-13
            )

    def test_against_quadrature(self):
        for x, a, b in [(0.25, 2, 5), (0.6, 3, 3), (0.9, 0.5, 4), (0.1, 8, 2)]:
            assert reg_inc_beta(x, a, b) == pytest.approx(
                oracles.beta_cdf(x, a, b), abs=1e-10
            )

    def test_invalid_shape_parameters(self):
        with pytest.raises(PreconditionError):
            reg_inc_beta(0.5, 0, 1)


class TestBetaQuantile:
    def test_uniform_median(self):
        assert beta_quantile(0.5, 1, 1) == 0.5

    def test_symmetric_median(self):
        assert beta_quantile(0.5, 3, 3) == 0.5

    def test_matches_quadrature_oracle(self):
        # frozen from oracles.beta_quantile(0.95, 2, 5)
        assert beta_quantile(0.95, 2, 5) == pytest.approx(0.5818034092520228, abs=1e-5)

    def test_inverse_of_incomplete_beta(self):
        for p in (0.05, 0.3, 0.5, 0.8, 0.99):
            for a, b in ((1, 1), (2, 5), (7, 3)):
                x = beta_quantile(p, a, b)
                assert abs(reg_inc_beta(x, a, b) - p) <= 1e-6

    def test_probability_domain_checked(self):
        with pytest.raises(PreconditionError):
            beta_quantile(0.0, 2, 2)
        with pytest.raises(PreconditionError):
            beta_quantile(1.0, 2, 2)


class TestFQuantile:
    def test_equal_df_median_is_one(self):
        for d in (3, 7, 20):
            assert f_quantile(0.5, d, d) == pytest.approx(1.0, abs=1e-5)

    def test_monotone_in_probability(self):
        values = [f_quantile(p, 6, 14) for p in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99)]
        assert values == sorted(values)

    def test_matches_quadrature_oracle(self):
        # frozen from oracles.f_quantile(0.975, 10, 20)
        assert f_quantile(0.975, 10, 20) == pytest.approx(2.7736713751990294, abs=1e-4)


class TestFQuantileUnderflow:
    # the icc_report levels of the CLI's default --conf 0.95,0.99,0.999, a
    # median and a 90% level; both df orders of the paper's 1400 x 80 table
    # and of 4200 x 240, and small tables.  The two-row table's dfi = 1
    # against a large dfij is where the Newton search bisects into the range
    # where the fraction's factor underflows.
    LEVELS = (0.5, 0.9, 0.975, 0.995, 0.9995)
    DFS = ((1399, 110521), (110521, 1399), (4199, 1003561), (1003561, 4199),
           (79, 110521), (9, 27), (2, 3), (1, 1003561))

    def test_bit_identical_to_full_evaluation(self, monkeypatch):
        # each pass computes every quantile, none comes from the memo
        f_quantile.cache_clear()
        skipped = [f_quantile(p, d1, d2) for p in self.LEVELS for d1, d2 in self.DFS]
        underflows = []

        def always_cf(x, a, b):
            # reg_inc_beta running the continued fraction even where its
            # factor has underflowed to 0
            if x <= 0.0:
                return 0.0
            if x >= 1.0:
                return 1.0
            front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                             + a * math.log(x) + b * math.log1p(-x))
            underflows.append(front == 0.0)
            if x < (a + 1.0) / (a + b + 2.0):
                return front * special._beta_cf(a, b, x) / a
            return 1.0 - front * special._beta_cf(b, a, 1.0 - x) / b

        monkeypatch.setattr(special, "reg_inc_beta", always_cf)
        f_quantile.cache_clear()
        full = [f_quantile(p, d1, d2) for p in self.LEVELS for d1, d2 in self.DFS]
        f_quantile.cache_clear()
        assert skipped == full
        assert any(underflows)


class TestFQuantileMemo:
    def test_cached_values_are_the_computed_ones(self):
        # the quantiles of a degradation study: each replication masks the
        # same number of cells, so the same df pairs come back
        args = [(level, d1, d2) for _ in range(3) for level in (0.975, 0.995, 0.9995)
                for d1, d2 in ((79, 8791), (8791, 79))]
        f_quantile.cache_clear()
        cached = [f_quantile(*arg) for arg in args]
        computed = [f_quantile.__wrapped__(*arg) for arg in args]
        assert [value.hex() for value in cached] == [value.hex() for value in computed]
        assert f_quantile.cache_info().misses == 6
        assert f_quantile.cache_info().hits == len(args) - 6

    def test_memo_is_bounded(self):
        f_quantile.cache_clear()
        maxsize = f_quantile.cache_info().maxsize
        assert maxsize is not None
        for d2 in range(10, 10 + maxsize + 20):
            f_quantile(0.975, 5, d2)
        assert f_quantile.cache_info().currsize == maxsize
        f_quantile.cache_clear()


class TestFQuantileAccuracy:
    # the icc_report levels; both df orders of small tables, of the paper's
    # 1400 x 80 table and its transpose, of 4200 x 240 and of the DLP
    # (14 089 x 39, 15.68% missing)
    LEVELS = (0.5, 0.9, 0.975, 0.995, 0.9995)
    DFS = ((1, 1), (2, 3), (9, 27), (79, 110521), (1399, 110521), (4199, 1003561),
           (14088, 449187))

    @pytest.mark.parametrize("d1, d2", [*DFS, *((d2, d1) for d1, d2 in DFS if d1 != d2)])
    def test_matches_scipy(self, d1, d2):
        for p in self.LEVELS:
            assert f_quantile(p, d1, d2) == pytest.approx(
                f_distribution.ppf(p, d1, d2), rel=1e-10, abs=0
            ), p


class TestBetaNewtonNoise:
    def test_search_ends_at_the_rounding_noise(self, monkeypatch):
        # cli-large's icc/fit df, F(4199, 1003561) at 0.9: I_x is noisy at
        # about 1e-13 there, and the search dithered for 17 evaluations
        calls, evaluate = [], special.reg_inc_beta
        monkeypatch.setattr(special, "reg_inc_beta", lambda *args: calls.append(args)
                            or evaluate(*args))
        x, _ = special._beta_quantile_pair(0.9, 2099.5, 501780.5)
        assert len(calls) <= 8
        assert x * 1003561 / ((1 - x) * 4199) == pytest.approx(
            f_distribution.ppf(0.9, 4199, 1003561), rel=1e-10, abs=0)

    def test_a_step_across_the_root_does_not_end_it(self):
        # the first Newton step overshoots the root and raises |I_x - p|:
        # ending the search there returns 6.9e-6
        assert beta_quantile(0.530388133801664, 0.1204491491876117,
                             1313.4436145980885) == pytest.approx(2.434914807303927e-06,
                                                                  rel=1e-10, abs=0)


class TestContinuedFractionAtLargeShapes:
    # near the mean of Beta(a, b) the fraction needs about sqrt(max(a, b))/2
    # iterations (504 at a = 800 000, b = 900 000), so its cap grows with them
    def test_f_median_at_a_million_df(self):
        assert f_quantile(0.5, 1600000, 1800000) == pytest.approx(
            f_distribution.ppf(0.5, 1600000, 1800000), rel=1e-10, abs=0)

    @pytest.mark.parametrize("p", [0.485, 0.49, 0.495, 0.5, 0.505, 0.51])
    def test_beta_quantile_near_the_mean(self, p):
        assert beta_quantile(p, 800504.6, 893161.7) == pytest.approx(
            beta_distribution.ppf(p, 800504.6, 893161.7), rel=1e-10, abs=0)


class TestNonConvergenceGuards:
    # the searches converge well inside their iteration caps on every argument
    # Tier-1 passes, so each cap is lowered here until its guard raises

    def test_continued_fraction(self, monkeypatch):
        # with no base iterations, Beta(2, 5) gets int(sqrt(5)) = 2 of them
        monkeypatch.setattr(special, "_CF_MAX_ITER", 0)
        with pytest.raises(NumericError, match=r"^incomplete beta continued fraction did not "
                                               r"converge \(a=2, b=5, x=0\.2\)$"):
            reg_inc_beta(0.2, 2, 5)

    def test_newton_search(self, monkeypatch):
        # one Newton step from the closed-form start does not meet the tolerance
        monkeypatch.setattr(special, "_MAX_NEWTON", 1)
        with pytest.raises(NumericError, match=r"^beta_quantile did not converge "
                                               r"\(p=0\.3, a=2, b=5\)$"):
            beta_quantile(0.3, 2, 5)


class TestChi2UpperTail:
    def test_at_zero(self):
        assert chi2_upper_tail(0.0, 5) == 1.0

    def test_at_infinity(self):
        for df in (1, 2, 7, 40):
            assert chi2_upper_tail(math.inf, df) == 0.0

    def test_exponential_closed_form(self):
        assert chi2_upper_tail(2 * math.log(2), 2) == pytest.approx(0.5, abs=1e-12)

    def test_classic_table_value(self):
        assert chi2_upper_tail(18.307, 10) == pytest.approx(0.05, abs=1e-3)

    def test_against_quadrature(self):
        for x, df in [(1.5, 3), (8.0, 10), (25.0, 40), (60.0, 30)]:
            assert chi2_upper_tail(x, df) == pytest.approx(
                oracles.chi2_upper(x, df), abs=1e-10
            )

    # odd df take the erfc head and half-integer terms, even df whole terms;
    # the quadrature runs to 1e-13 relative on the shorter side of the mode
    @pytest.mark.parametrize("df", [*range(1, 61), 100, 101])
    def test_finite_sum_matches_quadrature(self, df):
        for x in (1e-6, 0.5, 3.0, 17.0, 60.0, 150.0, 400.0, 1000.0):
            assert chi2_upper_tail(x, df) == pytest.approx(
                oracles.chi2_upper(x, df), rel=1e-12, abs=1e-14
            ), x

    @settings(max_examples=200, deadline=None)
    @given(x=st.floats(0.0, 2000.0), dx=st.floats(1e-6, 100.0), df=st.integers(1, 120))
    def test_falls_in_x_and_rises_in_df(self, x, dx, df):
        tail = chi2_upper_tail(x, df)
        assert chi2_upper_tail(x + dx, df) <= tail * (1 + 1e-12)
        assert chi2_upper_tail(x, df + 1) >= tail * (1 - 1e-12)

    def test_domain_checks(self):
        for x, df in [(-1.0, 3), (math.nan, 3), (1.0, 0), (1.0, 2.5), (1.0, math.nan)]:
            with pytest.raises(PreconditionError):
                chi2_upper_tail(x, df)
