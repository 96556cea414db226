"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
Criteria with published reference numbers assert them at the stated
tolerances; the statistical criteria reproduce the desk-scale experiments
on seeded synthetic tables.
"""

import functools

import numpy as np
import pytest

from icctab import (
    DataTable,
    SynthSpec,
    alpha_cdf,
    ari_impute,
    ari_bias_demo,
    beta_quantile,
    chi2_upper_tail,
    corrected_icc,
    corrected_interval,
    corrected_r2,
    crari_impute,
    degrade_random,
    ecvt,
    expected_icc,
    f_quantile,
    generate,
    icc_report,
    mix_rows,
    r2cor_bias_demo,
    zscore,
)
from icctab.anova import _conf_bounds
from icctab.rand import as_generator

import oracles


def criterion(num, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {num:2d}: {name}")
                raise
            print(f"[PASS] criterion {num:2d}: {name}")

        return wrapper

    return decorate


@criterion(1, "corrected ICC reproduces the published worked values")
def test_criterion_1_corrected_icc():
    assert corrected_icc(0.8626, 0.1568) == pytest.approx(0.8816, abs=5e-4)
    assert corrected_icc(0.9261, 0.0361) == pytest.approx(0.9286, abs=5e-4)


@criterion(2, "ICC from the published q ratios at n=39")
def test_criterion_2_icc_from_q():
    for q, icc in ((0.1396, 0.845), (0.1610, 0.863), (0.1909, 0.882)):
        assert expected_icc(q, 39) == pytest.approx(icc, abs=1e-3)


@criterion(3, "corrected r2 reproduces the published transcript")
def test_criterion_3_corrected_r2():
    ratio, cor = corrected_r2([0.1337, 0.0592], icc=0.9261, icc_cor=0.9286)
    assert ratio == pytest.approx([0.1443, 0.0639], abs=5e-4)
    assert cor == pytest.approx([0.1340, 0.0593], abs=5e-4)


@criterion(4, "interval correction reproduces the published imputed intervals")
def test_criterion_4_corrected_intervals():
    cases = [
        (0.95, (0.859, 0.866), (0.879, 0.884)),
        (0.99, (0.858, 0.867), (0.878, 0.885)),
        (0.999, (0.857, 0.868), (0.877, 0.886)),
    ]
    for prob, (lo, hi), (exp_lo, exp_hi) in cases:
        _, got_lo, got_hi = corrected_interval((prob, lo, hi), 0.1568)
        assert got_lo == pytest.approx(exp_lo, abs=1e-3)
        assert got_hi == pytest.approx(exp_hi, abs=1e-3)


@criterion(5, "row-imputation worked example with donors 620 and 500")
def test_criterion_5_ari_worked_example():
    row = np.array([500.0, 570.0, np.nan, 630.0, 520.0, np.nan, 620.0])
    valid = row[~np.isnan(row)]
    assert valid.mean() == 568.0
    # seed 3 draws the donors 620 and 500 for the two missing cells
    assert valid[as_generator(3).integers(0, valid.size, size=2)].tolist() == [620.0, 500.0]
    completed = ari_impute(DataTable(np.array([row, np.arange(7.0)])), rng=3).values[0]
    assert completed[[2, 5]].tolist() == [628.0, 508.0]
    assert completed.mean() == 568.0


@criterion(6, "targeted imputation attains low and corrected targets")
def test_criterion_6_crari_target_attainment():
    for seed in range(20):
        raw, _ = generate(SynthSpec(rows=1400, cols=80, seed=seed))
        zt = zscore(raw)
        for k, p in enumerate((0.1, 0.2, 0.3)):
            degraded = degrade_random(zt, p, rng=100 * seed + k)
            for target in ("low", "corrected"):
                outcome = crari_impute(degraded, target=target, rng=500 * seed + k)
                assert abs(outcome.icc_after - outcome.target) <= 2e-3
                drift = np.abs(
                    outcome.imputed.row_means() - degraded.row_means()
                ).max()
                assert drift <= 1e-9
                valid = degraded.valid
                assert np.array_equal(
                    outcome.imputed.values[valid], degraded.values[valid]
                )


@criterion(7, "corrected ICC is unbiased when the column effect is removed")
def test_criterion_7_corrected_icc_unbiasedness():
    raw, _ = generate(SynthSpec(rows=1400, cols=80, seed=77))
    zt = zscore(raw)
    variants = {
        "centered": DataTable(raw.values - raw.values.mean(axis=0)),
        "zscores": zt,
        "mixed": mix_rows(zt, rng=5),
    }
    for name, table in variants.items():
        exact = icc_report(table).icc
        gen = as_generator(99)
        for p in (0.1, 0.2, 0.3):
            estimates = [
                icc_report(degrade_random(table, p, gen)).icc_cor for _ in range(10)
            ]
            assert abs(np.mean(estimates) - exact) <= 0.01, (name, p)

    # substantial column effect: the corrected estimate inflates
    gen = as_generator(123)
    offsets = gen.normal(0, 3.0, size=80)
    noncentered = DataTable(raw.values + offsets)
    exact = icc_report(noncentered).icc
    estimates = [
        icc_report(degrade_random(noncentered, 0.3, gen)).icc_cor for _ in range(10)
    ]
    assert np.mean(estimates) > exact


@criterion(8, "row-wise imputation brackets the exact ICC from above")
def test_criterion_8_ari_bias_ordering():
    raw, _ = generate(SynthSpec(rows=1400, cols=80, item_sd=0.25, seed=8))
    zt = zscore(raw)
    exact = icc_report(zt).icc
    point = ari_bias_demo(zt, [0.2], replications=10, rng=9)[0]
    assert point.icc_missing < exact - 0.005
    assert point.icc_ari > exact + 0.005


@criterion(9, "validity test classifies compliant vs violating tables")
def test_criterion_9_ecvt_classification():
    resamples = 1000
    counts = {}
    for severity in (0.0, 2.0):
        complete_ok = imputed_ok = 0
        for seed in range(20):
            raw, _ = generate(
                SynthSpec(rows=1400, cols=80, item_sd=0.7, severity=severity,
                          seed=1000 + seed)
            )
            complete_ok += ecvt(
                zscore(raw), resamples=resamples, rng=2000 + seed
            ).compatible
            degraded = degrade_random(raw, 0.16, rng=3000 + seed)
            imputed = crari_impute(
                zscore(degraded), target="corrected", rng=4000 + seed
            ).imputed
            imputed_ok += ecvt(
                imputed, resamples=resamples, rng=5000 + seed
            ).compatible
        counts[severity] = (complete_ok, imputed_ok)
    assert counts[0.0][0] >= 18, f"compliant complete: {counts[0.0][0]}/20 compatible"
    assert counts[0.0][1] >= 18, f"compliant imputed: {counts[0.0][1]}/20 compatible"
    assert counts[2.0][0] <= 2, f"violating complete: {counts[2.0][0]}/20 compatible"
    assert counts[2.0][1] <= 2, f"violating imputed: {counts[2.0][1]}/20 compatible"


@criterion(10, "corrected r2 recovers the complete-table value")
def test_criterion_10_corrected_r2_recovery():
    raw, truth = generate(SynthSpec(rows=1400, cols=80, item_sd=0.3, seed=88))
    zt = zscore(raw)
    gen = as_generator(13)
    predictor = truth.item_effects + gen.normal(0, 0.25, size=1400)
    points = r2cor_bias_demo(zt, predictor, [0.2, 0.3, 0.6], replications=10, rng=21)
    for point in points[:2]:
        assert abs(point.r2_cor - point.r2_exact) <= 0.01
        assert point.r2_observed < point.r2_exact - 0.01
    assert abs(points[2].r2_cor - points[2].r2_exact) <= 0.03


@criterion(11, "quantile kernel matches quadrature oracles on fixed grids")
def test_criterion_11_quantile_kernel():
    beta_grid = [
        (p, a, b)
        for p in (0.05, 0.25, 0.5, 0.75, 0.95, 0.99)
        for a, b in ((1, 1), (2, 5), (3, 3), (5, 2), (10, 10), (0.5, 4))
    ]
    assert len(beta_grid) >= 30
    for p, a, b in beta_grid:
        assert beta_quantile(p, a, b) == pytest.approx(
            oracles.beta_quantile(p, a, b), abs=1e-5
        ), (p, a, b)

    f_grid = [
        (p, d1, d2)
        for p in (0.05, 0.25, 0.5, 0.75, 0.95, 0.975)
        for d1 in (5, 10, 39, 120)
        for d2 in (8, 20, 90)
    ]
    assert len(f_grid) >= 30
    for p, d1, d2 in f_grid:
        assert f_quantile(p, d1, d2) == pytest.approx(
            oracles.f_quantile(p, d1, d2), abs=1e-4
        ), (p, d1, d2)

    chi2_grid = [(x, df) for df in (1, 2, 5, 10, 30, 100) for x in (0.5, 2, 8, 20, 60)]
    assert len(chi2_grid) >= 30
    for x, df in chi2_grid:
        assert chi2_upper_tail(x, df) == pytest.approx(
            oracles.chi2_upper(x, df), abs=1e-6
        ), (x, df)


@criterion(12, "generated participant exponents follow their closed-form CDF")
def test_criterion_12_exponent_distribution():
    severity = 2.0
    _, truth = generate(SynthSpec(rows=2, cols=1000, severity=severity, seed=3))
    distance = oracles.ks_distance(
        truth.participant_exponents, lambda a: alpha_cdf(a, severity)
    )
    assert distance < 0.05


@criterion(13, "the published DLP intervals follow from the ICC and the DLP's shape")
def test_criterion_13_dlp_intervals():
    # 14 089 words by 39 participants, 15.68% missing: dfi = m - 1 and
    # dfij = valid cells - m - n + 1; the ICC 0.8626 is 1 - 1/F
    conf = _conf_bounds(1.0 / (1.0 - 0.8626), 14_088, 449_187, (0.95, 0.99, 0.999))
    published = [(0.859, 0.866), (0.858, 0.867), (0.857, 0.868)]
    for (_, lower, upper), (lo, hi) in zip(conf, published, strict=True):
        assert (round(lower, 3), round(upper, 3)) == (lo, hi)
