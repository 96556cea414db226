"""The paper's DLP application, on a synthetic table of the DLP's shape.

The Dutch Lexicon Project table has 14 089 words (items) by 39
participants, with 15.68% of cells missing.  This demo runs the paper's
flow in process on a seeded additive table of that shape, with the
variance ratio q = 0.1909 that gives the published corrected ICC 0.882:
the ICC with its confidence intervals and their missing-data correction,
targeted imputation to the corrected ICC, the validity test on the imputed
table, and a predictor fit with corrected r2.
"""

import math

import numpy as np

from icctab import (
    SynthSpec,
    corrected_interval,
    crari_impute,
    degrade_random,
    ecvt,
    fit_predictors,
    generate,
    icc_report,
    zscore,
)

raw, truth = generate(SynthSpec(rows=14089, cols=39, item_sd=math.sqrt(0.1909), seed=12))
table = zscore(degrade_random(raw, 0.1568, rng=13))

report = icc_report(table)
print(f"pmiss={report.pmiss:.4f}  q={report.q:.4f}  "
      f"icc={report.icc:.4f}  iccCor={report.icc_cor:.4f}")
print("published: pmiss=0.1568  q=0.161  icc=0.8626  iccCor=0.882")
print("\n  level    icc interval        corrected interval")
for triple in report.conf:
    prob, lower, upper = triple
    _, cor_lower, cor_upper = corrected_interval(triple, report.pmiss)
    print(f"  {prob:.1%}   [{lower:.4f}, {upper:.4f}]   [{cor_lower:.4f}, {cor_upper:.4f}]")
print("published icc intervals: [0.859, 0.866], [0.858, 0.867] and [0.857, 0.868]")

outcome = crari_impute(table, target="corrected", rng=14)
print(f"\nCRARI to the corrected ICC: target={outcome.target:.4f} "
      f"attained={outcome.icc_after:.4f}")

validity = ecvt(outcome.imputed, rng=15)
print(f"\nvalidity test on the imputed table: chi2={validity.chi2:.2f} "
      f"(df={validity.df}) p={validity.p_value:.3g} -> {validity.verdict}")
print("   g   predicted  observed   sd")
for k, g in enumerate(validity.group_sizes):
    print(f"  {g:3d}   {validity.predicted_r[k]:.4f}    "
          f"{validity.observed_mean_r[k]:.4f}  {validity.observed_sd_r[k]:.4f}")

# a predictor that knows the item effects up to noise of half their spread
predictor = truth.item_effects + np.random.default_rng(16).normal(
    0, 0.5 * math.sqrt(0.1909), size=14089)
fit = fit_predictors(table, predictor, conf_probs=())
print(f"\npredictor on the degraded table: r2={fit.r2[0]:.4f}  "
      f"r2/ICC={fit.r2_on_icc[0]:.4f}  r2Cor={fit.r2_cor[0]:.4f}")
print("r2/ICC estimates the predictor's r2 with the item effects, 1/(1 + 0.5**2) = 0.8")
