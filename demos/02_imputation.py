"""Row-wise vs. column-and-row adjusted imputation.

First shows the bias of plain row-wise random-donor imputation: it
preserves item means but inflates the ICC, while the raw degraded table
underestimates it.  Then shows that the column-and-row method with a
target ICC lands exactly where it is told to, preserving item means and
valid cells.
"""

from icctab import (
    SynthSpec,
    ari_bias_demo,
    crari_impute,
    degrade_random,
    generate,
    icc_report,
    zscore,
)

raw, _ = generate(SynthSpec(rows=1400, cols=80, item_sd=0.25, seed=15))
table = zscore(raw)
exact = icc_report(table).icc
print(f"exact ICC of the complete table: {exact:.4f}")

print("\nrow-wise imputation bias (5 replications per level):")
print("   p    missing   row-imputed  corrected")
for point in ari_bias_demo(table, (0.1, 0.2, 0.3), replications=5, rng=16):
    print(f"  {point.p:.2f}  {point.icc_missing:.4f}    {point.icc_ari:.4f}       {point.icc_cor:.4f}")
print("the row-imputed ICC overshoots while the raw one undershoots;")
print("only the corrected estimate stays on target.")

# Column-and-row adjusted imputation drives the table to a chosen ICC.
degraded = degrade_random(table, 0.2, rng=17)
for target in ("low", "corrected"):
    outcome = crari_impute(degraded, target=target, rng=18)
    print(
        f"\ntarget={target!r}: aimed {outcome.target:.4f}, attained "
        f"{outcome.icc_after:.4f} (c={outcome.c:.3f}, row-mean drift {outcome.row_mean_drift:.1e})"
    )

print("\nimputing to the corrected ICC restores the consistency the table")
print(f"had before degradation ({exact:.4f}).")
