"""Command-line front-end.

Subcommands
-----------
icc         ICC report (q, ICC, confidence intervals, corrected ICC).
impute      Fill missing cells (CRARI) and write the completed table.
ecvt        Additive-model validity test on a complete table.
fit         Predictor goodness of fit, corrected for missing data.
synth       Generate an artificial table with known ground truth.
experiment  Run a canned degradation study (from ``impute`` or ``fit``) and
            write its curve as CSV.

Reports are plain ``key: value`` text on stdout and always embed the tool
version, the fully resolved configuration and the seed, so a report can be
reproduced byte for byte from its own header.  Exit codes: 0 ok, 2 format
error, 3 structural error, 4 numeric error, 5 unreachable imputation
target, 6 precondition violation.  Each handler imports the kernels it
runs, so ``--version``, ``--help`` and usage errors never load numpy.
"""

import argparse
import csv
import math
import sys

from . import __version__
from .errors import (
    IccTabError,
    NumericError,
    PreconditionError,
    StructuralError,
    TableFormatError,
    UnreachableTargetError,
)

EXIT_CODES = {
    TableFormatError: 2,
    StructuralError: 3,
    NumericError: 4,
    UnreachableTargetError: 5,
    PreconditionError: 6,
}

# experiment name -> (default missing proportions, CSV columns)
EXPERIMENTS = {
    "ari-bias": ((0.0, 0.1, 0.2, 0.3), ("p", "icc_missing", "icc_ari", "icc_cor")),
    "crari-recovery": ((0.0, 0.1, 0.2, 0.3),
                       ("p", "icc_missing", "icc_cor", "icc_imputed", "icc_exact")),
    "degradation-curve": ((0.1, 0.3, 0.5, 0.7, 0.9),
                          ("p", "icc_missing", "icc_cor", "icc_imputed", "r_item_means",
                           "icc_exact")),
    "r2cor-bias": ((0.0, 0.15, 0.3, 0.45, 0.6), ("p", "r2_observed", "r2_cor", "r2_exact")),
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except IccTabError as exc:
        code = _exit_code(exc)
        print(f"error[{code}] {type(exc).__name__}: {exc}", file=sys.stderr)
        return code
    except OSError as exc:
        print(f"error[2] {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


def _exit_code(exc: IccTabError) -> int:
    for klass, code in EXIT_CODES.items():
        if isinstance(exc, klass):
            return code
    return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icctab",
        description="ICC statistics, corrected estimates and imputation "
        "for item-by-participant tables with missing data",
    )
    parser.add_argument("--version", action="version", version=f"icctab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("icc", help="ICC report for a table")
    _table_flags(p)
    p.add_argument("--conf", default="0.95,0.99,0.999",
                   help="comma-separated confidence probabilities")
    p.set_defaults(handler=_run_icc)

    p = sub.add_parser("impute", help="fill missing cells with a target ICC")
    _table_flags(p, transforms=("zscore",))
    p.add_argument("--output", required=True, help="path of the imputed CSV")
    p.add_argument("--target", default="corrected",
                   help="'low', 'corrected' or an explicit ICC value")
    p.add_argument("--c-max", type=float, default=10.0,
                   help="largest fill scale; bounds the reachable ICC range")
    p.set_defaults(handler=_run_impute)

    p = sub.add_parser("ecvt", help="additive-model validity test")
    _table_flags(p)
    p.add_argument("--groups", type=_parse_ints, default=None,
                   help="comma-separated group sizes (default: doubling up to n/2)")
    p.add_argument("--resamples", type=int, default=200)
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--curve", default=None,
                   help="optional CSV path for the predicted/observed curve")
    p.set_defaults(handler=_run_ecvt)

    p = sub.add_parser("fit", help="predictor goodness of fit")
    _table_flags(p)
    p.add_argument("--predictors", required=True,
                   help="CSV of predictor columns aligned with the table rows")
    p.add_argument("--conf", default="0.95,0.99,0.999")
    p.set_defaults(handler=_run_fit)

    p = sub.add_parser("synth", help="generate an artificial table")
    p.add_argument("--rows", type=int, default=1400)
    p.add_argument("--cols", type=int, default=80)
    p.add_argument("--mu", type=float, default=0.0, help="grand mean")
    p.add_argument("--item-sd", type=float, default=0.4)
    p.add_argument("--noise-sd", type=float, default=1.0)
    p.add_argument("--severity", type=float, default=0.0,
                   help="participant-effect severity (0 = additive model holds)")
    p.add_argument("--degrade", type=float, default=0.0,
                   help="proportion of cells to mask after generation")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True, help="path of the table CSV")
    p.add_argument("--missing-code", default=None)
    p.add_argument("--ground-truth", default=None,
                   help="optional CSV path for item effects and exponents")
    p.set_defaults(handler=_run_synth)

    p = sub.add_parser("experiment", help="run a named canned study")
    p.add_argument("--name", required=True, choices=tuple(EXPERIMENTS))
    p.add_argument("--rows", type=int, default=1400)
    p.add_argument("--cols", type=int, default=80)
    p.add_argument("--p-grid", default=None,
                   help="comma-separated missing proportions")
    p.add_argument("--replications", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True, help="path of the curve CSV")
    p.set_defaults(handler=_run_experiment)
    return parser


def _table_flags(p: argparse.ArgumentParser, transforms=("zscore", "mix", "virtualize")):
    p.add_argument("--input", required=True, help="CSV table to analyze")
    p.add_argument("--missing-code", default=None,
                   help="numeric sentinel for missing data (empty cells always count)")
    p.add_argument("--seed", type=int, default=0)
    if "zscore" in transforms:
        p.add_argument("--zscore", action="store_true",
                       help="standardize columns before the analysis")
    if "mix" in transforms:
        p.add_argument("--mix", action="store_true",
                       help="randomly mix values within rows (seeded)")
    if "virtualize" in transforms:
        p.add_argument("--virtualize", action="store_true",
                       help="repack rows into virtual participant columns (seeded)")


def _parse_missing_code(raw):
    if raw is None or raw == "":
        return None
    try:
        return float(raw)
    except ValueError:
        raise TableFormatError(f"--missing-code must be numeric or empty, got {raw!r}") from None


def _load_table(args):
    from .rand import as_generator
    from .table import load_csv, mix_rows, virtualize, zscore

    table = load_csv(args.input, _parse_missing_code(args.missing_code))
    rng = as_generator(args.seed)
    if getattr(args, "zscore", False):
        table = zscore(table)
    if getattr(args, "mix", False):
        table = mix_rows(table, rng)
    if getattr(args, "virtualize", False):
        table = virtualize(table, rng)
    return table


def _parse_floats(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.split(",") if tok.strip())


def _parse_ints(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in raw.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {raw!r}") from None


def _header(args, extra: dict) -> list[str]:
    config = dict(extra)
    config.setdefault("seed", getattr(args, "seed", None))
    joined = " ".join(f"{k}={v}" for k, v in config.items())
    return [f"icctab {__version__}", f"command: {args.subcommand}", f"config: {joined}"]


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _icc_lines(report) -> list[str]:
    lines = [
        f"q: {_fmt(report.q)}" if math.isfinite(report.q) else "q: inf",
        f"icc: {_fmt(report.icc)}",
        f"Fobs: {_fmt(report.f_obs)}" if math.isfinite(report.f_obs) else "Fobs: inf",
        f"pmiss: {_fmt(report.pmiss)}",
        f"iccCor: {_fmt(report.icc_cor)}",
    ]
    for prob, lower, upper in report.conf:
        lines.append(f"conf {prob:g}: [{_fmt(lower)}, {_fmt(upper)}]")
    lines.append(
        "column-effect-warning: "
        + ("yes (corrected statistics unreliable)" if report.column_effect_warning else "no")
    )
    return lines


def _run_icc(args) -> int:
    from .anova import icc_report

    table = _load_table(args)
    report = icc_report(table, _parse_floats(args.conf))
    lines = _header(args, {
        "input": args.input,
        "missing-code": args.missing_code or "<empty>",
        "zscore": args.zscore,
        "mix": args.mix,
        "virtualize": args.virtualize,
        "conf": args.conf,
    })
    lines.append(f"table: {table.rows} rows x {table.cols} cols, {int(table.missing.sum())} missing")
    lines += _icc_lines(report)
    print("\n".join(lines))
    return 0


def _run_impute(args) -> int:
    from .impute import crari_impute
    from .table import save_csv

    table = _load_table(args)
    target = args.target if args.target in ("low", "corrected") else float(args.target)
    outcome = crari_impute(table, target=target, rng=args.seed, c_max=args.c_max)
    save_csv(outcome.imputed, args.output)
    drift = float(abs(outcome.imputed.row_means() - table.row_means()).max())
    lines = _header(args, {
        "input": args.input,
        "output": args.output,
        "missing-code": args.missing_code or "<empty>",
        "zscore": args.zscore,
        "target": args.target,
        "c-max": args.c_max,
    })
    lines += [
        f"icc: {_fmt(outcome.icc_before)}",
        f"iccCor: {_fmt(outcome.icc_cor)}",
        f"target: {_fmt(outcome.target)}",
        f"iccImputed: {_fmt(outcome.icc_after)}",
        f"c: {outcome.c:.4f}",
        f"row-mean-drift: {drift:.3e}",
        "warnings: " + ("; ".join(outcome.warnings) if outcome.warnings else "none"),
        f"imputed table written: {args.output}",
    ]
    print("\n".join(lines))
    return 0


def _run_ecvt(args) -> int:
    from .ecvt import ecvt

    table = _load_table(args)
    report = ecvt(table, group_sizes=args.groups or None, resamples=args.resamples,
                  alpha=args.alpha, rng=args.seed)
    lines = _header(args, {
        "input": args.input,
        "missing-code": args.missing_code or "<empty>",
        "zscore": args.zscore,
        "mix": args.mix,
        "virtualize": args.virtualize,
        "groups": ",".join(str(g) for g in report.group_sizes),
        "resamples": args.resamples,
        "alpha": args.alpha,
    })
    lines += [
        f"chi2: {report.chi2:.4f} (df={report.df})",
        f"p-value: {report.p_value:.6g}",
        f"verdict: {report.verdict} (alpha={args.alpha:g})",
    ]
    for k, g in enumerate(report.group_sizes):
        lines.append(
            f"g={g}: predicted={_fmt(report.predicted_r[k])} "
            f"observed={_fmt(report.observed_mean_r[k])} "
            f"sd={_fmt(report.observed_sd_r[k])}"
        )
    for warning in report.warnings:
        lines.append(f"warning: {warning}")
    if args.curve:
        _write_csv(
            args.curve,
            ["g", "predicted_r", "observed_mean_r", "observed_sd_r"],
            zip(report.group_sizes, report.predicted_r,
                report.observed_mean_r, report.observed_sd_r),
        )
        lines.append(f"curve written: {args.curve}")
    print("\n".join(lines))
    return 0


def _run_fit(args) -> int:
    from .fit import fit_predictors

    table = _load_table(args)
    predictors = _load_matrix(args.predictors)
    fit = fit_predictors(table, predictors, _parse_floats(args.conf))
    report = fit.icc_context
    lines = _header(args, {
        "input": args.input,
        "predictors": args.predictors,
        "missing-code": args.missing_code or "<empty>",
        "zscore": args.zscore,
        "mix": args.mix,
        "virtualize": args.virtualize,
        "conf": args.conf,
    })
    lines += _icc_lines(report)
    lines += [
        "r2: " + " ".join(_fmt(v) for v in fit.r2),
        "r2onICC: " + " ".join(_fmt(v) for v in fit.r2_on_icc),
        "r2Cor: " + " ".join(_fmt(v) for v in fit.r2_cor),
    ]
    for warning in fit.warnings:
        lines.append(f"warning: {warning}")
    print("\n".join(lines))
    return 0


def _load_matrix(path):
    """Dense numeric CSV (any shape, no missing cells), header optional."""
    from .table import _read_cells

    values, missing = _read_cells(path)
    if missing.any():
        i, j = divmod(int(missing.argmax()), missing.shape[1])
        raise TableFormatError(f"{path}: row {i + 1}, column {j + 1}: cannot parse ''")
    return values


def _run_synth(args) -> int:
    from .rand import split_seed
    from .synth import SynthSpec, degrade_random, generate
    from .table import save_csv

    spec = SynthSpec(
        rows=args.rows,
        cols=args.cols,
        mean=args.mu,
        item_sd=args.item_sd,
        noise_sd=args.noise_sd,
        severity=args.severity,
        seed=args.seed,
    )
    table, truth = generate(spec)
    if args.degrade > 0:
        degrade_seed, = split_seed(args.seed, 1)
        table = degrade_random(table, args.degrade, degrade_seed)
    token = "" if args.missing_code is None else args.missing_code
    save_csv(table, args.output, token)
    lines = _header(args, {
        "output": args.output,
        "rows": args.rows,
        "cols": args.cols,
        "mu": args.mu,
        "item-sd": args.item_sd,
        "noise-sd": args.noise_sd,
        "severity": args.severity,
        "degrade": args.degrade,
    })
    lines.append(f"expected icc at n={args.cols}: {_fmt(truth.expected_icc)}")
    lines.append(f"table written: {args.output}")
    if args.ground_truth:
        _write_csv(args.ground_truth, ("item_effect", "participant_exponent"), (
            (repr(float(truth.item_effects[i])) if i < args.rows else "",
             repr(float(truth.participant_exponents[i])) if i < args.cols else "")
            for i in range(max(args.rows, args.cols))))
        lines.append(f"ground truth written: {args.ground_truth}")
    print("\n".join(lines))
    return 0


def _run_experiment(args) -> int:
    from .fit import r2cor_bias_demo
    from .impute import ari_bias_demo, crari_recovery_study
    from .rand import as_generator, split_seed
    from .synth import SynthSpec, generate
    from .table import zscore

    default_grid, columns = EXPERIMENTS[args.name]
    p_grid = _parse_floats(args.p_grid or "") or default_grid
    table_seed, run_seed = split_seed(args.seed, 2)
    lines = _header(args, {
        "name": args.name,
        "output": args.output,
        "rows": args.rows,
        "cols": args.cols,
        "p-grid": args.p_grid or "<default>",
        "replications": args.replications,
    })
    item_sd = 0.3 if args.name == "r2cor-bias" else SynthSpec.item_sd
    raw, truth = generate(SynthSpec(rows=args.rows, cols=args.cols, item_sd=item_sd,
                                    seed=table_seed))
    table = zscore(raw)
    if args.name == "r2cor-bias":
        gen = as_generator(run_seed)
        predictor = truth.item_effects + gen.normal(0, 0.25, size=args.rows)
        points = r2cor_bias_demo(table, predictor, p_grid, args.replications, gen)
    elif args.name == "ari-bias":
        points = ari_bias_demo(table, p_grid, args.replications, run_seed)
    else:
        points = crari_recovery_study(table, p_grid, args.replications, run_seed)
    _write_csv(args.output, columns,
               ([getattr(pt, name) for name in columns] for pt in points))
    lines.append(f"curve written: {args.output}")
    print("\n".join(lines))
    return 0


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.10g}" if isinstance(v, float) else v for v in row])


if __name__ == "__main__":
    sys.exit(main())
