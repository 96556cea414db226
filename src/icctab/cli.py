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
reproduced byte for byte from its own header.  Each ``_run_*`` handler runs
its command and returns its ``results`` without printing: the ordered
``(key, text)`` pairs of the report body, a warning being one more
``("warning", text)`` pair.  A handler that resolves a default writes it
back to ``args`` (``ecvt`` its group sizes, ``experiment`` its p-grid).
:func:`main` then renders every report, so the format is decided in one
place.  The ``config:`` header holds every option of the subcommand as
``key=value`` in the order the parser defines them, ``seed`` last: ``None``
prints as ``<empty>``, a tuple comma-joined, anything else as ``str``.
Values are not quoted, so a path with a space in it makes a header that
does not split back into its options.  Exit codes: 0 ok, 1 stdout closed
by its reader (nothing on stderr), 2 format or usage error, 3 structural
error, 4 numeric error, 5 unreachable imputation target, 6 precondition
violation.  Each handler imports the kernels it runs, so ``--version``,
``--help`` and usage errors never load numpy.

A table command draws from one generator seeded by ``--seed``: first
``--mix``, then ``--virtualize``, then its kernel (``impute``'s donors,
``ecvt``'s splits).  ``synth`` and ``experiment`` give each stage its own
``split_seed`` child.

:func:`entrypoint` is the process (the console script and ``python -m
icctab``), and it ends it: once :func:`main` returns or raises, it freezes
the collector (``gc.freeze``), so the interpreter's final collections skip
the objects the imports and the command leave alive; if stdout's reader has
gone, it points stdout at devnull and exits 1.  Only the process's last
function may freeze or redirect stdout: :func:`main` also runs inside
long-lived processes (tests, the benchmark's traced replay).
"""

import argparse
import csv
import gc
import os
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

# experiment name -> default missing proportions; the CSV columns are the
# fields of the study's point dataclass
EXPERIMENTS = {
    "ari-bias": (0.0, 0.1, 0.2, 0.3),
    "degradation-curve": (0.1, 0.3, 0.5, 0.7, 0.9),
    "r2cor-bias": (0.0, 0.15, 0.3, 0.45, 0.6),
}

# table preprocessing switch -> help, in the order they apply and are reported
_TRANSFORMS = {
    "zscore": "standardize columns before the analysis",
    "mix": "randomly mix values within rows (seeded)",
    "virtualize": "repack rows into virtual participant columns (seeded)",
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        results = args.handler(args)
        config = {k: v for k, v in vars(args).items() if k not in ("subcommand", "handler")}
        config["seed"] = config.pop("seed")
        joined = " ".join(f"{k.replace('_', '-')}={_header_value(v)}" for k, v in config.items())
        print("\n".join([f"icctab {__version__}", f"command: {args.subcommand}",
                         f"config: {joined}", *(f"{k}: {v}" for k, v in results)]))
        return 0
    except IccTabError as exc:
        code = _exit_code(exc)
        print(f"error[{code}] {type(exc).__name__}: {exc}", file=sys.stderr)
        return code
    except BrokenPipeError:
        raise  # stdout's reader has gone: no file error, and only entrypoint may redirect stdout
    except OSError as exc:
        print(f"error[2] {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    try:
        try:
            sys.exit(main())
        finally:
            gc.freeze()
            sys.stdout.flush()  # a reader that has gone shows here, not in the exit flush
    except BrokenPipeError:  # devnull as stdout, so the exit flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


def _header_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return "<empty>" if value is None else str(value)


def _exit_code(exc: IccTabError) -> int:
    return next((code for klass, code in EXIT_CODES.items() if isinstance(exc, klass)), 1)


class _Parser(argparse.ArgumentParser):
    def _print_message(self, message, file=None):
        # argparse's own drops a failed write's OSError; raised, a reader gone from
        # stdout before --version or --help reaches entrypoint (exit 1)
        (file or sys.stderr).write(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="icctab",
        description="ICC statistics, corrected estimates and imputation "
        "for item-by-participant tables with missing data",
    )
    parser.add_argument("--version", action="version", version=f"icctab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("icc", help="ICC report for a table")
    _table_flags(p)
    p.add_argument("--conf", type=_comma_list(float, "numbers"), default="0.95,0.99,0.999",
                   help="comma-separated confidence probabilities")
    p.set_defaults(handler=_run_icc)

    p = sub.add_parser("impute", help="fill missing cells with a target ICC")
    _table_flags(p, "--output", "path of the imputed CSV", transforms=("zscore",))
    p.add_argument("--target", type=_target, default="corrected",
                   help="'low', 'corrected' or an explicit ICC value")
    p.set_defaults(handler=_run_impute)

    p = sub.add_parser("ecvt", help="additive-model validity test")
    _table_flags(p)
    p.add_argument("--groups", type=_comma_list(int, "integers"), default=None,
                   help="comma-separated group sizes (default: doubling up to n/2)")
    p.add_argument("--resamples", type=int, default=200)
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--curve", default=None,
                   help="optional CSV path for the predicted/observed curve")
    p.set_defaults(handler=_run_ecvt)

    p = sub.add_parser("fit", help="predictor goodness of fit")
    _table_flags(p, "--predictors", "CSV of predictor columns aligned with the table rows")
    p.add_argument("--conf", type=_comma_list(float, "numbers"), default="0.95,0.99,0.999",
                   help="comma-separated confidence probabilities")
    p.set_defaults(handler=_run_fit)

    p = sub.add_parser("synth", help="generate an artificial table")
    p.add_argument("--output", required=True, help="path of the table CSV")
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
    p.add_argument("--missing-code", default=None, help="token written in missing cells")
    p.add_argument("--ground-truth", default=None,
                   help="optional CSV path for item effects and exponents")
    p.set_defaults(handler=_run_synth)

    p = sub.add_parser("experiment", help="run a named canned study")
    p.add_argument("--name", required=True, choices=tuple(EXPERIMENTS))
    p.add_argument("--output", required=True, help="path of the curve CSV")
    p.add_argument("--rows", type=int, default=1400)
    p.add_argument("--cols", type=int, default=80)
    p.add_argument("--p-grid", type=_comma_list(float, "numbers"), default=None,
                   help="comma-separated missing proportions")
    p.add_argument("--replications", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_run_experiment)
    return parser


def _table_flags(p: argparse.ArgumentParser, *path_flag, transforms=_TRANSFORMS):
    p.add_argument("--input", required=True, help="CSV table to analyze")
    if path_flag:  # the command's own (flag, help), reported right after --input
        p.add_argument(path_flag[0], required=True, help=path_flag[1])
    p.add_argument("--missing-code", default=None,
                   help="token of a missing cell, text or number (empty cells always count)")
    p.add_argument("--seed", type=int, default=0)
    for flag in transforms:
        p.add_argument(f"--{flag}", action="store_true", help=_TRANSFORMS[flag])


def _load_table(args):
    from .rand import as_generator
    from .table import load_csv, mix_rows, virtualize, zscore

    table = load_csv(args.input, args.missing_code)
    rng = as_generator(args.seed)
    if getattr(args, "zscore", False):
        table = zscore(table)
    if getattr(args, "mix", False):
        table = mix_rows(table, rng)
    if getattr(args, "virtualize", False):
        table = virtualize(table, rng)
    return table, rng


def _comma_list(kind, noun: str):
    """Argument type of a comma-separated list of ``kind`` (blank items
    skipped), whose usage error names the elements ``noun``."""

    def parse(raw: str) -> tuple:
        try:
            return tuple(kind(tok) for tok in raw.split(",") if tok.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {noun}, got {raw!r}") from None

    return parse


def _target(raw: str) -> str | float:
    """'low', 'corrected' or the number ``raw`` reads as, else a usage error."""
    if raw in ("low", "corrected"):
        return raw
    try:
        return float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'low', 'corrected' or a number, got {raw!r}") from None


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _icc_results(report) -> list[tuple[str, str]]:
    return [
        ("q", _fmt(report.q)),
        ("icc", _fmt(report.icc)),
        ("Fobs", _fmt(report.f_obs)),
        ("pmiss", _fmt(report.pmiss)),
        ("iccCor", _fmt(report.icc_cor)),
        *((f"conf {prob:g}", f"[{_fmt(lower)}, {_fmt(upper)}]")
          for prob, lower, upper in report.conf),
        ("column-effect-warning",
         "yes (corrected statistics unreliable)" if report.warnings else "no"),
    ]


def _run_icc(args):
    from .anova import icc_report

    table, _ = _load_table(args)
    report = icc_report(table, args.conf)
    return [
        ("table", f"{table.rows} rows x {table.cols} cols, {int(table.missing.sum())} missing"),
        *_icc_results(report),
    ]


def _run_impute(args):
    from .impute import crari_impute
    from .table import save_csv

    table, rng = _load_table(args)
    outcome = crari_impute(table, target=args.target, rng=rng)
    save_csv(outcome.imputed, args.output)
    return [
        ("icc", _fmt(outcome.icc_before)),
        ("iccCor", _fmt(outcome.icc_cor)),
        ("target", _fmt(outcome.target)),
        ("iccImputed", _fmt(outcome.icc_after)),
        ("c", f"{outcome.c:.4f}"),
        ("row-mean-drift", f"{outcome.row_mean_drift:.3e}"),
        ("warnings", "; ".join(outcome.warnings) or "none"),
        ("imputed table written", args.output),
    ]


def _run_ecvt(args):
    from .ecvt import ecvt

    table, rng = _load_table(args)
    report = ecvt(table, group_sizes=args.groups or None, resamples=args.resamples,
                  alpha=args.alpha, rng=rng)
    args.groups = report.group_sizes
    curve = list(zip(report.group_sizes, report.predicted_r,
                     report.observed_mean_r, report.observed_sd_r))
    results = [
        ("chi2", f"{report.chi2:.4f} (df={report.df})"),
        ("p-value", f"{report.p_value:.6g}"),
        ("verdict", f"{report.verdict} (alpha={args.alpha:g})"),
        *((f"g={g}", f"predicted={_fmt(predicted)} observed={_fmt(observed)} sd={_fmt(sd)}")
          for g, predicted, observed, sd in curve),
        *(("warning", warning) for warning in report.warnings),
    ]
    if args.curve:
        _write_csv(args.curve, ["g", "predicted_r", "observed_mean_r", "observed_sd_r"], curve)
        results.append(("curve written", args.curve))
    return results


def _run_fit(args):
    from .fit import fit_predictors

    table, _ = _load_table(args)
    predictors = _load_matrix(args.predictors)
    fit = fit_predictors(table, predictors, args.conf)
    return [
        *_icc_results(fit.icc_context),
        ("r2", " ".join(_fmt(v) for v in fit.r2)),
        ("r2onICC", " ".join(_fmt(v) for v in fit.r2_on_icc)),
        ("r2Cor", " ".join(_fmt(v) for v in fit.r2_cor)),
        *(("warning", warning) for warning in fit.warnings),
    ]


def _load_matrix(path):
    """Dense numeric CSV (any shape, no missing cells), header optional."""
    from .table import _read_cells

    values, missing = _read_cells(path)
    if missing.any():
        i, j = divmod(int(missing.argmax()), missing.shape[1])
        raise TableFormatError(f"{path}: row {i + 1}, column {j + 1}: cannot parse ''")
    return values


def _run_synth(args):
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
    save_csv(table, args.output, args.missing_code)
    results = [
        (f"expected icc at n={args.cols}", _fmt(truth.expected_icc)),
        ("table written", args.output),
    ]
    if args.ground_truth:
        _write_csv(args.ground_truth, ("item_effect", "participant_exponent"), (
            (repr(float(truth.item_effects[i])) if i < args.rows else "",
             repr(float(truth.participant_exponents[i])) if i < args.cols else "")
            for i in range(max(args.rows, args.cols))))
        results.append(("ground truth written", args.ground_truth))
    return results


def _run_experiment(args):
    from dataclasses import astuple, fields

    from .fit import r2cor_bias_demo
    from .impute import ari_bias_demo, crari_recovery_study
    from .rand import as_generator, split_seed
    from .synth import SynthSpec, generate
    from .table import zscore

    args.p_grid = p_grid = args.p_grid or EXPERIMENTS[args.name]
    table_seed, run_seed = split_seed(args.seed, 2)
    item_sd = 0.3 if args.name == "r2cor-bias" else SynthSpec.item_sd
    raw, truth = generate(SynthSpec(rows=args.rows, cols=args.cols, item_sd=item_sd,
                                    seed=table_seed))
    table = zscore(raw)
    results = []
    if args.name == "r2cor-bias":
        gen = as_generator(run_seed)
        predictor = truth.item_effects + gen.normal(0, 0.25, size=args.rows)
        points = r2cor_bias_demo(table, predictor, p_grid, args.replications, gen)
        dropped = [f"{pt.dropped} of {args.replications} at p = {pt.p:g}"
                   for pt in points if pt.dropped]
        if dropped:
            results.append(("warning", "r2_cor averages the replications with ICC > 0 "
                            "(nan if none); ICC 0 in " + ", ".join(dropped)))
    elif args.name == "ari-bias":
        points = ari_bias_demo(table, p_grid, args.replications, run_seed)
    else:
        points = crari_recovery_study(table, p_grid, args.replications, run_seed)
    _write_csv(args.output, [field.name for field in fields(points[0])],
               (astuple(pt) for pt in points))
    results.append(("curve written", args.output))
    return results


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.10g}" if isinstance(v, float) else v for v in row])


if __name__ == "__main__":
    entrypoint()
