"""The CLI pipeline run by the cli-paper and cli-large workloads.

One pipeline is five ``icctab`` subcommands on one seeded table:

    synth --degrade 0.2 --ground-truth ...   make the table and its truth
    icc --zscore --virtualize                ICC report
    impute --zscore                          CRARI to the corrected ICC
    ecvt                                     validity test of the imputed table
    fit --zscore --mix                       two predictors against item means

Between ``synth`` and ``fit`` the benchmark writes the predictor CSV from
the ground-truth file and the seed; that step is not timed.  The pipeline
takes a ``run_step(argv) -> (returncode, stdout, stderr, seconds)``
callable, so the same steps and checks serve the subprocess run and the
in-process replay of the traced run.  This module uses only the standard
library: the process that spawns the subcommands must stay small, because
a child's peak-RSS figure includes its parent's peak at spawn time.
"""

import csv
import hashlib
import math
import os
import random

STEPS = ("synth", "icc", "impute", "ecvt", "fit")
SHAPES = {"cli-paper": (1400, 80), "cli-large": (4200, 240)}
DEGRADE = 0.2
TARGET_TOLERANCE = 2e-3  # acceptance criterion 6
DRIFT_TOLERANCE = 1e-9


def pipeline_seed(seed: int, k: int) -> int:
    """A 31-bit seed for pipeline ``k`` of a run, derived from the run seed."""
    digest = hashlib.sha256(f"icctab-pipeline:{seed}:{k}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


class CliPipeline:
    """A ``loop.timed_run`` target whose operation is one step of a pipeline.

    Operation ``k`` runs step ``k % 5`` of pipeline ``k // 5``, so a cycle
    is one whole pipeline and every command is timed on its own.  A failed
    command, or a ``synth`` whose files fail their checks, stops the
    pipeline: its later steps take no time and report the problem
    "skipped".  ``warm_up()`` runs at each set-up and returns check results.
    The per-step times and the file sizes of the last pipeline are kept for
    the report.
    """

    cycle = len(STEPS)

    def __init__(self, run_step, warm_up, workdir: str, workload: str, seed: int):
        self.run_step = run_step
        self.warm_up = warm_up
        self.shape = self.rows, self.cols = SHAPES[workload]
        self.seed = seed
        self.path = {name: os.path.join(workdir, f"{name}.csv")
                     for name in ("table", "truth", "imputed", "predictors")}
        self.step_seconds = {name: [] for name in STEPS}
        self.bytes = {}
        self.stopped = False

    def setup(self, rep: int) -> list:
        return self.warm_up()

    def op(self, k: int):
        pipeline, step = divmod(k, self.cycle)
        s = pipeline_seed(self.seed, pipeline)
        if step == 0:
            self.stopped = False
            for stale in self.path.values():
                if os.path.exists(stale):
                    os.remove(stale)
        name = STEPS[step]
        if self.stopped:
            return 0.0, [["skipped after a failed step"]]
        returncode, stdout, stderr, seconds = self.run_step(self._argv(name, s))
        self.step_seconds[name].append(seconds)
        if returncode != 0:
            self.stopped = True
            return seconds, [[f"{name}: exit code {returncode}: {stderr.strip()[-300:]}"]]
        problems = CHECKS[name](parse_report(stdout), self.path, self.rows, self.cols)
        if name == "synth":
            self.stopped = bool(problems)
            if not self.stopped:
                write_predictors(self.path["truth"], self.path["predictors"], self.rows, s)
        if step == self.cycle - 1:
            self.bytes = {key: os.path.getsize(p) for key, p in self.path.items()
                          if os.path.exists(p)}
        return seconds, [[f"{name}: {problem}" for problem in problems]]

    def finish(self) -> list:
        return []

    def _argv(self, name: str, s: int) -> list:
        path = self.path
        common = ["--seed", str(s)]
        if name == "synth":
            return ["synth", "--rows", str(self.rows), "--cols", str(self.cols),
                    "--degrade", str(DEGRADE), "--output", path["table"],
                    "--ground-truth", path["truth"]] + common
        if name == "icc":
            return ["icc", "--input", path["table"], "--zscore", "--virtualize"] + common
        if name == "impute":
            return ["impute", "--input", path["table"], "--zscore",
                    "--output", path["imputed"]] + common
        if name == "ecvt":
            return ["ecvt", "--input", path["imputed"]] + common
        return ["fit", "--input", path["table"], "--zscore", "--mix",
                "--predictors", path["predictors"]] + common


def write_predictors(truth_path: str, out_path: str, rows: int, seed: int) -> None:
    """Two predictor columns: noisy true item effects, and pure noise."""
    with open(truth_path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        next(reader)
        effects = [float(row[0]) for _, row in zip(range(rows), reader)]
    gen = random.Random(seed)
    with open(out_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["signal", "noise"])
        for effect in effects:
            writer.writerow([repr(effect + gen.gauss(0.0, 0.25)), repr(gen.gauss(0.0, 1.0))])


def parse_report(text: str) -> dict:
    """``key: value`` lines of a report; repeated keys keep the last value."""
    report = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            report[key] = value
    return report


def csv_stats(path: str) -> tuple[int, set, int, int]:
    """Row count, set of row widths, empty cells and unparseable or
    non-finite cells of a headerless numeric CSV, read one row at a time."""
    n_rows, widths, empty, bad = 0, set(), 0, 0
    with open(path, newline="", encoding="utf-8") as handle:
        for row in csv.reader(handle):
            n_rows += 1
            widths.add(len(row))
            for cell in row:
                if cell == "":
                    empty += 1
                    continue
                try:
                    if not math.isfinite(float(cell)):
                        bad += 1
                except ValueError:
                    bad += 1
    return n_rows, widths, empty, bad


def _missing_keys(report: dict, keys) -> list[str]:
    absent = [key for key in keys if key not in report]
    return [f"report lacks {', '.join(absent)}"] if absent else []


def _number(report: dict, key: str) -> float:
    try:
        return float(report[key].split()[0])
    except (KeyError, IndexError, ValueError):
        return math.nan


def _check_table_file(path: str, rows: int, cols: int, empty_expected: int) -> list[str]:
    if not os.path.exists(path):
        return [f"{os.path.basename(path)} was not written"]
    n_rows, widths, empty, bad = csv_stats(path)
    problems = []
    if n_rows != rows or widths != {cols}:
        problems.append(f"{os.path.basename(path)} is {n_rows} rows of widths "
                        f"{sorted(widths)}, expected {rows}x{cols}")
    if empty != empty_expected:
        problems.append(f"{os.path.basename(path)} has {empty} empty cells, "
                        f"expected {empty_expected}")
    if bad:
        problems.append(f"{os.path.basename(path)} has {bad} non-numeric or non-finite cells")
    return problems


def _check_synth(report, path, rows, cols):
    problems = _missing_keys(report, ("table written", "ground truth written"))
    if not any(key.startswith("expected icc") for key in report):
        problems.append("report lacks the expected icc")
    return problems + _check_table_file(path["table"], rows, cols, round(DEGRADE * rows * cols))


def _check_icc(report, path, rows, cols):
    problems = _missing_keys(report, ("table", "q", "icc", "Fobs", "pmiss", "iccCor",
                                      "column-effect-warning"))
    if not 0.0 <= _number(report, "icc") <= 1.0:
        problems.append(f"icc {report.get('icc')} outside [0, 1]")
    return problems


def _check_impute(report, path, rows, cols):
    problems = _missing_keys(report, ("icc", "iccCor", "target", "iccImputed",
                                      "row-mean-drift"))
    gap = abs(_number(report, "iccImputed") - _number(report, "target"))
    if not gap <= TARGET_TOLERANCE:
        problems.append(f"imputed ICC misses the target by {gap}")
    drift = _number(report, "row-mean-drift")
    if not drift <= DRIFT_TOLERANCE:
        problems.append(f"item-mean drift {drift}")
    return problems + _check_table_file(path["imputed"], rows, cols, 0)


def _check_ecvt(report, path, rows, cols):
    problems = _missing_keys(report, ("chi2", "p-value", "verdict"))
    verdict = report.get("verdict", "").split(" ")[0]
    if verdict not in ("compatible", "incompatible"):
        problems.append(f"verdict {verdict!r}")
    if not 0.0 <= _number(report, "p-value") <= 1.0:
        problems.append(f"p-value {report.get('p-value')} outside [0, 1]")
    return problems


def _check_fit(report, path, rows, cols):
    problems = _missing_keys(report, ("icc", "iccCor", "r2", "r2onICC", "r2Cor"))
    try:
        r2 = [float(tok) for tok in report.get("r2", "").split()]
    except ValueError:
        r2 = []
    if len(r2) != 2 or not all(0.0 <= v <= 1.0 for v in r2):
        problems.append(f"r2 {report.get('r2')!r} is not two values in [0, 1]")
    return problems


CHECKS = {
    "synth": _check_synth,
    "icc": _check_icc,
    "impute": _check_impute,
    "ecvt": _check_ecvt,
    "fit": _check_fit,
}
