"""In-process workloads: the imputation study and the validity-test power study.

Each study object has the same interface, used by ``worker.py``:

``setup(rep)``
    generate the study's inputs and run one warm-up operation; returns
    the check results of the warm-up;
``op(k)``
    run operation ``k`` and return ``(seconds, results)``, where
    ``seconds`` times the library calls only and ``results`` holds one list
    of problems per output check (an empty list is a passed check);
``finish()``
    run-level checks over all operations, in the same form as ``results``.

``cycle`` is the number of operations in one full pass over the study's
parameter grid (a timed loop always ends on a whole pass) and ``shape`` the
(rows, columns) of its tables.  All random
streams are derived from the run seed and the operation index, so the same
seed gives the same inputs and the same call counts.
"""

import math
import time

import numpy as np

from icctab.anova import icc_report
from icctab.ecvt import ecvt
from icctab.fit import r2_icc_curve
from icctab.impute import ari_impute, crari_impute
from icctab.synth import SynthSpec, degrade_random, generate
from icctab.table import zscore
from pipeline import DRIFT_TOLERANCE, TARGET_TOLERANCE

WARMUP = 1 << 20  # operation indices used by warm-up operations


def seeds(seed: int, stream: int, k: int) -> np.random.SeedSequence:
    """The random stream ``stream`` of operation ``k`` in a run."""
    return np.random.SeedSequence([seed, stream, k])


def check_crari(degraded, outcome) -> list[str]:
    """Acceptance criterion 6 for one ``crari_impute`` result."""
    problems = []
    gap = abs(outcome.icc_after - outcome.target)
    if not gap <= TARGET_TOLERANCE:
        problems.append(f"CRARI ICC {outcome.icc_after} misses target {outcome.target}")
    drift = float(np.abs(outcome.imputed.row_means() - degraded.row_means()).max())
    if not drift <= DRIFT_TOLERANCE:
        problems.append(f"CRARI item-mean drift {drift}")
    valid = degraded.valid
    if not np.array_equal(outcome.imputed.values[valid], degraded.values[valid]):
        problems.append("CRARI changed valid cells")
    if outcome.imputed.missing.any():
        problems.append("CRARI left missing cells")
    return problems


class ImputeStudy:
    """Degrade -> ICC -> ARI + ICC -> CRARI on one Z-scored 1400x80 table.

    The operation is one replication; the missing proportion cycles over
    the paper's degradation grid.
    """

    P_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)
    cycle = len(P_GRID)
    shape = (1400, 80)

    def __init__(self, seed: int):
        self.seed = seed
        self.table = None

    def setup(self, rep: int) -> list:
        raw, _ = generate(SynthSpec(*self.shape, seed=seeds(self.seed, 0, 0)))
        self.table = zscore(raw)
        return self.op(WARMUP + rep)[1]

    def op(self, k: int):
        p = self.P_GRID[k % self.cycle]
        start = time.perf_counter()
        degraded = degrade_random(self.table, p, seeds(self.seed, 1, k))
        icc_report(degraded)
        icc_report(ari_impute(degraded, seeds(self.seed, 2, k)))
        outcome = crari_impute(degraded, target="corrected", rng=seeds(self.seed, 3, k))
        seconds = time.perf_counter() - start
        return seconds, [check_crari(degraded, outcome)]

    def finish(self) -> list:
        return []


class EcvtPower:
    """Criterion-9 style tables: generate -> ECVT -> degrade -> CRARI -> ECVT
    -> r2/ICC curve, with the severity alternating between 0 and 2.

    ``finish`` checks the share of compatible verdicts per severity and
    stage against criterion 9 (at least 18 of 20 compatible at severity 0,
    at most 2 of 20 at severity 2), with the allowed number of misses
    scaled to the run's table count and rounded up.
    """

    SEVERITIES = (0.0, 2.0)
    GROUP_SIZES = (1, 2, 4, 8, 16, 32, 40)
    RESAMPLES = 1000
    CURVE_RESAMPLES = 200
    MISS_SHARE = 2 / 20
    cycle = len(SEVERITIES)
    shape = (1400, 80)

    def __init__(self, seed: int):
        self.seed = seed
        self.verdicts = {s: {"complete": [], "imputed": []} for s in self.SEVERITIES}

    def setup(self, rep: int) -> list:
        # a whole operation at reduced resampling warms every layer
        _, problems, _ = self._table(WARMUP + rep, resamples=20, curve_resamples=2)
        return problems

    def op(self, k: int):
        seconds, problems, verdicts = self._table(k, self.RESAMPLES, self.CURVE_RESAMPLES)
        severity = self.SEVERITIES[k % self.cycle]
        for stage, compatible in verdicts.items():
            self.verdicts[severity][stage].append(compatible)
        return seconds, problems

    def _table(self, k: int, resamples: int, curve_resamples: int):
        severity = self.SEVERITIES[k % self.cycle]
        spec = SynthSpec(*self.shape, item_sd=0.7, severity=severity,
                         seed=seeds(self.seed, 1, k))
        start = time.perf_counter()
        raw, truth = generate(spec)
        complete = ecvt(zscore(raw), resamples=resamples, rng=seeds(self.seed, 2, k))
        degraded = zscore(degrade_random(raw, 0.16, rng=seeds(self.seed, 3, k)))
        outcome = crari_impute(degraded, target="corrected", rng=seeds(self.seed, 4, k))
        imputed = ecvt(outcome.imputed, resamples=resamples, rng=seeds(self.seed, 5, k))
        curve = r2_icc_curve(degraded, truth.item_effects, self.GROUP_SIZES,
                             resamples=curve_resamples, rng=seeds(self.seed, 6, k))
        seconds = time.perf_counter() - start
        r2_problems = [f"r2 {point.r2} at g={point.g} outside [0, 1]"
                       for point in curve if not 0.0 <= point.r2 <= 1.0]
        verdicts = {"complete": complete.compatible, "imputed": imputed.compatible}
        return seconds, [check_crari(degraded, outcome), r2_problems], verdicts

    def finish(self) -> list:
        results = []
        for severity in self.SEVERITIES:
            for stage, verdicts in self.verdicts[severity].items():
                n = len(verdicts)
                allowed = math.ceil(n * self.MISS_SHARE)
                misses = n - sum(verdicts) if severity == 0 else sum(verdicts)
                results.append([] if misses <= allowed else [
                    f"severity {severity:g}, {stage}: {misses} of {n} verdicts wrong, "
                    f"at most {allowed} allowed"])
        return results


STUDIES = {"impute-study": ImputeStudy, "ecvt-power": EcvtPower}
