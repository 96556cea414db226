"""The closed measuring loop shared by every workload.

A target (a study in ``studies.py`` or a :class:`pipeline.CliPipeline`)
is set up several times, then its operations run one after another, each
starting when the previous one has finished, in whole cycles of ``cycle``
operations, for as long as another cycle is expected to end within the
run's time (at least one cycle runs).  Failed checks and operations that
raise are counted and never stop the loop.  Standard library only, like
``pipeline.py``.
"""

import statistics
import time
import traceback

MAX_PROBLEMS = 10  # problems kept verbatim for the report
SETUP_REPS = 5  # set-ups per run; setup_s is their median
# median time of the reference task (reference.py), run in-process or as a
# subprocess, on the 2-vCPU x86-64 machine where the benchmark was defined
NOMINAL_S = {"in-process": 0.023, "subprocess": 0.27}


class Tally:
    """Counts attempted and failed operations and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, results) -> None:
        """Record check results: one list of problems per check."""
        for problems in results:
            self.attempted += 1
            if problems:
                self.failed += 1
                self._keep("; ".join(problems))

    def attempt(self, fn, *args):
        """Call ``fn``; an exception counts as one failed operation."""
        try:
            return fn(*args)
        except Exception:  # noqa: BLE001 - the loop must keep running
            self.attempted += 1
            self.failed += 1
            self._keep(traceback.format_exc(limit=-3).strip())
            return None

    def _keep(self, text: str) -> None:
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(text)

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "problems": self.problems}


def timed_run(target, seconds: float, reference) -> dict:
    """Set ``target`` up ``SETUP_REPS`` times, then run whole cycles of
    operations within ``seconds`` (at least one cycle).

    ``reference()`` runs the reference task and returns its time; it runs
    before each set-up, and before the first and after every operation.
    Returns the set-up times, the time of every operation (0 if it raised)
    and whether it passed its checks, the reference time next to each (for
    an operation, the mean of the runs before and after it), and the tally.
    """
    tally = Tally()
    setup_s, setup_ref = [], []
    for rep in range(SETUP_REPS):
        setup_ref.append(reference())
        start = time.perf_counter()
        results = tally.attempt(target.setup, rep)
        setup_s.append(time.perf_counter() - start)
        if results is not None:
            tally.add(results)
    op_seconds, op_ref, op_passed = [], [], []
    iteration_s = []  # wall time of each operation with its checks and reference
    k = 0
    start = time.perf_counter()
    before = reference()
    while True:
        now = time.perf_counter()
        if k and k % target.cycle == 0:
            if now - start + target.cycle * statistics.median(iteration_s) > seconds:
                break
        done = run_op(target, k, tally)
        after = reference()
        k += 1
        iteration_s.append(time.perf_counter() - now)
        op_seconds.append(done[0] if done else 0.0)
        op_ref.append((before + after) / 2)
        op_passed.append(bool(done and done[1]))
        before = after
    tally.add(target.finish())
    return {"setup_s": setup_s, "setup_ref_s": setup_ref, "op_seconds": op_seconds,
            "op_ref_s": op_ref, "op_passed": op_passed, **tally.as_dict()}


def run_op(target, k: int, tally: Tally):
    """Run operation ``k`` and tally its checks: ``(seconds, passed)``, or
    None if it raised."""
    out = tally.attempt(target.op, k)
    if out is None:
        return None
    seconds, results = out
    tally.add(results)
    return seconds, not any(results)
