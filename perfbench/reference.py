"""A fixed task whose time tracks the speed of the machine at the moment.

On a shared host the same work can take 10-30% more or less time from one
minute to the next.  The benchmark therefore runs this task right before
and after each timed operation and reports times scaled to a machine on
which the task takes its nominal time:

    scaled = measured * nominal / reference time at that moment

``compute()`` is interpreter work plus numpy array work, the mix of the
in-process workloads; ``python3 perfbench/reference.py`` adds interpreter
start-up and the numpy import, the mix of a CLI command.  Neither touches
icctab, so a change to the package moves the scaled times and not the
reference.  The nominal times are in ``loop.NOMINAL_S``.
"""

import time

import numpy as np

_ARRAY = np.random.default_rng(0).normal(size=(1400, 80))


def compute() -> float:
    """Run the fixed task in this process and return its time."""
    start = time.perf_counter()
    total = 0
    for i in range(60000):
        total += i * i
    for _ in range(20):
        total += float(np.sort(_ARRAY, axis=0).sum())
    return time.perf_counter() - start


if __name__ == "__main__":
    compute()
