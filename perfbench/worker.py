"""Runs one workload inside a fresh Python process for ``run.py``.

    python3 perfbench/worker.py --workload impute-study --seed 1 --seconds 10 \\
        --workdir DIR [--trace --spans FILE]
    python3 perfbench/worker.py --provenance

Untraced, it runs an in-process study (``studies.py``) under the timed loop.
Traced, it runs any workload, the CLI pipelines replayed through
``icctab.cli.main``, for a fixed number of operations: once to warm up,
then each operation plain and again with the tracer installed.  The call
counts repeat exactly for a given seed, and the ratio of traced to plain
time is the tracing overhead.  The result is one JSON line on stdout.
"""

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import loop  # noqa: E402
import pipeline  # noqa: E402

# operations in each traced pass, in whole cycles (a CLI operation is one
# command, five to a pipeline), about 2-15 s per pass
TRACE_OPS = {"cli-paper": 10, "cli-large": 5, "impute-study": 20, "ecvt-power": 2}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--workdir")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--provenance", action="store_true")
    args = parser.parse_args()
    if args.provenance:
        print(json.dumps(numpy_provenance()))
        return 0

    start = time.perf_counter()
    import icctab.cli  # noqa: F401 - loads every layer the tracer wraps
    import studies
    import_s = time.perf_counter() - start

    if args.workload in pipeline.SHAPES:
        target = pipeline.CliPipeline(replay_step, lambda: [], args.workdir,
                                      args.workload, args.seed)
    else:
        target = studies.STUDIES[args.workload](args.seed)
    if args.trace:
        result = traced_run(target, TRACE_OPS[args.workload], args.spans)
    else:
        import reference

        result = loop.timed_run(target, args.seconds, reference.compute)
    result["import_s"] = import_s
    result["table_shape"] = target.shape
    print(json.dumps(result))
    return 0


def replay_step(argv):
    """One CLI step in this process: ``(returncode, stdout, stderr, seconds)``."""
    from icctab import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def traced_run(target, ops: int, spans_path: str) -> dict:
    from tracer import Tracer

    tally = loop.Tally()
    results = tally.attempt(target.setup, 0)
    if results is not None:
        tally.add(results)
    for k in range(ops):  # warms the allocator and caches
        loop.run_op(target, k, tally)
    tracer = Tracer()
    untraced = traced = 0.0
    for k in range(ops):  # pairs close in time, so drift in machine speed cancels
        done = loop.run_op(target, k, tally)
        untraced += done[0] if done else 0.0
        tracer.run_id = k
        tracer.install()
        try:
            done = loop.run_op(target, k, tally)
        finally:
            tracer.uninstall()
        traced += done[0] if done else 0.0
    tally.add(target.finish())
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_ratio"] = traced / untraced if untraced > 0 else 0.0
    tracer.write_spans(spans_path)
    return {"metrics": metrics, "untraced_s": untraced, "traced_s": traced,
            "ops": ops, **tally.as_dict()}


def numpy_provenance() -> dict:
    import numpy as np

    info = {"numpy": np.__version__, "blas": None, "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


if __name__ == "__main__":
    sys.exit(main())
