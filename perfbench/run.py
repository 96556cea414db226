"""icctab benchmark: one command, four seeded workloads, checked outputs.

    python3 perfbench/run.py --workload cli-paper --seed 1 --seconds 10 --trace 0

Run it from anywhere inside a checkout of the repository; it runs the
package from ``src/`` without installing it.  Workloads (see
``BENCHMARK.json`` for why each was chosen):

cli-paper, cli-large
    the five-step CLI pipeline (``pipeline.py``) as subprocesses on a
    1400x80 and a 4200x240 table with 20% of cells missing;
impute-study, ecvt-power
    the imputation study and the validity-test power study
    (``studies.py``), in-process in a fresh worker process.

Load is a closed loop from one client: each operation starts when the
previous one has finished.  With ``--trace 0`` the last stdout line holds
the end-to-end metrics, times scaled by a reference task run next to each
operation (``reference.py``); with ``--trace 1`` a separate traced run
(``worker.py``, ``tracer.py``) gives the per-layer metrics.  The line
before it is a JSON record of provenance and details.  Peak RSS comes from
``os.wait4`` on each child, which is why this process imports nothing
large: a child's peak RSS includes its parent's peak at spawn time.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import loop
import pipeline

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cli-paper", "cli-large", "impute-study", "ecvt-power")
STARTUP_REPS = 5


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "icctab", "__init__.py")):
        print(f"error: no icctab package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)

    scratch = os.path.join(HERE, ".work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch)
    try:
        runner = Runner(workdir)
        if args.trace:
            spans = os.path.join(scratch, f"spans-{args.workload}-seed{args.seed}.json")
            out = runner.worker(args, "--trace", "--spans", spans)
            values = dict(out.pop("metrics"))
            values["cli.startup_s"] = runner.startup_s()
            out["spans_file"] = os.path.relpath(spans, ROOT)
            metric_specs = spec["per_layer"]
        else:
            cli = args.workload in pipeline.SHAPES
            out = runner.cli(args) if cli else runner.worker(args)
            nominal = loop.NOMINAL_S["subprocess" if cli else "in-process"]
            # an operation of a CLI workload is one command; five make a pipeline
            size = len(pipeline.STEPS) if cli else 1
            setup = scaled(out["setup_s"], out["setup_ref_s"], nominal)
            times = grouped(scaled(out["op_seconds"], out["op_ref_s"], nominal), size, sum)
            passed = grouped(out["op_passed"], size, all)
            values = {
                "setup_s": statistics.median(setup),
                "pipeline_s": statistics.median(times),
                "ops_per_s": sum(passed) / sum(times) if sum(times) > 0 else 0.0,
                "peak_rss_mb": runner.peak_mb,
            }
            out["unscaled"] = {
                "setup_s": statistics.median(out["setup_s"]),
                "pipeline_s": statistics.median(grouped(out["op_seconds"], size, sum)),
            }
            metric_specs = spec["end_to_end"]
        out["provenance"] = provenance(args, runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in metric_specs}
    print(json.dumps(out))
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0


def scaled(seconds, reference_s, nominal: float) -> list:
    """Times scaled to a machine on which the reference task takes ``nominal``."""
    return [t * nominal / r for t, r in zip(seconds, reference_s)]


def grouped(values: list, size: int, combine) -> list:
    """``combine`` applied to consecutive groups of ``size`` values."""
    return [combine(values[i:i + size]) for i in range(0, len(values), size)]


class Runner:
    """Spawns the package's processes and keeps the peak RSS of each."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.peak_mb = 0.0
        self.env = dict(os.environ)
        path = os.path.join(ROOT, "src")
        if self.env.get("PYTHONPATH"):
            path += os.pathsep + self.env["PYTHONPATH"]
        self.env["PYTHONPATH"] = path

    def spawn(self, argv, counts: bool = True):
        """Run ``argv`` to completion: ``(returncode, stdout, stderr, seconds)``.
        ``counts`` says whether its peak RSS counts as the program's."""
        with tempfile.TemporaryFile(dir=self.workdir) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                    env=self.env, cwd=ROOT)
            try:
                stdout = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
                proc.stdout.close()
            seconds = time.perf_counter() - start
            err.seek(0)
            stderr = err.read().decode("utf-8", "replace")
        if counts:
            self.peak_mb = max(self.peak_mb, usage.ru_maxrss / 1024)  # KiB on Linux
        return proc.returncode, stdout.decode("utf-8", "replace"), stderr, seconds

    def icctab(self, argv):
        return self.spawn([sys.executable, "-m", "icctab", *argv])

    def version(self) -> list:
        """Check results of one ``icctab --version`` run."""
        returncode, stdout, stderr, _ = self.icctab(["--version"])
        if returncode != 0 or not stdout.startswith("icctab "):
            return [[f"--version: exit code {returncode}, {stdout!r} {stderr[-300:]!r}"]]
        return [[]]

    def reference(self) -> float:
        """Time of the reference task as a subprocess (see ``reference.py``)."""
        returncode, _, stderr, seconds = self.spawn(
            [sys.executable, os.path.join(HERE, "reference.py")], counts=False)
        if returncode != 0:
            raise RuntimeError(f"reference task failed: {stderr[-2000:]}")
        return seconds

    def startup_s(self) -> float:
        """Median wall time of ``python -m icctab --version``."""
        return statistics.median(self.icctab(["--version"])[3] for _ in range(STARTUP_REPS))

    def cli(self, args) -> dict:
        target = pipeline.CliPipeline(self.icctab, self.version, self.workdir,
                                      args.workload, args.seed)
        out = loop.timed_run(target, args.seconds, self.reference)
        out["step_s"] = {name: statistics.median(times)
                         for name, times in target.step_seconds.items() if times}
        out["csv_bytes"] = target.bytes
        out["table_shape"] = target.shape
        return out

    def worker(self, args, *extra) -> dict:
        returncode, stdout, stderr, _ = self.spawn([
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--workdir", self.workdir, *extra])
        if returncode != 0:
            raise RuntimeError(f"worker exited with {returncode}: {stderr[-2000:]}")
        return json.loads(stdout.strip().splitlines()[-1])


def provenance(args, runner: Runner) -> dict:
    returncode, stdout, _, _ = runner.spawn(
        [sys.executable, os.path.join(HERE, "worker.py"), "--provenance"], counts=False)
    info = json.loads(stdout) if returncode == 0 else {}
    info.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "src_sha256": tree_hash(os.path.join(ROOT, "src")),
        **git_state(),
    })
    return info


def tree_hash(top: str) -> str:
    """SHA-256 over the relative paths and contents of the ``.py`` files."""
    digest = hashlib.sha256()
    for directory, dirs, files in sorted(os.walk(top)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, top).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def git_state() -> dict:
    """Commit and dirty flag, or nulls outside a git work tree."""
    # never look for a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))

    def git(*argv):
        return subprocess.run(["git", "-C", ROOT, *argv], capture_output=True,
                              text=True, check=False, env=env)

    try:
        head = git("rev-parse", "HEAD")
        if head.returncode != 0:
            return {"git_sha": None, "git_dirty": None}
        dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    except OSError:
        return {"git_sha": None, "git_dirty": None}
    return {"git_sha": head.stdout.strip(), "git_dirty": bool(dirty)}


if __name__ == "__main__":
    sys.exit(main())
