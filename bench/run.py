"""Closed-loop benchmark of burgers-dqm: one client, one process.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload p4-mesh16 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Each job starts when the previous one ends.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` reports its per-layer
metrics from a run of untraced and traced jobs in turn.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; a fuller record, with the environment, goes to
``--out`` (default ``.bench_work/results``).  See bench/README.md.
"""

import os

# Pin BLAS to one thread before numpy is imported, here and in the set-up
# probes this process starts: with default threading the job medians of two
# processes spread by up to 17% on two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("p4-mesh16", "p4-mesh64", "p1-n121", "cli-analysis")
SETUP_PROBES = 4  # fresh processes timed before the jobs, and again after
MIN_TAIL_BEYOND = 10


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _median(values):
    """Median, or NaN when every job failed and there is nothing to rank."""
    values = list(values)
    return statistics.median(values) if values else math.nan


def _percentile_tail(times):
    """Highest percentile with at least ten samples beyond it, with its rank."""
    ordered = sorted(times)
    n = len(ordered)
    if n == 0:
        return math.nan, math.nan
    if n <= MIN_TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - MIN_TAIL_BEYOND - 1], 100.0 * (n - MIN_TAIL_BEYOND) / n


def _workloads():
    # Imported late, like tracing: the set-up probe times the import of numpy
    # and burgers_dqm, which these modules pull in.
    import workloads

    return workloads.make_workloads(WORK / ("cli-%d" % os.getpid()))


def setup_probe(name, seed):
    """Set-up time of a fresh process: imports plus the workload's set-up."""
    t = time.perf_counter()
    workload = _workloads()[name]
    workload.setup(workload.inputs(seed))
    return time.perf_counter() - t


def measure_setup(name, seed, reference):
    """Set-up times of ``SETUP_PROBES`` fresh processes: (reference, wall).

    A probe's wall time is divided by the square root of the host slowdown
    measured around it: under the same host load, import and set-up work
    slows about half as much, in log terms, as the speed kernel does
    (fitted slopes 0.3 to 0.75), so the full slowdown would over-correct.
    """
    scaled, wall = [], []
    reference.slowdown()  # fresh "before" reading for the first probe
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed: %s" % proc.stderr.strip())
        seconds = float(proc.stdout.split()[-1])
        wall.append(seconds)
        scaled.append(seconds / math.sqrt(reference.slowdown()))
    return scaled, wall


class JobLog:
    """Times, results and failures of the jobs one loop has run."""

    def __init__(self, workload, ctx, reference):
        self.workload = workload
        self.ctx = ctx
        self.reference = reference
        self.times = []  # wall seconds
        self.slowdowns = []  # host slowdown measured around each job
        self.steps = 0
        self.per_input = {}  # input index -> JobResult of its first run
        self.failures = []
        self.attempted = 0
        self.layers = []  # per-job layer figures, traced jobs only
        self.rhs_names = set()

    def covered(self):
        return len(self.per_input) == len(self.ctx.inputs)

    def run(self, k, tracer=None):
        """Run, time and check one job on input ``k``."""
        self.attempted += 1
        try:
            t = time.perf_counter()
            out = self.workload.run(self.ctx, k)
            elapsed = time.perf_counter() - t
            slowdown = self.reference.slowdown()
            if tracer is not None:
                figures, names = tracer.take_job()
                self.layers.append(figures)
                self.rhs_names.update(names)
            result = self.workload.check(self.ctx, k, out)
        except Exception as exc:  # a failed job is counted, and the loop goes on
            if tracer is not None:
                tracer.spans.clear()
            self.failures.append("input %d: %s: %s" % (k, type(exc).__name__, exc))
            self.per_input.setdefault(k, None)
            return
        first = self.per_input.setdefault(k, result)
        if first is not None and (first.err_linf, first.err_l2) != (
                result.err_linf, result.err_l2):
            self.failures.append("input %d: repeat gave a different error" % k)
            return
        self.times.append(elapsed)
        self.slowdowns.append(slowdown)
        self.steps += result.steps

    def ref_times(self):
        """Job times in reference seconds (see speed.py)."""
        return [t / s for t, s in zip(self.times, self.slowdowns)]


def run_jobs(workload, ctx, seconds, reference):
    """Run jobs back to back for ``seconds`` and at least one input cycle."""
    log = JobLog(workload, ctx, reference)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not log.covered():
        log.run(log.attempted % len(ctx.inputs))
    return log


def end_to_end(log, setup):
    times = log.ref_times()
    done = [r for r in log.per_input.values() if r is not None]
    tail, tail_pct = _percentile_tail(times)
    metrics = {
        "setup_s": statistics.median(setup[0]),
        "job_s.p50": _median(times),
        "job_s.tail": tail,
        "steps_per_s": log.steps / sum(times) if times else math.nan,
        "err_linf": _median(r.err_linf for r in done),
        "err_l2": _median(r.err_l2 for r in done),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"jobs": len(times), "job_s.tail_percentile": tail_pct,
             "job_s.tail_samples_beyond": min(MIN_TAIL_BEYOND, len(times) - 1),
             "fail_ratio": len(log.failures) / log.attempted,
             "host_slowdown.p50": _median(log.slowdowns),
             "wall.setup_s": statistics.median(setup[1]),
             "wall.setup_samples_s": setup[1],
             "wall.job_s.p50": _median(log.times),
             "wall.job_s.tail": _percentile_tail(log.times)[0],
             "wall.steps_per_s": log.steps / sum(log.times) if times else math.nan}
    return metrics, notes


def environment(seed):
    import numpy as np

    info = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
    }
    info.update(_blas_info(np))
    return info


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas_info(np):
    import ctypes

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "blas_threads": None}
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def run_workload(args):
    spec = _spec()
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    workload = _workloads()[args.workload]
    import speed

    setup_reference = speed.SpeedReference()
    setup = ([], []) if args.trace else measure_setup(
        args.workload, args.seed, setup_reference)
    ctx = workload.setup(workload.inputs(args.seed))
    reference = speed.SpeedReference(*workload.speed_kernel(ctx))
    try:
        workload.run(ctx, 0)  # warm-up: lazy set-up and caches, not timed
        if args.trace:
            metrics, notes, attempted, failures = traced_run(
                workload, ctx, args.seconds, reference)
        else:
            log = run_jobs(workload, ctx, args.seconds, reference)
            # probes at both ends see more of the host's load swings
            after = measure_setup(args.workload, args.seed, setup_reference)
            metrics, notes = end_to_end(
                log, (setup[0] + after[0], setup[1] + after[1]))
            attempted, failures = log.attempted, log.failures
    finally:
        workload.cleanup(ctx)

    if set(metrics) != set(units):
        raise RuntimeError("metrics %s do not match BENCHMARK.json"
                           % sorted(set(metrics) ^ set(units)))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    record = dict(result, workload=args.workload, seconds=args.seconds,
                  trace=args.trace, notes=notes,
                  failures=failures[:20], environment=environment(args.seed))
    out_dir = Path(args.out) if args.out else WORK / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = out_dir / ("%s_seed%d_trace%d_%s_%d.json"
                      % (args.workload, args.seed, args.trace, stamp, os.getpid()))
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print("environment: %s" % json.dumps(record["environment"]))
    for name in units:
        print("%-44s %14.6g %s" % (name, metrics[name], units[name]))
    for key, value in notes.items():
        print("%-44s %s" % (key, value))
    for failure in record["failures"]:
        print("FAILED %s" % failure)
    print(json.dumps(result))
    return 0


def traced_run(workload, ctx, seconds, reference):
    """Untraced and traced jobs in turn, on the same inputs, for ``seconds``.

    Alternating keeps both kinds of job under the same machine conditions,
    so the ratio of their medians measures the tracing overhead.
    """
    import tracing

    plain = JobLog(workload, ctx, reference)
    traced = JobLog(workload, ctx, reference)
    tracer = tracing.Tracer()
    problems = ctx.problems
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not traced.covered():
        k = plain.attempted % len(ctx.inputs)
        plain.run(k)
        tracer.install()
        ctx.problems = [tracer.wrap_problem(p, workload.trace_fields)
                        for p in problems]
        try:
            traced.run(k, tracer)
        finally:
            tracer.uninstall()
            ctx.problems = problems
    metrics, notes = tracing.summarize(
        traced.layers, sorted(traced.rhs_names), tracer.missing_metrics(),
        workload, tracing.rhs_floor_us(workload, ctx))
    metrics["trace.overhead_ratio"] = (_median(traced.ref_times())
                                       / _median(plain.ref_times()) - 1.0)
    metrics["trace.missing_functions"] = float(len(tracer.missing))
    metrics["cli.output.bytes"] = float(_median(
        r.output_bytes for r in traced.per_input.values() if r is not None))
    notes.update({"missing_functions": tracer.missing,
                  "traced_jobs": len(traced.times),
                  "untraced_jobs": len(plain.times)})
    return metrics, notes, plain.attempted + traced.attempted, (
        plain.failures + traced.failures)


def run_all(args):
    """Every workload in its own process; prints each end-to-end metric."""
    spec = _spec()
    kind = "per_layer" if args.trace else "end_to_end"
    results = {}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", args.out]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600,
                              cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("%s: exit %d\n%s" % (name, proc.returncode, proc.stderr))
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    print("%-14s %-40s %14s  %s" % ("workload", "metric", "value", "unit"))
    for name, res in results.items():
        for metric in spec[kind]:
            entry = res["metrics"][metric["name"]]
            print("%-14s %-40s %14.6g  %s"
                  % (name, metric["name"], entry["value"], entry["unit"]))
        print("%-14s %-40s %14.6g  %s" % (name, "fail_ratio",
                                          res["failed"] / res["attempted"],
                                          "failed/attempted"))
        if not res["correct"]:
            status = 1
    print(json.dumps(results))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="directory for the full result records")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "burgers_dqm" / "__init__.py").is_file():
        print("burgers_dqm sources not found under %s; run from a source "
              "checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print("%.9f" % setup_probe(args.workload, args.seed))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
