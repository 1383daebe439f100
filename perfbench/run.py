"""combgas benchmark: seeded lists of CLI jobs, timed in-process and checked.

Run from the repository root:

    python3 perfbench/run.py --workload bec_sweep --seed 1 --seconds 20 --trace 0

A worker process imports combgas, then one client runs the job list in a
closed loop: each job is one ``combgas.cli.main(argv)`` call that writes its
result to a file, and the next job starts when it returns.  Each result is
checked by ``oracle`` after its timer stops.

``--trace 0`` runs the list in PASSES fresh worker processes and prints the
end-to-end metrics.  The host's speed drifts by up to ~40% between seconds
and by as much over minutes, so every time is taken at the reference host
speed: a fixed calibration workload of numpy/scipy and interpreter work
(never combgas) runs before each job and gives the host's speed around that
job, and the job's time is scaled by CAL_REF_S over the calibration time.
A job's latency is then the mean of its PASSES scaled latencies.  Fresh
processes keep a cache that the program may build during one pass out of
the other.  ``--trace 1`` runs the list once untraced and once with every
layer wrapped by ``tracer``, and prints the per-layer metrics.

The last line of standard output is one JSON object.  The exit code is 1
when any job fails its check and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import pkgutil
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
PASSES = 2                 # fresh worker processes per untraced run
SETUP_SAMPLES = 5          # the workers' own imports plus three fresh probes
# Seconds the calibration units take at the reference host speed (about
# their times on the 2-vCPU host the baseline was measured on).  A time t
# measured while the unit took c seconds is reported as t * CAL_REF_S / c:
# seconds at the reference speed.
CAL_REF_S = 0.0045
PY_CAL_REF_S = 0.0026
CAL_MARGIN_S = 1.0         # a job's speed: the calibrations from CAL_MARGIN_S
                           # before it starts to CAL_MARGIN_S after it ends
PY_CAL_SAMPLES = 20        # py_work samples before and after the imports
WORKER_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
KERNEL_MODULES = ("numpy", "scipy.linalg", "scipy.sparse.linalg",
                  "scipy.integrate", "scipy.special")


class BenchError(RuntimeError):
    pass


def cap_threads():
    """Cap the BLAS/OpenMP pools at nproc before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    caps = {}
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = nproc
        caps[var] = max(1, min(current, nproc))
        os.environ[var] = str(caps[var])
    return nproc, caps


def check_sources():
    if not (SRC / "combgas" / "cli.py").is_file():
        raise BenchError("no combgas sources under %s; run from the root of "
                         "a combgas checkout" % SRC)


# ---------------------------------------------------------------------------
# host speed


def py_work():
    """A fixed amount of interpreter work: dict, float and list operations."""
    acc = {}
    for i in range(12000):
        key = i % 97
        acc[key] = acc.get(key, 0.0) + i * 1.5
    return sorted(acc.values())[-1]


def py_calibrate():
    """Seconds of py_work now, PY_CAL_SAMPLES times; needs no import, so it
    can run right before the imports that setup_s times."""
    samples = []
    for _ in range(PY_CAL_SAMPLES):
        start = time.perf_counter()
        py_work()
        samples.append(time.perf_counter() - start)
    return samples


def make_calibration():
    """Returns calibrate(): seconds that one fixed unit of work takes now.

    The unit mixes the kinds of work the jobs do: interpreter work, a
    tridiagonal eigensolve and sparse products.  All three run on one
    thread: a threaded BLAS call on a shared host waits for its slowest
    thread, and a 96x96 eigvalsh on two threads took 1 ms at its median and
    14 ms at worst between jobs, which measures the scheduler.  The solver
    is bound here, before a tracer can wrap it, and nothing of combgas
    runs, so a change to the program cannot change the unit.
    """
    import numpy as np
    import scipy.sparse as sp
    from scipy.linalg import eigh_tridiagonal
    rng = np.random.default_rng(0)
    diag, off = rng.standard_normal(200), rng.standard_normal(199)
    sparse = sp.diags([1.0, 1.0, -4.0, 1.0, 1.0], (-64, -1, 0, 1, 64),
                      shape=(4096, 4096), format="csr")
    vec = rng.standard_normal(4096)

    def calibrate():
        start = time.perf_counter()
        py_work()
        eigh_tridiagonal(diag, off, eigvals_only=True)
        for _ in range(10):
            sparse @ vec
        return time.perf_counter() - start

    for _ in range(5):     # warm the solvers' first-call paths
        calibrate()
    return calibrate


def import_program():
    """Import numpy, scipy and every combgas module and build the CLI parser.

    Returns (seconds taken, the median time of py_work just before and just
    after, the combgas.cli module).
    """
    check_sources()
    sys.path.insert(0, str(SRC))
    py_cal = py_calibrate()
    start = time.perf_counter()
    for name in KERNEL_MODULES:
        importlib.import_module(name)
    import combgas
    for info in pkgutil.iter_modules(combgas.__path__):
        importlib.import_module("combgas." + info.name)
    from combgas import cli
    cli.build_parser()
    elapsed = time.perf_counter() - start
    py_cal = statistics.median(py_cal + py_calibrate())
    if SRC.resolve() not in Path(combgas.__file__).resolve().parents:
        raise BenchError("imported combgas from %s, not from %s"
                         % (combgas.__file__, SRC))
    return elapsed, py_cal, cli


# ---------------------------------------------------------------------------
# worker: one process, one pass over the job list


def run_pass(cli, jobs, reference, oracle, calibrate, tracer=None):
    """Run every job once; returns one record per job and the calibrations,
    [start, seconds], one before each job and one after the last."""
    out_path = OUT_DIR / ("job-%d.out" % os.getpid())
    records = []
    cal = []
    for index, job in enumerate(jobs):
        if out_path.exists():
            out_path.unlink()
        # start every job from the same collector state, so a collection
        # owed by an earlier job does not land inside this one's timer
        gc.collect()
        cal.append([time.perf_counter(), calibrate()])
        argv = job["argv"] + ["--out", str(out_path)]
        sink = io.StringIO()
        error = None
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if tracer is not None:
                tracer.begin_job(index)
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # a crash is a failed job, not a crash
                code, error = None, "raised %r" % (exc,)
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.end_job()
        size = out_path.stat().st_size if out_path.exists() else 0
        if error is None:
            ok, ratio, detail = oracle.check(job, code, out_path, reference)
        else:
            ok, ratio, detail = False, 1.0, error
        if not ok:
            print("FAILED job %d: %s\n  %s\n  %s" % (
                index, " ".join(job["argv"]), detail,
                sink.getvalue().strip()[-500:]), file=sys.stderr)
        records.append({"start": start, "seconds": elapsed, "ok": ok,
                        "ratio": ratio, "bytes": size})
    cal.append([time.perf_counter(), calibrate()])
    if out_path.exists():
        out_path.unlink()
    return records, cal


def cpu_seconds():
    use = resource.getrusage(resource.RUSAGE_SELF)
    return use.ru_utime + use.ru_stime


def worker(args, jobs):
    import oracle
    setup_s, py_cal, cli = import_program()
    calibrate = make_calibration()
    reference = oracle.load_reference(HERE / "reference.json")
    # move the modules and the reference out of the collector's view, so the
    # collection before each job only walks what the jobs allocated
    gc.collect()
    gc.freeze()
    out = {"setup_s": setup_s, "py_cal_s": py_cal}
    tr = None
    if args.trace:
        import tracer
        tr = tracer.Tracer()
        tr.install()
    cpu0 = cpu_seconds()
    try:
        out["records"], out["cal_s"] = run_pass(cli, jobs, reference, oracle,
                                                calibrate, tracer=tr)
    finally:
        if tr is not None:
            tr.uninstall()
    out["cpu_s"] = cpu_seconds() - cpu0
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)
    if tr is not None:
        spans = OUT_DIR / ("trace-%s-seed%d.npz" % (args.workload, args.seed))
        tr.write(spans)
        out["spans_file"] = str(spans.relative_to(ROOT))
        out["absent"] = tr.absent
        out["metrics"] = tr.metrics()
    print(json.dumps(out))
    return 0


def spawn(args, mode, trace=0):
    """Run this file as a fresh worker (or setup probe); returns its JSON."""
    cmd = [sys.executable, str(HERE / "run.py"), mode]
    if mode == "--worker":
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=os.environ, text=True,
                              stdout=subprocess.PIPE,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s did not finish in %d s" % (mode, WORKER_TIMEOUT_S))
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError("%s exited with code %d" % (mode, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# orchestrator


def metric(value, unit):
    return {"value": value, "unit": unit}


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile.

    A Beta((n+1)p, (n+1)(1-p))-weighted mean of all order statistics: where
    a plain order statistic jumps when a few jobs trade places across a gap
    in the latency distribution, this estimate moves smoothly.
    """
    import numpy as np
    from scipy.special import betainc
    xs = np.sort(np.asarray(values, dtype=float))
    n = xs.size
    edges = betainc(p * (n + 1), (1.0 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(edges) @ xs)


def latency_metrics(seconds):
    return {
        "wall_s": sum(seconds),
        "job_p50_s": quantile(seconds, 0.5),
        "job_p90_s": quantile(seconds, 0.9),
    }


def describe(args, jobs, nproc, caps):
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "jobs": len(jobs),
        "passes": PASSES if args.trace == 0 else "1 untraced + 1 traced",
        "job_p50_samples": len(jobs),
        "job_p90_samples_beyond": len(jobs) - int(0.9 * len(jobs)),
        "load": "closed loop, 1 client, in-process, 1 job at a time",
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": nproc, "thread_caps": caps,
    }


def at_reference_speed(worker_out):
    """The pass's job latencies scaled to the reference host speed.

    Job i ran between calibrations i and i + 1; its host speed is the
    trimmed mean of those two and of every calibration that started from
    CAL_MARGIN_S before the job to CAL_MARGIN_S after it.  The margin smooths
    the millisecond jitter of single calibrations and keeps the drift of
    seconds.  A mean, not a median: single calibrations fall into two modes
    about 1.45x apart (the host runs the process at one of two speeds from
    moment to moment), a job runs through both, and a median jumps between
    them where a mean follows the share of each.
    """
    cal = worker_out["cal_s"]
    seconds = []
    for i, record in enumerate(worker_out["records"]):
        lo = record["start"] - CAL_MARGIN_S
        hi = record["start"] + record["seconds"] + CAL_MARGIN_S
        near = [c for j, (at, c) in enumerate(cal)
                if lo <= at <= hi or j in (i, i + 1)]
        seconds.append(record["seconds"] * CAL_REF_S / trimmed_mean(near))
    return seconds


def trimmed_mean(values):
    """Mean of values without their lowest and highest tenth."""
    values = sorted(values)
    cut = len(values) // 10
    return statistics.fmean(values[cut:len(values) - cut])


def end_to_end(args, passes, info):
    """Per-job mean scaled latency over the passes, and the run's metrics.

    A mean, not the least: scaling by the calibrations' mean corrects a
    job's time for the share of it the host spent at each speed, and the
    least of two passes would instead favour the faster mode, for short jobs
    more than for long ones.
    """
    scaled = [at_reference_speed(p) for p in passes]
    latency = [statistics.fmean(column) for column in zip(*scaled)]
    metrics = {key: metric(value, "s")
               for key, value in latency_metrics(latency).items()}
    info["measured_wall_s"] = [sum(r["seconds"] for r in p["records"])
                               for p in passes]
    info["host_speed"] = [
        CAL_REF_S / trimmed_mean(c for _, c in p["cal_s"])
        for p in passes]
    samples = list(passes)
    samples += [spawn(args, "--setup-probe")
                for _ in range(SETUP_SAMPLES - len(samples))]
    info["setup_measured_s"] = [p["setup_s"] for p in samples]
    setup = [p["setup_s"] * PY_CAL_REF_S / p["py_cal_s"] for p in samples]
    metrics["setup_s"] = metric(statistics.median(setup), "s")
    metrics["peak_rss_mb"] = metric(max(p["peak_rss_mb"] for p in passes),
                                    "MB")
    return metrics


def per_layer(plain, traced, info):
    metrics = traced["metrics"]
    plain_wall = sum(r["seconds"] for r in plain["records"])
    traced_wall = sum(r["seconds"] for r in traced["records"])
    overhead = (sum(at_reference_speed(traced))
                / sum(at_reference_speed(plain)) - 1.0)
    metrics["cli.output_bytes"] = metric(
        sum(r["bytes"] for r in traced["records"]), "B")
    metrics["process.cpu_s"] = metric(plain["cpu_s"], "s")
    metrics["process.wall_s"] = metric(plain_wall, "s")
    metrics["trace.wall_s"] = metric(traced_wall, "s")
    metrics["trace.overhead_frac"] = metric(overhead, "frac")
    info["spans_file"] = traced["spans_file"]
    info["absent"] = traced["absent"]
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    mode.add_argument("--setup-probe", action="store_true",
                      help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    nproc, caps = cap_threads()
    if args.setup_probe:
        setup_s, py_cal, _ = import_program()
        print(json.dumps({"setup_s": setup_s, "py_cal_s": py_cal}))
        return 0

    import workloads
    if args.workload not in workloads.WORKLOADS or args.seed is None:
        parser.error("--workload must be one of %s, and --seed is required"
                     % ", ".join(workloads.WORKLOADS))
    check_sources()
    jobs = workloads.make_jobs(args.workload, args.seed, args.seconds)
    OUT_DIR.mkdir(exist_ok=True)
    if args.worker:
        return worker(args, jobs)

    info = describe(args, jobs, nproc, caps)
    if args.trace == 0:
        passes = [spawn(args, "--worker") for _ in range(PASSES)]
        metrics = end_to_end(args, passes, info)
    else:
        plain = spawn(args, "--worker")
        traced = spawn(args, "--worker", trace=1)
        passes = [plain, traced]
        metrics = per_layer(plain, traced, info)

    records = [r for p in passes for r in p["records"]]
    failed = sum(not r["ok"] for r in records)
    ratio = max(r["ratio"] for r in records)
    if args.trace:
        metrics["accuracy.err_to_tol_max"] = metric(ratio, "ratio")
        metrics["jobs.fail_frac"] = metric(failed / len(records), "frac")
    info["failed"] = failed
    info["err_to_tol_max"] = ratio
    for key, value in info.items():
        print("# %s: %s" % (key, value))
    for name in sorted(metrics):
        print("%-40s %.6g %s" % (name, metrics[name]["value"],
                                 metrics[name]["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        sys.exit(2)
