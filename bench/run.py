"""Benchmark of the torslat pipeline: spec -> catalog -> lattice -> checks.

Run from the root of a checkout:

    python3 bench/run.py --workload build-catalog --seed 1 --seconds 40 --trace 0

Workloads (see workloads.py and README.md): build-catalog, build-lattice,
verify-suite.  Each is a closed loop with one client: each job starts when
the previous one returns.  The loop cycles over the workload's jobs, on fresh
inputs each cycle, until no job fits in ``--seconds``; the first cycle always
runs every job.  Every job output is checked against an oracle.

With ``--trace 0`` the metrics are the end-to-end ones: set-up time (median
of several set-ups, each re-importing the package), and, over the typical
pass made of each job's lower median time, its wall time and the median and
95th percentile of job latency (of the interval queries, on build-lattice);
then peak resident memory.  Job and set-up times are scaled to a reference
machine speed by the probe of speed.py.  With ``--trace 1`` one untraced
pass is followed by one pass under the tracer of tracer.py, and the metrics
are the per-layer ones plus the tracer's overhead.

The last line of standard output is the result as one JSON object; the line
before it stamps the run (machine, versions, seed, commit).  A fuller record,
with every job's time and the trace aggregate, goes to ``.bench_out/``.
"""

import os

# one thread each for BLAS and OpenMP, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
PACKAGE = "torslat"
SETUP_REPEATS = 5

sys.path.insert(0, HERE)
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def import_fresh():
    """Import the package from src/, discarding any copy already loaded."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    return importlib.import_module(PACKAGE)


def run_job(job, state, tracer=None):
    """Run one job, timed, then its oracle.

    Returns (job name, start, seconds, error or None).
    """
    out = exc = None
    start = time.perf_counter()
    try:
        out = tracer.root(job.run, state) if tracer else job.run(state)
    except Exception as e:  # judged by the oracle, counted as a failed job
        exc = e
    seconds = time.perf_counter() - start
    try:
        error = job.check(state, out, exc)
    except Exception as e:
        error = f"oracle raised {e!r}"
    return job.name, start, seconds, error


def run_pass(workload, tracer=None):
    """Every job once, in order, on fresh inputs."""
    state = workload.new_pass()
    return [run_job(job, state, tracer) for job in workload.jobs]


def run_closed_loop(workload, seconds):
    """Cycles over the jobs until none fits in ``seconds``.

    The first cycle runs every job.  After it, a job whose last time would
    take the loop past ``seconds`` is skipped, and so is a job whose
    ``after`` job did not run in the same cycle.  Returns the records of
    run_job, and the peak memory after the first cycle, which later cycles
    repeat.
    """
    deadline = time.perf_counter() + seconds
    records = []
    last = {}
    while True:
        state = workload.new_pass()
        ran = set()
        for job in workload.jobs:
            if last and (
                job.after is not None and job.after not in ran
                or time.perf_counter() + last[job.name] > deadline
            ):
                continue
            records.append(run_job(job, state))
            ran.add(job.name)
        if not ran:
            return records, first_cycle_rss
        if not last:
            first_cycle_rss = peak_rss_mib()
        last.update((name, s) for name, _, s, _ in records[-len(ran):])


def scaled(probe, records):
    """Records of run_job as (job name, seconds at reference speed, error)."""
    return [(n, s * probe.scale(t, t + s), e) for n, t, s, e in records]


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end_metrics(setup_times, records, rss_mib, requests=""):
    """Metrics of the typical pass: each job's lower median time over its runs.

    The lower median of two runs is the faster one, so one slow run, such
    as a query that a full garbage collection of the build-lattice heap
    lands in, does not decide the time of a job that ran twice.  Wall time
    is the sum.  The percentiles are over the jobs of one such pass whose
    name starts with ``requests``: the 302 interval queries on
    build-lattice, all 6 jobs on build-catalog and all 9 on verify-suite.
    """
    times = {}
    for name, s, _ in records:
        times.setdefault(name, []).append(s)
    typical = {name: statistics.median_low(v) for name, v in times.items()}
    latency = [s for name, s in typical.items() if name.startswith(requests)]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (sum(typical.values()), "s"),
        "request_p50_ms": (statistics.median(latency) * 1e3, "ms"),
        "request_p95_ms": (percentile(latency, 95) * 1e3, "ms"),
        "peak_rss_mib": (rss_mib, "MiB"),
    }


def traced_run(tl, setup, seed):
    """Set-up and one untraced pass, then one traced pass; per-layer metrics.

    Both passes run under the speed probe, so the tracer's overhead is
    measured at reference speed and machine speed drift between the two
    passes does not read as overhead.
    """
    tracer = tracing.Tracer(tl)
    tracer.install()
    try:
        workload = tracer.root(setup, tl, seed)
        by_layer = tracer.summary()[1]
        parse_s = by_layer["quivalg"][1]
        tracer.reset()
    finally:
        tracer.uninstall()
    with speed.SpeedProbe() as probe:
        plain = run_pass(workload)
        tracer.install()
        try:
            traced = run_pass(workload, tracer)
        finally:
            tracer.uninstall()
    plain_s = sum(s for _, s, _ in scaled(probe, plain))
    traced_s = sum(s for _, s, _ in scaled(probe, traced))
    metrics = tracing.per_layer_metrics(tracer, tl.verify.PROPERTIES)
    metrics["quivalg.parse_s"] = parse_s
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1
    detail = {
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "raw_traced_s": sum(s for _, _, s, _ in traced),
        "self_s_total": sum(rec[2] for rec in tracer.agg.values()),
        "aggregate": sorted(
            [name, caller, *rec] for (name, caller), rec in tracer.agg.items()
        ),
    }
    return metrics, [plain, traced], detail


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def stamp(args, np_version):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np_version,
        "commit": git_commit(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(workloads.SETUP))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        print(f"bench: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("bench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    detail = {}
    if args.trace:
        tl = import_fresh()
        metrics, passes, detail["trace"] = traced_run(
            tl, workloads.SETUP[args.workload], args.seed
        )
        metrics = {k: (v, tracing.unit_of(k)) for k, v in metrics.items()}
        records = [(n, s, e) for p in passes for n, _, s, e in p]
    else:
        with speed.SpeedProbe() as probe:
            setups = []
            for _ in range(SETUP_REPEATS):
                start = time.perf_counter()
                tl = import_fresh()
                workload = workloads.SETUP[args.workload](tl, args.seed)
                setups.append((start, time.perf_counter() - start))
            runs, rss_mib = run_closed_loop(workload, args.seconds)
        setup_times = [s * probe.scale(t, t + s) for t, s in setups]
        records = scaled(probe, runs)
        metrics = end_to_end_metrics(setup_times, records, rss_mib, workload.requests)
        raw = end_to_end_metrics(
            [s for _, s in setups], [(n, s, e) for n, _, s, e in runs], rss_mib,
            workload.requests,
        )
        detail.update(
            raw_metrics=raw,
            raw_jobs=runs,
            setup_s=setup_times,
            speed_samples=len(probe.durations),
            mean_speed=probe.scale(setups[0][0], runs[-1][1] + runs[-1][2]),
        )
    failures = [(n, e) for n, _, e in records if e is not None]
    info = stamp(args, sys.modules["numpy"].__version__)
    info.update(attempted=len(records), failed=len(failures),
                fail_frac=len(failures) / len(records))
    if not args.trace:
        info.update(raw_wall_s=raw["wall_s"][0], mean_speed=detail["mean_speed"])
    detail.update(stamp=info, failures=failures, jobs=records)
    os.makedirs(OUT, exist_ok=True)
    out_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    for job, error in failures[:20]:
        print(f"FAIL {job}: {error}", file=sys.stderr)

    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
