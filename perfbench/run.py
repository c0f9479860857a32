"""poslp benchmark: four closed-loop CLI workloads, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload gain_square --seed 1 --seconds 15 --trace 0

One process, one caller, BLAS pinned to one thread.  Each run:

1. sets up `SETUP_REPEATS` times (import poslp afresh, write the seeded
   inputs, run one warm-up job) and reports the median as `setup_s`;
2. runs one untimed pass, so allocator and caches settle, then whole
   passes over the workload's fixed job list, calling
   `poslp.cli.main([...])` in-process with `--format structured` and
   capturing stdout, for at most `--seconds` (at least `MIN_PASSES` passes);
3. reruns every job once outside the timed loop with its LPs captured and
   checks the answer (see checks.py); a timed output counts as failed when
   its exit code is not 0, it raised, or it is not byte-identical to a
   checked output.

The speed probe (speed.py) runs after every set-up, between passes and after
every job longer than `LONG_JOB_SECONDS`, and the end-to-end times are
reported at the probe's reference host speed: a set-up or job is scaled by
`speed.REFERENCE_SECONDS` over the probe time around it, a pass by the
time-weighted scale of its jobs.  The raw wall-clock figures are printed and
kept in the report as well.

With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
splits the time into untraced and traced passes and reports per-layer self
times and counts (see spans.py).  The last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; a full report and the
spans of the last traced pass are written under `.perfbench/`.
"""

import os

# pinned before numpy is imported anywhere in this process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPEATS = 7
# with six passes the two slowest of oracle_sweep's seven jobs give twelve
# samples, more than the ten the tail leaves beyond it, so the tail stays in
# that group of jobs instead of flipping with the number of passes
MIN_PASSES = 6
# the host's speed drifts within a long job's span, so it is probed again
LONG_JOB_SECONDS = 0.4
TAIL_BEYOND = 10

END_TO_END_UNITS = {"jobs_per_s": "1/s", "latency_p50_ms": "ms",
                    "latency_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def import_poslp():
    """Import poslp from this checkout's src/, dropping any loaded copy so
    every set-up pays for the import."""
    for key in [k for k in sys.modules if k == "poslp" or k.startswith("poslp.")]:
        del sys.modules[key]
    cli = importlib.import_module("poslp.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"poslp imported from {cli.__file__}, not from {SRC}")
    return cli


def run_job(cli, argv):
    """One in-process CLI call: (exit code or None, stdout, error, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:        # a job that raises counts as failed
        code, error = None, repr(exc)
    seconds = time.perf_counter() - start
    if code != 0 and error is None:
        error = err.getvalue().strip()[-300:] or f"exit code {code}"
    return code, out.getvalue(), error, seconds


def setup(workload, seed, workdir, smoke=False):
    """Import poslp, write the inputs and run one warm-up job; returns the
    seconds taken, the speed scale after it, the cli module, the jobs and
    their input directory."""
    start = time.perf_counter()
    cli = import_poslp()
    indir = tempfile.mkdtemp(prefix="inputs-", dir=workdir)
    jobs = workloads.generate(workload, seed, indir, smoke)
    run_job(cli, jobs[0].resolve(indir))
    seconds = time.perf_counter() - start
    return seconds, speed.REFERENCE_SECONDS / speed.probe(), cli, jobs, indir


class Pass:
    """One pass over the job list: wall seconds (probes excluded), per-job
    results (code, stdout, error, seconds), per-layer figures when traced,
    the speed scale of each job and the time-weighted scale of the pass."""

    def __init__(self, wall, results, layer, job_scales):
        self.wall, self.results, self.layer = wall, results, layer
        self.job_scales = job_scales
        busy = sum(r[3] for r in results)
        self.scale = sum(r[3] * k for r, k in zip(results, job_scales)) / busy


def run_passes(cli, argvs, seconds, min_passes, tracer=None):
    """Whole passes over the job list until the next one would overrun
    `seconds`.  The speed probe runs before the first pass, after every
    pass and after every job longer than `LONG_JOB_SECONDS`; a job is scaled
    by the mean of the probes on either side of it."""
    passes = []
    start = time.perf_counter()
    probes = [speed.probe()]
    while True:
        if tracer is not None:
            tracer.reset()
        t0 = time.perf_counter()
        results, marks, probing = [], [], 0.0
        for i, argv in enumerate(argvs):
            if tracer is not None:
                tracer.job = i
            results.append(run_job(cli, argv))
            marks.append(len(probes) - 1)
            if results[-1][3] > LONG_JOB_SECONDS:
                t1 = time.perf_counter()
                probes.append(speed.probe())
                probing += time.perf_counter() - t1
        wall = time.perf_counter() - t0 - probing
        layer = spans.pass_metrics(tracer.spans, len(argvs)) if tracer else None
        probes.append(speed.probe())
        scales = [2 * speed.REFERENCE_SECONDS / (probes[k] + probes[k + 1]) for k in marks]
        passes.append(Pass(wall, results, layer, scales))
        probes = probes[-1:]
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed + wall > seconds:
            return passes


def check_pass(cli, jobs, indir):
    """Run each job once with its LPs captured and check the answers.
    Returns per job (stdout, problems, LPs checked by HiGHS, HiGHS seconds)."""
    import checks            # imports scipy, so only after peak RSS is read
    if checks.HIGHS_AVAILABLE:
        checks.warm_up()
    tracer = spans.Tracer()
    tracer.install()
    try:
        outcome = []
        for job in jobs:
            tracer.reset()
            code, stdout, error, _ = run_job(cli, job.resolve(indir))
            if code != 0:
                outcome.append((stdout, [f"failed: {error}"], 0, 0.0))
                continue
            try:
                doc = json.loads(stdout)
                problems = checks.CHECKS[job.kind](job, doc, indir)
                lp_problems, checked, highs_s = checks.check_lps(job, doc,
                                                                 tracer.solved_lps())
            except Exception as exc:    # a malformed report fails the job, not the run
                outcome.append((stdout, [f"check raised {exc!r}"], 0, 0.0))
                continue
            outcome.append((stdout, problems + lp_problems, checked, highs_s))
    finally:
        tracer.uninstall()
    return outcome, checks.HIGHS_AVAILABLE


def tally(jobs, passes, outcome):
    """Count timed job runs and failures against the checked outputs."""
    attempted = failed = 0
    failures = []
    for p in passes:
        for job, (code, stdout, error, _s), (ref, problems, _c, _h) in zip(jobs, p.results,
                                                                          outcome):
            attempted += 1
            why = error if code != 0 else (problems[0] if problems else
                                           None if stdout == ref else "output differs "
                                           "from the checked run")
            if why:
                failed += 1
                failures.append(f"{job.label}: {why}")
    return attempted, failed, failures


def tail(latencies):
    """Highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile, sample count)."""
    data = sorted(latencies)
    rank = max(len(data) - TAIL_BEYOND, 1)
    return data[rank - 1], 100.0 * rank / len(data), len(data)


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        import scipy
        highs = f"scipy {scipy.__version__} (HiGHS)"
    except ImportError:
        highs = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "nproc": os.cpu_count(), "cpu": cpu, "highs": highs}


def _timings(jobs, passes, setups, scaled):
    """jobs_per_s, latency p50 and tail, setup_s; at reference speed when
    `scaled`, else raw wall clock."""
    def k(scale):
        return scale if scaled else 1.0
    latencies = [1e3 * r[3] * k(js) for p in passes for r, js in zip(p.results, p.job_scales)]
    tail_ms, pct, count = tail(latencies)
    return {
        "jobs_per_s": len(jobs) / statistics.median(p.wall * k(p.scale) for p in passes),
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail_ms,
        "setup_s": statistics.median(s * k(scale) for s, scale in setups),
    }, pct, count


def end_to_end(jobs, passes, setups, rss_mb):
    metrics, pct, count = _timings(jobs, passes, setups, scaled=True)
    metrics["peak_rss_mb"] = rss_mb
    raw, _pct, _count = _timings(jobs, passes, setups, scaled=False)
    per_job = zip(*[[1e3 * r[3] for r in p.results] for p in passes])
    notes = {"latency_tail_percentile": pct, "latency_samples": count,
             "raw_wall_clock": raw,
             "speed_scale": statistics.median(p.scale for p in passes),
             "setup_samples": [s for s, _k in setups],
             "job_median_ms": {job.label: statistics.median(ms)
                               for job, ms in zip(jobs, per_job)}}
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, notes


def per_layer(untraced, traced, highs_ms):
    def ref_wall(passes):
        return statistics.median(p.wall * p.scale for p in passes)
    measured = {
        "lpcore.highs_ms": highs_ms,
        "trace.overhead_ratio": ref_wall(traced) / ref_wall(untraced),
        "trace.accounted_ratio": statistics.median(
            p.layer["_accounted_ms"] / (1e3 * p.wall) for p in traced),
    }
    metrics = {}
    for name, (unit, _better) in spans.PER_LAYER.items():
        value = measured[name] if name in measured else \
            statistics.median(p.layer[name] for p in traced)
        metrics[name] = (value, unit)
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny job lists, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "poslp" / "__init__.py").is_file():
        print(f"error: no poslp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return benchmark(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def benchmark(args, workdir):
    repeats = 1 if args.trace else SETUP_REPEATS
    setups = []
    for _ in range(repeats):
        seconds, scale, cli, jobs, indir = setup(args.workload, args.seed, workdir,
                                                 args.smoke)
        setups.append((seconds, scale))
    argvs = [job.resolve(indir) for job in jobs]
    run_passes(cli, argvs, 0, 1)
    gc.collect()

    if args.trace:
        untraced = run_passes(cli, argvs, args.seconds / 2, 1)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = run_passes(cli, argvs, args.seconds / 2, 1, tracer)
        finally:
            tracer.uninstall()
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        passes = untraced + traced
    else:
        passes = run_passes(cli, argvs, args.seconds, MIN_PASSES)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    outcome, highs = check_pass(cli, jobs, indir)
    attempted, failed, failures = tally(jobs, passes, outcome)
    notes = {"workload": args.workload, "why": workloads.WHY[args.workload],
             "seed": args.seed, "seconds": args.seconds, "jobs": len(jobs),
             "fail_ratio": failed / attempted,
             "highs_checked_lps": sum(o[2] for o in outcome),
             "highs_check": "done" if highs else "skipped: scipy not installed",
             "environment": environment(), "failures": failures[:20],
             "pass_seconds": [p.wall for p in passes],
             "pass_speed_scale": [p.scale for p in passes]}
    if args.trace:
        highs_ms = 1e3 * sum(o[3] for o in outcome)
        metrics = per_layer(untraced, traced, highs_ms)
        notes["highs_ms"] = ("HiGHS time over the job list; jobs with more than "
                             "64 LPs are timed on an even sample and scaled")
    else:
        metrics, extra = end_to_end(jobs, passes, setups, rss_mb)
        notes.update(extra)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(dict(result, notes=notes), fh, indent=2, sort_keys=True)
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:16.6g} {unit}")
    for name, value in notes.get("raw_wall_clock", {}).items():
        print(f"{'raw ' + name:36s} {value:16.6g} {END_TO_END_UNITS[name]}")
    print(json.dumps(notes, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
