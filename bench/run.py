"""The quasicartan benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each job is one quasicartan CLI
command, run in-process through cli.main on an input file written during
set-up; its exit code and key=value summary are checked against the
expected literal in jobs.py.  Jobs run one after another in one process
(a closed loop with a single client); a pass is one run over the
workload's job list, and passes repeat until S seconds have elapsed.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 the run spends half its time on untraced
passes and half on traced ones, and reports the per-layer metrics of the
traced passes and the tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9
END_TO_END = {"batch_s": "s", "setup_s": "s", "peak_rss_mib": "MiB",
              "pass_ratio": "ratio"}
OVERHEAD = ["trace.overhead_s", "trace.overhead_ratio"]


def setup(workload, seed, workdir):
    """Import the program, generate the seeded inputs and write them.
    Returns the cli module and a list of (job, input path)."""
    import jobs
    from quasicartan import cli

    workdir.mkdir(parents=True, exist_ok=True)
    out = []
    for job in jobs.WORKLOADS[workload](seed):
        path = workdir / (job.name.replace("/", "_") + ".txt")
        path.write_text(job.text, encoding="utf-8")
        out.append((job, str(path)))
    return cli, out


def run_job(cli, job, path):
    """True when the job exits with the expected code and summary.  Any
    exception or argparse exit is a failed job, not a stopped run."""
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([job.command, path])
        return code == job.expected_code and \
            cli.parse_summary(stdout.getvalue()) == job.expected
    except (Exception, SystemExit):
        print(f"job {job.name} raised:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return False


class Tally:
    """Jobs attempted and failed over a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0


def run_pass(cli, jobs, tally, tracer=None):
    """One pass over the job list; returns its wall seconds."""
    gc.collect()
    start = time.perf_counter()
    for i, (job, path) in enumerate(jobs):
        if tracer is None:
            ok = run_job(cli, job, path)
        else:
            tracer.job = i
            with tracer.span("cli.job"):
                ok = run_job(cli, job, path)
        tally.attempted += 1
        tally.failed += not ok
    return time.perf_counter() - start


def measure(one_pass, seconds):
    """Pass times, for passes until `seconds` have elapsed (at least one)."""
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        times.append(one_pass())
    return times


def time_setup(args):
    """Wall time of a fresh process that sets up and exits."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    start = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, cli, jobs, tally):
    setups = [time_setup(args) for _ in range(SETUP_REPEATS)]
    times = measure(lambda: run_pass(cli, jobs, tally), args.seconds)
    # Noise on a shared host only ever slows a pass, in bursts and in
    # phases that can outlast a run, so the fastest pass is the steadiest
    # estimate of the pass time.  All pass times are printed above the
    # result.
    values = {
        "batch_s": min(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_ratio": 1 - tally.failed / tally.attempted,
    }
    print(f"pass seconds: {' '.join(f'{t:.3f}' for t in times)} "
          f"(median {statistics.median(times):.3f})  "
          f"setup_s: {' '.join(f'{t:.3f}' for t in setups)}  "
          f"fail_ratio: {tally.failed / tally.attempted:.4f}")
    return {name: metric(values[name], unit)
            for name, unit in END_TO_END.items()}


def per_layer(args, cli, jobs, tally):
    import spans

    modules = spans.package_modules()
    tracers = []

    def traced_pass():
        tracer = spans.Tracer()
        tracers.append(tracer)
        with spans.traced(tracer, modules):
            return run_pass(cli, jobs, tally, tracer)

    plain = measure(lambda: run_pass(cli, jobs, tally), args.seconds / 2)
    traced = measure(traced_pass, args.seconds / 2)
    write_trace(OUT / f"trace-{args.workload}-seed{args.seed}.json", tracers)
    per_pass = [spans.layer_metrics(t) for t in tracers]
    metrics = {name: metric(statistics.median(p[name] for p in per_pass),
                            spans.unit(name))
               for name in per_pass[0]}
    untraced_s, traced_s = min(plain), min(traced)
    overhead_s, overhead_ratio = OVERHEAD
    metrics[overhead_s] = metric(traced_s - untraced_s, "s")
    metrics[overhead_ratio] = metric((traced_s - untraced_s) / untraced_s,
                                     "ratio")
    print(f"untraced batch_s: {' '.join(f'{t:.3f}' for t in plain)}  "
          f"traced batch_s: {' '.join(f'{t:.3f}' for t in traced)}")
    return metrics


def write_trace(path, tracers):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "job"],
                   "passes": [t.spans for t in tracers]}, fh)


def main(argv=None):
    import jobs

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workdir = OUT / f"inputs-{args.workload}-seed{args.seed}"
    if args.setup_only:
        setup(args.workload, args.seed, workdir)
        return 0
    cli, listed = setup(args.workload, args.seed, workdir)
    tally = Tally()
    try:
        if args.trace:
            metrics = per_layer(args, cli, listed, tally)
        else:
            metrics = end_to_end(args, cli, listed, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    if not (SRC / "quasicartan" / "__init__.py").is_file():
        print(f"bench: no quasicartan sources under {SRC}; run from the "
              "root of a source checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.exit(main())
