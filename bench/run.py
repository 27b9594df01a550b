"""mtlstab benchmark: one closed-loop client calling mtlstab in-process.

    python3 bench/run.py --workload verify-large --seed 1 --seconds 30 --trace 0

Set-up (import, input generation, relabelling, file writes) is repeated at
least SETUP_REPS times and for at least SETUP_MIN_S seconds, and its median
reported.  The run then measures whole passes over the workload's jobs until
`--seconds` have passed, checks every output against references.json, and
prints as its last line one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics of a traced run with `--trace 1`.  Lines before it give
the machine context, each metric with its unit, the tail percentile and its
sample count, the failed-job ratio and the raw wall-clock figures.

Timings are reported at a fixed reference machine speed.  The host this was
sized on (2 vCPUs) drifts in speed by a quarter or more within minutes, so a
fixed pure-Python calibration loop is timed before and after each set-up and
each job, and the wall time is scaled by CALIBRATION_REF_S over the mean of
the two.  Over eight 20-second windows of check-corpus this took the spread
of the median job time from 21% to 5%.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCES = Path(__file__).resolve().parent / "references.json"
WORK = ROOT / ".bench_work"
TRACES = ROOT / ".bench_out"

SETUP_REPS = 5
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 25
TAIL_BEYOND = 10

# The calibration loop's time at the reference speed: timings are reported
# as if every job ran while the loop took this long.
CALIBRATION_REF_S = 0.0015
CALIBRATION_TABLE = tuple(tuple((i * j + 1) % 11 for j in range(11))
                          for i in range(11))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile, samples beyond).  Where that percentile would not
    lie above the median, the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def calibration() -> float:
    """Median time of three runs of a fixed table-walking loop, in seconds."""
    times = []
    for _ in range(3):
        start = perf_counter()
        acc = 0
        for _ in range(2800):
            for x in range(11):
                acc = CALIBRATION_TABLE[acc][x]
        times.append(perf_counter() - start)
    return statistics.median(times)


class Clock:
    """Times a call, and scales the wall time to the reference speed by the
    calibration runs just before and just after it."""

    def __init__(self):
        self.before = calibration()
        self.raw: list[float] = []
        self.scaled: list[float] = []

    def time(self, fn):
        start = perf_counter()
        result = fn()
        elapsed = perf_counter() - start
        after = calibration()
        self.raw.append(elapsed)
        self.scaled.append(elapsed * 2 * CALIBRATION_REF_S / (self.before + after))
        self.before = after
        return result


def child_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure(jobs, references: dict, seconds: float, tracer=None) -> dict:
    """Closed loop, one client: whole passes until `seconds` have passed."""
    clock = Clock()
    work, attempted, failed, passes = 0, 0, 0, 0
    cpu0 = child_cpu()
    start = perf_counter()
    while passes == 0 or perf_counter() - start < seconds:
        for job in jobs:
            attempted += 1
            job_id = f"{passes}:{job.key}"
            try:
                units, output = clock.time(
                    job.run if tracer is None else tracer.as_job(job_id, job.run))
                summary = job.summarize(output)
            except Exception:
                failed += 1
                print(f"job {job_id} raised:", file=sys.stderr)
                traceback.print_exc()
                continue
            if summary != references.get(job.key):
                failed += 1
                print(f"job {job_id} output differs from the reference:"
                      f" got {summary}, want {references.get(job.key)}",
                      file=sys.stderr)
                continue
            work += units
        passes += 1
    return {"clock": clock, "work": work, "attempted": attempted,
            "failed": failed, "passes": passes, "child_cpu_s": child_cpu() - cpu0}


def timing_metrics(times: list[float], work: int) -> tuple[dict, str]:
    ms = [t * 1000.0 for t in times]
    tail_ms, percentile, beyond = tail(ms)
    return ({"work_per_s": work / sum(times), "job_p50_ms": statistics.median(ms),
             "job_tail_ms": tail_ms},
            f"p{percentile:.2f} of {len(ms)} jobs, {beyond} beyond it")


def end_to_end(result: dict, setup: Clock) -> tuple[dict, list[str]]:
    clock = result["clock"]
    scaled, tail_note = timing_metrics(clock.scaled, result["work"])
    raw, _ = timing_metrics(clock.raw, result["work"])
    values = {"setup_s": statistics.median(setup.scaled), **scaled,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    units = {"setup_s": "s", "work_per_s": "1/s", "job_p50_ms": "ms",
             "job_tail_ms": "ms", "peak_rss_mb": "MB"}
    raw["setup_s"] = statistics.median(setup.raw)
    notes = [
        f"job_tail_ms is {tail_note}",
        f"failed_ratio {result['failed'] / result['attempted']:.6g} ratio"
        f" ({result['failed']} of {result['attempted']} jobs)",
        "raw wall clock, before scaling to the reference speed: "
        + ", ".join(f"{name} {value:.6g} {units[name]}" for name, value in raw.items()),
    ]
    return ({name: {"value": value, "unit": units[name]}
             for name, value in values.items()}, notes)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mtlstab" / "__init__.py").is_file():
        print(f"error: no mtlstab sources under {SRC}", file=sys.stderr)
        return 2
    references = json.loads(REFERENCES.read_text())["jobs"]
    os.environ.pop("MTL_JOBS", None)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    context = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "jobs": workloads.JOBS[args.workload], "nproc": os.cpu_count(),
               "python": platform.python_version(),
               "single_worker_baseline": "verify-large"
               if args.workload == "verify-large-j2" else None}
    try:
        setup = Clock()
        mods, jobs = setup.time(lambda: _set_up(args, workdir))
        while not args.trace and len(setup.raw) < SETUP_MAX_REPS and (
                len(setup.raw) < SETUP_REPS or sum(setup.raw) < SETUP_MIN_S):
            mods, jobs = setup.time(lambda: _set_up(args, workdir))
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            context["wrapped_functions"] = tracer.install(mods)
            with tracer.job(tracing.SETUP_JOB):
                jobs = workloads.build(args.workload, args.seed, mods, workdir)
        result = measure(jobs, references, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    context["passes"] = result["passes"]
    print("context " + json.dumps(context))
    if not result["clock"].raw:
        print("error: no job completed", file=sys.stderr)
        return 1
    if tracer is None:
        metrics, notes = end_to_end(result, setup)
    else:
        clock = result["clock"]
        values = tracer.layer_metrics(result["passes"], result["child_cpu_s"],
                                      sum(clock.raw))
        values["trace.work_per_s"] = result["work"] / sum(clock.scaled)
        metrics = {name: {"value": value, "unit": _unit(name)}
                   for name, value in values.items()
                   if not name.startswith(tracing.POOL_PREFIX)}
        notes = [f"metric {name} {value:.6g} {_unit(name)} (pool layer: nonzero"
                 f" only with --jobs 2, so printed here and not in the result)"
                 for name, value in values.items()
                 if name.startswith(tracing.POOL_PREFIX)]
        trace_file = TRACES / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_file, context)
        notes.append(f"spans written to {trace_file.relative_to(ROOT)}")
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']:.6g} {metric['unit']}")
    for note in notes:
        print(note)
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def _set_up(args, workdir: Path):
    mods = workloads.import_program(SRC)
    return mods, workloads.build(args.workload, args.seed, mods, workdir)


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share", ".efficiency")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
