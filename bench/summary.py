"""Run every workload and print each metric by name, with its unit.

    python3 bench/summary.py                 # one untraced and one traced run each
    python3 bench/summary.py --runs 10       # ten seeds each, with spreads

For each workload and end-to-end metric it prints the median over the runs,
the quartiles and their distance as a share of the median (the spread, set
against the metric's bound in BENCHMARK.json), and the failed-job ratio.
The traced run's per-layer metrics follow, with the tracing overhead (traced
against untraced work_per_s) and, for verify-large-j2, the speed-up over
its single-worker baseline verify-large on the same inputs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}")
    if done.stderr:
        sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    result["notes"] = [line for line in lines[:-1] if not line.startswith("metric ")]
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=1, help="seeds 1..runs")
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="also make one traced run per workload")
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in SPEC["workloads"]]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    work_rate = {}
    for workload in names:
        results = [run(workload, seed, args.seconds, 0)
                   for seed in range(1, args.runs + 1)]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"== {workload}: {len(results)} runs, {args.seconds} s each")
        print("   " + results[0]["notes"][0])
        for note in results[0]["notes"][1:]:
            print("   run 1: " + note)
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            median, q1, q3, share = spread(values)
            flag = "" if share < bound / 3 else "  (spread over a third of the bound)"
            print(f"   {name:<12} median {median:12.6g} {unit:<4} quartiles"
                  f" {q1:.6g}..{q3:.6g}  spread {share:.4f} bound {bound}{flag}")
        print(f"   failed_ratio {failed / attempted:.6g} ({failed} of {attempted} jobs)")
        work_rate[workload] = statistics.median(
            r["metrics"]["work_per_s"]["value"] for r in results)
        if args.trace:
            traced = run(workload, 1, args.seconds, 1)
            print("   traced run (seed 1), per pass:")
            for name, metric in traced["metrics"].items():
                print(f"     {name:<32} {metric['value']:12.6g} {metric['unit']}")
            ratio = traced["metrics"]["trace.work_per_s"]["value"] / work_rate[workload]
            print(f"   tracing overhead: traced work_per_s is {ratio:.3f} times"
                  f" the untraced median")
    if "verify-large" in work_rate and "verify-large-j2" in work_rate:
        print(f"verify-large-j2 over its single-worker baseline verify-large:"
              f" {work_rate['verify-large-j2'] / work_rate['verify-large']:.3f}x"
              f" work_per_s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
