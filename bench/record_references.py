"""Record references.json: the outputs every benchmark job must reproduce.

    python3 bench/record_references.py

Runs each workload's jobs once on unpermuted inputs and stores the summary
of each output (see workloads.py).  It then runs them again on inputs
relabelled by two seeds and on the --jobs 2 workload, and refuses to write
unless every summary agrees, since the benchmark checks every seed against
the same references.
"""

from __future__ import annotations

import json
import platform
import shutil
import sys
from pathlib import Path

import workloads
from run import REFERENCES, SRC, WORK

CHECK_SEEDS = (1, 2)


def summaries(workload: str, seed) -> dict:
    mods = workloads.import_program(SRC)
    workdir = WORK / f"record-{workload}-{seed}"
    try:
        out = {}
        for job in workloads.build(workload, seed, mods, workdir):
            _, output = job.run()
            out[job.key] = job.summarize(output)
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    jobs = {}
    for workload in workloads.WORKLOADS:
        if workload != "verify-large-j2":
            jobs.update(summaries(workload, None))
    mismatches = []
    for workload in workloads.WORKLOADS:
        seeds = CHECK_SEEDS if workload != "verify-large-j2" else CHECK_SEEDS[:1]
        for seed in seeds:
            for key, summary in summaries(workload, seed).items():
                if summary != jobs[key]:
                    mismatches.append(f"{workload} seed {seed} {key}: {summary}"
                                      f" != {jobs[key]}")
    if mismatches:
        print("\n".join(mismatches), file=sys.stderr)
        return 1
    REFERENCES.write_text(json.dumps({
        "python": platform.python_version(),
        "legend": "verify claims: verdict letter (h holds, r refuted,"
                  " n not-applicable) then scope, in report order;"
                  " digests are the first 16 hex digits of sha256",
        "jobs": dict(sorted(jobs.items())),
    }, indent=1) + "\n")
    print(f"wrote {len(jobs)} references to {REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
