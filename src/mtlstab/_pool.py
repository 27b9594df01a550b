"""Order-preserving parallel map.

Work is partitioned into an explicit task list; results come back in task
order whatever the worker count, so downstream reports are byte-identical
for jobs=1 and jobs=N.
"""

from __future__ import annotations

import os
from multiprocessing import Pool


def pmap(fn, items, jobs: int = 1) -> list:
    """Map `fn` over `items` on at most one worker per task and per core."""
    items = list(items)
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(item) for item in items]
    with Pool(processes=workers) as pool:
        return pool.map(fn, items)
