"""Deterministic fan-out of pure tuple sweeps over a process pool.

No sweep in the package uses it any more: window sweeps enumerate
signatures and sampled lists run serially, both in-process, which costs
less than starting workers that refill their caches, and keeps reports
independent of `--jobs` by construction.  The module stays only because
perfbench/tracer.py imports it; it goes when the tracer stops doing so.

Jobs are contiguous chunks of the work list, and results are merged in
chunk order.  Workers recompute their own memoization caches; duplicated
work is acceptable, shared mutable state is not.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence, TypeVar

C = TypeVar("C")
R = TypeVar("R")


def split_chunks(items: Sequence, jobs: int) -> list[list]:
    """Partition items into at most jobs contiguous, near-even chunks."""
    n = len(items)
    jobs = max(1, min(jobs, n))
    size, extra = divmod(n, jobs)
    chunks = []
    start = 0
    for i in range(jobs):
        end = start + size + (1 if i < extra else 0)
        if end > start:
            chunks.append(list(items[start:end]))
        start = end
    return chunks


def parallel_chunks(
    worker: Callable[[tuple[C, list]], R], ctx: C, items: Sequence, jobs: int
) -> list[R]:
    """Run worker over contiguous chunks, preserving chunk order."""
    chunks = split_chunks(items, jobs)
    if len(chunks) <= 1 or jobs <= 1:
        return [worker((ctx, chunk)) for chunk in chunks]
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        return list(pool.map(worker, [(ctx, chunk) for chunk in chunks]))
