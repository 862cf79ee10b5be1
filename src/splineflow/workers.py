"""The package's one thread pool: work that runs beside the calling thread.

numpy releases the GIL in matmuls and ufunc loops, so the pool's threads
compute while the calling thread does. Only the modules that use the
pool import this one; each says why its results give the bits one
thread gives.

- `split_rows` cuts a batch into contiguous row parts that run at once,
  for a forward pass (`vector_field`) and a generation (`systems`): rows
  never interact. It makes one part per CPU the process may run on,
  each of at least its caller's floor of rows, and cuts only at
  multiples of 8 rows, where BLAS kernels round each row as in the whole
  batch (CHANGES.md, "Evaluation scores as it integrates").
- `one_ahead` draws a training batch while the current step runs
  (`trainer`): a batch depends on the sampler's rng, never on the
  parameters. One draw is pending at a time, so the rng is used by one
  thread at a time and in the same order (CHANGES.md, "Training draws
  its next batch").

PART_ENTRIES is the one floor of "work big enough for the pool", in
entries of the arrays a pool job works on: below it, the GIL hand-offs
cost more than the second CPU gives (CHANGES.md, "Generation splits a
large batch's rows" and "Training draws its next batch"). A pending
draw never waits on pool work, so a split that queues behind it cannot
deadlock. Every job assumes BLAS runs on one thread, which the
caller pins: unpinned, each part's matmul starts BLAS threads of its own
and oversubscribes the CPUs (CHANGES.md, the `FOUND` on unpinned BLAS).

The pool is made at the first job, never at import, and a forked child
forgets the parent's (its threads do not exist there). Workers run no
span site, so every splinebench span opens and closes on the calling
thread.
"""

from __future__ import annotations

import os

PART_ENTRIES = 2**14  # fewest array entries of a pool job (module docstring)

_pool = None  # made at the first job


def _cpus() -> int:
    """The CPUs this process may run on; all of them where affinity is unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _forget_pool() -> None:
    global _pool
    _pool = None  # a forked child has none of the parent's threads


if hasattr(os, "register_at_fork"):  # no fork, and no hook, on Windows
    os.register_at_fork(after_in_child=_forget_pool)


def _the_pool():
    global _pool
    if _pool is None:
        from concurrent.futures import ThreadPoolExecutor

        _pool = ThreadPoolExecutor(max_workers=_cpus() - 1, thread_name_prefix="splineflow")
    return _pool


def split_rows(work, rows: int, min_rows: int) -> list:
    """[work(lo, hi) of each contiguous row part of [0, rows)], run at once.

    With `min_rows` rounded up to a multiple of 8 as the floor, there are
    min(CPUs, rows // floor) parts, and at least one. Each starts at a
    multiple of 8 rows and each but the last holds rows // parts rounded
    down to a multiple of 8, so every part of a split holds the floor or
    more. One part runs on the calling thread alone and starts no pool;
    otherwise the calling thread runs the first part, and every part is
    joined before this returns or raises.
    """
    floor = -(-min_rows // 8) * 8
    parts = min(_cpus(), rows // floor) if rows >= 2 * floor else 1
    if parts == 1:
        return [work(0, rows)]
    from concurrent.futures import wait

    size = rows // parts // 8 * 8
    cuts = [*range(0, parts * size, size), rows]
    pending = [_the_pool().submit(work, lo, hi) for lo, hi in zip(cuts[1:-1], cuts[2:])]
    try:
        first = work(0, cuts[1])
    finally:
        wait(pending)
    return [first, *(part.result() for part in pending)]


def one_ahead(draw, count: int, entries: int):
    """Yield `count` results of draw(), in order, each drawn one ahead on the pool.

    While the caller works with one result, the pool draws the next. The
    first is drawn on the calling thread, and no draw follows the last.
    With fewer than 2 CPUs or under PART_ENTRIES `entries` per result,
    every draw runs on the calling thread when it is asked for, and no
    pool starts. Close the generator (`contextlib.closing`) so that a
    pending draw has ended before an error of the caller propagates.
    """
    if _cpus() < 2 or entries < PART_ENTRIES:
        for _ in range(count):
            yield draw()
        return
    pending = None
    try:
        for k in range(count):
            result = draw() if pending is None else pending.result()
            pending = _the_pool().submit(draw) if k + 1 < count else None
            yield result
    finally:
        if pending is not None:
            pending.exception()  # waits; an error of a draw nobody uses is dropped
