"""The package's one thread pool: work that runs beside the calling thread.

numpy releases the GIL in matmuls and ufunc loops, so the pool's threads
compute while the calling thread does. It has three uses, and only their
modules import this one; each says why its results give the bits one
thread gives.

- A forward pass (`vector_field.forward_batch`) and a generation
  (`systems`) cut a large batch into contiguous row parts that run at
  once: rows never interact. `row_parts` says how many parts a batch
  gets, one per CPU the process may run on (`os.sched_getaffinity`)
  while every part keeps the fewest rows its caller names; `split_rows`
  runs them. The calling thread runs the first part and pool workers the
  others, and every part is joined before `split_rows` returns or
  raises. The forward pass splits at a fixed PART_ROWS, generation at a
  floor read from its batch's row stride.
- Training (`trainer`) draws its next batch while the current step runs:
  a batch depends on the sampler's rng, never on the parameters.
  `one_ahead` keeps one draw pending, so the rng is used by one thread
  at a time and in the same order. It draws ahead only on 2 CPUs or more
  and when a batch's arrays hold PART_ENTRIES entries or more. A d = 3
  Lorenz batch of 256 rows (768 entries) draws in about 0.2 ms, less than
  the hand-off costs: drawing it ahead made a Lorenz training 2-14%
  slower on 5 of 5 pairs. A d = 100 Burgers batch of 256
  rows (25,600 entries) takes 1.2-1.4 ms of a 4.7 ms step, and drawing it
  ahead made its training 15-32% faster on 10 of 10 pairs.

PART_ENTRIES = 2^14 is the one floor of "work big enough for the pool",
in entries of the arrays a pool job works on: below it, the GIL
hand-offs cost more than the second CPU gives. A pending draw never
waits on pool work, so a split forward pass that queues behind it cannot
deadlock. The commands never re-derive a split or a draw-ahead: they
print the wall and process CPU time (`time.process_time`, every thread
included) that their work took.

Every pool job assumes BLAS runs on one thread. Unpinned, each part's
matmul starts OpenBLAS's own threads too and the CPUs are oversubscribed:
a burgers `eval` of 600 rows on 2 CPUs read `rollout_s` 1.29-2.07 s,
against 0.79-1.00 s with OPENBLAS_NUM_THREADS=1. The package sets no
environment variable; the caller pins BLAS.

The pool is made at the first job, never at import, and a forked child
forgets the parent's (its threads do not exist there). Workers run no
span site: the jobs call numpy, `vector_field._sweep`, `systems.rollout`
with a right-hand side and `InterpolantSampler._draw`, none of which
splinebench wraps, so every span opens and closes on the calling thread,
and spans nest.
"""

from __future__ import annotations

import os

PART_ENTRIES = 2**14  # fewest array entries of a pool job (module docstring)

_pool = None  # made at the first job


def row_parts(rows: int, part_rows: int) -> int:
    """The parts a batch of `rows` rows splits into, each of `part_rows` rows or more."""
    if rows < 2 * part_rows:
        return 1
    return min(len(os.sched_getaffinity(0)), rows // part_rows)


def _forget_pool() -> None:
    global _pool
    _pool = None  # a forked child has none of the parent's threads


os.register_at_fork(after_in_child=_forget_pool)


def _the_pool():
    global _pool
    if _pool is None:
        from concurrent.futures import ThreadPoolExecutor

        cpus = len(os.sched_getaffinity(0))
        _pool = ThreadPoolExecutor(max_workers=cpus - 1, thread_name_prefix="splineflow")
    return _pool


def split_rows(work, rows: int, parts: int, align: int = 1) -> list:
    """[work(lo, hi) of each of `parts` contiguous row parts], run at once.

    Each part starts at a multiple of `align` rows, and each but the last
    holds rows // parts rounded down to one. One part runs on the calling
    thread alone and starts no pool.
    """
    if parts == 1:
        return [work(0, rows)]
    from concurrent.futures import wait

    size = rows // parts // align * align
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
    if len(os.sched_getaffinity(0)) < 2 or entries < PART_ENTRIES:
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
