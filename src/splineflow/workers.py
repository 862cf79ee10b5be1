"""The package's one thread pool: the row parts of a large batch, run at once.

Rows of a forward pass or of a generation never interact, so such a batch
can be cut into contiguous row parts that run at the same time: numpy
releases the GIL in matmuls and ufunc loops. `row_parts` says how many
parts a batch gets, one per CPU the process may run on
(`os.sched_getaffinity`) while every part keeps the fewest rows its
caller names; `split_rows` runs them. The calling thread runs the first
part and pool workers the others, and every part is joined before
`split_rows` returns or raises. Its two callers, and only they, import
this module; each names its floor and says why its parts give the bits
one run of the whole batch gives. `vector_field.forward_batch` splits at
a fixed PART_ROWS, generation (`systems`) at a floor read from its
batch's row stride. The commands never re-derive a split: they print the
wall and process CPU time (`time.process_time`, every thread included)
that their work took.

The pool is made at the first split, never at import, and a forked
child forgets the parent's (its threads do not exist there). Workers run
no span site: the parts call numpy, `vector_field._sweep` and
`systems.rollout` with a right-hand side, none of which splinebench
wraps, so every span opens and closes on the thread that split the
batch, and spans nest.
"""

from __future__ import annotations

import os

_pool = None  # made at the first split


def row_parts(rows: int, part_rows: int) -> int:
    """The parts a batch of `rows` rows splits into, each of `part_rows` rows or more."""
    if rows < 2 * part_rows:
        return 1
    return min(len(os.sched_getaffinity(0)), rows // part_rows)


def _forget_pool() -> None:
    global _pool
    _pool = None  # a forked child has none of the parent's threads


os.register_at_fork(after_in_child=_forget_pool)


def split_rows(work, rows: int, parts: int, align: int = 1) -> list:
    """[work(lo, hi) of each of `parts` contiguous row parts], run at once.

    Each part starts at a multiple of `align` rows, and each but the last
    holds rows // parts rounded down to one. One part runs on the calling
    thread alone and starts no pool.
    """
    global _pool
    if parts == 1:
        return [work(0, rows)]
    from concurrent.futures import ThreadPoolExecutor, wait

    if _pool is None:
        cpus = len(os.sched_getaffinity(0))
        _pool = ThreadPoolExecutor(max_workers=cpus - 1, thread_name_prefix="splineflow")
    size = rows // parts // align * align
    cuts = [*range(0, parts * size, size), rows]
    pending = [_pool.submit(work, lo, hi) for lo, hi in zip(cuts[1:-1], cuts[2:])]
    try:
        first = work(0, cuts[1])
    finally:
        wait(pending)
    return [first, *(part.result() for part in pending)]
