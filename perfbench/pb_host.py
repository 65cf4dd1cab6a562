"""Host speed: a fixed reference computation timed beside the passes.

A shared host's CPU speed drifts by tens of percent for minutes at a
time, longer than a run, so a median inside a run cannot remove it.
The benchmark therefore times a fixed piece of work of its own, frozen
here and never part of the program, before every pass (or round) and
after the last one, and scales each pass's timings by
``REFERENCE_S / reference time``: the mean of the reference times
taken just before and just after the pass.  A timing then reads as it
would on a host where the reference takes :data:`REFERENCE_S`.

The work is exact integer (Bareiss) elimination on a fixed 0/1
matrix, the same kind of work as the program's Eq. 3 rank bound, so
that it slows with the host as the program does.  It must never be
changed: a change to it would show as a change of every timing.
"""

from __future__ import annotations

import threading
import time
from typing import List, Sequence

SIZE = 70
REPEATS = 6
THREADS = 2
REFERENCE_S = 0.1
"""The reference time a scale of 1 stands for, close to its median on
the 2-vCPU development VM."""


def _matrix() -> List[List[int]]:
    """A fixed 0/1 matrix, about 30% ones, from an integer hash."""
    return [
        [1 if ((i * 7919 + j * 104729 + i * j * 31) * 2654435761 >> 11) % 10 < 3
         else 0 for j in range(SIZE)]
        for i in range(SIZE)
    ]


_MATRIX = _matrix()


def _eliminate(matrix: Sequence[Sequence[int]]) -> int:
    """Rank over Q by one-step Bareiss elimination."""
    rows = [list(row) for row in matrix]
    size = len(rows)
    previous, pivot_row = 1, 0
    for col in range(size):
        swap = next((r for r in range(pivot_row, size) if rows[r][col]), None)
        if swap is None:
            continue
        rows[pivot_row], rows[swap] = rows[swap], rows[pivot_row]
        top = rows[pivot_row]
        pivot = top[col]
        for r in range(pivot_row + 1, size):
            row = rows[r]
            factor = row[col]
            for c in range(col + 1, size):
                row[c] = (row[c] * pivot - factor * top[c]) // previous
            row[col] = 0
        previous = pivot
        pivot_row += 1
    return pivot_row


def _repeat(count: int) -> None:
    for _ in range(count):
        _eliminate(_MATRIX)


def reference_time() -> float:
    """Seconds the reference work takes on the host right now.

    The work is shared out over :data:`THREADS` threads, after one
    untimed repetition that warms the caches the pass before left cold.
    On the development VM this followed both workloads' pass times
    better than the same work on one thread, which moved more from one
    measurement to the next and less with the passes.  Both workloads
    pay for handing the interpreter lock between threads on a loaded
    host: the gateway runs several, and the benchmark's own process
    runs the clients' and the server's.
    """
    _repeat(1)
    workers = [
        threading.Thread(target=_repeat, args=(REPEATS // THREADS,))
        for _ in range(THREADS)
    ]
    began = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    return time.perf_counter() - began


def pass_scales(references: Sequence[float]) -> List[float]:
    """One scale per pass, from the reference times taken before each
    pass and after the last: ``REFERENCE_S`` over the mean of the two
    that bracket the pass."""
    return [
        2.0 * REFERENCE_S / (before + after)
        for before, after in zip(references, references[1:])
    ]
