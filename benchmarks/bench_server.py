"""Benchmarks for the streaming server layer: latency and sharing.

Two measurements, appended to ``BENCH_server.json`` (directory
overridable via ``REPRO_BENCH_DIR``):

* **streaming vs. barriered latency-to-first-result** — a deliberately
  skewed suite (one budget-bound slow instance + several microsecond
  instances): ``solve_batch`` returns nothing until the slow instance's
  budget runs dry, while the async engine streams every fast result
  almost immediately.  The first-result latency *is* asserted: it is a
  property of the architecture, not the hardware.
* **shared-cache contention** — two processes solving through one
  sharded cache directory; every entry must survive (asserted), wall
  time recorded.

Raw parallel speedups are recorded, never asserted (1-CPU runners).
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time

from repro.benchgen.random_matrices import random_matrix
from repro.core.binary_matrix import BinaryMatrix
from repro.server.engine import DONE, AsyncSolveEngine
from repro.server.shards import ShardedDiskTier
from repro.service.batch import BatchItem, solve_batch
from repro.service.cache import ResultCache

from _record import record_entry

SLOW_MATRIX = random_matrix(12, 12, 0.6, seed=3)
"""No exact backend certifies this inside a ~1 s slice, so budgeted
solves on it take (almost exactly) their budget — a controllable 'slow
tenant' for latency experiments."""

FAST_MATRICES = [
    BinaryMatrix.from_strings(rows)
    for rows in (
        ["10", "01"],
        ["11", "11"],
        ["110", "011", "111"],
        ["101", "010", "101"],
        ["1100", "0110", "0011"],
        ["1111", "1001"],
    )
]

MEMBER_BUDGET = 1.0


def _skewed_suite():
    cases = [BatchItem("slow", SLOW_MATRIX, ("packing:4", "sap"))]
    cases += [
        BatchItem(f"fast-{i}", matrix, ("trivial",))
        for i, matrix in enumerate(FAST_MATRICES)
    ]
    return cases


def test_streaming_beats_barrier_to_first_result(root_seed):
    cases = _skewed_suite()

    began = time.perf_counter()
    records = solve_batch(
        cases, seed=root_seed, budget_per_member=MEMBER_BUDGET
    )
    barrier_seconds = time.perf_counter() - began
    assert len(records) == len(cases)

    async def stream_once():
        async with AsyncSolveEngine(
            seed=root_seed, workers=2, budget_per_member=MEMBER_BUDGET
        ) as engine:
            started = time.perf_counter()
            first_done = None
            first_case = None
            done = 0
            async for event in engine.stream(cases):
                if event.kind == DONE:
                    done += 1
                    if first_done is None:
                        first_done = time.perf_counter() - started
                        first_case = event.case_id
            return first_done, first_case, time.perf_counter() - started, done

    first_seconds, first_case, stream_seconds, done = asyncio.run(
        stream_once()
    )
    assert done == len(cases)

    payload = {
        "instances": len(cases),
        "member_budget_seconds": MEMBER_BUDGET,
        "barrier_seconds": barrier_seconds,
        "stream_total_seconds": stream_seconds,
        "stream_first_result_seconds": first_seconds,
        "stream_first_case": first_case,
        "first_result_speedup": barrier_seconds / first_seconds,
    }
    record_entry("server", "streaming_vs_barrier", payload)
    # Architecture, not hardware: the barrier holds every result behind
    # the slow instance's ~1 s budget; streaming hands a fast instance
    # back while the slow one is still burning it.
    assert first_case != "slow"
    assert first_seconds < barrier_seconds / 2


def _hammer_shared_cache(root: str, offset: int, seed: int) -> None:
    """Worker: solve a disjoint slice through the shared sharded cache."""
    cache = ResultCache.sharded(root, capacity=8)
    cases = [
        (
            f"proc{offset}-{i}",
            random_matrix(5, 5, 0.5, seed=seed + offset * 100 + i),
        )
        for i in range(10)
    ]
    solve_batch(
        cases, members=("trivial", "packing:2"), seed=seed, cache=cache
    )


def test_shared_cache_contention(tmp_path, root_seed):
    root = str(tmp_path / "shared-cache")
    began = time.perf_counter()
    workers = [
        multiprocessing.Process(
            target=_hammer_shared_cache, args=(root, offset, root_seed)
        )
        for offset in (1, 2)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120)
    wall_seconds = time.perf_counter() - began

    assert all(not worker.is_alive() for worker in workers), (
        "cache writer deadlocked"
    )
    assert all(worker.exitcode == 0 for worker in workers)
    surviving = len(ShardedDiskTier(root).keys())
    payload = {
        "writers": len(workers),
        "entries_per_writer": 10,
        "surviving_entries": surviving,
        "wall_seconds": wall_seconds,
    }
    record_entry("server", "shared_cache_contention", payload)
    # The no-lost-entries contract: both writers' results all land.
    assert surviving == 20
