"""Benchmarks for the portfolio service: batch throughput and caching.

Measures ``solve_batch`` against the sequential per-instance loop on a
slice of the Table-I instance set, and the cached re-run against the
cold run.  Every measurement is appended to ``BENCH_portfolio.json``
(override the directory with ``REPRO_BENCH_DIR``) so throughput can be
tracked across commits.

The parallel speedup is recorded, not asserted — it depends on the
host's core count (this suite must also pass on 1-CPU runners).  The
cache speedup *is* asserted: a warm batch never re-solves, so it must
beat the cold batch regardless of hardware.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.benchgen.suite import flatten_suites, table1_suites
from repro.service.batch import solve_batch
from repro.service.cache import ResultCache
from repro.service.portfolio import solve_portfolio

from _record import record_entry

MEMBERS = ("trivial", "packing:8", "sap")


def _cases(scale: str, seed: int):
    """A slice of the Table-I instance set (full set at paper scale)."""
    cases = flatten_suites(
        table1_suites(scale=scale, seed=seed, include_large=False)
    )
    return cases if scale == "paper" else cases[::8]


def test_batch_vs_sequential(benchmark, scale, root_seed):
    cases = _cases(scale, root_seed)
    workers = max(1, min(4, os.cpu_count() or 1))

    began = time.perf_counter()
    sequential = [
        solve_portfolio(case.matrix, members=MEMBERS, seed=root_seed)
        for case in cases
    ]
    sequential_seconds = time.perf_counter() - began

    timings = []

    def run_batch():
        t0 = time.perf_counter()
        records = solve_batch(
            cases, members=MEMBERS, seed=root_seed, workers=workers
        )
        timings.append(time.perf_counter() - t0)
        return records

    records = benchmark.pedantic(run_batch, rounds=3, iterations=1)
    assert len(records) == len(cases) == len(sequential)
    for case, record in zip(cases, records):
        record.result.partition.validate(case.matrix)
        assert record.provenance()["winner"]

    batch_seconds = min(timings)
    speedup = sequential_seconds / batch_seconds if batch_seconds else None
    payload = {
        "instances": len(cases),
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "members": list(MEMBERS),
        "sequential_seconds": sequential_seconds,
        "batch_seconds": batch_seconds,
        "throughput_per_second": len(cases) / batch_seconds,
        "speedup_vs_sequential": speedup,
    }
    benchmark.extra_info.update(payload)
    record_entry("portfolio", "batch_vs_sequential", payload)


def test_cached_rerun_is_lookup_fast(benchmark, scale, root_seed):
    cases = _cases(scale, root_seed)
    cache = ResultCache(capacity=4096)

    began = time.perf_counter()
    cold = solve_batch(cases, members=MEMBERS, seed=root_seed, cache=cache)
    cold_seconds = time.perf_counter() - began
    assert not any(record.from_cache for record in cold)

    def rerun():
        return solve_batch(
            cases, members=MEMBERS, seed=root_seed, cache=cache
        )

    warm = benchmark(rerun)
    assert all(record.from_cache for record in warm)

    warm_seconds = benchmark.stats.stats.min
    speedup = cold_seconds / warm_seconds if warm_seconds else float("inf")
    payload = {
        "instances": len(cases),
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "cache_speedup": speedup,
        "cache_stats": cache.stats.as_dict(),
    }
    benchmark.extra_info.update(payload)
    record_entry("portfolio", "cached_rerun", payload)
    # O(lookup): the warm batch must crush the cold one on any hardware.
    assert speedup >= 2.0


@pytest.mark.slow
def test_full_table1_set_completes_with_pool(scale, root_seed):
    """Acceptance: the whole Table-I instance set survives a 4-worker pool."""
    cases = flatten_suites(
        table1_suites(scale="quick", seed=root_seed, include_large=False)
    )
    records = solve_batch(
        cases,
        members=MEMBERS,
        seed=root_seed,
        workers=4,
        budget_per_member=20.0,
    )
    assert len(records) == len(cases)
    by_id = {case.case_id: case.matrix for case in cases}
    for record in records:
        record.result.partition.validate(by_id[record.case_id])
