"""Benchmarks for the fault-tolerance machinery.

Three measurements, written to ``BENCH_faults.json`` (directory
overridable via ``REPRO_BENCH_DIR``):

* **recovery latency after a worker kill** — the same batch solved
  fault-free and with an injected mid-batch worker kill; the delta is
  what one crash + respawn + re-dispatch costs end to end.  Recovery
  correctness is asserted (every result back, exactly one ``retried``);
  the latency numbers are hardware-dependent and recorded only, as
  medians over a few rounds.
* **engine recovery after a worker kill** — the same kill on a
  prewarmed ``AsyncSolveEngine(executor="process")`` with 2 workers:
  the time from the ``worker_crashed`` event to the last retried
  ``done``, over a few rounds with a fresh engine each.  Correctness is
  asserted as above; the latency is recorded only.
* **disabled-seam overhead** — the fault seams live permanently on the
  worker hot path, so their *disabled* cost is a standing tax on every
  solve.  The per-case seam cost is measured directly (a tight loop
  over the two per-case seam checks) against the measured per-case
  solve time, and asserted ≤ 2% — the ISSUE 8 acceptance line.  An
  end-to-end A/B of the same batch is recorded alongside for context
  (not asserted: identical code on a loaded box is a noise
  measurement).
"""

from __future__ import annotations

import asyncio
import statistics
import time

from repro.benchgen.random_matrices import random_matrix
from repro.server.engine import DONE, WORKER_CRASHED, AsyncSolveEngine
from repro.service import faults
from repro.service.batch import STATUS_RETRIED, solve_batch

from _record import record_entry

MEMBERS = ("trivial", "packing:2")

OVERHEAD_LIMIT = 0.02
"""Disabled fault seams may cost at most this fraction of a solve."""

ROUNDS = 5
"""Each recovery measurement is the median of this many rounds."""


def _cases(count: int, seed: int):
    return [
        (f"case-{i:02d}", random_matrix(6, 7, 0.4, seed=seed + i))
        for i in range(count)
    ]


def _batch_kill_round(cases, seed):
    """One fault-free batch, then the same batch with ``case-05`` killed."""
    began = time.perf_counter()
    baseline = solve_batch(cases, members=MEMBERS, seed=seed, workers=2)
    baseline_wall = time.perf_counter() - began
    assert len(baseline) == len(cases)

    crashes = []

    def on_fault(event):
        crashes.append((event, time.perf_counter()))

    with faults.injected(faults.FaultPlan(kill_worker_on_case=5)):
        began = time.perf_counter()
        records = solve_batch(
            cases, members=MEMBERS, seed=seed, workers=2, on_fault=on_fault
        )
        ended = time.perf_counter()

    assert len(records) == len(cases)
    assert [event["case_id"] for event, _ in crashes] == ["case-05"]
    return {
        "baseline_wall": baseline_wall,
        "faulted_wall": ended - began,
        "crash_to_done": ended - crashes[0][1],
        "retried": [r.case_id for r in records if r.status == STATUS_RETRIED],
    }


def test_recovery_latency_after_worker_kill(root_seed):
    """One mid-batch worker kill: what does recovery cost end to end?"""
    cases = _cases(12, root_seed)
    # Untimed: the first worker pool of a process starts its forkserver.
    solve_batch(cases, members=MEMBERS, seed=root_seed, workers=2)
    rounds = [_batch_kill_round(cases, root_seed) for _ in range(ROUNDS)]

    def median(key):
        return statistics.median(r[key] for r in rounds)

    payload = {
        "cases": len(cases),
        "workers": 2,
        "members": list(MEMBERS),
        "rounds": ROUNDS,
        "baseline_wall_seconds": median("baseline_wall"),
        "faulted_wall_seconds": median("faulted_wall"),
        "recovery_overhead_seconds": (
            median("faulted_wall") - median("baseline_wall")
        ),
        "crash_to_batch_done_seconds": median("crash_to_done"),
        "retried": rounds[-1]["retried"],
    }
    record_entry("faults", "recovery_after_worker_kill", payload)
    for r in rounds:
        assert r["retried"] == ["case-05"]


async def _engine_kill_round(cases, seed):
    """One prewarmed process-executor stream with ``case-05`` killed."""
    crashed_at = None
    done = {}
    with faults.injected(faults.FaultPlan(kill_worker_on_case="case-05")):
        async with AsyncSolveEngine(
            members=MEMBERS, seed=seed, workers=2, executor="process"
        ) as engine:
            engine.prewarm()
            async for event in engine.stream(cases):
                if event.kind == WORKER_CRASHED and crashed_at is None:
                    crashed_at = time.perf_counter()
                elif event.kind == DONE:
                    done[event.case_id] = (event.retried, time.perf_counter())
    retried = sorted(case for case, (again, _) in done.items() if again)
    last_retried_done = max(at for again, at in done.values() if again)
    return {
        "completed": len(done),
        "retried": retried,
        "crash_to_last_retried_done_seconds": last_retried_done - crashed_at,
    }


def test_engine_recovery_after_worker_kill(root_seed):
    """The engine's process executor: crash to the last retried done."""
    cases = _cases(12, root_seed)
    rounds = [
        asyncio.run(_engine_kill_round(cases, root_seed))
        for _ in range(ROUNDS)
    ]
    latencies = [r["crash_to_last_retried_done_seconds"] for r in rounds]
    payload = {
        "cases": len(cases),
        "workers": 2,
        "members": list(MEMBERS),
        "executor": "process",
        "crash_to_last_retried_done_seconds_runs": latencies,
        "crash_to_last_retried_done_seconds_median": statistics.median(
            latencies
        ),
        "retried_runs": [r["retried"] for r in rounds],
    }
    record_entry("faults", "engine_recovery_after_worker_kill", payload)
    for r in rounds:
        assert r["completed"] == len(cases)
        assert r["retried"] == ["case-05"]


def test_disabled_seam_overhead(root_seed):
    """Acceptance: the disabled seams cost ≤ 2% of a per-case solve."""
    faults.clear()

    # Per-case hot-path seams: solve_payload runs exactly one
    # maybe_kill_worker and one delay check per case.
    iterations = 200_000
    began = time.perf_counter()
    for _ in range(iterations):
        faults.maybe_kill_worker("case-00")
        faults.delay("worker.solve")
    seam_seconds_per_case = (time.perf_counter() - began) / iterations

    # The work those seams ride on: median per-case solve time of the
    # same workload the recovery benchmark uses.
    cases = _cases(12, root_seed)
    per_case = []
    for case_id, matrix in cases:
        began = time.perf_counter()
        solve_batch([(case_id, matrix)], members=MEMBERS, seed=root_seed)
        per_case.append(time.perf_counter() - began)
    solve_seconds_per_case = statistics.median(per_case)

    overhead_fraction = seam_seconds_per_case / solve_seconds_per_case

    # End-to-end A/B for context: the identical batch with the seams in
    # their disabled state, twice.  Recorded, not asserted — this
    # measures machine noise around zero.
    walls = []
    for _ in range(3):
        began = time.perf_counter()
        solve_batch(cases, members=MEMBERS, seed=root_seed)
        walls.append(time.perf_counter() - began)

    payload = {
        "seam_calls_per_case": 2,
        "seam_seconds_per_case": seam_seconds_per_case,
        "solve_seconds_per_case_median": solve_seconds_per_case,
        "overhead_fraction": overhead_fraction,
        "overhead_limit": OVERHEAD_LIMIT,
        "batch_wall_seconds_runs": walls,
        "batch_wall_seconds_median": statistics.median(walls),
    }
    record_entry("faults", "disabled_seam_overhead", payload)
    assert overhead_fraction <= OVERHEAD_LIMIT, (
        f"disabled fault seams cost {overhead_fraction:.2%} of a solve "
        f"(limit {OVERHEAD_LIMIT:.0%})"
    )
