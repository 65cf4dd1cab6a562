"""Worker death mid-batch: the batch finishes, results are identical.

The acceptance contract: with ``FaultPlan(kill_worker_on_case=n)`` a
20-case ``solve_batch`` still returns 20 results — 19 byte-identical to
a fault-free run and exactly one marked ``retried`` (itself
byte-identical in *content*; only the status differs).  The engine's
process executor solves on the same worker pool, so it is held to the
same contract: one ``worker_crashed`` event, one retried case.  A case
that kills its worker twice is a poison pill on both paths.
"""

import multiprocessing

import pytest

from repro.benchgen.random_matrices import random_matrix
from repro.core.exceptions import SolverError
from repro.server.engine import (
    DONE,
    FAILED,
    WORKER_CRASHED,
    AsyncSolveEngine,
)
from repro.service import faults
from repro.service.batch import (
    STATUS_OK,
    STATUS_RETRIED,
    solve_batch,
)

MEMBERS = ("trivial", "packing:2")


def _content(result):
    """Byte-identity in this repo's sense: provenance minus wall time.

    (The same canonicalization the determinism suite pins — wall-clock
    fields legitimately differ across runs, everything else must not.)
    """
    return result.provenance(include_timing=False)


def _cases(count):
    return [
        (f"c{i:02d}", random_matrix(5, 6, 0.4, seed=100 + i))
        for i in range(count)
    ]


class TestBatchWorkerCrash:
    def test_twenty_case_batch_survives_a_worker_kill(self):
        """The ISSUE 8 acceptance test, verbatim."""
        cases = _cases(20)
        baseline = solve_batch(cases, members=MEMBERS, seed=7, workers=2)
        assert all(r.status == STATUS_OK for r in baseline)

        crashes = []
        with faults.injected(faults.FaultPlan(kill_worker_on_case=11)):
            records = solve_batch(
                cases,
                members=MEMBERS,
                seed=7,
                workers=2,
                on_fault=crashes.append,
            )

        assert len(records) == 20
        assert [r.case_id for r in records] == [c for c, _ in cases]

        retried = [r for r in records if r.status == STATUS_RETRIED]
        assert [r.case_id for r in retried] == ["c11"]
        assert sum(r.status == STATUS_OK for r in records) == 19

        assert len(crashes) == 1
        assert crashes[0]["event"] == WORKER_CRASHED
        assert crashes[0]["case_id"] == "c11"
        assert crashes[0]["will_retry"] is True

        # Byte-identical provenance, crash or no crash: the bulkhead
        # slots isolate the blast radius and per-case seeding makes the
        # retry deterministic.
        expected = {r.case_id: _content(r.result) for r in baseline}
        for record in records:
            assert (
                _content(record.result) == expected[record.case_id]
            ), record.case_id

    def test_kill_plan_never_kills_the_in_process_path(self):
        """``workers=1`` solves in the caller's process; the kill seam
        must refuse to fire there (it would take down the test run)."""
        cases = _cases(3)
        with faults.injected(faults.FaultPlan(kill_worker_on_case="c01")):
            records = solve_batch(cases, members=MEMBERS, seed=7, workers=1)
        assert len(records) == 3
        assert all(r.status == STATUS_OK for r in records)

    def test_out_of_range_kill_index_is_disarmed(self):
        cases = _cases(2)
        with faults.injected(faults.FaultPlan(kill_worker_on_case=99)):
            records = solve_batch(cases, members=MEMBERS, seed=7, workers=2)
        assert all(r.status == STATUS_OK for r in records)


def _process_engine():
    return AsyncSolveEngine(
        members=MEMBERS, seed=7, workers=2, executor="process"
    )


async def _baseline(cases):
    async with _process_engine() as engine:
        return {
            event.case_id: _content(event.record.result)
            async for event in engine.stream(cases)
            if event.kind == DONE
        }


def _assert_one_crash_on_c03(events, stats, baseline):
    crashes = [e for e in events if e.kind == WORKER_CRASHED]
    assert [e.case_id for e in crashes] == ["c03"]
    done = [e for e in events if e.kind == DONE]
    assert {e.case_id for e in done} == set(baseline)
    assert [e.case_id for e in done if e.retried] == ["c03"]
    assert stats["worker_crashes"] == 1
    for event in done:
        assert (
            _content(event.record.result) == baseline[event.case_id]
        ), event.case_id


class TestEngineWorkerCrash:
    async def test_process_pool_crash_recovers_all_cases(self):
        """One slot dies: its case alone is retried, byte-identical."""
        cases = _cases(6)
        baseline = await _baseline(cases)
        assert len(baseline) == 6

        with faults.injected(faults.FaultPlan(kill_worker_on_case=3)):
            async with _process_engine() as engine:
                events = [event async for event in engine.stream(cases)]
                stats = engine.stats()
        _assert_one_crash_on_c03(events, stats, baseline)

    async def test_plan_installed_after_prewarm_still_fires(self):
        """Workers already running get the plan with each dispatch."""
        cases = _cases(6)
        baseline = await _baseline(cases)

        async with _process_engine() as engine:
            engine.prewarm()
            with faults.injected(faults.FaultPlan(kill_worker_on_case=3)):
                events = [event async for event in engine.stream(cases)]
            stats = engine.stats()
        _assert_one_crash_on_c03(events, stats, baseline)


class TestPoisonPill:
    """A case that kills its worker on every dispatch fails, alone."""

    @pytest.fixture(autouse=True)
    def _kill_stays_armed(self, monkeypatch):
        # Recovery disarms the one-shot kill in the parent, and the next
        # dispatch carries the disarmed plan; keep it armed instead.
        monkeypatch.setattr(faults, "disarm", lambda field_name: None)
        yield
        assert multiprocessing.active_children() == []

    def test_batch_raises_naming_the_case(self):
        crashes = []
        with faults.injected(faults.FaultPlan(kill_worker_on_case="c03")):
            with pytest.raises(SolverError, match="'c03'"):
                solve_batch(
                    _cases(6),
                    members=MEMBERS,
                    seed=7,
                    workers=2,
                    on_fault=crashes.append,
                )
        assert [(e["case_id"], e["will_retry"]) for e in crashes] == [
            ("c03", True),
            ("c03", False),
        ]

    async def test_engine_fails_the_case_and_ends_the_stream(self):
        cases = _cases(6)
        with faults.injected(faults.FaultPlan(kill_worker_on_case="c03")):
            async with _process_engine() as engine:
                events = [event async for event in engine.stream(cases)]
                stats = engine.stats()
            assert multiprocessing.active_children() == []

        crashes = [e for e in events if e.kind == WORKER_CRASHED]
        assert [e.case_id for e in crashes] == ["c03", "c03"]
        terminal = sorted((e.case_id, e.kind) for e in events if e.terminal)
        assert terminal == [
            (case_id, FAILED if case_id == "c03" else DONE)
            for case_id, _ in cases
        ]
        assert stats["worker_crashes"] == 2
        assert stats["failed"] == 1


class TestDelaySeam:
    def test_delay_site_stretches_the_worker(self):
        import time

        cases = _cases(1)
        start = time.monotonic()
        solve_batch(cases, members=MEMBERS, seed=7)
        fast = time.monotonic() - start

        with faults.injected(
            faults.FaultPlan(delay_seconds=0.3, delay_site="worker.solve")
        ):
            start = time.monotonic()
            solve_batch(cases, members=MEMBERS, seed=7)
            slowed = time.monotonic() - start
        assert slowed >= fast + 0.25
