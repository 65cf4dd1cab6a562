"""AsyncSolveEngine: streaming order, equivalence, backpressure, cancel.

Coroutine tests run under plain pytest through the asyncio.run hook in
tests/conftest.py (no pytest-asyncio).
"""

import asyncio
import errno
import os

import pytest

from repro.benchgen.random_matrices import random_matrix
from repro.core.binary_matrix import BinaryMatrix
from repro.core.exceptions import SolverError
from repro.server.engine import (
    CANCELLED,
    DONE,
    FAILED,
    MEMBER_FINISHED,
    QUEUED,
    STARTED,
    AsyncSolveEngine,
    SolveEvent,
)
from repro.service.batch import BatchItem, solve_batch
from repro.service.cache import ResultCache

MEMBERS = ("trivial", "packing:4", "sap")

SLOW_MATRIX = random_matrix(12, 12, 0.6, seed=3)
"""SAP needs far more than the per-member budget here, so with a budget
of B seconds this instance reliably takes ~B seconds — a deliberately
skewed suite's slow end, bounded so the test stays fast."""

FAST_MATRICES = [
    BinaryMatrix.from_strings(["10", "01"]),
    BinaryMatrix.from_strings(["11", "11"]),
    BinaryMatrix.from_strings(["110", "011", "111"]),
]


async def _collect(engine, cases, **overrides):
    events = []
    async for event in engine.stream(cases, **overrides):
        events.append(event)
    return events


def _kinds(events, case_id):
    return [e.kind for e in events if e.case_id == case_id]


class TestStreamingOrder:
    async def test_per_case_event_grammar(self, service_matrices):
        async with AsyncSolveEngine(
            members=MEMBERS, seed=7, workers=2
        ) as engine:
            events = await _collect(engine, service_matrices)
        for case_id, _ in service_matrices:
            kinds = _kinds(events, case_id)
            assert kinds[0] == QUEUED
            assert kinds[1] == STARTED
            assert kinds[-1] == DONE
            members_seen = [
                e.member
                for e in events
                if e.case_id == case_id and e.kind == MEMBER_FINISHED
            ]
            assert members_seen == list(MEMBERS)

    async def test_queued_events_in_submission_order(self, service_matrices):
        async with AsyncSolveEngine(
            members=("trivial",), seed=7, workers=1
        ) as engine:
            events = await _collect(engine, service_matrices)
        queued = [e.case_id for e in events if e.kind == QUEUED]
        assert queued == [case_id for case_id, _ in service_matrices]

    async def test_first_done_beats_the_slowest_instance(self):
        """Acceptance: a skewed suite yields its first ``done`` long
        before the slow instance finishes — streaming, not a barrier."""
        cases = [BatchItem("slow", SLOW_MATRIX, ("packing:4", "sap"))] + [
            BatchItem(f"fast-{i}", matrix, ("trivial",))
            for i, matrix in enumerate(FAST_MATRICES)
        ]
        async with AsyncSolveEngine(
            seed=7, workers=2, budget_per_member=1.5
        ) as engine:
            done_order = []
            async for event in engine.stream(cases):
                if event.kind == DONE:
                    done_order.append(event.case_id)
        # The slow case was submitted first but must finish last; every
        # fast case streams out while it is still solving.
        assert done_order[-1] == "slow"
        assert set(done_order[:-1]) == {"fast-0", "fast-1", "fast-2"}

    async def test_backpressure_bounds_in_flight(self, service_matrices):
        workers = 2
        async with AsyncSolveEngine(
            members=MEMBERS, seed=7, workers=workers
        ) as engine:
            in_flight = 0
            peak = 0
            async for event in engine.stream(service_matrices):
                if event.kind == STARTED:
                    in_flight += 1
                    peak = max(peak, in_flight)
                elif event.terminal:
                    in_flight -= 1
            assert peak <= workers
            assert peak >= 1


class TestProcessExecutor:
    async def test_member_events_cross_the_process_boundary(self):
        """The bug this engine shipped with: ``executor="process"``
        solved correctly but silently swallowed every member_finished.
        Each case must now stream its member events live, all of them
        before its terminal event."""
        cases = [
            ("a", FAST_MATRICES[2]),
            ("b", FAST_MATRICES[0]),
        ]
        async with AsyncSolveEngine(
            members=("trivial", "packing:4"),
            seed=7,
            workers=2,
            executor="process",
        ) as engine:
            events = await _collect(engine, cases)
        for case_id, _ in cases:
            kinds = _kinds(events, case_id)
            assert kinds[0] == QUEUED
            assert kinds[-1] == DONE
            members_seen = [
                e.member
                for e in events
                if e.case_id == case_id and e.kind == MEMBER_FINISHED
            ]
            assert members_seen == ["trivial", "packing:4"]

    async def test_process_stream_matches_thread_provenance(self):
        cases = [("a", FAST_MATRICES[2])]
        async with AsyncSolveEngine(
            members=("trivial", "packing:4"), seed=7, executor="process"
        ) as engine:
            via_process = await engine.solve(cases)
        async with AsyncSolveEngine(
            members=("trivial", "packing:4"), seed=7, executor="thread"
        ) as engine:
            via_thread = await engine.solve(cases)
        assert via_process[0].provenance(
            include_timing=False
        ) == via_thread[0].provenance(include_timing=False)

    async def test_win_and_cache_hit_rates(self, tmp_path):
        cache = ResultCache.sharded(tmp_path / "cache", capacity=8)
        async with AsyncSolveEngine(
            members=("trivial",), seed=7, cache=cache
        ) as engine:
            await _collect(engine, [("a", FAST_MATRICES[0])])
            await _collect(engine, [("a", FAST_MATRICES[0])])
            stats = engine.stats()
        assert stats["solved"] == 1
        assert stats["cache_hits"] == 1
        assert stats["cache_hit_rate"] == 0.5
        assert stats["wins"] == {"trivial": 1}
        assert stats["win_rates"] == {"trivial": 1.0}


class TestStoreWriteFailure:
    async def test_failed_flush_keeps_the_answer_and_retries(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache.sharded(tmp_path / "cache", capacity=8)
        storage = cache.storage

        def full_disk(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(storage, "store", full_disk)
        async with AsyncSolveEngine(
            members=("trivial",), seed=7, cache=cache
        ) as engine:
            failed = await _collect(engine, [("a", FAST_MATRICES[0])])
            assert _kinds(failed, "a")[-1] == DONE
            assert engine.stats()["cache"]["store_write_failures"] == 1
            monkeypatch.undo()  # the disk has room again
            await _collect(engine, [("b", FAST_MATRICES[1])])
            assert engine.stats()["cache"]["store_write_failures"] == 1
        # The failed stream's entry stayed dirty and the next flush
        # wrote it.
        assert len(storage.keys()) == 2


class TestBatchEquivalence:
    async def test_stream_matches_solve_batch_provenance(
        self, service_matrices, service_seed
    ):
        """The async engine must be a *transport*, not a different
        solver: canonical provenance equals the barriered batch."""
        batch = solve_batch(
            service_matrices, members=MEMBERS, seed=service_seed
        )
        async with AsyncSolveEngine(
            members=MEMBERS, seed=service_seed, workers=2
        ) as engine:
            records = await engine.solve(service_matrices)
        assert [r.case_id for r in records] == [r.case_id for r in batch]
        for ours, theirs in zip(records, batch):
            assert (
                ours.provenance(include_timing=False)
                == theirs.provenance(include_timing=False)
            )

    async def test_cache_round_trip_and_flush(
        self, tmp_path, service_matrices, service_seed
    ):
        cache = ResultCache.sharded(tmp_path / "cache", capacity=64)
        async with AsyncSolveEngine(
            members=MEMBERS, seed=service_seed, workers=1, cache=cache
        ) as engine:
            cold = await _collect(engine, service_matrices)
            warm = await _collect(engine, service_matrices)
        assert all(
            not e.from_cache for e in cold if e.kind == DONE
        )
        assert all(e.from_cache for e in warm if e.kind == DONE)
        # Cache hits skip the executor entirely: no started events.
        assert not [e for e in warm if e.kind == STARTED]
        assert list((tmp_path / "cache").glob("shard-*.json"))

    async def test_per_stream_overrides(self, service_matrices):
        async with AsyncSolveEngine(
            members=("trivial",), seed=7, workers=1
        ) as engine:
            events = await _collect(
                engine,
                service_matrices[:2],
                members=("trivial", "packing:2"),
            )
        finished = [e.member for e in events if e.kind == MEMBER_FINISHED]
        assert "packing:2" in finished

    async def test_failure_event_instead_of_hang(self):
        async with AsyncSolveEngine(members=MEMBERS, seed=7) as engine:
            # A zero-row matrix with mismatched masks cannot be built,
            # so fail inside the stream via a bogus member override.
            events = []
            with pytest.raises(SolverError):
                async for event in engine.stream(
                    [("x", FAST_MATRICES[0])], members=("magic:3",)
                ):
                    events.append(event)


class TestCancellation:
    async def test_cancel_before_start(self, service_matrices):
        async with AsyncSolveEngine(
            members=MEMBERS, seed=7, workers=1
        ) as engine:
            events = []
            cancelled = False
            async for event in engine.stream(service_matrices):
                events.append(event)
                if not cancelled and event.kind == QUEUED:
                    # Cancel the *last* case before workers=1 reaches it.
                    target = service_matrices[-1][0]
                    assert engine.cancel(target)
                    cancelled = True
            last_id = service_matrices[-1][0]
            kinds = _kinds(events, last_id)
            assert kinds[-1] == CANCELLED
            assert STARTED not in kinds

    async def test_cancel_mid_solve(self):
        # branch_bound polls its deadline every 64 nodes, so a running
        # instance aborts promptly once cancelled.
        cases = [BatchItem("grind", SLOW_MATRIX, ("branch_bound",))]
        async with AsyncSolveEngine(
            seed=7, workers=1, budget_per_member=30.0
        ) as engine:

            async def consume():
                events = []
                async for event in engine.stream(cases):
                    events.append(event)
                    if event.kind == STARTED:
                        assert engine.cancel(event.case_id)
                return events

            events = await asyncio.wait_for(consume(), timeout=60)
        kinds = [e.kind for e in events]
        assert kinds[-1] == CANCELLED
        assert STARTED in kinds

    async def test_cancel_unknown_case_is_false(self):
        engine = AsyncSolveEngine(members=MEMBERS)
        assert engine.cancel("no-such-case") is False

    def test_cancellation_affected_policy(self):
        """Late cancels keep complete results; true aborts drop them."""
        from repro.server.engine import cancellation_affected
        from repro.service.racing import RaceToken
        from repro.service.portfolio import solve_portfolio

        # Untouched solve: complete, must be kept (cached / done).
        clean = solve_portfolio(
            FAST_MATRICES[2], members=MEMBERS, seed=7
        )
        assert not cancellation_affected(clean)

        # Cancel observed before members ran: skipped markers -> affected.
        token = RaceToken()
        token.set()
        aborted = solve_portfolio(
            FAST_MATRICES[2], members=MEMBERS, seed=7, cancel=token
        )
        assert cancellation_affected(aborted)

    async def test_stats_shape(self):
        engine = AsyncSolveEngine(members=MEMBERS, workers=3)
        stats = engine.stats()
        assert stats["workers"] == 3
        assert stats["members"] == list(MEMBERS)
        assert stats["active"] == 0


class TestValidation:
    def test_bad_workers_rejected(self):
        with pytest.raises(SolverError):
            AsyncSolveEngine(workers=0)

    def test_bad_race_rejected(self):
        with pytest.raises(SolverError):
            AsyncSolveEngine(race="warp")

    def test_bad_executor_rejected(self):
        with pytest.raises(SolverError):
            AsyncSolveEngine(executor="fiber")

    def test_bad_members_rejected(self):
        with pytest.raises(SolverError):
            AsyncSolveEngine(members=("magic:3",))

    def test_event_wire_form(self):
        event = SolveEvent(kind=QUEUED, case_id="a")
        assert event.as_dict() == {"event": "queued", "case_id": "a"}
        failed = SolveEvent(kind=FAILED, case_id="b", error="boom")
        assert failed.as_dict()["error"] == "boom"
        assert failed.terminal
