"""Async streaming solve engine: results as they finish, not as a batch.

:func:`repro.service.batch.solve_batch` barriers on the whole batch —
callers see nothing until the slowest instance lands, even though EBMF
suites mix microsecond heuristic hits with multi-second exact proofs.
:class:`AsyncSolveEngine` runs the same portfolio solves on an executor
behind an :mod:`asyncio` front and yields :class:`SolveEvent` s through
an async iterator the moment each stage completes::

    engine = AsyncSolveEngine(members=("trivial", "packing:8", "sap"))
    async for event in engine.stream(cases):
        ...  # queued -> started -> member_finished* -> done, per case

Backpressure is bounded by ``workers``: at most that many instances are
in flight on the executor at once; the rest wait in submission order.
Each in-flight instance can be cancelled cooperatively by case id
(:meth:`cancel`), which aborts the exact backends at their next
deadline poll.

The default executor runs solver threads in-process — on CPython the
GIL serializes the pure-Python solvers, so threads trade no throughput
away on a single core while keeping live ``member_finished`` events and
mid-flight cancellation.  ``executor="process"`` solves each instance
on a :class:`repro.service.pool.WorkerPool` instead (real parallelism
on multi-core hosts), called from the same solver threads: a thread
hands its instance to a worker over that worker's pipe and relays the
member events that come back, so process deployments stream
``member_finished`` live too, all before the case's terminal event.  A
dead worker is respawned and only its case re-dispatched
(``worker_crashed``, then ``done`` marked ``retried``).  Cancellation
still only takes effect before an instance starts (cancel flags don't
cross the process boundary).

Both executors solve with :func:`repro.service.pool.solve_case`, on
the payload and cache-key context of one
:class:`repro.service.batch.SolveOptions`: the engine's defaults, with
a stream's overrides applied.

A long-lived engine amortizes executor and cache warmup across many
``stream``/``solve`` calls — that is what
:class:`repro.server.gateway.SolveGateway` serves, over TCP or a unix
socket.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import functools
import logging
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    AsyncIterator,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.exceptions import SolverError
from repro.service import faults
from repro.service.batch import (
    STATUS_OK,
    STATUS_RETRIED,
    BatchItem,
    BatchRecord,
    CaseLike,
    SolveOptions,
    as_batch_items,
)
from repro.service.cache import ResultCache, matrix_key
from repro.service.portfolio import (
    DEFAULT_PORTFOLIO,
    MemberOutcome,
    PortfolioResult,
    result_from_dict,
)
from repro.service.pool import WORKER_CRASHED, WorkerPool, solve_case
from repro.service.racing import RaceToken
from repro.service.stats import WinTally

EXECUTOR_KINDS = ("thread", "process")

logger = logging.getLogger(__name__)

QUEUED = "queued"
STARTED = "started"
MEMBER_FINISHED = "member_finished"
DONE = "done"
CANCELLED = "cancelled"
FAILED = "failed"

TERMINAL_EVENTS = (DONE, CANCELLED, FAILED)
"""Exactly one of these ends each submitted case's event stream.
``worker_crashed`` is *not* terminal: it announces a crash being
recovered from, and the case still ends with its own terminal event."""


@dataclass(frozen=True)
class SolveEvent:
    """One step of one instance's life inside the engine."""

    kind: str
    case_id: str
    member: Optional[str] = None
    depth: Optional[int] = None
    proved_optimal: bool = False
    skipped: bool = False
    from_cache: bool = False
    retried: bool = False
    error: Optional[str] = None
    record: Optional[BatchRecord] = field(default=None, repr=False)

    @property
    def terminal(self) -> bool:
        return self.kind in TERMINAL_EVENTS

    def as_dict(self, *, include_timing: bool = True) -> Dict[str, Any]:
        """JSON-lines wire form (the gateway protocol)."""
        payload: Dict[str, Any] = {
            "event": self.kind,
            "case_id": self.case_id,
        }
        if self.member is not None:
            payload["member"] = self.member
            payload["proved_optimal"] = self.proved_optimal
            payload["skipped"] = self.skipped
        if self.depth is not None:
            payload["depth"] = self.depth
        if self.from_cache:
            payload["from_cache"] = True
        if self.retried:
            payload["retried"] = True
        if self.error is not None:
            payload["error"] = self.error
        if self.record is not None:
            payload["provenance"] = self.record.provenance(
                include_timing=include_timing
            )
        return payload


def cancellation_affected(result: PortfolioResult) -> bool:
    """Did a cancel flag actually cut this solve short?

    A cancel that lands *after* the solve finished leaves a complete
    result — throwing it away (and not caching it) would waste the work
    already paid for.  Conservative in the other direction: an exact
    member that finished unproven without an error may have absorbed
    the cancel silently mid-descent, so it counts as affected.
    """
    for outcome in result.outcomes:
        if outcome.skipped and outcome.error == "cancelled":
            return True
        if outcome.error is not None and "cancelled" in outcome.error:
            return True
        if outcome.stopped_early:
            return True
    return False


def _member_event(case_id: str, outcome: MemberOutcome) -> SolveEvent:
    return SolveEvent(
        kind=MEMBER_FINISHED,
        case_id=case_id,
        member=outcome.name,
        depth=outcome.depth,
        proved_optimal=outcome.proved_optimal,
        skipped=outcome.skipped,
        error=outcome.error,
    )


class AsyncSolveEngine:
    """Streaming portfolio solves over a shared executor and cache."""

    def __init__(
        self,
        *,
        members: Sequence[str] = DEFAULT_PORTFOLIO,
        seed: Optional[int] = 2024,
        workers: int = 1,
        cache: Optional[ResultCache] = None,
        budget_per_instance: Optional[float] = None,
        budget_per_member: Optional[float] = None,
        stop_when_optimal: bool = True,
        race: str = "sequential",
        executor: str = "thread",
    ) -> None:
        if workers < 1:
            raise SolverError(f"workers must be >= 1, got {workers}")
        if executor not in EXECUTOR_KINDS:
            raise SolverError(
                f"executor must be one of {EXECUTOR_KINDS}, got {executor!r}"
            )
        self._defaults = SolveOptions(
            members,
            seed,
            budget_per_instance,
            budget_per_member,
            stop_when_optimal,
            race,
        )
        self.workers = workers
        self.cache = cache
        self.executor_kind = executor
        self._executor: Optional[concurrent.futures.Executor] = None
        self._pool: Optional[WorkerPool] = None
        self._semaphore: Optional[asyncio.Semaphore] = None
        self._semaphore_loop: Optional[asyncio.AbstractEventLoop] = None
        self._active: Dict[str, RaceToken] = {}
        self._cache_hits = 0
        self._failed = 0
        self._cancelled = 0
        self._worker_crashes = 0
        self._tally = WinTally()

    @property
    def members(self) -> Tuple[str, ...]:
        """The default member set of a stream."""
        return self._defaults.members

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _ensure_executor(self) -> concurrent.futures.Executor:
        if self._executor is None:
            self._executor = concurrent.futures.ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="solve-engine",
            )
            if self.executor_kind == "process":
                self._pool = WorkerPool(self.workers)
        return self._executor

    def _in_flight_semaphore(self) -> asyncio.Semaphore:
        # Semaphores bind to the running loop; recreate when the engine
        # outlives an ``asyncio.run`` (tests, repeated CLI calls).
        loop = asyncio.get_running_loop()
        if self._semaphore is None or self._semaphore_loop is not loop:
            self._semaphore = asyncio.Semaphore(self.workers)
            self._semaphore_loop = loop
        return self._semaphore

    def prewarm(self) -> None:
        """Start every worker process of the process executor now.

        Long-lived fronts call this before accepting traffic so the
        first request doesn't pay worker start-up latency.  A no-op for
        the thread executor beyond creating the pool object.
        """
        self._ensure_executor()
        if self._pool is not None:
            self._pool.prewarm()

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    async def __aenter__(self) -> "AsyncSolveEngine":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Cancellation
    # ------------------------------------------------------------------
    def cancel(self, case_id: str) -> bool:
        """Cooperatively cancel an in-flight or queued instance.

        Returns whether the id named an active instance.  A queued
        instance reports ``cancelled`` without ever starting; a running
        one aborts at its solvers' next deadline poll and reports
        ``cancelled`` with whatever partial work completed.
        """
        token = self._active.get(case_id)
        if token is None:
            return False
        token.set()
        return True

    def stats(self) -> Dict[str, Any]:
        terminal = (
            self._tally.solved
            + self._cache_hits
            + self._failed
            + self._cancelled
        )
        payload: Dict[str, Any] = {
            "members": list(self.members),
            "workers": self.workers,
            "race": self._defaults.race,
            "executor": self.executor_kind,
            "active": len(self._active),
            "cache_hits": self._cache_hits,
            "failed": self._failed,
            "cancelled": self._cancelled,
            "worker_crashes": self._worker_crashes,
            "cache_hit_rate": (
                self._cache_hits / terminal if terminal else 0.0
            ),
            # WinTally is the one shape for per-solver win reporting —
            # the scoreboard (repro.corpus.scoreboard) emits the same.
            **self._tally.as_dict(),
        }
        if self.cache is not None:
            payload["cache"] = self.cache.refresh_stats().as_dict()
            payload["cache_entries"] = len(self.cache)
        return payload

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    async def stream(
        self,
        cases: Sequence[CaseLike],
        *,
        members: Optional[Sequence[str]] = None,
        seed: Optional[int] = None,
        budget_per_instance: Optional[float] = None,
        budget_per_member: Optional[float] = None,
        stop_when_optimal: Optional[bool] = None,
        race: Optional[str] = None,
    ) -> AsyncIterator[SolveEvent]:
        """Yield events for ``cases`` as instances progress.

        Per-call keyword arguments override the engine defaults for
        this stream only.  Events for different instances interleave in
        completion order; each instance's own events are ordered
        ``queued``, (``started``, ``member_finished``...,) then exactly
        one terminal ``done`` / ``cancelled`` / ``failed``.  Results
        are cached and the cache is flushed when the stream drains
        (see :meth:`_flush_cache`).
        """
        overrides = {
            "members": members,
            "seed": seed,
            "budget_per_instance": budget_per_instance,
            "budget_per_member": budget_per_member,
            "stop_when_optimal": stop_when_optimal,
            "race": race,
        }
        options = replace(
            self._defaults,
            **{k: v for k, v in overrides.items() if v is not None},
        )
        items = as_batch_items(list(cases), members=options.members)
        # Chaos seam: turn an index-addressed kill target into a case id
        # while we still see the whole batch (no-op without a FaultPlan).
        faults.resolve_kill_case([item.case_id for item in items])

        queue: "asyncio.Queue[SolveEvent]" = asyncio.Queue()
        tokens: Dict[str, RaceToken] = {}
        tasks: List[asyncio.Task] = []
        for item in items:
            token = RaceToken()
            tokens[item.case_id] = token
            self._active[item.case_id] = token
            tasks.append(
                asyncio.create_task(
                    self._solve_one(item, options, queue, token),
                    name=f"solve-{item.case_id}",
                )
            )

        remaining = len(items)
        try:
            while remaining:
                event = await queue.get()
                if event.terminal:
                    remaining -= 1
                yield event
        finally:
            if remaining:
                # The consumer abandoned the stream: stop the work, not
                # just the bookkeeping tasks.
                for token in tokens.values():
                    token.set()
                for task in tasks:
                    task.cancel()
            for task in tasks:
                try:
                    await task
                # Reaping tasks we just cancelled; real outcomes streamed.
                # repro-lint: disable=REP007 (reaping cancelled tasks)
                except (asyncio.CancelledError, Exception):
                    pass
            for case_id, token in tokens.items():
                if self._active.get(case_id) is token:
                    del self._active[case_id]
            if self.cache is not None:
                self._flush_cache()

    def _flush_cache(self) -> None:
        """Persist the results a stream just sent.

        Their answers are already out, so a store that cannot be written
        (a full disk, say) costs durability, not the request: the
        failure is counted in ``store_write_failures`` and logged once,
        and the entries stay dirty for the next flush to retry.
        ``solve-batch`` and ``cache prewarm`` flush directly and still
        raise, since writing the store is their job.
        """
        try:
            self.cache.flush()
        except (OSError, SolverError) as exc:
            stats = self.cache.stats
            stats.store_write_failures += 1
            if stats.store_write_failures == 1:
                logger.warning(
                    "cache store write failed (%s); answers are still "
                    "served, and the next flush retries the write",
                    exc,
                )

    async def _solve_one(
        self,
        item: BatchItem,
        options: SolveOptions,
        queue: "asyncio.Queue[SolveEvent]",
        token: RaceToken,
    ) -> None:
        case_id = item.case_id
        queue.put_nowait(SolveEvent(kind=QUEUED, case_id=case_id))
        try:
            async with self._in_flight_semaphore():
                if token.is_set():
                    self._cancelled += 1
                    queue.put_nowait(
                        SolveEvent(
                            kind=CANCELLED,
                            case_id=case_id,
                            error="cancelled before start",
                        )
                    )
                    return
                context = options.context(item)
                key = matrix_key(item.matrix, context)
                if self.cache is not None:
                    cached = self.cache.get_by_key(key)
                    if cached is not None:
                        self._cache_hits += 1
                        queue.put_nowait(
                            SolveEvent(
                                kind=DONE,
                                case_id=case_id,
                                depth=cached.depth,
                                from_cache=True,
                                record=BatchRecord(
                                    case_id=case_id,
                                    key=key,
                                    result=cached,
                                ),
                            )
                        )
                        return
                queue.put_nowait(SolveEvent(kind=STARTED, case_id=case_id))
                result, was_retried = await self._solve_in_executor(
                    item, options, queue, token
                )
                if token.is_set() and cancellation_affected(result):
                    self._cancelled += 1
                    queue.put_nowait(
                        SolveEvent(
                            kind=CANCELLED,
                            case_id=case_id,
                            depth=result.depth,
                            error="cancelled mid-solve",
                        )
                    )
                    return
                # A cancel that arrived after the solve completed (or
                # never touched it) leaves a full result: keep it.
                if self.cache is not None:
                    self.cache.put(item.matrix, result, context)
                self._tally.record_result(result)
                queue.put_nowait(
                    SolveEvent(
                        kind=DONE,
                        case_id=case_id,
                        depth=result.depth,
                        retried=was_retried,
                        record=BatchRecord(
                            case_id=case_id,
                            key=key,
                            result=result,
                            status=(
                                STATUS_RETRIED if was_retried else STATUS_OK
                            ),
                        ),
                    )
                )
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # every case must emit a terminal event,
            # or the stream would wait forever on an internal error.
            self._failed += 1
            queue.put_nowait(
                SolveEvent(
                    kind=FAILED,
                    case_id=case_id,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )

    async def _solve_in_executor(
        self,
        item: BatchItem,
        options: SolveOptions,
        queue: "asyncio.Queue[SolveEvent]",
        token: RaceToken,
    ) -> Tuple[PortfolioResult, bool]:
        """Solve one instance; returns ``(result, was_retried)``.

        ``was_retried`` is True when the worker process solving the
        instance died and the pool re-solved it on a respawned worker —
        the result content is still deterministic (the per-case seed
        makes the retry byte-identical), only the status mark differs.
        """
        loop = asyncio.get_running_loop()
        case_id = item.case_id
        payload = options.payload(item)
        executor = self._ensure_executor()

        def on_member(outcome: MemberOutcome) -> None:
            # Called from the solver thread; hop back onto the loop.
            loop.call_soon_threadsafe(
                queue.put_nowait, _member_event(case_id, outcome)
            )

        if self._pool is None:
            solve = functools.partial(
                solve_case, payload, cancel=token, on_member=on_member
            )
            return await loop.run_in_executor(executor, solve), False

        # A cancel applies only up to the start on the pool, since
        # cancel flags do not cross into the worker.
        def announce_crash(dispatch: int) -> None:
            self._worker_crashes += 1
            queue.put_nowait(
                SolveEvent(
                    kind=WORKER_CRASHED,
                    case_id=case_id,
                    error=f"pool worker died (dispatch {dispatch})",
                )
            )

        def on_crash(event: Dict[str, Any]) -> None:
            # Called from the solver thread, like on_member.
            loop.call_soon_threadsafe(announce_crash, event["dispatches"])

        solve_on_pool = functools.partial(
            self._pool.solve, payload, on_member=on_member, on_crash=on_crash
        )
        result_dict, was_retried = await loop.run_in_executor(
            executor, solve_on_pool
        )
        return result_from_dict(result_dict), was_retried

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    async def solve(
        self, cases: Sequence[CaseLike], **overrides: Any
    ) -> List[BatchRecord]:
        """Drain a stream into input-ordered records (async solve_batch).

        Raises :class:`SolverError` if any instance failed or was
        cancelled — callers that need partial results should consume
        :meth:`stream` directly.
        """
        by_id: Dict[str, BatchRecord] = {}
        problems: List[str] = []
        order: List[str] = []
        async for event in self.stream(cases, **overrides):
            if event.kind == QUEUED:
                order.append(event.case_id)
            elif event.kind == DONE:
                assert event.record is not None
                by_id[event.case_id] = event.record
            elif event.kind in (CANCELLED, FAILED):
                problems.append(
                    f"{event.case_id}: {event.error or event.kind}"
                )
        if problems:
            raise SolverError(
                "streaming solve incomplete: " + "; ".join(problems)
            )
        return [by_id[case_id] for case_id in order]
