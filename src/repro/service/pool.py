"""One worker pool behind every process fan-out of the solve stack.

:func:`solve_case` is every path's unit of work: it solves one payload
(built by :meth:`repro.service.batch.SolveOptions.payload`) with the
portfolio.  A pool worker runs it and sends back the result's dict
form; the in-process ``workers=1`` path of
:func:`repro.service.batch.solve_batch` and the solver threads of
:class:`repro.server.engine.AsyncSolveEngine` call it directly.

:func:`repro.service.batch.solve_batch` (``workers > 1``) and
:class:`repro.server.engine.AsyncSolveEngine` (``executor="process"``)
both solve cases on a :class:`WorkerPool`.  Each slot of the pool is one
worker process that talks to its caller over one pipe: the payload goes
in, then the case's member events and its result come out.  A slot
serves one case at a time, so callers drive the pool from as many
threads as it has slots.

A worker that dies (OOM kill, a segfaulting native dependency, fault
injection) shows up as EOF on its own pipe, so only the case that slot
was solving is affected.  The pool respawns the slot, reports a
``worker_crashed`` event and re-dispatches the case once; a case that
kills its worker twice is a poison pill and raises :class:`SolverError`
naming it.  The installed :class:`~repro.service.faults.FaultPlan`
travels with every dispatch, so a worker always runs under the plan as
it stands now, including a disarm made after the worker started.

Workers fork from a ``forkserver`` that has this module, and with it
the solver stack, preloaded: a worker starts in milliseconds instead of
an interpreter start-up, and, unlike a plain fork of the caller, it
inherits none of the caller's threads or file descriptors, so a
server's client sockets stay with the server.  Like spawn, the
forkserver re-imports a script's ``__main__``, so scripts that solve on
a pool need a ``if __name__ == "__main__":`` guard.  The preload takes
effect only when ``repro`` is importable from ``PYTHONPATH`` or an
install (Python 3.11's forkserver ignores the caller's ``sys.path``);
otherwise each worker imports the stack itself, slower but correct.
"""

from __future__ import annotations

import multiprocessing
import queue
from multiprocessing.connection import Connection
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.binary_matrix import BinaryMatrix
from repro.core.exceptions import SolverError
from repro.service import faults
from repro.service.budget import PortfolioBudget
from repro.service.portfolio import (
    MemberCallback,
    PortfolioResult,
    outcome_from_dict,
    result_to_dict,
    solve_portfolio,
)

START_METHOD = "forkserver"

WORKER_CRASHED = "worker_crashed"
"""Structured fault-event kind emitted when a pool worker dies."""

MAX_DISPATCHES_PER_CASE = 2
"""A case may crash its worker once and be retried; a second crash is
a poison pill."""

Payload = Tuple[Any, ...]
"""``(case_id, row masks, num_cols, members, instance seed, per-instance
budget, per-member budget, stop_when_optimal, race mode)``: plain
picklable values, never live objects.  Only
:meth:`repro.service.batch.SolveOptions.payload` builds one."""

FaultCallback = Callable[[Dict[str, Any]], None]
"""Hook invoked with each structured fault event (``worker_crashed``)."""


def solve_case(
    payload: Payload,
    *,
    cancel: Optional[object] = None,
    on_member: Optional[MemberCallback] = None,
) -> PortfolioResult:
    """Solve one payload with the portfolio: the unit of work of every
    executor.

    ``cancel`` (``is_set()``-style) aborts the solve cooperatively; it
    cannot cross into a pool worker, so only in-process callers pass
    one.
    """
    (
        case_id,
        row_masks,
        num_cols,
        members,
        seed,
        total,
        per_member,
        stop,
        race,
    ) = payload
    # Fault seams: no-ops unless a FaultPlan is installed (chaos tests).
    faults.maybe_kill_worker(case_id)
    faults.delay("worker.solve")
    return solve_portfolio(
        BinaryMatrix(row_masks, num_cols),
        members=members,
        seed=seed,
        budget=PortfolioBudget(total, per_member_seconds=per_member),
        stop_when_optimal=stop,
        race=race,
        cancel=cancel,
        on_member=on_member,
    )


def solve_payload(
    payload: Payload, on_member: Optional[MemberCallback] = None
) -> Dict[str, Any]:
    """:func:`solve_case` in the dict form a pool worker sends back."""
    return result_to_dict(solve_case(payload, on_member=on_member))


def _worker_main(conn: Connection) -> None:
    """A slot's worker process: solve dispatched payloads until EOF.

    Every dispatch gets exactly one closing reply, ``("result", dict)``
    or ``("error", exception)``, after its ``("member", dict)`` events,
    so a live worker's pipe is always clean for the next dispatch.
    """

    def on_member(outcome: Any) -> None:
        conn.send(("member", outcome.as_dict()))

    while True:
        try:
            payload, plan = conn.recv()
        except EOFError:
            return  # the caller went away
        if plan is None:
            faults.clear()
        else:
            faults.install(plan)
        try:
            reply: Tuple[str, Any] = (
                "result",
                solve_payload(payload, on_member=on_member),
            )
        except Exception as exc:  # the caller re-raises it
            reply = ("error", exc)
        try:
            conn.send(reply)
        except Exception as exc:  # an exception that does not pickle
            conn.send(("error", SolverError(f"{reply[1]!r} ({exc})")))


class _Slot:
    """One worker process and the caller's end of its pipe."""

    def __init__(self, context: Any) -> None:
        self._context = context
        self.process: Optional[Any] = None
        self.conn: Optional[Connection] = None

    def start(self) -> None:
        if self.process is not None:
            return
        conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main,
            args=(child_conn,),
            name="repro-pool-worker",
            daemon=True,
        )
        process.start()
        # Only the worker may hold its end: then the worker's death is
        # EOF here.
        child_conn.close()
        self.process, self.conn = process, conn

    def run(
        self, payload: Payload, on_member: Optional[MemberCallback]
    ) -> Tuple[str, Any]:
        """Dispatch one payload; returns its closing reply.

        Raises ``EOFError`` or ``OSError`` when the worker dies.
        """
        assert self.conn is not None
        self.conn.send((payload, faults.active()))
        while True:
            kind, body = self.conn.recv()
            if kind != "member":
                return kind, body
            if on_member is not None:
                on_member(outcome_from_dict(body))

    def stop(self) -> None:
        """Kill and reap the worker, if any, and close the pipe."""
        if self.process is None:
            return
        assert self.conn is not None
        self.process.kill()
        self.process.join()
        self.conn.close()
        self.process = self.conn = None


class WorkerPool:
    """``workers`` crash-isolated worker processes (see module docs).

    Workers start on first use, or all at once with :meth:`prewarm`.
    :meth:`solve` is thread-safe; a call waits for a free slot.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise SolverError(f"workers must be >= 1, got {workers}")
        context = multiprocessing.get_context(START_METHOD)
        context.set_forkserver_preload([__name__])
        self._slots = [_Slot(context) for _ in range(workers)]
        self._idle: "queue.SimpleQueue[_Slot]" = queue.SimpleQueue()
        for slot in self._slots:
            self._idle.put(slot)

    def prewarm(self) -> None:
        """Start every worker now (call before the first solve)."""
        for slot in self._slots:
            slot.start()

    def solve(
        self,
        payload: Payload,
        *,
        on_member: Optional[MemberCallback] = None,
        on_crash: Optional[FaultCallback] = None,
    ) -> Tuple[Dict[str, Any], bool]:
        """Solve one payload on a free slot; returns ``(result dict,
        retried)``.

        ``on_member`` receives each member outcome as it lands, on the
        calling thread and before this call returns.  ``on_crash``
        receives a ``worker_crashed`` event per worker death.  A solver
        exception inside the worker is re-raised here unchanged.
        """
        case_id = payload[0]
        slot = self._idle.get()
        try:
            for dispatch in range(1, MAX_DISPATCHES_PER_CASE + 1):
                slot.start()
                try:
                    kind, body = slot.run(payload, on_member)
                    break
                except (EOFError, OSError):
                    # The worker died under this case.  Disarm an
                    # injected one-shot kill so the retry cannot die
                    # the same way; the next dispatch carries the plan.
                    slot.stop()
                    faults.disarm("kill_worker_on_case")
                    will_retry = dispatch < MAX_DISPATCHES_PER_CASE
                    if on_crash is not None:
                        on_crash(
                            {
                                "event": WORKER_CRASHED,
                                "case_id": case_id,
                                "dispatches": dispatch,
                                "will_retry": will_retry,
                            }
                        )
                    if not will_retry:
                        raise SolverError(
                            f"case {case_id!r} crashed its worker "
                            f"{dispatch} times; giving up on it (poison "
                            "instance?)"
                        )
        except BaseException:
            # A callback raised or the caller was interrupted mid-case:
            # the worker may still be solving, so it cannot be reused.
            slot.stop()
            raise
        finally:
            self._idle.put(slot)
        if kind == "error":
            raise body
        return body, dispatch > 1

    def close(self) -> None:
        """Stop every worker (call once no :meth:`solve` is running)."""
        for slot in self._slots:
            slot.stop()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
