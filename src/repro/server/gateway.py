"""The one socket front of the solve engine: TCP or unix socket.

One engine, many clients.  :class:`StreamFront` is the
transport-agnostic half: it speaks the JSON-lines protocol over any
asyncio stream pair, validates requests *before* they reach the engine,
applies the tenancy policy of :mod:`repro.server.tenancy`, and feeds
one shared metrics surface.  :class:`SolveGateway` binds it either to
TCP (``python -m repro gateway``, remote multi-tenant traffic) or, given
a ``socket_path``, to a per-user ``AF_UNIX`` socket (``python -m repro
serve``, which keeps one engine — executor workers, result cache, warm
imports — alive for short-lived local clients).  Both transports
expose identical ops and identical counters.

Wire protocol (one JSON object per line; the request is the first line
of a connection)::

    {"op": "solve", "cases": [{"case_id": "a", "rows": ["110", "011"]}],
     "tenant": "acme", "key": "s3cret", "priority": 3,
     "members": ["trivial", "packing:8", "sap"], "seed": 7,
     "budget_per_instance": 10.0, "race": "concurrent"}

Solve responses stream one line per event (``queued`` / ``started`` /
``member_finished`` / ``done`` / ``cancelled`` / ``failed``) and close
with ``{"event": "batch_done", ...}``.  ``member_finished`` events
stream for *both* executors — a pool worker sends them back over its
pipe as they land (see :mod:`repro.service.pool`).  The events are
relayed on the connection's own handler task, with no task per event.
A client sends nothing after its request line, so a watcher that reads
the connection to EOF learns when it hangs up; the watcher then
cancels the handler task, and the engine stream's cleanup cancels the
solves.

Single-line ops: ``ping``, ``stats`` (engine + server counters),
``metrics`` (queue depth, connections, per-tenant usage, cache hit
rate, per-solver win rates), ``health`` (``ready`` / ``degraded`` /
``draining`` plus the degraded-mode evidence), ``cancel``,
``shutdown``.

Admission control rejects instead of queueing unboundedly: a saturated
window or an exhausted tenant quota answers::

    {"event": "error", "code": "saturated" | "quota_exhausted" | ...,
     "retry_after": 1.25, "error": "..."}

and closes the connection — clients should sleep ``retry_after``
seconds and resubmit.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import time
from pathlib import Path
from typing import Any, Awaitable, Callable, Dict, Optional, Union

from repro.core.binary_matrix import BinaryMatrix
from repro.core.exceptions import ReproError, SolverError
from repro.server.engine import WORKER_CRASHED, AsyncSolveEngine
from repro.server.tenancy import (
    HEALTH_DEGRADED,
    HEALTH_DRAINING,
    HEALTH_READY,
    REJECT_SATURATED,
    REJECT_TENANT_SATURATED,
    AdmissionController,
    DegradedModeController,
    RequestRejected,
    ServerMetrics,
    TenantRegistry,
    TenantState,
)
from repro.service import faults
from repro.service.batch import BatchItem, SolveOptions
from repro.service.portfolio import PortfolioResult, is_exact_member

PROTOCOL_VERSION = 2
"""Bumped from 1 when tenancy, ``metrics``, and ``retry_after``
rejections landed; the solve-event stream itself is unchanged, so v1
clients interoperate."""

SOLVE_OVERRIDES = tuple(spec.name for spec in dataclasses.fields(SolveOptions))
"""The request fields that override the engine's solve options."""

REQUEST_LINE_LIMIT = 16 * 1024 * 1024
"""Longest request line a front reads, in bytes (asyncio's default is
64 KiB, less than a ``repro submit`` batch of a few dozen 100x100
cases).  A longer line is answered with an ``error`` event."""

Sender = Callable[[Dict[str, Any]], Awaitable[None]]

_SUN_PATH_LIMIT = 104
"""Portable ceiling on ``AF_UNIX`` path bytes (Linux allows 108, BSDs
104, both including the trailing NUL).  Checked up front so an overlong
path is a clear :class:`SolverError` naming the fix, not an
``OSError: AF_UNIX path too long`` from deep inside ``bind``."""


def check_socket_path(path: Union[str, Path]) -> None:
    """Reject socket paths that overflow ``sun_path`` before binding."""
    encoded = str(path).encode()
    if len(encoded) >= _SUN_PATH_LIMIT:
        raise SolverError(
            f"unix socket path is {len(encoded)} bytes, over the "
            f"{_SUN_PATH_LIMIT - 1}-byte AF_UNIX limit: {str(path)!r} "
            "— pass a shorter --socket path (e.g. under /tmp)"
        )


def default_socket_path() -> str:
    """Per-user default socket location (overridable via ``--socket``).

    Prefers ``$XDG_RUNTIME_DIR``, but falls back to ``/tmp`` when the
    runtime dir would push the path past the ``AF_UNIX`` ``sun_path``
    limit — some sandboxes nest runtime dirs deep enough that binding
    would otherwise fail with a cryptic ``OSError``.
    """
    name = f"repro-solve-{os.getuid()}.sock"
    runtime = os.environ.get("XDG_RUNTIME_DIR") or "/tmp"
    candidate = str(Path(runtime) / name)
    if len(candidate.encode()) >= _SUN_PATH_LIMIT:
        candidate = str(Path("/tmp") / name)
    return candidate


async def read_request_line(reader: asyncio.StreamReader) -> Optional[bytes]:
    """The request line, or ``None`` when it is over the reader's limit.

    An overlong line is read to its end and dropped, so the client's
    send completes and it reads the answer instead of a reset.
    """
    overlong = False
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            line = exc.partial  # EOF before a newline
        except asyncio.LimitOverrunError as exc:
            overlong = True
            await reader.readexactly(exc.consumed)
            continue
        return None if overlong else line


def parse_case(payload: Dict[str, Any], index: int) -> BatchItem:
    """One wire case -> :class:`BatchItem`.

    Accepts ``rows`` (list of '0'/'1' strings, the pattern-file format)
    or ``row_masks`` + ``num_cols`` (the compact form the cache and
    batch workers use).  A missing ``case_id`` is synthesized from the
    position.
    """
    if not isinstance(payload, dict):
        raise SolverError(f"case #{index} is not an object: {payload!r}")
    case_id = str(payload.get("case_id", f"case-{index:04d}"))
    if "rows" in payload:
        matrix = BinaryMatrix.from_strings(list(payload["rows"]))
    elif "row_masks" in payload and "num_cols" in payload:
        matrix = BinaryMatrix(
            [int(mask) for mask in payload["row_masks"]],
            int(payload["num_cols"]),
        )
    else:
        raise SolverError(
            f"case {case_id!r} needs 'rows' or 'row_masks'+'num_cols'"
        )
    members = payload.get("members")
    return BatchItem(
        case_id,
        matrix,
        None if members is None else tuple(str(m) for m in members),
    )


def validate_overrides(request: Dict[str, Any]) -> Dict[str, Any]:
    """Type-check the per-request engine overrides *before* solving.

    A string budget or an unknown race mode used to surface as a
    ``TypeError`` deep inside the engine after events had already
    streamed — the connection just died.  Checking the wire values by
    building a :class:`SolveOptions` turns every malformed override into
    a clean ``error`` event.  Budgets come back as floats, members as a
    tuple.
    """
    overrides = {
        key: request[key]
        for key in SOLVE_OVERRIDES
        if request.get(key) is not None
    }
    options = SolveOptions(**overrides)
    return {key: getattr(options, key) for key in overrides}


def parse_priority(
    request: Dict[str, Any], tenant: TenantState
) -> int:
    """Effective priority class: the request may deprioritize itself
    below its tenant's configured class, never jump above it (lower
    number = served sooner)."""
    value = request.get("priority")
    if value is None:
        return tenant.config.priority
    if isinstance(value, bool) or not isinstance(value, int):
        raise SolverError(f"'priority' must be an integer, got {value!r}")
    return max(value, tenant.config.priority)


def heuristic_members(members: Any) -> tuple:
    """The best-effort member set a degraded front answers with."""
    kept = tuple(m for m in members if not is_exact_member(m))
    return kept or ("trivial",)


def exact_backend_timed_out(result: PortfolioResult) -> bool:
    """Did an exact member of this solve run out of its budget?"""
    for outcome in result.outcomes:
        if not is_exact_member(outcome.name):
            continue
        if outcome.stopped_early:
            return True
        error = outcome.error or ""
        if "BudgetExceeded" in error or "budget exhausted" in error:
            return True
    return False


class StreamFront:
    """JSON-lines request handling, independent of the transport."""

    def __init__(
        self,
        engine: AsyncSolveEngine,
        *,
        tenants: Optional[TenantRegistry] = None,
        admission: Optional[AdmissionController] = None,
    ) -> None:
        self.engine = engine
        self.tenants = tenants or TenantRegistry()
        self.admission = admission
        self.metrics = ServerMetrics()
        self.degraded = DegradedModeController()
        self._stop = asyncio.Event()

    def request_shutdown(self) -> None:
        self._stop.set()

    # ------------------------------------------------------------------
    async def _handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.metrics.connection_opened()
        sent = 0

        async def send(payload: Dict[str, Any]) -> None:
            nonlocal sent
            # Chaos seam: a FaultPlan can sever this connection after N
            # event lines, exercising client reconnect-and-resume.
            if faults.should_drop_connection(sent):
                raise ConnectionResetError(
                    "fault injection: dropping connection"
                )
            writer.write(json.dumps(payload).encode() + b"\n")
            sent += 1
            await writer.drain()

        try:
            line = await read_request_line(reader)
            if line is None:
                error = f"request line over {REQUEST_LINE_LIMIT} bytes"
                await send({"event": "error", "error": error})
                return
            if not line.strip():
                return
            try:
                request = json.loads(line)
            except json.JSONDecodeError as exc:
                await send({"event": "error", "error": f"bad JSON: {exc}"})
                return
            if not isinstance(request, dict):
                await send(
                    {
                        "event": "error",
                        "error": f"request must be an object, "
                        f"got {type(request).__name__}",
                    }
                )
                return
            await self._dispatch(request, send, reader)
        except (ConnectionResetError, BrokenPipeError):
            # Client went away mid-stream; the solve generator's
            # cleanup cancels whatever work it alone was waiting on.
            self.metrics.client_disconnects += 1
        finally:
            self.metrics.connection_closed()
            # Half-close at the socket layer first: SHUT_WR delivers FIN
            # even if another process holds a duplicate of this fd, so
            # line-iterating clients always see end-of-stream.
            if writer.can_write_eof():
                try:
                    writer.write_eof()
                except OSError:
                    pass
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    async def _dispatch(
        self,
        request: Dict[str, Any],
        send: Sender,
        reader: Optional[asyncio.StreamReader] = None,
    ) -> None:
        op = request.get("op")
        if op == "solve":
            await self._handle_solve(request, send, reader)
        elif op == "ping":
            await send(
                {
                    "event": "pong",
                    "version": PROTOCOL_VERSION,
                    "stats": self.engine.stats(),
                }
            )
        elif op == "stats":
            await send(
                {
                    "event": "stats",
                    "stats": self.engine.stats(),
                    "server": self.metrics.as_dict(),
                }
            )
        elif op == "metrics":
            await send({"event": "metrics", "metrics": self.metrics_dict()})
        elif op == "health":
            await send({"event": "health", **self.health_dict()})
        elif op == "cancel":
            case_id = str(request.get("case_id", ""))
            await send(
                {
                    "event": "cancel",
                    "case_id": case_id,
                    "cancelled": self.engine.cancel(case_id),
                }
            )
        elif op == "shutdown":
            await send({"event": "shutdown"})
            self.request_shutdown()
        else:
            await send({"event": "error", "error": f"unknown op {op!r}"})

    # ------------------------------------------------------------------
    def health_dict(self) -> Dict[str, Any]:
        """The ``health`` op's payload: one word, then the evidence.

        ``draining`` (shutdown requested, finish and go away) beats
        ``degraded`` (answers are best-effort) beats ``ready``.
        """
        if self._stop.is_set():
            status = HEALTH_DRAINING
        elif self.degraded.degraded():
            status = HEALTH_DEGRADED
        else:
            status = HEALTH_READY
        payload: Dict[str, Any] = {
            "status": status,
            "degraded_mode": self.degraded.snapshot(),
            "connections_active": self.metrics.connections_active,
        }
        if self.admission is not None:
            payload["queue"] = self.admission.snapshot()
        return payload

    def metrics_dict(self) -> Dict[str, Any]:
        """The one stats surface every transport serves under ``metrics``."""
        engine_stats = self.engine.stats()
        payload = self.metrics.as_dict()
        payload["queue"] = (
            self.admission.snapshot()
            if self.admission is not None
            else {
                "active": engine_stats["active"],
                "waiting": 0,
                "depth": engine_stats["active"],
                "max_in_flight": None,
                "max_waiting": None,
            }
        )
        payload["engine"] = engine_stats
        payload["cache_hit_rate"] = engine_stats["cache_hit_rate"]
        payload["solvers"] = {
            "solved": engine_stats["solved"],
            "wins": engine_stats["wins"],
            "win_rates": engine_stats["win_rates"],
        }
        payload["tenants"] = self.tenants.usage()
        payload["degraded_mode"] = self.degraded.snapshot()
        return payload

    # ------------------------------------------------------------------
    async def _handle_solve(
        self,
        request: Dict[str, Any],
        send: Sender,
        reader: Optional[asyncio.StreamReader] = None,
    ) -> None:
        # Phase 1 — validate everything up front so a malformed request
        # is one clean error line, never a dead connection.
        tenant: Optional[TenantState] = None
        try:
            tenant = self.tenants.resolve(
                request.get("tenant"), request.get("key")
            )
            priority = parse_priority(request, tenant)
            raw_cases = request.get("cases")
            if not isinstance(raw_cases, list) or not raw_cases:
                raise SolverError("'cases' must be a non-empty list")
            items = [
                parse_case(case, index)
                for index, case in enumerate(raw_cases)
            ]
            overrides = validate_overrides(request)
        except RequestRejected as exc:
            self.metrics.rejected_total += 1
            await send(exc.as_event())
            return
        except (ReproError, ValueError, TypeError) as exc:
            await send({"event": "error", "error": str(exc)})
            return

        # Phase 2 — admission: take a slot, answer retry_after, or —
        # under sustained saturation — fall through to degraded serving
        # (a heuristic-only answer beats a rejection the client will
        # only retry into the same saturated window).
        admitted = False
        degraded_serve = self.degraded.degraded()
        if self.admission is not None:
            try:
                await self.admission.admit(tenant, priority)
                admitted = True
            except RequestRejected as exc:
                load_shed = exc.code in (
                    REJECT_SATURATED,
                    REJECT_TENANT_SATURATED,
                )
                if load_shed:
                    self.degraded.note_saturation()
                if load_shed and self.degraded.degraded():
                    degraded_serve = True
                else:
                    self.metrics.rejected_total += 1
                    await send(exc.as_event())
                    return
        if degraded_serve:
            # Best-effort: strip the exact backends everywhere (request
            # overrides, per-case member sets, and the engine default).
            overrides = dict(overrides)
            overrides["members"] = heuristic_members(
                overrides.get("members", self.engine.members)
            )
            items = [
                BatchItem(
                    item.case_id,
                    item.matrix,
                    (
                        None
                        if item.members is None
                        else heuristic_members(item.members)
                    ),
                )
                for item in items
            ]
            self.metrics.degraded_total += 1
            self.degraded.served_degraded += 1

        # Phase 3 — stream; *always* answer, even on internal errors.
        # The events are consumed on this task.  A watcher on the
        # connection's read side cancels it when the client hangs up,
        # and the stream's cleanup then cancels the underlying solves
        # instead of burning budget for a reader that is gone.
        self.metrics.requests_total += 1
        tenant.requests += 1
        tenant.cases += len(items)
        self.metrics.cases_submitted += len(items)
        include_timing = bool(request.get("include_timing", True))
        began = time.perf_counter()
        done = 0
        handler = asyncio.current_task()
        watching = True
        hung_up = False
        eof_task: Optional[asyncio.Task] = None

        def hang_up(_: asyncio.Task) -> None:
            nonlocal hung_up
            if watching:
                hung_up = True
                handler.cancel()

        if reader is not None:
            # The protocol sends nothing after the request line, so a
            # completed read-to-EOF means the peer hung up.
            eof_task = asyncio.create_task(
                reader.read(), name="client-eof-watch"
            )
            eof_task.add_done_callback(hang_up)
        stream = self.engine.stream(items, **overrides)
        try:
            async for event in stream:
                if event.kind == WORKER_CRASHED:
                    self.metrics.worker_crash_events += 1
                if event.terminal:
                    done += 1
                    self.metrics.record_terminal(
                        event.kind, from_cache=event.from_cache
                    )
                    if event.kind == "done":
                        tenant.cases_completed += 1
                        if event.from_cache:
                            tenant.cache_hits += 1
                        elif event.record is not None:
                            # Quota is charged for compute actually
                            # burned; cache hits ride free.
                            tenant.charge(event.record.result.wall_seconds)
                            if exact_backend_timed_out(
                                event.record.result
                            ):
                                self.degraded.note_exact_timeout()
                payload = event.as_dict(include_timing=include_timing)
                if degraded_serve:
                    payload["degraded"] = True
                await send(payload)
            done_line: Dict[str, Any] = {
                "event": "batch_done",
                "count": len(items),
                "completed": done,
                "tenant": tenant.config.name,
            }
            if degraded_serve:
                done_line["degraded"] = True
            await send(done_line)
        except asyncio.CancelledError:
            # The watcher's cancel is the peer hanging up: clear it and
            # report a disconnect.  Any other cancel propagates.
            if not hung_up:
                raise
            handler.uncancel()
            raise ConnectionResetError(
                "client disconnected mid-stream"
            ) from None
        except (ConnectionResetError, BrokenPipeError):
            raise  # peer is gone; no point writing an error line
        except Exception as exc:
            # Validation catches the knowable failures; whatever still
            # escapes the engine must not kill the connection silently.
            # The error line is the last write: a hang-up now has
            # nothing left to cancel.
            watching = False
            await send(
                {
                    "event": "error",
                    "error": f"{type(exc).__name__}: {exc}",
                }
            )
        finally:
            watching = False
            if eof_task is not None:
                eof_task.cancel()
                try:
                    await eof_task
                # Reaping a watcher we cancelled; connection already gone.
                # repro-lint: disable=REP007 (reaping a cancelled watcher)
                except (asyncio.CancelledError, Exception):
                    pass
            try:
                await stream.aclose()  # no-op when already exhausted
            # Double-close on a dead peer has nothing left to report.
            # repro-lint: disable=REP007 (double-close on a dead peer)
            except Exception:
                pass
            if admitted and self.admission is not None:
                self.admission.release(
                    tenant, time.perf_counter() - began
                )


class SolveGateway(StreamFront):
    """Serve the shared front over TCP, or over a unix socket.

    Without ``socket_path`` it binds TCP ``host``:``port``; ``port=0``
    binds an ephemeral port, and :attr:`port` holds the bound value once
    :meth:`run` is listening (tests and supervisors poll it).  The
    gateway trusts its network boundary as much as you do: bind
    ``127.0.0.1`` behind a TLS terminator for anything public.

    With ``socket_path`` it binds that ``AF_UNIX`` path instead (and
    ignores ``host``/``port``): the path is checked against the
    ``sun_path`` limit before bind, a stale socket file left by a dead
    server is reclaimed, a socket another server still answers on is
    refused, the parent directory is created, and the file is removed
    on exit.

    Optional ``tenants``/``admission`` set the multi-tenant policy; by
    default every caller is the anonymous tenant and nothing is
    rejected.
    """

    def __init__(
        self,
        engine: AsyncSolveEngine,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        socket_path: Optional[Union[str, Path]] = None,
        tenants: Optional[TenantRegistry] = None,
        admission: Optional[AdmissionController] = None,
    ) -> None:
        super().__init__(engine, tenants=tenants, admission=admission)
        self.host = host
        self.port = port
        self.socket_path = None if socket_path is None else Path(socket_path)
        self._server: Optional[asyncio.AbstractServer] = None

    async def run(
        self,
        *,
        on_ready: Optional[Callable[["SolveGateway"], None]] = None,
    ) -> None:
        """Listen until a ``shutdown`` op (or cancellation).

        ``on_ready`` fires once the socket is bound — with ``port=0``
        that is the first moment the real port is known, so banners and
        supervisors should report from here, not from the requested
        arguments.
        """
        bound = False
        try:
            if self.socket_path is not None:
                await self._claim_socket_path()
            self.engine.prewarm()
            if self.socket_path is None:
                self._server = await asyncio.start_server(
                    self._handle,
                    host=self.host,
                    port=self.port,
                    limit=REQUEST_LINE_LIMIT,
                )
                sockets = self._server.sockets or []
                if sockets:
                    self.port = sockets[0].getsockname()[1]
            else:
                self._server = await asyncio.start_unix_server(
                    self._handle,
                    path=str(self.socket_path),
                    limit=REQUEST_LINE_LIMIT,
                )
                bound = True
            async with self._server:
                if on_ready is not None:
                    on_ready(self)
                await self._stop.wait()
        finally:
            self._server = None
            # Only the socket this gateway bound: a refused claim means
            # a live server owns the path.
            if bound:
                try:
                    self.socket_path.unlink()
                except OSError:
                    pass
            self.engine.close()

    async def _claim_socket_path(self) -> None:
        path = self.socket_path
        check_socket_path(path)
        if path.exists():
            # A previous server's socket; connect-refused stale files
            # are safe to reclaim, a live server is not.
            if await self._socket_alive():
                raise SolverError(f"another server is already serving {path}")
            path.unlink()
        path.parent.mkdir(parents=True, exist_ok=True)

    async def _socket_alive(self) -> bool:
        try:
            _, writer = await asyncio.open_unix_connection(
                path=str(self.socket_path)
            )
        except OSError:
            return False
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
        return True
