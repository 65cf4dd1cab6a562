"""Synchronous client for the solve gateway's JSON-lines protocol.

Deliberately plain ``socket`` + blocking reads: the client side of
``python -m repro submit`` is a short-lived CLI (or a test fixture)
that wants to print events as they arrive — an asyncio reactor buys it
nothing.  Each request opens one connection; the server closes the
connection when the response stream ends, so iteration terminates
naturally without a sentinel.

Addresses name either transport of the one front
(:class:`repro.server.gateway.SolveGateway`):

* a filesystem path (``str`` or ``Path``) — a unix socket
  (``python -m repro serve``);
* ``"tcp://host:port"`` or a ``(host, port)`` tuple — TCP
  (``python -m repro gateway``).

Tenancy fields ride along as request options: ``tenant``, ``key``, and
``priority`` are forwarded verbatim, and a gateway rejection surfaces
as a :class:`DaemonError` carrying the machine-readable ``code`` and
``retry_after`` back-off hint.

Fault tolerance is opt-in per call: pass a :class:`RetryPolicy` to
:func:`submit` / :func:`request_once` and the client retries transient
failures (connection refused/reset, read timeouts, admission
rejections) with capped exponential backoff + jitter, honoring the
server's ``retry_after`` hint as a floor.  A solve stream that dies
mid-flight reconnects and *resumes*: only the cases that never reached
a terminal event are re-submitted — safe because solves are
deterministic and content-addressed, and guarded by a content hash
recorded at first submission (a mutated matrix refuses to re-submit).
See ``docs/failure-semantics.md`` for the full failure-class table.
"""

from __future__ import annotations

import hashlib
import json
import random
import socket
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.binary_matrix import BinaryMatrix
from repro.core.exceptions import SolverError

Address = Union[str, Path, Tuple[str, int]]

TCP_SCHEME = "tcp://"

TERMINAL_CLIENT_EVENTS = ("done", "cancelled", "failed")
"""Event kinds that end one case's stream (mirror of the engine's)."""

RETRYABLE_CODES = frozenset(
    {"saturated", "tenant_saturated", "quota_exhausted"}
)
"""Server rejection codes that describe *transient* pressure — these
carry a ``retry_after`` hint and clear on their own.  ``denied`` and
``unknown_tenant`` are permanent and never retried."""


class DaemonError(SolverError):
    """The server answered with an ``error`` event.

    ``code`` and ``retry_after`` mirror the structured rejection events
    of :mod:`repro.server.tenancy`; both are ``None`` for plain errors.
    """

    def __init__(
        self,
        message: str,
        *,
        code: Optional[str] = None,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.code = code
        self.retry_after = retry_after

    @classmethod
    def from_event(cls, payload: Dict[str, Any]) -> "DaemonError":
        return cls(
            payload.get("error", "unknown server error"),
            code=payload.get("code"),
            retry_after=payload.get("retry_after"),
        )

    @property
    def transient(self) -> bool:
        """Would waiting and resubmitting plausibly succeed?"""
        return self.code in RETRYABLE_CODES


class ConnectFailed(SolverError):
    """Could not reach the server at all (refused / missing socket)."""


class StreamInterrupted(SolverError):
    """The connection died before the stream's ``batch_done`` line."""


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with jitter for transient failures.

    ``max_attempts`` counts connections, not sleeps: the default 4
    means one initial try plus up to three retries.  Backoff for retry
    *n* (1-based) is ``base_delay * multiplier**(n-1)`` capped at
    ``max_delay``; a server ``retry_after`` hint raises (never lowers)
    the wait, because the server knows its queue better than any
    client-side curve.  Jitter then stretches the wait by up to
    ``jitter`` (a fraction), decorrelating clients that got rejected by
    the same saturation spike — set ``jitter=0`` (or ``seed``) in tests
    that assert exact sleeps.

    The policy only *decides*; sleeping is done by ``sleep`` so tests
    inject a recorder instead of wall-clock waiting.
    """

    max_attempts: int = 4
    base_delay: float = 0.1
    max_delay: float = 5.0
    multiplier: float = 2.0
    jitter: float = 0.1
    seed: Optional[int] = None
    sleep: Any = time.sleep

    def backoff(
        self, attempt: int, retry_after: Optional[float] = None
    ) -> float:
        """Seconds to wait before retry ``attempt`` (1-based)."""
        if attempt < 1:
            raise SolverError(f"attempt must be >= 1, got {attempt}")
        delay = min(
            self.max_delay,
            self.base_delay * self.multiplier ** (attempt - 1),
        )
        if retry_after is not None:
            delay = max(delay, float(retry_after))
        if self.jitter > 0.0:
            rng = random.Random(
                None if self.seed is None else self.seed * 7919 + attempt
            )
            delay *= 1.0 + self.jitter * rng.random()
        return delay

    def retryable(self, exc: BaseException) -> bool:
        """Is this failure worth another attempt at all?"""
        if isinstance(exc, DaemonError):
            return exc.transient
        if isinstance(exc, (ConnectFailed, StreamInterrupted)):
            return True
        return isinstance(exc, (OSError, socket.timeout))

    def pause(
        self, attempt: int, retry_after: Optional[float] = None
    ) -> float:
        """Sleep the backoff for ``attempt`` and report what was slept."""
        delay = self.backoff(attempt, retry_after)
        self.sleep(delay)
        return delay


def case_fingerprint(case_id: str, matrix: BinaryMatrix) -> str:
    """Content hash of one case — the idempotency key for re-submits.

    A resumed stream re-submits only cases whose content still hashes
    to what was originally sent; anything mutated in between is refused
    rather than silently solved as a different instance.
    """
    blob = json.dumps(
        {
            "case_id": case_id,
            "row_masks": list(matrix.row_masks),
            "num_cols": matrix.num_cols,
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _connect(address: Address, timeout: Optional[float]) -> socket.socket:
    """Open a blocking connection to either front."""
    if isinstance(address, tuple):
        host, port = address
        return socket.create_connection(
            (str(host), int(port)), timeout=timeout
        )
    text = str(address)
    if text.startswith(TCP_SCHEME):
        rest = text[len(TCP_SCHEME):]
        host, _, port_text = rest.rpartition(":")
        if not host or not port_text.isdigit():
            raise SolverError(
                f"bad TCP address {text!r} (expected tcp://host:port)"
            )
        return socket.create_connection(
            (host, int(port_text)), timeout=timeout
        )
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    try:
        sock.connect(text)
    except OSError:
        sock.close()
        raise
    return sock


def stream_request(
    address: Address,
    request: Dict[str, Any],
    *,
    timeout: Optional[float] = None,
) -> Iterator[Dict[str, Any]]:
    """Send one request; yield each JSON-line response as it arrives.

    ``timeout`` bounds each blocking read (not the whole stream): a
    server that stops talking raises ``socket.timeout`` instead of
    hanging the client forever.
    """
    try:
        sock = _connect(address, timeout)
    except OSError as exc:
        raise ConnectFailed(
            f"cannot reach solve server at {address}: {exc} "
            "(is `python -m repro serve` or `python -m repro gateway` "
            "running?)"
        ) from exc
    with sock:
        sock.sendall(json.dumps(request).encode() + b"\n")
        with sock.makefile("r", encoding="utf-8") as stream:
            for line in stream:
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise SolverError(
                        f"server sent malformed JSON: {line[:200]!r}"
                    ) from exc
                yield payload


def request_once(
    address: Address,
    request: Dict[str, Any],
    *,
    timeout: Optional[float] = None,
    retry: Optional["RetryPolicy"] = None,
) -> Dict[str, Any]:
    """Single-line ops (``ping``/``stats``/``metrics``/``health``/...).

    With a ``retry`` policy, transient failures are retried — but only
    for read-only ops: ``cancel`` and ``shutdown`` are not idempotent
    from the server's point of view and are never auto-resent.
    """
    idempotent = request.get("op") in (
        "ping",
        "stats",
        "metrics",
        "health",
    )
    attempt = 0
    while True:
        try:
            for payload in stream_request(
                address, request, timeout=timeout
            ):
                if payload.get("event") == "error":
                    raise DaemonError.from_event(payload)
                return payload
            raise StreamInterrupted(
                "server closed the connection without answering"
            )
        except Exception as exc:
            attempt += 1
            if (
                retry is None
                or not idempotent
                or attempt >= retry.max_attempts
                or not retry.retryable(exc)
            ):
                raise
            retry.pause(attempt, getattr(exc, "retry_after", None))


def fetch_metrics(
    address: Address, *, timeout: Optional[float] = None
) -> Dict[str, Any]:
    """The shared stats surface: queue depth, tenants, wins, cache."""
    return request_once(address, {"op": "metrics"}, timeout=timeout)[
        "metrics"
    ]


def matrix_to_case(
    case_id: str, matrix: BinaryMatrix
) -> Dict[str, Any]:
    """Wire form of one instance (compact mask encoding)."""
    return {
        "case_id": case_id,
        "row_masks": list(matrix.row_masks),
        "num_cols": matrix.num_cols,
    }


def _submit_once(
    address: Address,
    cases: Sequence[Tuple[str, BinaryMatrix]],
    timeout: Optional[float],
    options: Dict[str, Any],
) -> Iterator[Dict[str, Any]]:
    request: Dict[str, Any] = {
        "op": "solve",
        "cases": [
            matrix_to_case(case_id, matrix) for case_id, matrix in cases
        ],
    }
    request.update(options)
    for payload in stream_request(address, request, timeout=timeout):
        if payload.get("event") == "error":
            raise DaemonError.from_event(payload)
        yield payload


def submit(
    address: Address,
    cases: Sequence[Tuple[str, BinaryMatrix]],
    *,
    timeout: Optional[float] = None,
    retry: Optional[RetryPolicy] = None,
    **options: Any,
) -> Iterator[Dict[str, Any]]:
    """Stream solve events for ``(case_id, matrix)`` pairs.

    ``options`` are the request-level fields the server accepts: the
    engine overrides (``members``, ``seed``, ``budget_per_instance``,
    ``budget_per_member``, ``stop_when_optimal``) plus the tenancy
    fields (``tenant``, ``key``, ``priority``).  Error events raise
    :class:`DaemonError` (with ``retry_after`` populated on admission
    rejections); the terminating ``batch_done`` line is yielded last so
    callers can read the completion counts, and a stream that ends
    without it raises :class:`StreamInterrupted`.

    With a :class:`RetryPolicy`, transient failures — connection
    refused, admission rejections carrying ``retry_after``, and
    mid-stream disconnects — are retried with backoff.  A broken
    stream *resumes*: cases that already reached a terminal event are
    not re-submitted (their events are never duplicated downstream),
    and re-submission is guarded by :func:`case_fingerprint` so a
    matrix mutated between attempts raises instead of being silently
    re-solved as different work.  Each reconnect is announced with a
    client-side ``{"event": "client_retry", ...}`` line, and the final
    ``batch_done`` is synthesized with whole-batch counts plus the
    number of ``retries`` taken.
    """
    if retry is None:
        last: Dict[str, Any] = {}
        for last in _submit_once(address, cases, timeout, options):
            yield last
        if last.get("event") != "batch_done":
            raise StreamInterrupted("stream ended before its batch_done line")
        return

    ordered = [(str(case_id), matrix) for case_id, matrix in cases]
    fingerprints = {
        case_id: case_fingerprint(case_id, matrix)
        for case_id, matrix in ordered
    }
    remaining: Dict[str, BinaryMatrix] = {
        case_id: matrix for case_id, matrix in ordered
    }
    if len(remaining) != len(ordered):
        raise SolverError(
            "resumable submit needs unique case ids "
            "(duplicates cannot be resumed unambiguously)"
        )
    tenant = options.get("tenant")
    completed = 0
    attempt = 0
    while True:
        batch: List[Tuple[str, BinaryMatrix]] = [
            (case_id, matrix)
            for case_id, matrix in ordered
            if case_id in remaining
        ]
        for case_id, matrix in batch:
            if case_fingerprint(case_id, matrix) != fingerprints[case_id]:
                raise SolverError(
                    f"case {case_id!r} changed since its first "
                    "submission; refusing a non-idempotent re-submit"
                )
        saw_batch_done = False
        failure: Optional[BaseException] = None
        try:
            for payload in _submit_once(address, batch, timeout, options):
                event = payload.get("event")
                if event == "batch_done":
                    saw_batch_done = True
                    tenant = payload.get("tenant", tenant)
                    continue  # synthesized below with whole-batch counts
                case_id = payload.get("case_id")
                if event in TERMINAL_CLIENT_EVENTS and case_id is not None:
                    if case_id not in remaining:
                        continue  # replay of an already-delivered case
                    del remaining[case_id]
                    completed += 1
                yield payload
        except Exception as exc:
            failure = exc
        if failure is None and (saw_batch_done or not remaining):
            done_line: Dict[str, Any] = {
                "event": "batch_done",
                "count": len(ordered),
                "completed": completed,
                "retries": attempt,
            }
            if tenant is not None:
                done_line["tenant"] = tenant
            yield done_line
            return
        if failure is None:
            # Stream ended cleanly but cases are missing — the server
            # died between events and its socket closed without a
            # batch_done. Same recovery as an abrupt disconnect.
            failure = StreamInterrupted(
                f"stream ended with {len(remaining)} case(s) unresolved"
            )
        attempt += 1
        if attempt >= retry.max_attempts or not retry.retryable(failure):
            raise failure
        slept = retry.pause(
            attempt, getattr(failure, "retry_after", None)
        )
        yield {
            "event": "client_retry",
            "attempt": attempt,
            "slept": slept,
            "remaining": len(remaining),
            "reason": f"{type(failure).__name__}: {failure}",
        }


def collect(
    address: Address,
    cases: Sequence[Tuple[str, BinaryMatrix]],
    *,
    timeout: Optional[float] = None,
    **options: Any,
) -> List[Dict[str, Any]]:
    """Just the ``done`` provenance records, in completion order."""
    records: List[Dict[str, Any]] = []
    for payload in submit(address, cases, timeout=timeout, **options):
        if payload.get("event") == "done":
            records.append(payload)
    return records
