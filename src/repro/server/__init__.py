"""Streaming solve server: the traffic-facing layer above the service.

Where :mod:`repro.service` turns one batch into results, this package
turns a *stream of requests* into a *stream of results*:

* :mod:`engine` — :class:`AsyncSolveEngine`, an asyncio front over
  solver threads (or, with ``executor="process"``, the worker pool of
  :mod:`repro.service.pool`) that yields per-instance
  :class:`SolveEvent` s as they complete, with bounded in-flight
  backpressure and per-instance cancellation;
* :mod:`shards` — the result cache's one disk tier, hash-prefix-sharded
  and ``fcntl``-locked so concurrent runners on one host share it
  safely (``ResultCache.sharded``);
* :mod:`gateway` / :mod:`tenancy` — the one JSON-lines front, bound
  to TCP (``python -m repro gateway``) or to a unix socket (``python -m
  repro serve``, which amortizes pool and cache warmup across
  short-lived local clients): per-tenant identities, priorities and
  rolling compute quotas, priority-aware admission control that rejects
  with ``retry_after`` instead of queueing unboundedly, and a
  ``metrics`` op reporting queue depth, per-tenant usage, cache hit
  rate, and per-solver win rates — one stats surface for both
  transports;
* :mod:`client` — the synchronous client (``python -m repro submit``)
  for either transport.

The serving stack is fault-tolerant end to end: a dead worker is
respawned and only the case it was solving is re-dispatched
(``worker_crashed`` events, results marked ``status="retried"``),
corrupt cache shards are quarantined and read cold, clients retry with
:class:`repro.server.client.RetryPolicy` (capped backoff + jitter,
``retry_after`` hints, reconnect-and-resume), sustained overload flips
the front to heuristic-only *degraded* serving (``health`` op:
``ready`` / ``degraded`` / ``draining``), and a vanished client has
its in-flight solves cancelled.  The failure-class -> event-code ->
client-behavior table lives in ``docs/failure-semantics.md``; the
fault-injection harness driving the chaos tests is
:mod:`repro.service.faults`.
"""

from repro.server.client import (
    ConnectFailed,
    DaemonError,
    RetryPolicy,
    StreamInterrupted,
)
from repro.server.engine import (
    AsyncSolveEngine,
    CANCELLED,
    DONE,
    FAILED,
    MEMBER_FINISHED,
    QUEUED,
    STARTED,
    WORKER_CRASHED,
    SolveEvent,
    TERMINAL_EVENTS,
)
from repro.server.gateway import SolveGateway, StreamFront
from repro.server.shards import ShardedDiskTier, quarantine_file
from repro.server.tenancy import (
    AdmissionController,
    DegradedModeController,
    HEALTH_DEGRADED,
    HEALTH_DRAINING,
    HEALTH_READY,
    RequestRejected,
    ServerMetrics,
    TenantConfig,
    TenantRegistry,
)
from repro.utils.fileio import atomic_write_json, locked_file

__all__ = [
    "AdmissionController",
    "AsyncSolveEngine",
    "CANCELLED",
    "ConnectFailed",
    "DONE",
    "DaemonError",
    "DegradedModeController",
    "FAILED",
    "HEALTH_DEGRADED",
    "HEALTH_DRAINING",
    "HEALTH_READY",
    "MEMBER_FINISHED",
    "QUEUED",
    "RequestRejected",
    "RetryPolicy",
    "STARTED",
    "ServerMetrics",
    "ShardedDiskTier",
    "SolveEvent",
    "SolveGateway",
    "StreamFront",
    "StreamInterrupted",
    "TERMINAL_EVENTS",
    "TenantConfig",
    "TenantRegistry",
    "WORKER_CRASHED",
    "atomic_write_json",
    "locked_file",
    "quarantine_file",
]
