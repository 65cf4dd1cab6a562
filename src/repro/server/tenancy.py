"""Multi-tenant traffic policy for the solve front.

:class:`repro.server.gateway.SolveGateway`, over TCP or a unix socket,
multiplexes many clients onto one shared
:class:`repro.server.engine.AsyncSolveEngine`; this module is the
policy layer that keeps them from starving each other:

* :class:`TenantConfig` / :class:`TenantRegistry` — per-tenant identity
  (name + optional shared key), a priority class, an in-flight cap, and
  a rolling compute quota built on
  :class:`repro.service.budget.QuotaWindow`;
* :class:`AdmissionController` — a priority-aware admission window in
  front of the engine: at most ``max_in_flight`` requests solve at
  once, at most ``max_waiting`` wait behind them, and everything beyond
  that is rejected *immediately* with a structured ``retry_after``
  estimate instead of queueing unboundedly;
* :class:`ServerMetrics` — the counters the front reports through its
  ``stats``/``metrics`` ops (connection gauge + lifetime counter,
  requests, rejections, per-tenant usage).

Rejections raise :class:`RequestRejected`, whose :meth:`~RequestRejected
.as_event` is the wire form::

    {"event": "error", "code": "saturated", "retry_after": 1.25,
     "error": "..."}

Everything here is event-loop confined (no locks): the front calls it
only from its serving loop.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import json
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Deque, Dict, Iterable, Optional, Union

from repro.core.exceptions import SolverError
from repro.service.budget import QuotaWindow

DEFAULT_TENANT = "anonymous"
"""Tenant identity assumed for requests that present none."""

REJECT_SATURATED = "saturated"
REJECT_QUOTA = "quota_exhausted"
REJECT_TENANT_SATURATED = "tenant_saturated"
REJECT_DENIED = "denied"
REJECT_UNKNOWN_TENANT = "unknown_tenant"

HEALTH_READY = "ready"
HEALTH_DEGRADED = "degraded"
HEALTH_DRAINING = "draining"
HEALTH_STATES = (HEALTH_READY, HEALTH_DEGRADED, HEALTH_DRAINING)
"""The ``health`` op's status values, in decreasing order of welcome."""


class RequestRejected(SolverError):
    """A request the policy layer refused to queue.

    Carries the machine-readable rejection ``code`` and, where the
    refusal is transient (saturation, quota), a ``retry_after`` hint in
    seconds — clients back off instead of hammering the front.
    """

    def __init__(
        self,
        message: str,
        *,
        code: str = REJECT_SATURATED,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.code = code
        self.retry_after = retry_after

    def as_event(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "event": "error",
            "error": str(self),
            "code": self.code,
        }
        if self.retry_after is not None:
            payload["retry_after"] = round(self.retry_after, 3)
        return payload


# ----------------------------------------------------------------------
# Tenants
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TenantConfig:
    """One tenant's standing policy.

    ``priority`` is a class, not a weight: lower numbers are served
    sooner when the admission window is contended (requests may ask for
    a *worse* priority than their tenant's, never a better one).
    ``quota_seconds`` caps solver wall-clock the tenant may consume per
    ``quota_window_seconds`` of real time; ``max_in_flight`` caps the
    tenant's concurrent requests regardless of global headroom.  ``key``
    is an optional shared secret the request must echo.
    """

    name: str
    priority: int = 10
    quota_seconds: Optional[float] = None
    quota_window_seconds: float = 60.0
    max_in_flight: Optional[int] = None
    key: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SolverError("tenant name must be non-empty")
        if self.quota_window_seconds <= 0:
            raise SolverError(
                f"tenant {self.name!r}: quota_window_seconds must be > 0"
            )
        if self.quota_seconds is not None and self.quota_seconds < 0:
            raise SolverError(
                f"tenant {self.name!r}: quota_seconds must be >= 0"
            )
        if self.max_in_flight is not None and self.max_in_flight < 1:
            raise SolverError(
                f"tenant {self.name!r}: max_in_flight must be >= 1"
            )

    @classmethod
    def from_dict(
        cls, name: str, payload: Dict[str, Any]
    ) -> "TenantConfig":
        if not isinstance(payload, dict):
            raise SolverError(
                f"tenant {name!r} config must be an object, got {payload!r}"
            )
        known = {
            "priority",
            "quota_seconds",
            "quota_window_seconds",
            "max_in_flight",
            "key",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise SolverError(
                f"tenant {name!r} config has unknown keys {unknown} "
                f"(known: {sorted(known)})"
            )
        return cls(name=name, **payload)


class TenantState:
    """A tenant's live accounting: quota window, gauge, usage counters."""

    def __init__(self, config: TenantConfig) -> None:
        self.config = config
        self.quota = QuotaWindow(
            config.quota_seconds,
            window_seconds=config.quota_window_seconds,
        )
        self.in_flight = 0
        self.requests = 0
        self.rejected = 0
        self.cases = 0
        self.cases_completed = 0
        self.cache_hits = 0

    def charge(self, seconds: float) -> None:
        self.quota.charge(seconds)

    def usage(self) -> Dict[str, Any]:
        return {
            "priority": self.config.priority,
            "in_flight": self.in_flight,
            "requests": self.requests,
            "rejected": self.rejected,
            "cases": self.cases,
            "cases_completed": self.cases_completed,
            "cache_hits": self.cache_hits,
            "quota": self.quota.as_dict(),
        }


class TenantRegistry:
    """Resolve request identities to live tenant state.

    Unknown tenants either materialize lazily under ``default`` policy
    (``allow_unknown=True``, the open-door default) or are rejected
    outright (a locked-down deployment).
    """

    def __init__(
        self,
        configs: Iterable[TenantConfig] = (),
        *,
        allow_unknown: bool = True,
        default: Optional[TenantConfig] = None,
    ) -> None:
        self.allow_unknown = allow_unknown
        self.default = default or TenantConfig(DEFAULT_TENANT)
        self._states: Dict[str, TenantState] = {}
        for config in configs:
            if config.name in self._states:
                raise SolverError(f"duplicate tenant {config.name!r}")
            self._states[config.name] = TenantState(config)

    def resolve(
        self, name: Optional[str], key: Optional[str] = None
    ) -> TenantState:
        """The state for one request's identity; raises on policy refusal."""
        tenant = self.default.name if name is None else str(name)
        state = self._states.get(tenant)
        if state is None:
            if not self.allow_unknown:
                raise RequestRejected(
                    f"unknown tenant {tenant!r} (registry is closed; "
                    "configure the tenant or enable allow_unknown)",
                    code=REJECT_UNKNOWN_TENANT,
                )
            config = TenantConfig(
                name=tenant,
                priority=self.default.priority,
                quota_seconds=self.default.quota_seconds,
                quota_window_seconds=self.default.quota_window_seconds,
                max_in_flight=self.default.max_in_flight,
            )
            state = TenantState(config)
            self._states[tenant] = state
        if state.config.key is not None and key != state.config.key:
            raise RequestRejected(
                f"tenant {tenant!r}: bad or missing key",
                code=REJECT_DENIED,
            )
        return state

    def usage(self) -> Dict[str, Dict[str, Any]]:
        return {
            name: state.usage()
            for name, state in sorted(self._states.items())
        }

    # ------------------------------------------------------------------
    @classmethod
    def from_mapping(cls, payload: Dict[str, Any]) -> "TenantRegistry":
        """Build from the tenancy config shape the CLI loads from JSON::

            {"allow_unknown": false,
             "default": {"priority": 10},
             "tenants": {
                 "acme":  {"priority": 1, "quota_seconds": 30,
                           "quota_window_seconds": 60, "key": "s3cret"},
                 "guest": {"priority": 20, "max_in_flight": 1}}}
        """
        if not isinstance(payload, dict):
            raise SolverError(
                f"tenancy config must be an object, got {payload!r}"
            )
        default = None
        if payload.get("default") is not None:
            default = TenantConfig.from_dict(
                DEFAULT_TENANT, payload["default"]
            )
        tenants = payload.get("tenants", {})
        if not isinstance(tenants, dict):
            raise SolverError("'tenants' must map names to configs")
        configs = [
            TenantConfig.from_dict(str(name), config)
            for name, config in tenants.items()
        ]
        return cls(
            configs,
            allow_unknown=bool(payload.get("allow_unknown", True)),
            default=default,
        )

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "TenantRegistry":
        try:
            with open(path) as stream:
                payload = json.load(stream)
        except OSError as exc:
            raise SolverError(f"cannot read tenancy config {path}: {exc}")
        except json.JSONDecodeError as exc:
            raise SolverError(f"bad JSON in tenancy config {path}: {exc}")
        return cls.from_mapping(payload)


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class AdmissionController:
    """Bounded, priority-aware admission window with reject-not-queue.

    ``max_in_flight`` requests hold solve slots; up to ``max_waiting``
    more wait in a priority heap (priority class first, then arrival
    order — no starvation within a class).  Anything beyond the heap is
    rejected with a ``retry_after`` derived from an EWMA of observed
    request service time and the current backlog, so clients back off
    proportionally to real load.

    A released slot is handed directly to the best waiter (the slot
    never returns to the pool in between), so a late arrival can never
    jump the queue past a better-priority waiter.
    """

    def __init__(
        self,
        *,
        max_in_flight: int = 4,
        max_waiting: int = 16,
    ) -> None:
        if max_in_flight < 1:
            raise SolverError(
                f"max_in_flight must be >= 1, got {max_in_flight}"
            )
        if max_waiting < 0:
            raise SolverError(
                f"max_waiting must be >= 0, got {max_waiting}"
            )
        self.max_in_flight = max_in_flight
        self.max_waiting = max_waiting
        self._active = 0
        self._waiters: list = []  # heap of (priority, seq, future)
        self._seq = itertools.count()
        self._service_ewma: Optional[float] = None
        self.admitted_total = 0
        self.rejected_total = 0

    # ------------------------------------------------------------------
    def _live_waiters(self) -> int:
        return sum(1 for _, _, fut in self._waiters if not fut.done())

    def estimated_retry_after(self) -> float:
        """Back-off hint: backlog drained at the observed service rate."""
        per_request = self._service_ewma or 1.0
        backlog = self._active + self._live_waiters() + 1
        return max(0.1, per_request * backlog / self.max_in_flight)

    def snapshot(self) -> Dict[str, Any]:
        return {
            "active": self._active,
            "waiting": self._live_waiters(),
            "depth": self._active + self._live_waiters(),
            "max_in_flight": self.max_in_flight,
            "max_waiting": self.max_waiting,
            "admitted_total": self.admitted_total,
            "rejected_total": self.rejected_total,
            "service_seconds_ewma": self._service_ewma,
        }

    # ------------------------------------------------------------------
    async def admit(self, tenant: TenantState, priority: int) -> None:
        """Take one slot for ``tenant`` or raise :class:`RequestRejected`.

        Per-tenant checks (quota window, tenant in-flight cap) refuse
        immediately; global saturation either parks the request in the
        priority heap or, when the heap is full, rejects with a
        ``retry_after``.  Callers must pair every successful ``admit``
        with exactly one :meth:`release`.
        """
        if tenant.quota.exhausted():
            self.rejected_total += 1
            tenant.rejected += 1
            raise RequestRejected(
                f"tenant {tenant.config.name!r} exhausted its "
                f"{tenant.quota.quota_seconds:g}s/"
                f"{tenant.quota.window_seconds:g}s compute quota",
                code=REJECT_QUOTA,
                retry_after=tenant.quota.retry_after(),
            )
        cap = tenant.config.max_in_flight
        if cap is not None and tenant.in_flight >= cap:
            self.rejected_total += 1
            tenant.rejected += 1
            raise RequestRejected(
                f"tenant {tenant.config.name!r} already has "
                f"{tenant.in_flight} request(s) in flight (cap {cap})",
                code=REJECT_TENANT_SATURATED,
                retry_after=self.estimated_retry_after(),
            )
        if self._active >= self.max_in_flight:
            if self._live_waiters() >= self.max_waiting:
                self.rejected_total += 1
                tenant.rejected += 1
                raise RequestRejected(
                    f"server saturated: {self._active} in flight, "
                    f"{self._live_waiters()} waiting (caps "
                    f"{self.max_in_flight}/{self.max_waiting})",
                    code=REJECT_SATURATED,
                    retry_after=self.estimated_retry_after(),
                )
            future: asyncio.Future = (
                asyncio.get_running_loop().create_future()
            )
            heapq.heappush(
                self._waiters, (priority, next(self._seq), future)
            )
            # Cancellation (client gone while queued) leaves the future
            # in the heap; release() skips done/cancelled entries.  One
            # that lands after release() handed us the slot passes it on.
            try:
                await future
            except asyncio.CancelledError:
                if future.done() and not future.cancelled():
                    self._hand_off()
                raise
        else:
            self._active += 1
        tenant.in_flight += 1
        self.admitted_total += 1

    def release(
        self, tenant: TenantState, service_seconds: float
    ) -> None:
        tenant.in_flight = max(0, tenant.in_flight - 1)
        if self._service_ewma is None:
            self._service_ewma = service_seconds
        else:
            self._service_ewma += 0.2 * (
                service_seconds - self._service_ewma
            )
        self._hand_off()

    def _hand_off(self) -> None:
        """Hand a freed slot straight to the best live waiter, or free it."""
        while self._waiters:
            _, _, future = heapq.heappop(self._waiters)
            if not future.done():
                future.set_result(None)
                return
        self._active = max(0, self._active - 1)


# ----------------------------------------------------------------------
# Degraded mode
# ----------------------------------------------------------------------
class DegradedModeController:
    """Decide when to serve best-effort instead of rejecting.

    Two signals say the exact backends can't keep up: a burst of
    admission rejections (the window is saturated faster than clients
    back off) and a run of exact-backend budget timeouts (instances too
    hard for their budgets — more rejected traffic is coming).  When
    either signal reaches its threshold within :attr:`WINDOW_SECONDS`,
    the front flips to *degraded*: saturated requests are answered with
    heuristic-only solves flagged ``degraded=true`` rather than turned
    away — a worse depth bound now beats a perfect answer never.

    Hysteresis: once entered, degraded mode persists for
    :attr:`COOLDOWN_SECONDS` after the *last* triggering signal, so the
    mode doesn't flap on every pruned window.  Event-loop confined
    like everything else in this module (no locks).
    """

    SATURATION_THRESHOLD = 5
    EXACT_TIMEOUT_THRESHOLD = 3
    WINDOW_SECONDS = 30.0
    COOLDOWN_SECONDS = 10.0

    def __init__(
        self, *, clock: Callable[[], float] = time.monotonic
    ) -> None:
        self._clock = clock
        self._saturations: Deque[float] = deque()
        self._exact_timeouts: Deque[float] = deque()
        self._degraded_since: Optional[float] = None
        self._last_signal: Optional[float] = None
        self.entered_total = 0
        self.served_degraded = 0

    # ------------------------------------------------------------------
    def _prune(self, now: float) -> None:
        for window in (self._saturations, self._exact_timeouts):
            while window and now - window[0] > self.WINDOW_SECONDS:
                window.popleft()

    def _over_threshold(self) -> bool:
        return (
            len(self._saturations) >= self.SATURATION_THRESHOLD
            or len(self._exact_timeouts) >= self.EXACT_TIMEOUT_THRESHOLD
        )

    def _note(self, window: Deque[float]) -> None:
        now = self._clock()
        window.append(now)
        self._prune(now)
        if self._over_threshold():
            if self._degraded_since is None:
                self._degraded_since = now
                self.entered_total += 1
            self._last_signal = now

    def note_saturation(self) -> None:
        """An admission rejection for load (not policy) just happened."""
        self._note(self._saturations)

    def note_exact_timeout(self) -> None:
        """A solve came back with an exact backend out of budget."""
        self._note(self._exact_timeouts)

    # ------------------------------------------------------------------
    def degraded(self) -> bool:
        if self._degraded_since is None:
            return False
        now = self._clock()
        self._prune(now)
        if self._over_threshold():
            return True
        if (
            self._last_signal is not None
            and now - self._last_signal <= self.COOLDOWN_SECONDS
        ):
            return True
        self._degraded_since = None
        self._last_signal = None
        return False

    def snapshot(self) -> Dict[str, Any]:
        now = self._clock()
        self._prune(now)
        degraded = self.degraded()
        return {
            "degraded": degraded,
            "degraded_for_seconds": (
                round(now - self._degraded_since, 3)
                if degraded and self._degraded_since is not None
                else None
            ),
            "recent_saturations": len(self._saturations),
            "recent_exact_timeouts": len(self._exact_timeouts),
            "saturation_threshold": self.SATURATION_THRESHOLD,
            "exact_timeout_threshold": self.EXACT_TIMEOUT_THRESHOLD,
            "window_seconds": self.WINDOW_SECONDS,
            "cooldown_seconds": self.COOLDOWN_SECONDS,
            "entered_total": self.entered_total,
            "served_degraded": self.served_degraded,
        }


# ----------------------------------------------------------------------
# Shared metrics surface
# ----------------------------------------------------------------------
@dataclass
class ServerMetrics:
    """Counters the front feeds and reports (one stats surface).

    ``connections_active`` is a gauge (incremented on accept,
    decremented in the handler's ``finally``); ``connections_total`` is
    the lifetime counter.
    """

    connections_active: int = 0
    connections_total: int = 0
    requests_total: int = 0
    rejected_total: int = 0
    cases_submitted: int = 0
    cases_completed: int = 0
    cases_failed: int = 0
    cases_cancelled: int = 0
    cases_from_cache: int = 0
    client_disconnects: int = 0
    degraded_total: int = 0
    worker_crash_events: int = 0
    started_at: float = field(default_factory=time.monotonic)

    def connection_opened(self) -> None:
        self.connections_active += 1
        self.connections_total += 1

    def connection_closed(self) -> None:
        self.connections_active = max(0, self.connections_active - 1)

    def record_terminal(self, kind: str, *, from_cache: bool) -> None:
        if kind == "done":
            self.cases_completed += 1
            if from_cache:
                self.cases_from_cache += 1
        elif kind == "failed":
            self.cases_failed += 1
        elif kind == "cancelled":
            self.cases_cancelled += 1

    def as_dict(self) -> Dict[str, Any]:
        return {
            "connections": {
                "active": self.connections_active,
                "total": self.connections_total,
                "disconnects": self.client_disconnects,
            },
            "requests": {
                "total": self.requests_total,
                "rejected": self.rejected_total,
                "degraded": self.degraded_total,
            },
            "worker_crash_events": self.worker_crash_events,
            "cases": {
                "submitted": self.cases_submitted,
                "completed": self.cases_completed,
                "failed": self.cases_failed,
                "cancelled": self.cases_cancelled,
                "from_cache": self.cases_from_cache,
            },
            "uptime_seconds": time.monotonic() - self.started_at,
        }
