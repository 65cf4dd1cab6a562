"""Process-wide fault-injection harness for the serving stack.

Production resilience claims are worthless untested: "survives worker
death" means nothing until a test actually kills a worker mid-batch and
watches the batch finish.  This module is the one switchboard those
tests flip.  A :class:`FaultPlan` names the faults to inject; the
serving layers (:mod:`repro.service.batch`, :mod:`repro.service.pool`,
:mod:`repro.server.engine`, :mod:`repro.server.shards`,
:mod:`repro.server.gateway`) call the tiny seam functions below at
their failure-relevant points, and the seams fire only while a plan is
installed.

Seams are **disabled by default** and designed to cost one global read
plus a ``None`` check on the hot path — cheap enough to live in
production code permanently (``benchmarks/bench_faults.py`` holds the
overhead line).  Plans install three ways:

* :func:`install` / :func:`clear` — programmatic, process-wide;
* :func:`injected` — a context manager that restores the previous plan
  (what the chaos tests use);
* the ``REPRO_FAULTS`` environment variable — a JSON object of plan
  fields, parsed lazily on first seam check in each process; this is
  how a plan reaches a subprocess run (``python -m repro cache gc``
  under the chaos suite).

Pool workers share no globals with their caller, so the installed plan
travels with every dispatch (:class:`repro.service.pool.WorkerPool`
sends :func:`active` along with each case, and the worker installs it
before solving).  One-shot faults (worker kill, shard corruption) are
*disarmed* by the recovery path that handles them, so a respawned
worker does not die again on the retried case — recovery tests
terminate instead of crash-looping.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Iterator, Optional, Sequence, Union

from repro.core.exceptions import SolverError

FAULTS_ENV = "REPRO_FAULTS"
"""Environment variable a process reads its initial plan from."""

WORKER_KILL_EXIT_CODE = 87
"""Exit status of a fault-killed worker (distinctive in pool autopsies)."""


@dataclass
class FaultPlan:
    """Which faults to inject, and where.

    ``kill_worker_on_case`` names one batch case — by id, or by index
    into the submitted batch (resolved to an id by
    :func:`resolve_kill_case` before dispatch) — whose pool worker
    ``os._exit`` s mid-solve.  ``corrupt_shard_on_write`` truncates the
    next cache shard written, leaving a torn JSON file on disk.
    ``drop_connection_after_events`` makes a server front abort each
    connection after streaming that many event lines (recurring, so it
    also exercises repeated client retries).  ``delay_seconds`` sleeps
    at every :func:`delay` seam — or only at ``delay_site`` when set —
    stretching windows that races and timeouts hide in.

    The cache-store lifecycle seams: ``crash_gc_at`` names a GC journal
    state (``planned`` / ``mid-sweep`` / ``committed``) at which the GC
    pass dies abruptly via ``os._exit`` — indistinguishable from
    ``kill -9`` as far as on-disk state goes, so it fires in whatever
    process runs GC (chaos tests arm it only in subprocesses via
    ``REPRO_FAULTS``).  ``corrupt_index_on_write`` tears the next
    record appended to the cache-index log (one-shot), and
    ``ttl_skew_seconds`` shifts the wall clock the TTL math sees,
    simulating NTP jumps between the writer that stamped an entry and
    the GC judging its age.
    """

    kill_worker_on_case: Optional[Union[int, str]] = None
    corrupt_shard_on_write: bool = False
    drop_connection_after_events: Optional[int] = None
    delay_seconds: float = 0.0
    delay_site: Optional[str] = None
    crash_gc_at: Optional[str] = None
    corrupt_index_on_write: bool = False
    ttl_skew_seconds: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if value != spec.default:
                payload[spec.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultPlan":
        if not isinstance(payload, dict):
            raise SolverError(
                f"fault plan must be an object, got {payload!r}"
            )
        known = {spec.name for spec in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise SolverError(
                f"fault plan has unknown fields {unknown} "
                f"(known: {sorted(known)})"
            )
        return cls(**payload)


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
_PLAN: Optional[FaultPlan] = None
_ENV_LOADED = False


def install(plan: FaultPlan) -> None:
    """Install ``plan`` process-wide."""
    global _PLAN, _ENV_LOADED
    _PLAN = plan
    _ENV_LOADED = True


def clear() -> None:
    """Remove any installed plan."""
    global _PLAN, _ENV_LOADED
    _PLAN = None
    _ENV_LOADED = True


def active() -> Optional[FaultPlan]:
    """The installed plan, reading ``REPRO_FAULTS`` once per process."""
    global _PLAN, _ENV_LOADED
    if _PLAN is None and not _ENV_LOADED:
        _ENV_LOADED = True
        raw = os.environ.get(FAULTS_ENV)
        if raw:
            try:
                _PLAN = FaultPlan.from_dict(json.loads(raw))
            except (json.JSONDecodeError, SolverError, TypeError) as exc:
                raise SolverError(
                    f"bad {FAULTS_ENV} value {raw!r}: {exc}"
                ) from exc
    return _PLAN


@contextmanager
def injected(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install ``plan`` for the block, restoring the previous state."""
    previous = active()
    install(plan)
    try:
        yield plan
    finally:
        if previous is None:
            clear()
        else:
            install(previous)


def disarm(field_name: str) -> None:
    """Switch one fault off in the active plan (recovery paths call this
    so the retried work does not hit the same injected fault forever)."""
    plan = active()
    if plan is None:
        return
    defaults = {spec.name: spec.default for spec in fields(FaultPlan)}
    if field_name not in defaults:
        raise SolverError(f"unknown fault field {field_name!r}")
    install(replace(plan, **{field_name: defaults[field_name]}))


# ----------------------------------------------------------------------
# Seams (each is a no-op costing one global read while disabled)
# ----------------------------------------------------------------------
def resolve_kill_case(case_ids: Sequence[str]) -> None:
    """Normalize an index-addressed kill target to a concrete case id.

    Called by the dispatcher (parent process) before fanning a batch
    out, so workers only ever match on ids — an index would be
    meaningless inside a worker that sees one case at a time.
    """
    plan = active()
    if plan is None or not isinstance(plan.kill_worker_on_case, int):
        return
    index = plan.kill_worker_on_case
    if 0 <= index < len(case_ids):
        install(replace(plan, kill_worker_on_case=case_ids[index]))
    else:
        disarm("kill_worker_on_case")


def maybe_kill_worker(case_id: str) -> None:
    """Die abruptly (``os._exit``) if the plan targets this case.

    Fires only inside pool *worker* processes — the in-process
    ``workers=1`` path must never take down the caller itself.
    """
    plan = active()
    if plan is None or plan.kill_worker_on_case != case_id:
        return
    if multiprocessing.parent_process() is None:
        return  # main process; simulated crashes are for workers only
    os._exit(WORKER_KILL_EXIT_CODE)


def should_corrupt_shard_write() -> bool:
    """One-shot: corrupt the next shard write, then disarm in-process."""
    plan = active()
    if plan is None or not plan.corrupt_shard_on_write:
        return False
    disarm("corrupt_shard_on_write")
    return True


def maybe_crash_gc(state: str) -> None:
    """Die abruptly when the GC pass reaches the named journal state.

    ``os._exit`` skips every ``finally`` and ``atexit`` — the on-disk
    state is exactly what a SIGKILL at that instant would leave.  This
    fires in the *calling* process (GC usually runs in a dedicated
    ``python -m repro cache gc`` invocation), so chaos tests arm it via
    the ``REPRO_FAULTS`` env of a subprocess, never in-process.
    """
    plan = active()
    if plan is None or plan.crash_gc_at != state:
        return
    os._exit(WORKER_KILL_EXIT_CODE)


def should_corrupt_index_write() -> bool:
    """One-shot: tear the next cache-index log append, then disarm."""
    plan = active()
    if plan is None or not plan.corrupt_index_on_write:
        return False
    disarm("corrupt_index_on_write")
    return True


def ttl_clock_skew() -> float:
    """Seconds to shift the wall clock the TTL/eviction math reads."""
    plan = active()
    if plan is None:
        return 0.0
    return plan.ttl_skew_seconds


def should_drop_connection(events_sent: int) -> bool:
    """Recurring: abort a server connection after N streamed events."""
    plan = active()
    if plan is None or plan.drop_connection_after_events is None:
        return False
    return events_sent >= plan.drop_connection_after_events


def delay(site: str) -> None:
    """Sleep at a named seam (all sites, or only ``delay_site``)."""
    plan = active()
    if plan is None or plan.delay_seconds <= 0.0:
        return
    if plan.delay_site is not None and plan.delay_site != site:
        return
    time.sleep(plan.delay_seconds)
