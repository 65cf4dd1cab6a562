"""Benchmarks for the multi-tenant TCP gateway.

Three measurements, appended to ``BENCH_gateway.json`` (directory
overridable via ``REPRO_BENCH_DIR``):

* **latency-to-first-event under N tenants** — N tenant clients hammer
  one gateway concurrently; per-tenant time from connect to first
  streamed event and to first ``done`` is recorded.  Every tenant must
  be served (asserted); the latency numbers are hardware-dependent and
  recorded only.
* **thread vs process executor through the gateway** — the same
  workload through both executor kinds, over a real TCP client.  Both
  must stream ``member_finished`` events (asserted — this is the wire
  form of the process-streaming fix); the wall-clock comparison is
  recorded.
* **rejection rate at saturation** — a one-slot admission window with a
  slow budgeted solve holding it while a burst of requests arrives:
  the overflow must be *rejected* with structured ``retry_after``
  events (asserted), never queued unboundedly; the accepted/rejected
  split is recorded.
"""

from __future__ import annotations

import asyncio
import threading
import time

from repro.benchgen.random_matrices import random_matrix
from repro.core.binary_matrix import BinaryMatrix
from repro.server import client
from repro.server.engine import AsyncSolveEngine
from repro.server.gateway import SolveGateway
from repro.server.tenancy import (
    REJECT_SATURATED,
    AdmissionController,
    TenantConfig,
    TenantRegistry,
)

from _record import record_entry

SLOW_MATRIX = random_matrix(12, 12, 0.6, seed=3)
"""No exact backend certifies this inside a ~1 s slice, so budgeted
solves on it take (almost exactly) their budget — the saturation
experiment's slot-holder."""

FAST_MATRICES = [
    BinaryMatrix.from_strings(rows)
    for rows in (
        ["10", "01"],
        ["11", "11"],
        ["110", "011", "111"],
        ["101", "010", "101"],
    )
]

NUM_TENANTS = 6


def _start_gateway(gateway: SolveGateway) -> threading.Thread:
    thread = threading.Thread(
        target=lambda: asyncio.run(gateway.run()), daemon=True
    )
    thread.start()
    deadline = time.monotonic() + 120
    while gateway.port == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert gateway.port != 0, "gateway never bound a port"
    return thread


def _stop_gateway(gateway: SolveGateway, thread: threading.Thread) -> None:
    client.request_once(
        ("127.0.0.1", gateway.port), {"op": "shutdown"}, timeout=10
    )
    thread.join(timeout=30)
    assert not thread.is_alive()


def test_latency_to_first_event_under_tenants(root_seed):
    """N concurrent tenants against one engine: everyone gets served."""
    gateway = SolveGateway(
        AsyncSolveEngine(
            members=("trivial", "packing:4"), seed=root_seed, workers=2
        ),
        port=0,
        admission=AdmissionController(
            max_in_flight=4, max_waiting=2 * NUM_TENANTS
        ),
    )
    thread = _start_gateway(gateway)
    address = ("127.0.0.1", gateway.port)
    results = {}

    def tenant_client(name: str) -> None:
        cases = [
            (f"{name}-{i}", matrix)
            for i, matrix in enumerate(FAST_MATRICES)
        ]
        began = time.perf_counter()
        first_event = None
        first_done = None
        completed = 0
        for event in client.submit(
            address, cases, timeout=120, tenant=name
        ):
            now = time.perf_counter() - began
            if first_event is None:
                first_event = now
            if event["event"] == "done":
                completed += 1
                if first_done is None:
                    first_done = now
        results[name] = {
            "first_event_seconds": first_event,
            "first_done_seconds": first_done,
            "total_seconds": time.perf_counter() - began,
            "completed": completed,
        }

    try:
        threads = [
            threading.Thread(
                target=tenant_client, args=(f"tenant-{i}",), daemon=True
            )
            for i in range(NUM_TENANTS)
        ]
        began = time.perf_counter()
        for worker in threads:
            worker.start()
        for worker in threads:
            worker.join(timeout=180)
        wall_seconds = time.perf_counter() - began
        metrics = client.fetch_metrics(address, timeout=10)
    finally:
        _stop_gateway(gateway, thread)

    assert len(results) == NUM_TENANTS, "a tenant client died"
    assert all(
        r["completed"] == len(FAST_MATRICES) for r in results.values()
    )
    firsts = sorted(r["first_event_seconds"] for r in results.values())
    dones = sorted(r["first_done_seconds"] for r in results.values())
    payload = {
        "tenants": NUM_TENANTS,
        "cases_per_tenant": len(FAST_MATRICES),
        "wall_seconds": wall_seconds,
        "first_event_seconds_min": firsts[0],
        "first_event_seconds_median": firsts[len(firsts) // 2],
        "first_event_seconds_max": firsts[-1],
        "first_done_seconds_median": dones[len(dones) // 2],
        "per_tenant": results,
        "server_cases_completed": metrics["cases"]["completed"],
    }
    record_entry("gateway", "latency_under_tenants", payload)
    assert metrics["cases"]["completed"] == NUM_TENANTS * len(FAST_MATRICES)


def test_thread_vs_process_executor(root_seed):
    """Same workload, both executors, through a real TCP client."""
    timings = {}
    for executor in ("thread", "process"):
        gateway = SolveGateway(
            AsyncSolveEngine(
                members=("trivial", "packing:4"),
                seed=root_seed,
                workers=2,
                executor=executor,
            ),
            port=0,
        )
        thread = _start_gateway(gateway)
        address = ("127.0.0.1", gateway.port)
        cases = [
            (f"case-{i}", matrix)
            for i, matrix in enumerate(FAST_MATRICES)
        ]
        try:
            began = time.perf_counter()
            first_member = None
            members_seen = 0
            completed = 0
            for event in client.submit(address, cases, timeout=120):
                if event["event"] == "member_finished":
                    members_seen += 1
                    if first_member is None:
                        first_member = time.perf_counter() - began
                elif event["event"] == "done":
                    completed += 1
            timings[executor] = {
                "total_seconds": time.perf_counter() - began,
                "first_member_event_seconds": first_member,
                "member_events": members_seen,
                "completed": completed,
            }
        finally:
            _stop_gateway(gateway, thread)

    payload = {
        "cases": len(FAST_MATRICES),
        "members": ["trivial", "packing:4"],
        "thread": timings["thread"],
        "process": timings["process"],
    }
    record_entry("gateway", "thread_vs_process_executor", payload)
    for executor, timing in timings.items():
        assert timing["completed"] == len(FAST_MATRICES), executor
        # The wire form of the streaming fix: both executors deliver
        # live member events to a remote client, 2 members x N cases.
        assert timing["member_events"] == 2 * len(FAST_MATRICES), executor


def test_rejection_rate_at_saturation(root_seed):
    """Overflow past the admission window is rejected, not queued."""
    gateway = SolveGateway(
        AsyncSolveEngine(
            members=("packing:4", "sap"), seed=root_seed, workers=2
        ),
        port=0,
        tenants=TenantRegistry(default=TenantConfig("anonymous")),
        admission=AdmissionController(max_in_flight=1, max_waiting=1),
    )
    thread = _start_gateway(gateway)
    address = ("127.0.0.1", gateway.port)
    outcomes = []
    lock = threading.Lock()

    def burst_client(index: int) -> None:
        began = time.perf_counter()
        try:
            events = list(
                client.submit(
                    address,
                    [(f"burst-{index}", SLOW_MATRIX)],
                    timeout=120,
                    budget_per_instance=1.0,
                )
            )
            outcome = {
                "accepted": True,
                "seconds": time.perf_counter() - began,
                "events": len(events),
            }
        except client.DaemonError as exc:
            outcome = {
                "accepted": False,
                "seconds": time.perf_counter() - began,
                "code": exc.code,
                "retry_after": exc.retry_after,
            }
        with lock:
            outcomes.append(outcome)

    try:
        burst = [
            threading.Thread(target=burst_client, args=(i,), daemon=True)
            for i in range(6)
        ]
        for worker in burst:
            worker.start()
            time.sleep(0.02)  # arrive as a burst, not a single packet
        for worker in burst:
            worker.join(timeout=180)
        snapshot = client.fetch_metrics(address, timeout=10)["queue"]
    finally:
        _stop_gateway(gateway, thread)

    assert len(outcomes) == len(burst)
    accepted = [o for o in outcomes if o["accepted"]]
    rejected = [o for o in outcomes if not o["accepted"]]
    payload = {
        "burst_size": len(burst),
        "max_in_flight": 1,
        "max_waiting": 1,
        "budget_per_instance_seconds": 1.0,
        "accepted": len(accepted),
        "rejected": len(rejected),
        "rejection_rate": len(rejected) / len(burst),
        "retry_after_hints": sorted(
            o["retry_after"] for o in rejected
        ),
        "admission_snapshot": snapshot,
    }
    record_entry("gateway", "rejection_at_saturation", payload)
    # At most 1 solving + 1 waiting can be admitted at any instant; a
    # 6-wide burst against a ~1 s solve must shed load.
    assert rejected, "saturated gateway never rejected"
    for outcome in rejected:
        assert outcome["code"] == REJECT_SATURATED
        assert outcome["retry_after"] > 0
    assert snapshot["rejected_total"] == len(rejected)
