"""Gateway under fire: vanished clients, dropped connections, overload.

Same topology as ``tests/server/test_gateway.py`` — server on a
background thread's event loop, synchronous client in the test thread,
real TCP in between — but every test here breaks something on purpose.
"""

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.benchgen.random_matrices import random_matrix
from repro.core.exceptions import SolverError
from repro.core.paper_matrices import equation_2, figure_1b, figure_3
from repro.server import client
from repro.server.engine import AsyncSolveEngine
from repro.server.gateway import SolveGateway
from repro.server.tenancy import (
    HEALTH_DEGRADED,
    HEALTH_READY,
    AdmissionController,
)
from repro.service import faults

SLOW_MATRIX = random_matrix(12, 12, 0.6, seed=3)
"""Dense enough that the exact members reliably burn their full budget."""


def _start(gateway):
    thread = threading.Thread(
        target=lambda: asyncio.run(gateway.run()), daemon=True
    )
    thread.start()
    deadline = time.time() + 60
    while gateway.port == 0 and time.time() < deadline:
        time.sleep(0.01)
    if gateway.port == 0:
        pytest.fail("gateway never bound a port")
    return thread


def _stop(gateway, thread):
    try:
        client.request_once(
            ("127.0.0.1", gateway.port), {"op": "shutdown"}, timeout=5
        )
    except SolverError:
        pass
    thread.join(timeout=20)
    assert not thread.is_alive()


def _metrics(gateway):
    return client.fetch_metrics(("127.0.0.1", gateway.port), timeout=5)


class TestDisconnectCancelsSolve:
    def test_vanished_client_cancels_a_long_solve(self):
        """Acceptance: killing the client mid-stream cancels the solve.

        The case is budgeted at 20s and solved by ``branch_bound``
        (which polls its deadline/cancel token every 64 nodes, so a
        cancel lands promptly); if the disconnect did NOT cancel it,
        the admission slot would stay held for the full budget.  We
        require it back within a small fraction of that.
        """
        instance = SolveGateway(
            AsyncSolveEngine(members=("branch_bound",), workers=2),
            port=0,
            admission=AdmissionController(max_in_flight=1, max_waiting=0),
        )
        thread = _start(instance)
        address = ("127.0.0.1", instance.port)
        try:
            request = {
                "op": "solve",
                "cases": [{"case_id": "slow", "rows": []}],
                "budget_per_instance": 20.0,
            }
            request["cases"][0]["rows"] = [
                format(mask, f"0{SLOW_MATRIX.num_cols}b")[::-1]
                for mask in SLOW_MATRIX.row_masks
            ]
            with socket.create_connection(address, timeout=10) as sock:
                sock.sendall(json.dumps(request).encode() + b"\n")
                sock.recv(64)  # the solve is live; now vanish
            disconnect_at = time.monotonic()

            deadline = disconnect_at + 10
            while time.monotonic() < deadline:
                metrics = _metrics(instance)
                if (
                    metrics["queue"]["active"] == 0
                    and metrics["connections"]["disconnects"] >= 1
                ):
                    break
                time.sleep(0.05)
            else:
                pytest.fail(
                    "solve slot not released after client disconnect "
                    "(cancellation did not propagate)"
                )
            # Far inside the 20s budget: the solve was cancelled, not
            # run to completion.
            assert time.monotonic() - disconnect_at < 10.0
        finally:
            _stop(instance, thread)


class TestDropConnectionAndResume:
    def test_client_resumes_after_injected_drops(self):
        """The server drops the stream after N events; a RetryPolicy
        client reconnects, re-submits only unfinished cases, and still
        delivers one terminal event per case plus a synthesized
        batch_done."""
        instance = SolveGateway(
            AsyncSolveEngine(members=("trivial", "packing:4"), seed=7, workers=2),
            port=0,
        )
        thread = _start(instance)
        address = ("127.0.0.1", instance.port)
        cases = [
            ("fig1b", figure_1b()),
            ("eq2", equation_2()),
            ("fig3", figure_3()),
        ]
        try:
            events = []
            with faults.injected(
                faults.FaultPlan(drop_connection_after_events=4)
            ):
                policy = client.RetryPolicy(
                    max_attempts=6, base_delay=0.05, jitter=0.0
                )
                for event in client.submit(
                    address, cases, timeout=30, retry=policy
                ):
                    events.append(event)
                    if event["event"] == "client_retry":
                        # One injected drop is the scenario under test;
                        # disarm so the retry can finish the stream.
                        faults.disarm("drop_connection_after_events")

            retries = [e for e in events if e["event"] == "client_retry"]
            assert retries, "the injected drop never triggered a retry"
            done = [e for e in events if e["event"] == "done"]
            assert sorted(e["case_id"] for e in done) == [
                "eq2",
                "fig1b",
                "fig3",
            ]
            assert events[-1]["event"] == "batch_done"
            assert events[-1]["completed"] == 3
            assert events[-1]["retries"] == len(retries)
        finally:
            _stop(instance, thread)

    def test_plain_submit_raises_on_a_truncated_stream(self):
        """Without a RetryPolicy, a stream cut before its batch_done
        raises StreamInterrupted instead of ending quietly."""
        instance = SolveGateway(
            AsyncSolveEngine(members=("trivial", "packing:4"), seed=7, workers=2),
            port=0,
        )
        thread = _start(instance)
        cases = [
            ("fig1b", figure_1b()),
            ("eq2", equation_2()),
            ("fig3", figure_3()),
        ]
        try:
            events = []
            with faults.injected(
                faults.FaultPlan(drop_connection_after_events=4)
            ):
                with pytest.raises(client.StreamInterrupted):
                    for event in client.submit(
                        ("127.0.0.1", instance.port), cases, timeout=30
                    ):
                        events.append(event)
            assert len(events) == 4
            assert events[-1]["event"] != "batch_done"
        finally:
            _stop(instance, thread)


class TestDegradedMode:
    def test_sustained_saturation_flips_to_heuristic_serving(self):
        instance = SolveGateway(
            AsyncSolveEngine(members=("packing:4", "sap"), workers=2),
            port=0,
            admission=AdmissionController(max_in_flight=1, max_waiting=0),
        )
        thread = _start(instance)
        address = ("127.0.0.1", instance.port)
        try:
            health = client.request_once(
                address, {"op": "health"}, timeout=5
            )
            assert health["status"] == HEALTH_READY

            slow_events = []

            def hold_the_slot():
                # branch_bound on SLOW_MATRIX outlasts the test; the
                # cancel op below ends it.
                slow_events.extend(
                    client.submit(
                        address,
                        [("slow", SLOW_MATRIX)],
                        timeout=60,
                        members=["branch_bound"],
                        budget_per_instance=600.0,
                    )
                )

            slow = threading.Thread(target=hold_the_slot, daemon=True)
            slow.start()
            deadline = time.time() + 10
            while time.time() < deadline:
                if _metrics(instance)["queue"]["active"] >= 1:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("slow request never took the solve slot")

            # Four saturations are rejections; the fifth trips the
            # controller (threshold 5 in-window) and that very request
            # is served degraded instead of refused.
            for _ in range(4):
                with pytest.raises(client.DaemonError) as excinfo:
                    list(
                        client.submit(
                            address, [("fast", figure_3())], timeout=10
                        )
                    )
                assert excinfo.value.code == "saturated"

            health = client.request_once(
                address, {"op": "health"}, timeout=5
            )
            assert health["status"] == HEALTH_READY

            events = list(
                client.submit(
                    address, [("served", figure_3())], timeout=30
                )
            )
            health = client.request_once(
                address, {"op": "health"}, timeout=5
            )
            assert health["status"] == HEALTH_DEGRADED
            done = [e for e in events if e["event"] == "done"]
            assert len(done) == 1
            assert done[0]["degraded"] is True
            # Heuristic-only: every exact member was stripped from the
            # portfolio before solving (of this gateway's members, sap
            # is the exact one; packing is a heuristic and survives).
            ran = [m["name"] for m in done[0]["provenance"]["members"]]
            assert ran == ["packing:4"]
            assert events[-1]["event"] == "batch_done"
            assert events[-1]["degraded"] is True

            metrics = _metrics(instance)
            assert metrics["requests"]["degraded"] >= 1
            assert metrics["degraded_mode"]["entered_total"] >= 1

            cancel = client.request_once(
                address, {"op": "cancel", "case_id": "slow"}, timeout=5
            )
            assert cancel["cancelled"] is True
            slow.join(timeout=60)
            assert not slow.is_alive()
            assert slow_events[-1]["event"] == "batch_done"
        finally:
            _stop(instance, thread)
