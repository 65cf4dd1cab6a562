"""Gateway round trips over real TCP connections.

Same topology as ``test_daemon.py`` — the server on a background
thread's event loop, the synchronous client in the test thread — but
over TCP with the tenancy policy engaged.  The process-executor test is
the acceptance path for the streaming bugfix: ``member_finished``
events must cross the process boundary and reach a remote client
*before* that case's ``done``.
"""

import asyncio
import errno
import json
import os
import socket
import threading
import time

import pytest

from repro.benchgen.random_matrices import random_matrix
from repro.core.exceptions import SolverError
from repro.core.paper_matrices import equation_2, figure_1b, figure_3
from repro.corpus.registry import build_corpus
from repro.server import client
from repro.server import gateway as gateway_module
from repro.server.engine import AsyncSolveEngine
from repro.server.gateway import (
    SolveGateway,
    StreamFront,
    parse_priority,
    validate_overrides,
)
from repro.server.tenancy import (
    HEALTH_DEGRADED,
    REJECT_DENIED,
    REJECT_QUOTA,
    REJECT_SATURATED,
    REJECT_UNKNOWN_TENANT,
    AdmissionController,
    TenantConfig,
    TenantRegistry,
    TenantState,
)
from repro.service.cache import ResultCache

MEMBERS = ("trivial", "packing:4", "sap")

SLOW_MATRIX = random_matrix(12, 12, 0.6, seed=3)
"""Dense enough that the exact members reliably consume their budget."""


def _start(gateway: SolveGateway) -> threading.Thread:
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


def _stop(gateway: SolveGateway, thread: threading.Thread) -> None:
    try:
        client.request_once(
            ("127.0.0.1", gateway.port), {"op": "shutdown"}, timeout=5
        )
    except SolverError:
        pass
    thread.join(timeout=20)
    assert not thread.is_alive()


@pytest.fixture
def gateway():
    """A live TCP gateway with tenancy + admission control engaged."""
    tenants = TenantRegistry(
        [
            TenantConfig("acme", priority=1),
            TenantConfig("metered", quota_seconds=1e-9),
            TenantConfig("secret", key="s3cret"),
        ]
    )
    instance = SolveGateway(
        AsyncSolveEngine(members=MEMBERS, seed=7, workers=2),
        port=0,
        tenants=tenants,
        admission=AdmissionController(max_in_flight=2, max_waiting=4),
    )
    thread = _start(instance)
    yield instance
    _stop(instance, thread)


def _address(gateway: SolveGateway):
    return ("127.0.0.1", gateway.port)



def _full_disk(*args, **kwargs):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestRoundTrip:
    def test_solve_streams_and_terminates(self, gateway):
        cases = [("fig1b", figure_1b()), ("eq2", equation_2())]
        events = list(
            client.submit(
                _address(gateway), cases, timeout=30, tenant="acme"
            )
        )
        kinds = [e["event"] for e in events]
        assert kinds[-1] == "batch_done"
        assert events[-1]["tenant"] == "acme"
        done = [e for e in events if e["event"] == "done"]
        assert {e["case_id"] for e in done} == {"fig1b", "eq2"}
        for record in done:
            assert record["provenance"]["optimal"] is True

    def test_tcp_url_address_form(self, gateway):
        reply = client.request_once(
            f"tcp://127.0.0.1:{gateway.port}", {"op": "ping"}, timeout=5
        )
        assert reply["event"] == "pong"

    def test_bad_tcp_url_is_rejected_client_side(self):
        with pytest.raises(SolverError, match="bad TCP address"):
            client.request_once("tcp://nowhere", {"op": "ping"})

    def test_metrics_surface(self, gateway):
        list(
            client.submit(
                _address(gateway),
                [("fig3", figure_3())],
                timeout=30,
                tenant="acme",
            )
        )
        metrics = client.fetch_metrics(_address(gateway), timeout=5)
        # Queue depth from admission control.
        queue = metrics["queue"]
        assert queue["max_in_flight"] == 2
        assert queue["max_waiting"] == 4
        assert queue["depth"] == queue["active"] + queue["waiting"]
        # Connection gauge vs lifetime counter.
        connections = metrics["connections"]
        assert connections["total"] >= 2
        assert connections["active"] <= connections["total"]
        # Cache hit rate and per-solver win rates.
        assert 0.0 <= metrics["cache_hit_rate"] <= 1.0
        solvers = metrics["solvers"]
        assert solvers["solved"] >= 1
        assert sum(solvers["wins"].values()) == solvers["solved"]
        assert solvers["win_rates"]
        for rate in solvers["win_rates"].values():
            assert 0.0 < rate <= 1.0
        # Per-tenant usage.
        acme = metrics["tenants"]["acme"]
        assert acme["requests"] == 1
        assert acme["cases_completed"] == 1
        assert acme["quota"]["lifetime_seconds"] >= 0.0

    def test_stats_op_reports_both_layers(self, gateway):
        reply = client.request_once(
            _address(gateway), {"op": "stats"}, timeout=5
        )
        assert reply["stats"]["members"] == list(MEMBERS)
        assert "connections" in reply["server"]


class TestTenancyOverTheWire:
    def test_quota_exhaustion_rejects_with_retry_after(self, gateway):
        address = _address(gateway)
        # First request burns the (absurdly small) quota...
        list(
            client.submit(
                address, [("a", figure_3())], timeout=30, tenant="metered"
            )
        )
        # ...so the next one is refused with a refill hint.
        with pytest.raises(client.DaemonError) as excinfo:
            list(
                client.submit(
                    address,
                    [("b", figure_1b())],
                    timeout=30,
                    tenant="metered",
                )
            )
        assert excinfo.value.code == REJECT_QUOTA
        assert excinfo.value.retry_after is not None
        assert 0 <= excinfo.value.retry_after <= 60.0
        metrics = client.fetch_metrics(address, timeout=5)
        assert metrics["tenants"]["metered"]["rejected"] == 1
        assert metrics["requests"]["rejected"] == 1

    def test_wrong_key_is_denied(self, gateway):
        with pytest.raises(client.DaemonError) as excinfo:
            list(
                client.submit(
                    _address(gateway),
                    [("a", figure_3())],
                    timeout=10,
                    tenant="secret",
                    key="wrong",
                )
            )
        assert excinfo.value.code == REJECT_DENIED

    def test_right_key_is_served(self, gateway):
        records = client.collect(
            _address(gateway),
            [("a", figure_3())],
            timeout=30,
            tenant="secret",
            key="s3cret",
        )
        assert len(records) == 1

    def test_closed_registry_rejects_unknown_tenant(self):
        instance = SolveGateway(
            AsyncSolveEngine(members=("trivial",), workers=1),
            port=0,
            tenants=TenantRegistry(
                [TenantConfig("acme")], allow_unknown=False
            ),
        )
        thread = _start(instance)
        try:
            with pytest.raises(client.DaemonError) as excinfo:
                list(
                    client.submit(
                        _address(instance),
                        [("a", figure_3())],
                        timeout=10,
                        tenant="stranger",
                    )
                )
            assert excinfo.value.code == REJECT_UNKNOWN_TENANT
        finally:
            _stop(instance, thread)

    def test_saturation_rejects_with_retry_after(self):
        # One solve slot, no waiting room: a slow budgeted solve holds
        # the slot while a second request arrives and must be refused.
        instance = SolveGateway(
            AsyncSolveEngine(members=("packing:4", "sap"), workers=2),
            port=0,
            admission=AdmissionController(max_in_flight=1, max_waiting=0),
        )
        thread = _start(instance)
        address = _address(instance)
        slow_events = []

        def slow_request() -> None:
            slow_events.extend(
                client.submit(
                    address,
                    [("slow", SLOW_MATRIX)],
                    timeout=60,
                    budget_per_instance=3.0,
                )
            )

        slow = threading.Thread(target=slow_request, daemon=True)
        try:
            slow.start()
            deadline = time.time() + 10
            while time.time() < deadline:
                metrics = client.fetch_metrics(address, timeout=5)
                if metrics["queue"]["active"] >= 1:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("slow request never took the solve slot")
            with pytest.raises(client.DaemonError) as excinfo:
                list(
                    client.submit(
                        address, [("fast", figure_3())], timeout=10
                    )
                )
            assert excinfo.value.code == REJECT_SATURATED
            assert excinfo.value.retry_after > 0
            slow.join(timeout=60)
            assert not slow.is_alive()
            assert slow_events[-1]["event"] == "batch_done"
        finally:
            _stop(instance, thread)


class TestFailurePaths:
    def test_malformed_override_is_one_clean_error_line(self, gateway):
        for overrides in (
            {"budget_per_instance": "lots"},
            {"members": []},
            {"race": "warp"},
            {"race": "sequential"},
            {"seed": "seven"},
            {"priority": "first"},
        ):
            events = list(
                client.stream_request(
                    _address(gateway),
                    {
                        "op": "solve",
                        "cases": [{"case_id": "a", "rows": ["10", "01"]}],
                        **overrides,
                    },
                    timeout=10,
                )
            )
            assert len(events) == 1
            assert events[0]["event"] == "error"

    def test_bad_json_line_is_answered(self, gateway):
        with socket.create_connection(_address(gateway), timeout=10) as sock:
            sock.sendall(b"{not json\n")
            reply = json.loads(sock.makefile("r").readline())
        assert reply["event"] == "error"
        assert "bad JSON" in reply["error"]

    def test_non_object_request_is_answered(self, gateway):
        with socket.create_connection(_address(gateway), timeout=10) as sock:
            sock.sendall(b'["op", "solve"]\n')
            reply = json.loads(sock.makefile("r").readline())
        assert reply["event"] == "error"
        assert "must be an object" in reply["error"]

    def test_mid_stream_disconnect_leaves_server_healthy(self, gateway):
        address = _address(gateway)
        request = {
            "op": "solve",
            "cases": [
                {"case_id": f"c{i}", "rows": ["110", "011", "101"]}
                for i in range(4)
            ],
        }
        with socket.create_connection(address, timeout=10) as sock:
            sock.sendall(json.dumps(request).encode() + b"\n")
            sock.recv(64)  # read a fragment, then vanish mid-stream
        # The server must shrug it off and keep serving.
        reply = client.request_once(address, {"op": "ping"}, timeout=10)
        assert reply["event"] == "pong"
        deadline = time.time() + 10
        while time.time() < deadline:
            metrics = client.fetch_metrics(address, timeout=5)
            if metrics["connections"]["active"] == 1:
                break  # only the metrics connection itself remains
            time.sleep(0.05)
        else:
            pytest.fail("abandoned connection never released its gauge")


class TestExactTimeoutSignal:
    def test_sap_budget_stops_enter_degraded_mode(self):
        # SAP stops on its deadline silently: unproven, with no error.
        # Three such solves within the window are the second degraded
        # signal of docs/failure-semantics.md.
        [matrix] = [
            instance.matrix
            for instance in build_corpus(
                ["table1-rand"], profile="quick", seed=2024
            )
            if instance.case_id == "rand-10x10-occ0.5-1"
        ]
        front = SolveGateway(AsyncSolveEngine(), port=0)
        thread = _start(front)
        try:
            for index in range(3):
                events = list(
                    client.submit(
                        _address(front),
                        [(f"c{index}", matrix)],
                        timeout=30,
                        budget_per_member=0.0,
                    )
                )
                [done] = [e for e in events if e["event"] == "done"]
                assert done["provenance"]["optimal"] is False
            health = client.request_once(
                _address(front), {"op": "health"}, timeout=5
            )
        finally:
            _stop(front, thread)
        assert health["status"] == HEALTH_DEGRADED
        assert health["degraded_mode"]["recent_exact_timeouts"] == 3


class TestSolveOnHandlerTask:
    async def test_task_count_does_not_grow_with_the_event_count(self):
        # One case streams one member_finished event per member.  The
        # events are consumed on the handler's own task, so a request
        # creates the same tasks (the EOF watcher and the case) however
        # many events it streams.
        loop = asyncio.get_running_loop()
        created = []

        def counting_factory(loop, coro, **kwargs):
            task = asyncio.Task(coro, loop=loop, **kwargs)
            created.append(task)
            return task

        async def tasks_for(members):
            front = StreamFront(AsyncSolveEngine(members=members, seed=7))
            events = []

            async def send(payload):
                events.append(payload)

            request = {
                "op": "solve",
                "cases": [{"case_id": "a", "rows": ["110", "011"]}],
            }
            before = len(created)
            try:
                # A reader that never reaches EOF: the client stays.
                await front._dispatch(request, send, asyncio.StreamReader())
            finally:
                front.engine.close()
            assert events[-1]["event"] == "batch_done"
            finished = [e for e in events if e["event"] == "member_finished"]
            assert len(finished) == len(members)
            return len(created) - before

        loop.set_task_factory(counting_factory)
        try:
            few = await tasks_for(("trivial",))
            many = await tasks_for(("trivial", "packing:2", "packing:4"))
        finally:
            loop.set_task_factory(None)
        assert few == many

    @staticmethod
    def _slow_request():
        return {
            "op": "solve",
            "cases": [
                {
                    "case_id": "slow",
                    "row_masks": list(SLOW_MATRIX.row_masks),
                    "num_cols": SLOW_MATRIX.num_cols,
                }
            ],
            "budget_per_instance": 20.0,
        }

    async def test_hang_up_cancels_the_solve_and_clears_the_cancel(self):
        front = StreamFront(AsyncSolveEngine(members=("branch_bound",)))
        reader = asyncio.StreamReader()
        asyncio.get_running_loop().call_later(0.2, reader.feed_eof)

        async def send(payload):
            pass

        began = time.monotonic()
        try:
            with pytest.raises(ConnectionResetError):
                await front._dispatch(self._slow_request(), send, reader)
            assert front.engine.stats()["active"] == 0
        finally:
            front.engine.close()
        assert time.monotonic() - began < 10.0  # budget was 20 s
        assert asyncio.current_task().cancelling() == 0

    async def test_another_cancel_propagates_unchanged(self):
        front = StreamFront(AsyncSolveEngine(members=("branch_bound",)))

        async def send(payload):
            pass

        handler = asyncio.create_task(
            front._dispatch(
                self._slow_request(), send, asyncio.StreamReader()
            )
        )
        await asyncio.sleep(0.2)
        handler.cancel()
        try:
            with pytest.raises(asyncio.CancelledError):
                await handler
            assert front.engine.stats()["active"] == 0
        finally:
            front.engine.close()
        assert handler.cancelled()


class TestProcessExecutorEndToEnd:
    def test_member_events_stream_before_done(self):
        """Acceptance: the process pool's member_finished events reach a
        remote client live, each before its case's ``done``."""
        instance = SolveGateway(
            AsyncSolveEngine(
                members=("trivial", "packing:4"),
                seed=7,
                workers=2,
                executor="process",
            ),
            port=0,
        )
        thread = _start(instance)
        try:
            cases = [("fig1b", figure_1b()), ("eq2", equation_2())]
            events = list(
                client.submit(
                    _address(instance), cases, timeout=120, tenant="acme"
                )
            )
            assert events[-1]["event"] == "batch_done"
            assert events[-1]["completed"] == 2
            for case_id in ("fig1b", "eq2"):
                kinds = [
                    e["event"]
                    for e in events
                    if e.get("case_id") == case_id
                ]
                assert kinds.count("member_finished") >= 1
                assert kinds.index("member_finished") < kinds.index(
                    "done"
                ), kinds
            stats = client.request_once(
                _address(instance), {"op": "stats"}, timeout=10
            )["stats"]
            assert stats["executor"] == "process"
            assert stats["solved"] == 2
        finally:
            _stop(instance, thread)


class TestRequestParsing:
    def test_validate_overrides_passes_good_values(self):
        overrides = validate_overrides(
            {
                "members": ["trivial", "packing:4"],
                "seed": 11,
                "budget_per_instance": 2,
                "stop_when_optimal": False,
                "cases": [],  # not an override; ignored
            }
        )
        assert overrides["members"] == ("trivial", "packing:4")
        assert overrides["budget_per_instance"] == 2.0
        assert overrides["stop_when_optimal"] is False

    def test_validate_overrides_rejects_bad_types(self):
        bad = [
            {"members": "trivial"},
            {"seed": True},
            {"budget_per_member": -1},
            {"stop_when_optimal": "yes"},
            {"race": "warp"},
            {"race": "sequential"},
        ]
        for request in bad:
            with pytest.raises(SolverError):
                validate_overrides(request)

    def test_race_is_refused_by_name(self):
        with pytest.raises(SolverError, match="'race' is not a solve option"):
            validate_overrides({"race": "sequential"})

    def test_priority_clamps_to_tenant_class(self):
        tenant = TenantState(TenantConfig("t", priority=5))
        assert parse_priority({}, tenant) == 5
        # May deprioritize itself below its class...
        assert parse_priority({"priority": 9}, tenant) == 9
        # ...but never jump above it.
        assert parse_priority({"priority": 1}, tenant) == 5
        with pytest.raises(SolverError):
            parse_priority({"priority": "high"}, tenant)


def _big_cases():
    """25 random 100x100 cases: a request line of about 80 KB."""
    cases = [
        (f"big{i:02d}", random_matrix(100, 100, 0.3, seed=i))
        for i in range(25)
    ]
    wire = [client.matrix_to_case(case_id, m) for case_id, m in cases]
    assert len(json.dumps(wire)) > 64 * 1024
    return cases


class TestRequestLineLimit:
    def test_request_over_64_kib_is_served(self, gateway):
        events = list(
            client.submit(
                _address(gateway), _big_cases(), timeout=120,
                members=["trivial"],
            )
        )
        assert sum(e["event"] == "done" for e in events) == 25
        assert events[-1]["event"] == "batch_done"

    def test_line_over_the_limit_is_an_error_line(self, monkeypatch):
        monkeypatch.setattr(gateway_module, "REQUEST_LINE_LIMIT", 4096)
        instance = SolveGateway(
            AsyncSolveEngine(members=("trivial",)), port=0
        )
        thread = _start(instance)
        try:
            with pytest.raises(client.DaemonError, match="over 4096 bytes"):
                list(
                    client.submit(
                        _address(instance), _big_cases()[:2], timeout=30
                    )
                )
            # The connection was answered, and the front still serves.
            events = list(
                client.submit(
                    _address(instance), [("eq2", equation_2())], timeout=30
                )
            )
            assert events[-1]["event"] == "batch_done"
        finally:
            _stop(instance, thread)


class TestStoreWriteFailure:
    def test_full_disk_still_ends_the_batch(self, tmp_path, monkeypatch):
        # The answers were already streamed when the flush fails, so
        # the request ends with batch_done, not error.
        cache = ResultCache.sharded(tmp_path / "cache")
        monkeypatch.setattr(cache.storage, "store", _full_disk)
        instance = SolveGateway(
            AsyncSolveEngine(members=("trivial",), seed=7, cache=cache),
            port=0,
        )
        thread = _start(instance)
        try:
            events = list(
                client.submit(
                    _address(instance), [("eq2", equation_2())], timeout=30
                )
            )
            metrics = client.fetch_metrics(_address(instance), timeout=5)
        finally:
            _stop(instance, thread)
        assert [e["event"] for e in events][-2:] == ["done", "batch_done"]
        assert metrics["engine"]["cache"]["store_write_failures"] == 1


class TestStartFailure:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_port_in_use_raises_and_closes_the_engine(self, executor):
        engine = AsyncSolveEngine(members=("trivial",), executor=executor)
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            instance = SolveGateway(engine, port=taken.getsockname()[1])
            with pytest.raises(OSError) as failure:
                asyncio.run(instance.run())
        assert failure.value.errno == errno.EADDRINUSE
        assert engine._executor is None
        assert engine._pool is None

    def test_refused_start_leaves_the_live_socket_file(self, tmp_path):
        path = tmp_path / "s.sock"
        live = SolveGateway(
            AsyncSolveEngine(members=("trivial",)), socket_path=path
        )
        thread = threading.Thread(
            target=lambda: asyncio.run(live.run()), daemon=True
        )
        thread.start()
        try:
            # Listening, not just bound: a refused connect reads as stale.
            deadline = time.time() + 60
            while True:
                try:
                    client.request_once(str(path), {"op": "ping"}, timeout=5)
                    break
                except SolverError:
                    if time.time() > deadline:
                        raise
                    time.sleep(0.01)
            engine = AsyncSolveEngine(members=("trivial",))
            second = SolveGateway(engine, socket_path=path)
            with pytest.raises(SolverError, match="already serving"):
                asyncio.run(second.run())
            assert path.exists()
            assert engine._executor is None
            assert client.request_once(str(path), {"op": "ping"}, timeout=5)
        finally:
            try:
                client.request_once(str(path), {"op": "shutdown"}, timeout=5)
            except SolverError:
                pass
            thread.join(timeout=20)
        assert not thread.is_alive()
        assert not path.exists()
