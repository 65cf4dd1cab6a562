"""Gateway/client round trips over a real unix socket.

The gateway, given a socket path, runs on a background thread's event
loop (exactly how ``python -m repro serve`` hosts it) while the
synchronous client talks to it from the test thread — the same
topology as production.
"""

import asyncio
import os
import socket
import threading
import time

import pytest

from repro.benchgen.random_matrices import random_matrix
from repro.core.paper_matrices import equation_2, figure_1b, figure_3
from repro.server import client
from repro.server.gateway import (
    SolveGateway,
    check_socket_path,
    default_socket_path,
    parse_case,
)
from repro.server.engine import AsyncSolveEngine
from repro.core.exceptions import SolverError

MEMBERS = ("trivial", "packing:4", "sap")


@pytest.fixture
def daemon(tmp_path):
    """A live daemon on a tmp socket; torn down via the shutdown op."""
    import asyncio

    socket_path = tmp_path / "solve.sock"
    engine = AsyncSolveEngine(members=MEMBERS, seed=7, workers=2)
    instance = SolveGateway(engine, socket_path=socket_path)
    ready = threading.Event()

    def run() -> None:
        asyncio.run(instance.run(on_ready=lambda _: ready.set()))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    # on_ready fires once the socket listens; the file alone appears at
    # bind, a moment before connects are accepted.
    if not ready.wait(timeout=10):
        pytest.fail("daemon socket never appeared")
    yield socket_path
    try:
        client.request_once(socket_path, {"op": "shutdown"}, timeout=5)
    except SolverError:
        pass  # already shut down by the test
    thread.join(timeout=10)
    assert not thread.is_alive()


class TestOps:
    def test_ping_reports_engine_stats(self, daemon):
        reply = client.request_once(daemon, {"op": "ping"}, timeout=5)
        assert reply["event"] == "pong"
        assert reply["stats"]["members"] == list(MEMBERS)

    def test_unknown_op_is_an_error(self, daemon):
        with pytest.raises(client.DaemonError):
            client.request_once(daemon, {"op": "frobnicate"}, timeout=5)

    def test_cancel_unknown_case(self, daemon):
        reply = client.request_once(
            daemon, {"op": "cancel", "case_id": "nope"}, timeout=5
        )
        assert reply == {
            "event": "cancel", "case_id": "nope", "cancelled": False,
        }

    def test_solve_streams_events_and_terminates(self, daemon):
        cases = [("fig1b", figure_1b()), ("eq2", equation_2())]
        events = list(
            client.submit(daemon, cases, timeout=30)
        )
        kinds = [e["event"] for e in events]
        assert kinds[-1] == "batch_done"
        done = [e for e in events if e["event"] == "done"]
        assert {e["case_id"] for e in done} == {"fig1b", "eq2"}
        for record in done:
            assert record["provenance"]["optimal"] is True
            assert "members" in record["provenance"]

    def test_repeated_requests_share_the_engine(self, daemon):
        cases = [("fig3", figure_3())]
        list(client.submit(daemon, cases, timeout=30))
        list(client.submit(daemon, cases, timeout=30))
        reply = client.request_once(daemon, {"op": "stats"}, timeout=5)
        assert reply["stats"]["solved"] == 2

    def test_collect_returns_done_records(self, daemon):
        records = client.collect(
            daemon, [("fig1b", figure_1b())], timeout=30
        )
        assert len(records) == 1
        assert records[0]["provenance"]["winner"] in MEMBERS

    def test_solve_rejects_bad_members(self, daemon):
        with pytest.raises(client.DaemonError):
            list(
                client.submit(
                    daemon,
                    [("x", figure_3())],
                    timeout=30,
                    members=("magic:3",),
                )
            )

    def test_solve_rejects_empty_cases(self, daemon):
        # stream_request exposes raw error events; submit raises on them.
        events = list(
            client.stream_request(
                daemon, {"op": "solve", "cases": []}, timeout=5
            )
        )
        assert events[0]["event"] == "error"

    def test_malformed_overrides_always_get_an_answer(self, daemon):
        # These used to blow up inside the engine after the stream had
        # begun, killing the connection with no error line at all.
        for overrides in (
            {"budget_per_instance": "cheap"},
            {"seed": 1.5},
            {"members": 7},
            {"stop_when_optimal": "maybe"},
        ):
            events = list(
                client.stream_request(
                    daemon,
                    {
                        "op": "solve",
                        "cases": [{"case_id": "a", "rows": ["10", "01"]}],
                        **overrides,
                    },
                    timeout=10,
                )
            )
            assert len(events) == 1, overrides
            assert events[0]["event"] == "error", overrides

    def test_request_over_64_kib_is_served(self, daemon):
        cases = [
            (f"big{i:02d}", random_matrix(100, 100, 0.3, seed=i))
            for i in range(25)
        ]
        events = list(
            client.submit(daemon, cases, timeout=120, members=["trivial"])
        )
        assert sum(e["event"] == "done" for e in events) == 25
        assert events[-1]["event"] == "batch_done"

    def test_stats_split_active_and_lifetime_connections(self, daemon):
        client.request_once(daemon, {"op": "ping"}, timeout=5)
        reply = client.request_once(daemon, {"op": "stats"}, timeout=5)
        connections = reply["server"]["connections"]
        # The stats connection itself is the only active one; the ping
        # (and the fixture's startup traffic) count toward the total.
        assert connections["active"] == 1
        assert connections["total"] >= 2
        assert connections["total"] > connections["active"]


class TestSocketPaths:
    def test_overlong_socket_path_is_a_clear_error(self, tmp_path):
        deep = tmp_path / ("x" * 120) / "solve.sock"
        with pytest.raises(SolverError, match="AF_UNIX"):
            check_socket_path(deep)

    def test_daemon_refuses_overlong_path_before_binding(self, tmp_path):
        deep = tmp_path / ("x" * 120) / "solve.sock"
        daemon = SolveGateway(
            AsyncSolveEngine(members=("trivial",), workers=1),
            socket_path=deep,
        )
        with pytest.raises(SolverError, match="AF_UNIX"):
            asyncio.run(daemon.run())

    def test_default_socket_path_prefers_runtime_dir(self, monkeypatch):
        monkeypatch.setenv("XDG_RUNTIME_DIR", "/run/user/1000")
        assert default_socket_path().startswith("/run/user/1000/")

    def test_default_socket_path_falls_back_to_tmp(self, monkeypatch):
        monkeypatch.setenv("XDG_RUNTIME_DIR", "/run/" + "deep/" * 30)
        path = default_socket_path()
        assert path.startswith("/tmp/")
        check_socket_path(path)  # the fallback must itself be bindable

    def test_stale_socket_is_reclaimed(self, tmp_path):
        socket_path = tmp_path / "solve.sock"
        # A dead daemon's leftover: a bound-then-abandoned socket file.
        stale = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        stale.bind(str(socket_path))
        stale.close()
        assert socket_path.exists()

        daemon = SolveGateway(
            AsyncSolveEngine(members=("trivial",), workers=1),
            socket_path=socket_path,
        )
        thread = threading.Thread(
            target=lambda: asyncio.run(daemon.run()), daemon=True
        )
        thread.start()
        try:
            for _ in range(500):
                try:
                    reply = client.request_once(
                        socket_path, {"op": "ping"}, timeout=2
                    )
                    break
                except SolverError:
                    time.sleep(0.01)
            else:
                pytest.fail("daemon never reclaimed the stale socket")
            assert reply["event"] == "pong"
        finally:
            try:
                client.request_once(
                    socket_path, {"op": "shutdown"}, timeout=5
                )
            except SolverError:
                pass
            thread.join(timeout=10)

    def test_live_socket_is_not_stolen(self, daemon):
        second = SolveGateway(
            AsyncSolveEngine(members=("trivial",), workers=1),
            socket_path=daemon,
        )
        with pytest.raises(SolverError, match="already serving"):
            asyncio.run(second.run())


class TestWireParsing:
    def test_parse_case_rows(self):
        item = parse_case({"case_id": "a", "rows": ["10", "01"]}, 0)
        assert item.case_id == "a"
        assert item.matrix.shape == (2, 2)

    def test_parse_case_masks(self):
        item = parse_case({"row_masks": [3, 1], "num_cols": 2}, 4)
        assert item.case_id == "case-0004"
        assert item.matrix.row_masks == (3, 1)

    def test_parse_case_rejects_garbage(self):
        with pytest.raises(SolverError):
            parse_case({"case_id": "x"}, 0)
        with pytest.raises(SolverError):
            parse_case("not-an-object", 0)

    def test_client_reports_missing_daemon(self, tmp_path):
        with pytest.raises(SolverError, match="cannot reach"):
            client.request_once(
                tmp_path / "absent.sock", {"op": "ping"}, timeout=2
            )
