"""``repro serve`` and ``repro gateway`` started the way a user starts them.

``serve`` runs through :func:`repro.cli.main` on a thread, ``gateway``
as ``python -m repro`` in a subprocess; both are then driven over their
sockets until a ``shutdown`` op ends them with exit code 0.  The guard
at the end pins that every portfolio subcommand parses the library's
defaults.
"""

import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.core.exceptions import SolverError
from repro.corpus.registry import family_names
from repro.server import client
from repro.service.portfolio import DEFAULT_PORTFOLIO

REPO_ROOT = Path(__file__).resolve().parents[2]

PORTFOLIO_COMMANDS = [
    ["solve-batch", "p.txt"],
    ["serve"],
    ["gateway"],
    ["scoreboard", "run"],
    ["scoreboard", "diff", "--baseline", "b.json"],
    ["scoreboard", "update-baseline", "--baseline", "b.json"],
]
"""The commands with the full portfolio flag set, minimal arguments."""


def _wait_for_ping(address, deadline_s: float = 60.0) -> None:
    deadline = time.time() + deadline_s
    while True:
        try:
            client.request_once(address, {"op": "ping"}, timeout=5)
            return
        except SolverError:
            if time.time() > deadline:
                raise
            time.sleep(0.05)


class TestServe:
    def test_serve_banner_cache_health_and_shutdown(
        self, tmp_path, capsys
    ):
        socket_path = str(tmp_path / "s.sock")
        pattern = tmp_path / "p.txt"
        pattern.write_text("110\n011\n111\n")
        argv = ["serve", "--socket", socket_path,
                "--cache-dir", str(tmp_path / "cache")]
        exit_codes = []
        thread = threading.Thread(
            target=lambda: exit_codes.append(main(argv)), daemon=True
        )
        thread.start()
        try:
            # The banner is printed before the front serves a request.
            _wait_for_ping(socket_path)
            assert f"serving on {socket_path} " in capsys.readouterr().out
            for source in ("solved", "cache"):
                assert main(["submit", str(pattern),
                             "--socket", socket_path]) == 0
                out = capsys.readouterr().out
                assert f"p.txt: depth 3 ({source})" in out
            assert main(["health", "--socket", socket_path]) == 0
            health = json.loads(capsys.readouterr().out)
            assert health["status"] == "ready"
        finally:
            try:
                client.request_once(
                    socket_path, {"op": "shutdown"}, timeout=5
                )
            except SolverError:
                pass  # never came up; the assertions below report it
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert exit_codes == [0]


class TestGateway:
    def test_gateway_admits_by_default_and_exits_zero(self):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "gateway", "--port", "0"],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            banner = process.stdout.readline()
            match = re.match(r"gateway on ([\d.]+):(\d+) ", banner)
            assert match, banner
            address = (match.group(1), int(match.group(2)))
            metrics = client.fetch_metrics(address, timeout=10)
            assert metrics["queue"]["max_in_flight"] == 4
            client.request_once(address, {"op": "shutdown"}, timeout=10)
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)
            process.stdout.close()

    @pytest.mark.parametrize(
        ("argv", "problem"),
        [
            (["--max-in-flight", "0"], "max_in_flight must be >= 1, got 0"),
            (["--max-waiting", "-1"], "max_waiting must be >= 0, got -1"),
        ],
    )
    def test_bad_admission_limits_exit_2_without_binding(
        self, monkeypatch, capsys, argv, problem
    ):
        from repro.server.gateway import SolveGateway

        def run(self, **kwargs):
            raise AssertionError("the gateway started")

        monkeypatch.setattr(SolveGateway, "run", run)
        assert main(["gateway", *argv, "--port", "0"]) == 2
        assert f"error: {problem}" in capsys.readouterr().err

    def test_given_limits_keep_the_others_defaults(self):
        from repro.cli import _traffic_policy

        args = build_parser().parse_args(["serve", "--max-waiting", "0"])
        _, admission = _traffic_policy(args)
        assert (admission.max_in_flight, admission.max_waiting) == (4, 0)
        args = build_parser().parse_args(["serve"])
        assert _traffic_policy(args) == (None, None)


def _name(argv):
    return " ".join(argv[:2])


class TestPortfolioFlags:
    @pytest.mark.parametrize(
        "argv", [*PORTFOLIO_COMMANDS, ["cache", "prewarm", "d"]], ids=_name
    )
    def test_members_default_to_the_library_portfolio(self, argv):
        assert build_parser().parse_args(argv).members == DEFAULT_PORTFOLIO

    @pytest.mark.parametrize(
        "argv", [["scoreboard", "run"], ["cache", "prewarm", "d"]], ids=_name
    )
    def test_families_parse_like_members(self, argv):
        parser = build_parser()
        args = parser.parse_args([*argv, "--families", "a,,b"])
        assert args.families == ("a", "b")
        assert parser.parse_args(argv).families is None

    def test_empty_families_mean_all_families(self, capsys):
        assert main(["scoreboard", "list", "--profile", "smoke",
                     "--families", ""]) == 0
        listed = capsys.readouterr().out
        assert all(name in listed for name in family_names())
