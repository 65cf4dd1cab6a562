"""Per-rule behavior: each REP rule against minimal fixture trees."""

from __future__ import annotations


def rule_ids(report):
    return [finding.rule_id for finding in report.findings]


class TestRep001GlobalRng:
    def test_global_random_call_flagged(self, make_project, lint):
        root = make_project(
            {
                "src/repro/solvers/foo.py": """
                import random

                def pick():
                    return random.randint(0, 5)
                """
            }
        )
        report = lint(root, rules="REP001")
        assert rule_ids(report) == ["REP001"]
        assert "random.randint" in report.findings[0].message

    def test_unseeded_random_constructor_flagged(self, make_project, lint):
        root = make_project(
            {
                "src/repro/solvers/foo.py": """
                import random

                RNG = random.Random()
                """
            }
        )
        report = lint(root, rules="REP001")
        assert rule_ids(report) == ["REP001"]

    def test_seeded_random_ok(self, make_project, lint):
        root = make_project(
            {
                "src/repro/solvers/foo.py": """
                import random

                RNG = random.Random(2024)
                """
            }
        )
        assert lint(root, rules="REP001").findings == []

    def test_from_import_of_global_fn_flagged(self, make_project, lint):
        root = make_project(
            {
                "examples/demo.py": """
                from random import shuffle

                def mix(items):
                    shuffle(items)
                """
            }
        )
        report = lint(root, rules="REP001")
        assert rule_ids(report) == ["REP001"]
        assert "shuffle" in report.findings[0].message

    def test_from_import_of_random_class_ok(self, make_project, lint):
        root = make_project(
            {
                "examples/demo.py": """
                from random import Random

                RNG = Random(7)
                """
            }
        )
        assert lint(root, rules="REP001").findings == []

    def test_np_random_flagged(self, make_project, lint):
        root = make_project(
            {
                "benchmarks/bench_x.py": """
                import numpy as np

                def noise(n):
                    return np.random.rand(n)
                """
            }
        )
        report = lint(root, rules="REP001")
        assert rule_ids(report) == ["REP001"]
        assert "np.random.rand" in report.findings[0].message

    def test_rng_home_is_exempt(self, make_project, lint):
        root = make_project(
            {
                "src/repro/utils/rng.py": """
                import random

                def fresh():
                    return random.Random()
                """
            }
        )
        assert lint(root, rules="REP001").findings == []


class TestRep002WallClock:
    def test_time_time_in_scope_flagged(self, make_project, lint):
        root = make_project(
            {
                "src/repro/service/foo.py": """
                import time

                def deadline():
                    return time.time() + 5
                """
            }
        )
        report = lint(root, rules="REP002")
        assert rule_ids(report) == ["REP002"]

    def test_monotonic_ok(self, make_project, lint):
        root = make_project(
            {
                "src/repro/service/foo.py": """
                import time

                def deadline():
                    return time.monotonic() + 5
                """
            }
        )
        assert lint(root, rules="REP002").findings == []

    def test_out_of_scope_not_flagged(self, make_project, lint):
        root = make_project(
            {
                "src/repro/viz/foo.py": """
                import time

                def stamp():
                    return time.time()
                """
            }
        )
        assert lint(root, rules="REP002").findings == []

    def test_datetime_now_flagged(self, make_project, lint):
        root = make_project(
            {
                "src/repro/solvers/foo.py": """
                from datetime import datetime

                def stamp():
                    return datetime.now()
                """
            }
        )
        report = lint(root, rules="REP002")
        assert rule_ids(report) == ["REP002"]

    def test_from_time_import_time_flagged(self, make_project, lint):
        root = make_project(
            {
                "benchmarks/bench_y.py": """
                from time import time
                """
            }
        )
        report = lint(root, rules="REP002")
        assert rule_ids(report) == ["REP002"]


class TestRep003BlockingInAsync:
    def test_sleep_in_coroutine_flagged(self, make_project, lint):
        root = make_project(
            {
                "src/repro/server/foo.py": """
                import time

                async def handler():
                    time.sleep(1)
                """
            }
        )
        report = lint(root, rules="REP003")
        assert rule_ids(report) == ["REP003"]

    def test_subprocess_and_flock_flagged(self, make_project, lint):
        root = make_project(
            {
                "src/repro/server/foo.py": """
                import fcntl
                import subprocess

                async def handler(handle):
                    subprocess.run(["ls"])
                    fcntl.flock(handle, fcntl.LOCK_EX)
                """
            }
        )
        assert rule_ids(lint(root, rules="REP003")) == ["REP003", "REP003"]

    def test_locked_file_helper_flagged(self, make_project, lint):
        root = make_project(
            {
                "src/repro/server/foo.py": """
                from repro.utils.fileio import locked_file

                async def handler(path):
                    with locked_file(path):
                        pass
                """
            }
        )
        assert rule_ids(lint(root, rules="REP003")) == ["REP003"]

    def test_sync_function_not_flagged(self, make_project, lint):
        root = make_project(
            {
                "src/repro/server/foo.py": """
                import time

                def helper():
                    time.sleep(1)
                """
            }
        )
        assert lint(root, rules="REP003").findings == []

    def test_nested_sync_def_is_executor_thunk(self, make_project, lint):
        root = make_project(
            {
                "src/repro/server/foo.py": """
                import asyncio
                import time

                async def handler(loop):
                    def thunk():
                        time.sleep(1)

                    await loop.run_in_executor(None, thunk)
                """
            }
        )
        assert lint(root, rules="REP003").findings == []

    def test_outside_server_not_flagged(self, make_project, lint):
        root = make_project(
            {
                "src/repro/service/foo.py": """
                import time

                async def handler():
                    time.sleep(1)
                """
            }
        )
        assert lint(root, rules="REP003").findings == []


class TestRep004SpawnSafety:
    def test_lambda_submit_flagged(self, make_project, lint):
        root = make_project(
            {
                "src/repro/service/foo.py": """
                from concurrent.futures import ProcessPoolExecutor

                def run(values):
                    with ProcessPoolExecutor() as pool:
                        return [pool.submit(lambda v: v + 1, v) for v in values]
                """
            }
        )
        report = lint(root, rules="REP004")
        assert rule_ids(report) == ["REP004"]
        assert "lambda" in report.findings[0].message

    def test_nested_function_submit_flagged(self, make_project, lint):
        root = make_project(
            {
                "src/repro/service/foo.py": """
                from concurrent.futures import ProcessPoolExecutor

                def run(value):
                    def work():
                        return value + 1

                    with ProcessPoolExecutor() as pool:
                        return pool.submit(work)
                """
            }
        )
        report = lint(root, rules="REP004")
        assert rule_ids(report) == ["REP004"]
        assert "work" in report.findings[0].message

    def test_module_level_callable_ok(self, make_project, lint):
        root = make_project(
            {
                "src/repro/service/foo.py": """
                from concurrent.futures import ProcessPoolExecutor

                def work(value):
                    return value + 1

                def run(value):
                    with ProcessPoolExecutor() as pool:
                        return pool.submit(work, value)
                """
            }
        )
        assert lint(root, rules="REP004").findings == []

    def test_thread_only_module_not_flagged(self, make_project, lint):
        root = make_project(
            {
                "src/repro/service/foo.py": """
                from concurrent.futures import ThreadPoolExecutor

                def run(values):
                    with ThreadPoolExecutor() as pool:
                        return [pool.submit(lambda v: v + 1, v) for v in values]
                """
            }
        )
        assert lint(root, rules="REP004").findings == []

    def test_partial_over_lambda_flagged(self, make_project, lint):
        root = make_project(
            {
                "src/repro/service/foo.py": """
                from functools import partial
                from concurrent.futures import ProcessPoolExecutor

                def run(value):
                    with ProcessPoolExecutor() as pool:
                        return pool.submit(partial(lambda v: v, value))
                """
            }
        )
        assert rule_ids(lint(root, rules="REP004")) == ["REP004"]

    def test_process_target_flagged(self, make_project, lint):
        root = make_project(
            {
                "src/repro/service/foo.py": """
                import multiprocessing

                def worker_main(conn):
                    conn.close()

                def start(conn):
                    def run():
                        worker_main(conn)

                    ctx = multiprocessing.get_context("forkserver")
                    ok = ctx.Process(target=worker_main, args=(conn,))
                    nested = ctx.Process(target=run)
                    bare = multiprocessing.Process(target=lambda: None)
                    return ok, nested, bare
                """
            }
        )
        report = lint(root, rules="REP004")
        assert rule_ids(report) == ["REP004", "REP004"]
        messages = sorted(finding.message for finding in report.findings)
        assert "lambda passed to Process(target=...)" in messages[0]
        assert "nested function 'run'" in messages[1]


class TestRep005SortedJson:
    def test_missing_sort_keys_flagged(self, make_project, lint):
        root = make_project(
            {
                "benchmarks/bench_z.py": """
                import json

                def record(payload, stream):
                    json.dump(payload, stream, indent=2)
                """
            }
        )
        report = lint(root, rules="REP005")
        assert rule_ids(report) == ["REP005"]

    def test_sort_keys_false_flagged(self, make_project, lint):
        root = make_project(
            {
                "src/repro/corpus/foo.py": """
                import json

                def record(payload, stream):
                    json.dump(payload, stream, sort_keys=False)
                """
            }
        )
        assert rule_ids(lint(root, rules="REP005")) == ["REP005"]

    def test_sort_keys_true_ok(self, make_project, lint):
        root = make_project(
            {
                "benchmarks/bench_z.py": """
                import json

                def record(payload, stream):
                    json.dump(payload, stream, sort_keys=True)
                """
            }
        )
        assert lint(root, rules="REP005").findings == []

    def test_forwarded_sort_keys_ok(self, make_project, lint):
        root = make_project(
            {
                "src/repro/utils/foo.py": """
                import json

                def record(payload, stream, sort_keys):
                    json.dump(payload, stream, sort_keys=sort_keys)
                """
            }
        )
        assert lint(root, rules="REP005").findings == []

    def test_out_of_scope_not_flagged(self, make_project, lint):
        root = make_project(
            {
                "src/repro/atoms/foo.py": """
                import json

                def record(payload, stream):
                    json.dump(payload, stream)
                """
            }
        )
        assert lint(root, rules="REP005").findings == []


class TestRep006ShardIo:
    def test_shard_open_outside_helpers_flagged(self, make_project, lint):
        root = make_project(
            {
                "src/repro/service/foo.py": """
                def peek(shard_path):
                    with open(shard_path) as stream:
                        return stream.read()
                """
            }
        )
        report = lint(root, rules="REP006")
        assert rule_ids(report) == ["REP006"]

    def test_shards_module_helpers_allowed(self, make_project, lint):
        root = make_project(
            {
                "src/repro/server/shards.py": """
                def _read_shard(shard):
                    with open(shard) as stream:
                        return stream.read()

                def rogue(shard):
                    with open(shard) as stream:
                        return stream.read()
                """
            }
        )
        report = lint(root, rules="REP006")
        assert rule_ids(report) == ["REP006"]
        assert report.findings[0].line_text.startswith("with open(shard)")

    def test_non_shard_open_ok(self, make_project, lint):
        root = make_project(
            {
                "src/repro/service/foo.py": """
                def peek(path):
                    with open(path) as stream:
                        return stream.read()
                """
            }
        )
        assert lint(root, rules="REP006").findings == []


class TestRep007SilentExcept:
    def test_bare_except_pass_flagged(self, make_project, lint):
        root = make_project(
            {
                "src/repro/server/foo.py": """
                def recover(work):
                    try:
                        work()
                    except:
                        pass
                """
            }
        )
        report = lint(root, rules="REP007")
        assert rule_ids(report) == ["REP007"]
        assert "bare except" in report.findings[0].message

    def test_broad_tuple_pass_flagged(self, make_project, lint):
        root = make_project(
            {
                "src/repro/service/foo.py": """
                def recover(work):
                    try:
                        work()
                    except (ValueError, Exception):
                        pass
                """
            }
        )
        assert rule_ids(lint(root, rules="REP007")) == ["REP007"]

    def test_narrow_except_pass_ok(self, make_project, lint):
        root = make_project(
            {
                "src/repro/server/foo.py": """
                def recover(work):
                    try:
                        work()
                    except OSError:
                        pass
                """
            }
        )
        assert lint(root, rules="REP007").findings == []

    def test_logged_broad_except_ok(self, make_project, lint):
        root = make_project(
            {
                "src/repro/server/foo.py": """
                import logging

                def recover(work):
                    try:
                        work()
                    except Exception:
                        logging.getLogger(__name__).warning("recovering")
                """
            }
        )
        assert lint(root, rules="REP007").findings == []

    def test_out_of_scope_not_flagged(self, make_project, lint):
        root = make_project(
            {
                "src/repro/core/foo.py": """
                def recover(work):
                    try:
                        work()
                    except Exception:
                        pass
                """
            }
        )
        assert lint(root, rules="REP007").findings == []


FAULTS_STUB = """
from dataclasses import dataclass
from typing import Optional


@dataclass
class FaultPlan:
    kill_worker_on_case: Optional[str] = None
    corrupt_shard_on_write: bool = False
"""


class TestRep008SeamCoverage:
    def test_uncovered_seam_flagged(self, make_project, lint):
        root = make_project(
            {
                "src/repro/service/faults.py": FAULTS_STUB,
                "tests/chaos/test_kill.py": """
                def test_kill():
                    assert "kill_worker_on_case"
                """,
            }
        )
        report = lint(root, rules="REP008")
        assert rule_ids(report) == ["REP008"]
        assert "corrupt_shard_on_write" in report.findings[0].message

    def test_all_seams_covered_ok(self, make_project, lint):
        root = make_project(
            {
                "src/repro/service/faults.py": FAULTS_STUB,
                "tests/chaos/test_kill.py": """
                def test_kill():
                    assert "kill_worker_on_case" and "corrupt_shard_on_write"
                """,
            }
        )
        assert lint(root, rules="REP008").findings == []

    def test_missing_chaos_suite_flagged(self, make_project, lint):
        root = make_project(
            {"src/repro/service/faults.py": FAULTS_STUB}
        )
        report = lint(root, rules="REP008")
        assert rule_ids(report) == ["REP008"]
        assert "no tests at all" in report.findings[0].message

    def test_uncovered_delay_site_flagged(self, make_project, lint):
        root = make_project(
            {
                "src/repro/service/faults.py": FAULTS_STUB,
                "src/repro/service/worker.py": """
                from repro.service import faults

                def work():
                    faults.delay("worker.obscure")
                """,
                "tests/chaos/test_kill.py": """
                def test_kill():
                    assert "kill_worker_on_case" and "corrupt_shard_on_write"
                """,
            }
        )
        report = lint(root, rules="REP008")
        assert rule_ids(report) == ["REP008"]
        assert "worker.obscure" in report.findings[0].message
        assert report.findings[0].path == "src/repro/service/worker.py"

    def test_partial_scan_skips_rule(self, make_project, lint):
        root = make_project(
            {
                "src/repro/solvers/foo.py": "X = 1\n",
            }
        )
        assert lint(root, rules="REP008").findings == []


class TestRep009StoreArtifactWrites:
    def test_journal_write_outside_helpers_flagged(self, make_project, lint):
        root = make_project(
            {
                "src/repro/server/foo.py": """
                from repro.utils.fileio import atomic_write_json

                def checkpoint(tier, payload):
                    atomic_write_json(tier.journal_path(), payload)
                """
            }
        )
        report = lint(root, rules="REP009")
        assert rule_ids(report) == ["REP009"]
        assert "journal_path" in report.findings[0].message

    def test_raw_index_open_for_write_flagged(self, make_project, lint):
        root = make_project(
            {
                "src/repro/service/foo.py": """
                def stamp(root):
                    with open(root / "cache-index.json", "w") as stream:
                        stream.write("{}")
                """
            }
        )
        report = lint(root, rules="REP009")
        assert rule_ids(report) == ["REP009"]

    def test_write_text_on_store_config_flagged(self, make_project, lint):
        root = make_project(
            {
                "src/repro/server/foo.py": """
                def configure(root):
                    (root / "store-config.json").write_text("{}")
                """
            }
        )
        report = lint(root, rules="REP009")
        assert rule_ids(report) == ["REP009"]

    def test_index_log_append_outside_its_helper_flagged(
        self, make_project, lint
    ):
        root = make_project(
            {
                "src/repro/server/shards.py": """
                def _log_handle(self):
                    return open(self.index_log_path(), "a+b", buffering=0)

                def stamp(self, line):
                    with open(self.index_log_path(), "ab") as stream:
                        stream.write(line)
                """
            }
        )
        report = lint(root, rules="REP009")
        assert rule_ids(report) == ["REP009"]
        assert "index_log_path" in report.findings[0].message
        assert report.findings[0].line_text.startswith("with open(")

    def test_allowlisted_helpers_pass(self, make_project, lint):
        root = make_project(
            {
                "src/repro/server/store_gc.py": """
                from repro.utils.fileio import atomic_write_json

                def _write_journal(tier, payload):
                    atomic_write_json(tier.journal_path(), payload)
                """,
                "src/repro/server/shards.py": """
                from repro.utils.fileio import atomic_write_json

                def _write_index(self, payload):
                    atomic_write_json(self.index_path(), payload)

                def _persist_limits(self, limits):
                    atomic_write_json(self.config_path(), limits)
                """,
            }
        )
        assert lint(root, rules="REP009").findings == []

    def test_same_function_name_elsewhere_still_flagged(
        self, make_project, lint
    ):
        # The allowlist is (module, function) pairs, not bare names.
        root = make_project(
            {
                "src/repro/service/foo.py": """
                from repro.utils.fileio import atomic_write_json

                def _write_journal(tier, payload):
                    atomic_write_json(tier.journal_path(), payload)
                """
            }
        )
        report = lint(root, rules="REP009")
        assert rule_ids(report) == ["REP009"]

    def test_reads_and_unrelated_writes_ok(self, make_project, lint):
        root = make_project(
            {
                "src/repro/server/foo.py": """
                from repro.utils.fileio import atomic_write_json

                def read_journal(tier):
                    with open(tier.journal_path()) as stream:
                        return stream.read()

                def write_report(path, payload):
                    atomic_write_json(path, payload)

                def write_notes(root):
                    (root / "notes.txt").write_text("hi")
                """
            }
        )
        assert lint(root, rules="REP009").findings == []


class TestParseErrors:
    def test_syntax_error_reported_as_rep000(self, make_project, lint):
        root = make_project(
            {"src/repro/solvers/broken.py": "def broken(:\n    pass\n"}
        )
        report = lint(root)
        assert rule_ids(report) == ["REP000"]
        assert "does not parse" in report.findings[0].message
