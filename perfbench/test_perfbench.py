"""Tests of the benchmark harness's own logic.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import pb_check  # noqa: E402
import pb_host  # noqa: E402
import pb_layers  # noqa: E402
import pb_report  # noqa: E402
import pb_trace  # noqa: E402
import pb_workloads  # noqa: E402


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def test_percentile_is_nearest_rank_with_samples_beyond():
    samples = list(range(100, 0, -1))  # 1..100, unsorted
    assert pb_report.percentile(samples, 50) == (50, 50)
    assert pb_report.percentile(samples, 95) == (95, 5)
    assert pb_report.percentile(samples, 100) == (100, 0)
    assert pb_report.percentile([7.5], 95) == (7.5, 0)
    assert pb_report.percentile([3, 1, 2], 50) == (2, 1)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        pb_report.percentile([], 50)
    with pytest.raises(ValueError):
        pb_report.percentile([1.0], 0)


def test_highest_supported_percentile_keeps_ten_samples_beyond():
    assert pb_report.highest_supported_percentile(200) == 95.0
    assert pb_report.highest_supported_percentile(100) == 90.0
    assert pb_report.highest_supported_percentile(1000) == 99.0
    assert pb_report.highest_supported_percentile(10) is None
    for count in (20, 57, 200, 1041):
        q = pb_report.highest_supported_percentile(count)
        _, beyond = pb_report.percentile(list(range(count)), q)
        assert beyond >= 10


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
def test_pass_scales_use_the_references_that_bracket_each_pass():
    ref = pb_host.REFERENCE_S
    assert pb_host.pass_scales([ref, ref, 2 * ref, 2 * ref]) == pytest.approx(
        [1.0, 2.0 / 3.0, 0.5]
    )
    assert pb_host.pass_scales([ref]) == []


def test_the_reference_work_is_fixed():
    from repro.linalg.exact_rank import rank_over_q

    assert pb_host._eliminate(pb_host._MATRIX) == rank_over_q(pb_host._MATRIX) == 69
    assert sum(map(sum, pb_host._MATRIX)) == 1465
    assert pb_host.reference_time() > 0


# ----------------------------------------------------------------------
# Spans and self time
# ----------------------------------------------------------------------
def _span(sid, parent, name, start, end, pid=1):
    return (pid, sid, parent, name, "r", start, end)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(1, 0, "root", 0.0, 10.0),
        _span(2, 1, "a", 1.0, 4.0),
        _span(3, 1, "b", 3.0, 6.0),  # overlaps a: counts once
        _span(4, 2, "leaf", 2.0, 3.0),
        _span(5, 1, "late", 9.0, 12.0),  # clipped to the parent
    ]
    times = pb_trace.layer_times(spans)
    assert times["root"]["self_s"] == pytest.approx(10 - 5 - 1)
    assert times["a"]["self_s"] == pytest.approx(2.0)
    assert times["b"]["self_s"] == pytest.approx(3.0)
    assert times["leaf"]["self_s"] == pytest.approx(1.0)
    assert times["late"]["busy_s"] == pytest.approx(3.0)
    assert times["root"]["calls"] == 1


def test_self_time_keeps_processes_apart():
    spans = [
        _span(1, 0, "root", 0.0, 4.0, pid=1),
        _span(2, 1, "child", 0.0, 1.0, pid=1),
        _span(1, 0, "root", 0.0, 4.0, pid=2),  # same ids, other process
    ]
    assert pb_trace.layer_times(spans)["root"]["self_s"] == pytest.approx(7.0)


def test_unattributed_frac_counts_only_uncovered_time():
    spans = [_span(1, 0, "x", 1.0, 3.0), _span(2, 1, "y", 2.0, 4.0)]
    assert pb_trace.unattributed_frac(spans, [(0.0, 4.0)]) == pytest.approx(0.25)
    assert pb_trace.unattributed_frac(
        spans, [(0.0, 2.0), (10.0, 12.0)]
    ) == pytest.approx(0.75)


def test_harness_spans_are_no_coverage():
    spans = [
        _span(1, 0, "scoreboard", 0.0, 10.0),
        _span(2, 1, "portfolio", 1.0, 6.0),
        _span(3, 0, "client", 6.0, 10.0),
        _span(1, 0, "worker.solve", 6.0, 10.0, pid=2),  # another process
    ]
    metrics = pb_layers.per_layer_metrics(
        spans, {}, passes=1, windows=[(0.0, 10.0)], main_pid=1,
        traced_pass_s=1.0, untraced_pass_s=1.0,
    )
    assert metrics["trace.unattributed_frac"] == pytest.approx(0.5)
    assert metrics["portfolio.busy_s"] == pytest.approx(5.0)


def test_wrapped_calls_nest_and_carry_the_request_id():
    tracer = pb_trace.Tracer()

    def inner(x):
        return x + 1

    wrapped_inner = tracer.wrap(inner, "inner")

    def outer(x):
        return wrapped_inner(x) * 2

    wrapped_outer = tracer.wrap(
        outer, "outer", rid_of=lambda args, kwargs: f"req-{args[0]}"
    )
    assert wrapped_outer(3) == 8
    by_name = {span[3]: span for span in tracer.spans}
    assert by_name["inner"][2] == by_name["outer"][1]
    assert by_name["outer"][2] == 0
    assert by_name["inner"][4] == by_name["outer"][4] == "req-3"
    outer_start, outer_end = by_name["outer"][5:]
    inner_start, inner_end = by_name["inner"][5:]
    assert outer_start <= inner_start <= inner_end <= outer_end


def test_async_spans_nest_per_task():
    tracer = pb_trace.Tracer()

    async def leaf():
        await asyncio.sleep(0)

    traced_leaf = tracer.wrap(leaf, "leaf")

    async def handler(name):
        await asyncio.gather(traced_leaf(), traced_leaf())

    traced_handler = tracer.wrap(
        handler, "handler", rid_of=lambda args, kwargs: args[0]
    )

    async def main():
        await asyncio.gather(traced_handler("a"), traced_handler("b"))

    asyncio.run(main())
    handlers = {span[4]: span[1] for span in tracer.spans if span[3] == "handler"}
    leaves = [span for span in tracer.spans if span[3] == "leaf"]
    assert len(leaves) == 4
    for span in leaves:
        assert span[2] == handlers[span[4]]


def test_carried_context_nests_pool_thread_spans():
    from concurrent.futures import ThreadPoolExecutor

    original = ThreadPoolExecutor.submit
    tracer = pb_trace.Tracer()
    leaf = tracer.wrap(lambda: None, "leaf")
    with ThreadPoolExecutor(max_workers=1) as pool:
        tracer.carry_context(ThreadPoolExecutor, "submit")
        try:
            with tracer.span("dispatch", rid="r1"):
                pool.submit(leaf).result(timeout=30)
        finally:
            tracer.restore()
    assert ThreadPoolExecutor.submit is original
    by_name = {span[3]: span for span in tracer.spans}
    assert by_name["leaf"][2] == by_name["dispatch"][1]
    assert by_name["leaf"][4] == "r1"


def test_patch_replaces_every_by_name_binding_and_restores():
    from importlib import import_module

    bounds = import_module("repro.core.bounds")
    portfolio = import_module("repro.service.portfolio")
    original = bounds.rank_lower_bound
    tracer = pb_trace.Tracer()
    tracer.patch(bounds, "rank_lower_bound", "bounds")
    try:
        assert portfolio.rank_lower_bound is bounds.rank_lower_bound
        assert portfolio.rank_lower_bound is not original
    finally:
        tracer.restore()
    assert portfolio.rank_lower_bound is original
    assert bounds.rank_lower_bound is original


def test_dump_round_trips(tmp_path):
    tracer = pb_trace.Tracer()
    with tracer.span("client", rid="r1"):
        tracer.count("cdcl.conflicts", 3)
    tracer.dump(tmp_path / "t.jsonl")
    spans, counters = pb_trace.load_dump(tmp_path / "t.jsonl")
    assert spans == tracer.spans
    assert counters == {"cdcl.conflicts": 3}


# ----------------------------------------------------------------------
# Metric names
# ----------------------------------------------------------------------
def _benchmark_json():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def test_metric_names_match_the_pattern():
    names = list(pb_report.END_TO_END_UNITS) + list(pb_layers.PER_LAYER_UNITS)
    assert len(names) == len(set(names))
    for name in names:
        assert pb_report.METRIC_NAME.fullmatch(name), name
    for bad in ("", "has space", "a/b", "_lead", "x" * 65, "p95%"):
        assert not pb_report.METRIC_NAME.fullmatch(bad), bad


def test_benchmark_json_lists_the_reported_metrics():
    spec = _benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
        pb_report.END_TO_END_UNITS
    )
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        pb_layers.PER_LAYER_UNITS
    )
    names = [w["name"] for w in spec["workloads"]]
    assert set(names) <= set(pb_workloads.WORKLOADS)
    assert len(names) >= 2


# ----------------------------------------------------------------------
# Workload generation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", pb_workloads.WORKLOADS)
def test_pools_are_deterministic_and_match_the_expected_answers(workload):
    first = pb_workloads.build_pool(workload)
    second = pb_workloads.build_pool(workload)
    assert [i.case_id for i in first] == [i.case_id for i in second]
    assert [pb_check.matrix_digest(i.matrix) for i in first] == [
        pb_check.matrix_digest(i.matrix) for i in second
    ]
    expected = pb_check.load_expected()[workload]
    pb_check.check_pool(first, expected)
    assert len(expected) == len(first)


def test_request_order_is_a_function_of_the_seed():
    from repro.utils.rng import ensure_rng

    pool = pb_workloads.build_pool("gateway-mixed")

    def rounds(seed):
        rng = ensure_rng(seed)
        return [
            [case_id for case_id, _ in pb_workloads.gateway_round(pool, rng)]
            for _ in range(2)
        ]

    assert rounds(7) == rounds(7)
    assert rounds(7) != rounds(8)
    first, second = rounds(7)
    assert first != second
    assert sorted(first) == sorted(second)
    fresh = [case_id for case_id in first if case_id.startswith("fresh-")]
    assert len(fresh) == len(set(fresh)) == pb_workloads.FRESH_COUNT
    assert len(first) - len(fresh) == pb_workloads.FRESH_COUNT


# ----------------------------------------------------------------------
# Answer checks
# ----------------------------------------------------------------------
def test_answer_checks_catch_wrong_answers():
    from repro.core.binary_matrix import BinaryMatrix
    from repro.core.partition import Partition
    from repro.core.rectangle import Rectangle

    matrix = BinaryMatrix.from_strings(["110", "011"])
    good = Partition([Rectangle(0b01, 0b011), Rectangle(0b10, 0b110)], (2, 3))
    overlap = Partition(
        [Rectangle(0b11, 0b010), Rectangle(0b01, 0b011)], (2, 3)
    )
    short = Partition([Rectangle(0b01, 0b011)], (2, 3))
    assert pb_check.partition_problem(matrix, good) is None
    assert "overlap" in pb_check.partition_problem(matrix, overlap)
    assert "cover" in pb_check.partition_problem(matrix, short)

    expected = pb_check.Expected(
        depth=2, optimal=True, lower_bound=2, digest=pb_check.matrix_digest(matrix)
    )
    check = dict(matrix=matrix, partition=good)
    assert pb_check.answer_problem(expected, depth=2, optimal=True, **check) is None
    assert "expected" in pb_check.answer_problem(
        expected, depth=2, optimal=False, **check
    )
    assert "rectangles" in pb_check.answer_problem(
        expected, depth=3, optimal=True, **check
    )
    assert "below lower bound" in pb_check.answer_problem(
        dataclasses.replace(expected, depth=1), depth=1, optimal=True
    )


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_an_injected_wrong_depth_fails_the_command(tmp_path, monkeypatch, capsys):
    import run

    answers = json.loads(pb_check.EXPECTED_PATH.read_text())
    cases = answers["workloads"]["heuristic-large"]
    victim = sorted(cases)[0]
    cases[victim]["depth"] += 1
    tampered = tmp_path / "expected.json"
    tampered.write_text(json.dumps(answers, sort_keys=True))
    monkeypatch.setattr(pb_check, "EXPECTED_PATH", tampered)
    code = run.main(
        ["--workload", "heuristic-large", "--seed", "3", "--seconds", "0.1",
         "--trace", "0"]
    )
    out = capsys.readouterr().out
    assert code == 1
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["metrics"]["success_frac"]["value"] < 1.0
    assert f"WRONG {victim}" in out


def test_without_the_program_source_the_command_fails(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _run(
        ["--workload", "gateway-mixed", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        tmp_path,
    )
    assert done.returncode == 2
    assert "no program source" in done.stderr
    assert done.stdout == ""
