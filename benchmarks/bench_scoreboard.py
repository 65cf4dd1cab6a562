"""Benchmarks for the corpus scoreboard: run cost and cache leverage.

Measures a full scoreboard run per profile (the cost of the CI gate and
of the default local sweep), the warm re-run through a result cache,
and the pure corpus-construction cost (matrix generation plus the exact
fooling-number certificates).  Every measurement is appended to
``BENCH_scoreboard.json`` (override the directory with
``REPRO_BENCH_DIR``) so gate latency can be tracked across commits.

The smoke profile is asserted cheap in instance count — it is the CI
gate and must stay so; wall-clock is recorded, not asserted, because
1-CPU runners set the floor.
"""

from __future__ import annotations

import time

from repro.corpus.baseline import baseline_from_report, diff_against_baseline
from repro.corpus.registry import build_corpus
from repro.corpus.scoreboard import run_scoreboard
from repro.service.cache import ResultCache

from _record import record_entry

MEMBERS = ("trivial", "packing:8", "sap")

SMOKE_INSTANCE_BUDGET = 40
"""The smoke corpus must stay a CI-gate size, not a sweep size."""


def _profile(scale: str) -> str:
    return "full" if scale == "paper" else "quick"


def test_corpus_build_cost(benchmark, scale, root_seed):
    profile = _profile(scale)

    corpus = benchmark(build_corpus, profile=profile, seed=root_seed)
    families = sorted(set(inst.family for inst in corpus))
    payload = {
        "profile": profile,
        "instances": len(corpus),
        "families": families,
        "build_seconds": benchmark.stats.stats.min,
    }
    benchmark.extra_info.update(payload)
    record_entry("scoreboard", "corpus_build", payload)


def test_smoke_gate_latency(benchmark, root_seed):
    """The CI gate end to end: run, baseline, diff — on every round."""
    corpus = build_corpus(profile="smoke", seed=root_seed)
    assert len(corpus) <= SMOKE_INSTANCE_BUDGET

    def gate():
        report = run_scoreboard(
            profile="smoke", seed=root_seed, members=MEMBERS
        )
        diff = diff_against_baseline(
            report, baseline_from_report(report)
        )
        assert not diff.failed
        return report

    report = benchmark(gate)
    payload = {
        "instances": len(report.rows),
        "families": len(report.families),
        "members": list(MEMBERS),
        "gate_seconds": benchmark.stats.stats.min,
        "optimal_fraction": sum(
            1 for row in report.rows if row.optimal
        ) / len(report.rows),
    }
    benchmark.extra_info.update(payload)
    record_entry("scoreboard", "smoke_gate", payload)


def test_cached_rerun_leverage(benchmark, scale, root_seed):
    """A warm scoreboard run replays the cache instead of re-solving."""
    profile = _profile(scale)
    cache = ResultCache(capacity=8192)

    began = time.perf_counter()
    cold = run_scoreboard(
        profile=profile, seed=root_seed, members=MEMBERS, cache=cache
    )
    cold_seconds = time.perf_counter() - began
    assert cold.tally.solved == len(cold.rows)

    def rerun():
        return run_scoreboard(
            profile=profile, seed=root_seed, members=MEMBERS, cache=cache
        )

    warm = benchmark(rerun)
    assert all(row.from_cache for row in warm.rows)
    assert warm.tally.solved == 0

    warm_seconds = benchmark.stats.stats.min
    payload = {
        "profile": profile,
        "instances": len(cold.rows),
        "members": list(MEMBERS),
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "cache_speedup": (
            cold_seconds / warm_seconds if warm_seconds else None
        ),
    }
    benchmark.extra_info.update(payload)
    record_entry("scoreboard", "cached_rerun", payload)
