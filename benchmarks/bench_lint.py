"""Benchmark the ``repro lint`` gate itself.

The lint gate runs inside tier-1 on every test invocation, so its own
wall time is a standing tax on the inner loop.  Two measurements,
written to ``BENCH_lint.json`` (directory overridable via
``REPRO_BENCH_DIR``):

* **full-repo lint wall time** — parse + all ten rules + suppression
  filtering over the default scan roots, three runs.  Asserted under
  ``FULL_LINT_LIMIT_SECONDS`` (the ISSUE 9 acceptance line: the gate
  must stay cheap enough to never tempt anyone to skip it).
* **per-stage split** — file collection + parsing measured separately
  from rule dispatch, so a future slow rule shows up as a rule-side
  regression rather than a mystery.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

from repro.analysis import Analyzer
from repro.analysis.rules import default_rules

from _record import record_entry

REPO_ROOT = Path(__file__).resolve().parents[1]

FULL_LINT_LIMIT_SECONDS = 2.0
"""A full-repo lint pass must finish well inside one human beat."""


def test_full_repo_lint_wall_time():
    """Acceptance: a full-repo lint pass stays under the limit."""
    walls = []
    files_scanned = 0
    finding_count = 0
    for _ in range(3):
        began = time.perf_counter()
        report = Analyzer(REPO_ROOT).run()
        walls.append(time.perf_counter() - began)
        files_scanned = report.files_scanned
        finding_count = len(report.findings)

    median_wall = statistics.median(walls)
    payload = {
        "files_scanned": files_scanned,
        "findings": finding_count,
        "rules": len(default_rules()),
        "wall_seconds_runs": walls,
        "wall_seconds_median": median_wall,
        "limit_seconds": FULL_LINT_LIMIT_SECONDS,
    }
    record_entry("lint", "full_repo_lint", payload)
    assert median_wall < FULL_LINT_LIMIT_SECONDS, (
        f"full-repo lint took {median_wall:.2f}s "
        f"(limit {FULL_LINT_LIMIT_SECONDS:.1f}s)"
    )


def test_parse_versus_rule_split():
    """Where the time goes: parsing the tree versus running rules."""
    began = time.perf_counter()
    analyzer = Analyzer(REPO_ROOT, rules=[])
    report = analyzer.run()
    parse_seconds = time.perf_counter() - began

    began = time.perf_counter()
    full = Analyzer(REPO_ROOT).run()
    total_seconds = time.perf_counter() - began

    payload = {
        "files_scanned": report.files_scanned,
        "parse_seconds": parse_seconds,
        "total_seconds": total_seconds,
        "rule_seconds_estimate": max(0.0, total_seconds - parse_seconds),
    }
    record_entry("lint", "parse_versus_rules", payload)
    assert full.files_scanned == report.files_scanned
