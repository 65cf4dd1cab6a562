"""Checked-in scoreboard baselines and the regression differ.

A baseline is the deterministic slice of a scoreboard run: per-instance
depth, optimality, winner, and best-known value — never wall-clock
times — keyed by case id, written with sorted keys.  Built from a fixed
``(profile, seed, members)`` triple it reproduces byte-identically on
any machine, so ``git diff`` on the baseline file *is* the solver-
quality diff.

Timing lives in an optional, explicitly requested ``timing`` section
(``update-baseline --include-timing``); the default checked-in artifact
stays deterministic while a locally written timing baseline enables the
``--max-slowdown`` gate.

``diff_against_baseline`` classifies every instance:

* **regression** — depth got worse, or the result lost a previously
  certified optimality proof: exit non-zero, always;
* **violation** — depth below a proven lower bound: exit non-zero (a
  solver returned an impossible result);
* **improvement** — depth got better (or a new proof landed): reported,
  and the caller is told to refresh the baseline;
* **slowdown** — wall time exceeded baseline timing by more than the
  configured factor (only when both sides carry timing);
* **added / removed** — corpus membership drift, reported so a shrunken
  corpus cannot quietly hide a regressed instance.

A schema-version mismatch (see :mod:`repro.service.schema`) makes the
whole comparison invalid — runs under different solver-config schemas
are not comparable, so the diff fails closed instead of reporting
nonsense.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.core.exceptions import SolverError
from repro.corpus.scoreboard import ScoreboardReport
from repro.service.schema import SOLVER_SCHEMA_VERSION
from repro.utils.fileio import atomic_write_json
from repro.utils.tables import format_table

BASELINE_FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# Building / loading
# ----------------------------------------------------------------------
def baseline_from_report(
    report: ScoreboardReport, *, include_timing: bool = False
) -> Dict[str, Any]:
    """The baseline payload for ``report`` (deterministic by default)."""
    entries = {
        row.case_id: {
            "family": row.family,
            "depth": row.depth,
            "best_known": row.best_known,
            "optimal": row.optimal,
            "winner": row.winner,
            "lower_bound": row.lower_bound,
        }
        for row in report.rows
    }
    payload: Dict[str, Any] = {
        "type": "scoreboard_baseline",
        "version": BASELINE_FORMAT_VERSION,
        "schema_version": report.schema_version,
        "profile": report.profile,
        "seed": report.seed,
        "members": list(report.members),
        # Kept as a literal: every baseline written so far has the key.
        "race": "sequential",
        "families": sorted(report.families),
        "entries": entries,
    }
    if include_timing:
        payload["timing"] = {
            row.case_id: round(row.wall_seconds, 6) for row in report.rows
        }
    return payload


def write_baseline(path: Union[str, Path], payload: Dict[str, Any]) -> Path:
    """Atomically write a baseline with sorted keys (byte-stable)."""
    path = Path(path)
    atomic_write_json(path, payload, sort_keys=True)
    return path


def load_baseline(path: Union[str, Path]) -> Dict[str, Any]:
    path = Path(path)
    try:
        with open(path) as stream:
            payload = json.load(stream)
    except OSError as exc:
        raise SolverError(f"cannot read baseline {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SolverError(f"bad JSON in baseline {path}: {exc}") from exc
    if payload.get("type") != "scoreboard_baseline":
        raise SolverError(
            f"{path} is not a scoreboard baseline "
            f"(type={payload.get('type')!r})"
        )
    if payload.get("version", 0) > BASELINE_FORMAT_VERSION:
        raise SolverError(
            f"baseline {path} has format version {payload['version']}, "
            f"newer than supported {BASELINE_FORMAT_VERSION}"
        )
    return payload


# ----------------------------------------------------------------------
# Diffing
# ----------------------------------------------------------------------
@dataclass
class BaselineDiff:
    """Classification of a scoreboard run against a baseline."""

    regressions: List[Dict[str, Any]] = field(default_factory=list)
    violations: List[Dict[str, Any]] = field(default_factory=list)
    improvements: List[Dict[str, Any]] = field(default_factory=list)
    slowdowns: List[Dict[str, Any]] = field(default_factory=list)
    added: List[str] = field(default_factory=list)
    removed: List[str] = field(default_factory=list)
    schema_mismatch: Optional[str] = None
    config_mismatch: Optional[str] = None
    compared: int = 0

    @property
    def failed(self) -> bool:
        """True when the run must fail the gate."""
        return bool(
            self.regressions
            or self.violations
            or self.removed
            or self.schema_mismatch
            or self.config_mismatch
            or self.slowdowns
        )

    @property
    def clean(self) -> bool:
        """True when nothing at all changed (baseline needs no refresh)."""
        return not (self.failed or self.improvements or self.added)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "compared": self.compared,
            "regressions": self.regressions,
            "violations": self.violations,
            "improvements": self.improvements,
            "slowdowns": self.slowdowns,
            "added": self.added,
            "removed": self.removed,
            "schema_mismatch": self.schema_mismatch,
            "config_mismatch": self.config_mismatch,
            "failed": self.failed,
        }


def diff_against_baseline(
    report: ScoreboardReport,
    baseline: Dict[str, Any],
    *,
    max_slowdown: Optional[float] = None,
) -> BaselineDiff:
    """Classify ``report`` against ``baseline``.

    ``max_slowdown`` gates wall time: an instance slower than
    ``baseline_timing * max_slowdown`` is a slowdown failure (requires
    a baseline written with ``--include-timing``; without one the gate
    is reported as unusable rather than silently passing).
    """
    diff = BaselineDiff()
    if baseline.get("schema_version") != report.schema_version:
        diff.schema_mismatch = (
            f"baseline schema_version={baseline.get('schema_version')!r} "
            f"vs current {report.schema_version} "
            f"(SOLVER_SCHEMA_VERSION={SOLVER_SCHEMA_VERSION}); results "
            "are not comparable — re-run `scoreboard update-baseline`"
        )
        return diff
    for key in ("profile", "seed"):
        if baseline.get(key) != getattr(report, key):
            diff.config_mismatch = (
                f"baseline was built with {key}="
                f"{baseline.get(key)!r}, this run used "
                f"{getattr(report, key)!r}"
            )
            return diff
    if list(baseline.get("members", [])) != list(report.members):
        diff.config_mismatch = (
            f"baseline members {baseline.get('members')!r} != "
            f"run members {list(report.members)!r}"
        )
        return diff

    entries: Dict[str, Dict[str, Any]] = baseline.get("entries", {})
    timing: Dict[str, float] = baseline.get("timing") or {}
    if max_slowdown is not None and not timing:
        diff.config_mismatch = (
            "baseline carries no timing section; write one with "
            "`scoreboard update-baseline --include-timing` before "
            "using --max-slowdown"
        )
        return diff

    seen = set()
    for row in report.rows:
        seen.add(row.case_id)
        entry = entries.get(row.case_id)
        if entry is None:
            diff.added.append(row.case_id)
            continue
        diff.compared += 1
        if row.depth < row.lower_bound:
            diff.violations.append(
                {
                    "case_id": row.case_id,
                    "family": row.family,
                    "depth": row.depth,
                    "lower_bound": row.lower_bound,
                }
            )
        if row.depth > entry["depth"] or (
            entry["optimal"] and not row.optimal
        ):
            diff.regressions.append(
                {
                    "case_id": row.case_id,
                    "family": row.family,
                    "depth": row.depth,
                    "baseline_depth": entry["depth"],
                    "optimal": row.optimal,
                    "baseline_optimal": entry["optimal"],
                }
            )
        elif row.depth < entry["depth"] or (
            row.optimal and not entry["optimal"]
        ):
            diff.improvements.append(
                {
                    "case_id": row.case_id,
                    "family": row.family,
                    "depth": row.depth,
                    "baseline_depth": entry["depth"],
                    "optimal": row.optimal,
                    "baseline_optimal": entry["optimal"],
                }
            )
        if max_slowdown is not None and row.case_id in timing:
            budget = timing[row.case_id] * max_slowdown
            if row.wall_seconds > budget and not row.from_cache:
                diff.slowdowns.append(
                    {
                        "case_id": row.case_id,
                        "family": row.family,
                        "wall_seconds": round(row.wall_seconds, 6),
                        "baseline_seconds": timing[row.case_id],
                        "max_slowdown": max_slowdown,
                    }
                )
    diff.removed = sorted(set(entries) - seen)
    return diff


def format_diff(diff: BaselineDiff) -> str:
    """Human-readable diff summary (the CLI's output)."""
    lines: List[str] = []
    if diff.schema_mismatch:
        lines.append(f"SCHEMA MISMATCH: {diff.schema_mismatch}")
        return "\n".join(lines)
    if diff.config_mismatch:
        lines.append(f"CONFIG MISMATCH: {diff.config_mismatch}")
        return "\n".join(lines)

    def table(title: str, entries: List[Dict[str, Any]]) -> None:
        rows = [
            [
                e["case_id"],
                e["family"],
                e.get("baseline_depth", "-"),
                e.get("depth", "-"),
                e.get("lower_bound", "-"),
            ]
            for e in entries
        ]
        lines.append(
            format_table(
                ["instance", "family", "base", "now", "lower"],
                rows,
                title=title,
            )
        )
        lines.append("")

    if diff.violations:
        table(
            f"LOWER-BOUND VIOLATIONS ({len(diff.violations)}) — a solver "
            "returned an impossible depth",
            diff.violations,
        )
    if diff.regressions:
        table(f"REGRESSIONS ({len(diff.regressions)})", diff.regressions)
    if diff.improvements:
        table(
            f"improvements ({len(diff.improvements)}) — refresh the "
            "baseline to lock them in",
            diff.improvements,
        )
    if diff.slowdowns:
        rows = [
            [
                e["case_id"],
                e["family"],
                f"{e['baseline_seconds']:.3f}s",
                f"{e['wall_seconds']:.3f}s",
                f"{e['max_slowdown']:g}x",
            ]
            for e in diff.slowdowns
        ]
        lines.append(
            format_table(
                ["instance", "family", "base", "now", "limit"],
                rows,
                title=f"SLOWDOWNS ({len(diff.slowdowns)})",
            )
        )
        lines.append("")
    if diff.removed:
        lines.append(
            f"REMOVED from corpus but present in baseline "
            f"({len(diff.removed)}): {', '.join(diff.removed[:8])}"
            + (" ..." if len(diff.removed) > 8 else "")
        )
    if diff.added:
        lines.append(
            f"new instances not in baseline ({len(diff.added)}): "
            f"{', '.join(diff.added[:8])}"
            + (" ..." if len(diff.added) > 8 else "")
        )
    verdict = "FAIL" if diff.failed else "ok"
    lines.append(
        f"scoreboard diff: {diff.compared} compared, "
        f"{len(diff.regressions)} regression(s), "
        f"{len(diff.violations)} violation(s), "
        f"{len(diff.improvements)} improvement(s), "
        f"{len(diff.slowdowns)} slowdown(s) -> {verdict}"
    )
    return "\n".join(lines)
