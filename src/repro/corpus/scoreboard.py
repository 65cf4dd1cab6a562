"""The scoreboard: fan the corpus through the portfolio, score the run.

``run_scoreboard`` pushes a corpus through
:func:`repro.service.batch.solve_batch` (same pool, same cache, same
provenance rules as production traffic) and turns the records into
:class:`ScoreRow` s: per-instance depth, the best-known value for that
instance, the depth ratio against it, wall time, and the winning
solver.  Per-solver wins feed the same :class:`repro.service.stats
.WinTally` the gateway's ``metrics`` op reports, so an offline
scoreboard run and a live server expose one vocabulary.

Best-known resolution, strongest first:

1. the instance's a-priori ground truth (``known_rank``, or a certified
   ``known_lower_bound`` when the run's depth meets it);
2. the run's own certified optimum (``result.optimal``);
3. the Eq. 3 rank lower bound computed during the solve.

A ratio of 1.0 therefore means *matches the best anything has ever
proven about this instance*; ratios are always >= 1.0 unless a solver
returns an impossible depth — which is reported as a
``lower_bound_violations`` entry and treated as a hard failure by the
CLI, because a depth below a proven lower bound means the solver (or
the bound) is broken.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.exceptions import SolverError
from repro.corpus.registry import (
    DEFAULT_CORPUS_SEED,
    DEFAULT_PROFILE,
    CorpusInstance,
    build_corpus,
)
from repro.service.batch import BatchRecord, solve_batch
from repro.service.cache import ResultCache
from repro.service.portfolio import DEFAULT_PORTFOLIO
from repro.service.schema import SOLVER_SCHEMA_VERSION
from repro.service.stats import WinTally

SCOREBOARD_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ScoreRow:
    """One corpus instance's scored outcome."""

    case_id: str
    family: str
    shape: Tuple[int, int]
    depth: int
    best_known: int
    ratio: float
    optimal: bool
    winner: str
    lower_bound: int
    from_cache: bool
    wall_seconds: float

    def as_dict(self, *, include_timing: bool = True) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "case_id": self.case_id,
            "family": self.family,
            "shape": list(self.shape),
            "depth": self.depth,
            "best_known": self.best_known,
            "ratio": round(self.ratio, 4),
            "optimal": self.optimal,
            "winner": self.winner,
            "lower_bound": self.lower_bound,
        }
        if include_timing:
            payload["from_cache"] = self.from_cache
            payload["wall_seconds"] = self.wall_seconds
        return payload


def _score(instance: CorpusInstance, record: BatchRecord) -> ScoreRow:
    result = record.result
    depth = result.depth
    known = instance.known_rank
    if known is None and result.optimal:
        known = depth
    if known is None:
        known = max(
            result.lower_bound,
            instance.known_lower_bound or 0,
        )
    best_known = max(1, known)
    return ScoreRow(
        case_id=instance.case_id,
        family=instance.family,
        shape=instance.matrix.shape,
        depth=depth,
        best_known=best_known,
        ratio=depth / best_known,
        optimal=result.optimal,
        winner=result.winner,
        lower_bound=max(result.lower_bound, instance.lower_bound or 0),
        from_cache=result.from_cache,
        wall_seconds=result.wall_seconds,
    )


@dataclass
class ScoreboardReport:
    """A scored corpus run plus the configuration that produced it."""

    profile: str
    seed: int
    members: Tuple[str, ...]
    rows: List[ScoreRow]
    tally: WinTally
    wall_seconds: float
    schema_version: int = SOLVER_SCHEMA_VERSION
    families: Tuple[str, ...] = ()
    budget_per_instance: Optional[float] = None
    extras: Dict[str, Any] = field(default_factory=dict)

    def row(self, case_id: str) -> ScoreRow:
        for row in self.rows:
            if row.case_id == case_id:
                return row
        raise KeyError(f"no scoreboard row for {case_id!r}")

    def lower_bound_violations(self) -> List[ScoreRow]:
        """Rows whose depth beats a proven lower bound — solver bugs."""
        return [row for row in self.rows if row.depth < row.lower_bound]

    def family_summary(self) -> Dict[str, Dict[str, Any]]:
        """Per-family aggregates in row order: counts, ratios, timing."""
        summary: Dict[str, Dict[str, Any]] = {}
        for row in self.rows:
            entry = summary.setdefault(
                row.family,
                {
                    "instances": 0,
                    "optimal": 0,
                    "max_ratio": 0.0,
                    "_ratio_sum": 0.0,
                    "wall_seconds": 0.0,
                },
            )
            entry["instances"] += 1
            entry["optimal"] += 1 if row.optimal else 0
            entry["max_ratio"] = max(entry["max_ratio"], row.ratio)
            entry["_ratio_sum"] += row.ratio
            entry["wall_seconds"] += row.wall_seconds
        for entry in summary.values():
            entry["mean_ratio"] = round(
                entry.pop("_ratio_sum") / entry["instances"], 4
            )
            entry["max_ratio"] = round(entry["max_ratio"], 4)
            entry["wall_seconds"] = round(entry["wall_seconds"], 3)
        return summary

    def as_dict(self, *, include_timing: bool = True) -> Dict[str, Any]:
        """JSON-able report.  ``include_timing=False`` drops every
        wall-clock field, leaving the deterministic slice a baseline is
        built from."""
        payload: Dict[str, Any] = {
            "type": "scoreboard_report",
            "version": SCOREBOARD_FORMAT_VERSION,
            "schema_version": self.schema_version,
            "profile": self.profile,
            "seed": self.seed,
            "members": list(self.members),
            # Kept as a literal: every report written so far has the key.
            "race": "sequential",
            "families": list(self.families),
            "rows": [
                row.as_dict(include_timing=include_timing)
                for row in self.rows
            ],
            **self.tally.as_dict(),
        }
        if include_timing:
            payload["budget_per_instance"] = self.budget_per_instance
            payload["wall_seconds"] = self.wall_seconds
            payload["family_summary"] = self.family_summary()
        return payload


def run_scoreboard(
    *,
    families: Optional[Sequence[str]] = None,
    profile: str = DEFAULT_PROFILE,
    seed: int = DEFAULT_CORPUS_SEED,
    members: Sequence[str] = DEFAULT_PORTFOLIO,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    budget_per_instance: Optional[float] = None,
    instances: Optional[Sequence[CorpusInstance]] = None,
) -> ScoreboardReport:
    """Solve the corpus with the portfolio and score every instance.

    ``instances`` overrides corpus construction for callers that have
    already built (or filtered) one; otherwise ``families``/``profile``/
    ``seed`` name a reproducible corpus.  Everything else is the
    standard :func:`solve_batch` surface — notably ``cache``, which
    turns repeat scoreboard runs into cache reads, and whose entries
    are keyed on the solver-config schema version so a stale cache can
    never fake a fresh win.
    """
    if instances is None:
        instances = build_corpus(families, profile=profile, seed=seed)
    else:
        instances = list(instances)
    began = time.perf_counter()
    records = solve_batch(
        instances,
        members=members,
        seed=seed,
        workers=workers,
        cache=cache,
        budget_per_instance=budget_per_instance,
    )
    by_id = {instance.case_id: instance for instance in instances}
    tally = WinTally()
    rows: List[ScoreRow] = []
    for record in records:
        instance = by_id[record.case_id]
        rows.append(_score(instance, record))
        tally.record_result(record.result)
    family_order: List[str] = []
    for instance in instances:
        if instance.family not in family_order:
            family_order.append(instance.family)
    return ScoreboardReport(
        profile=profile,
        seed=seed,
        members=tuple(members),
        rows=rows,
        tally=tally,
        wall_seconds=time.perf_counter() - began,
        families=tuple(family_order),
        budget_per_instance=budget_per_instance,
    )


def report_from_dict(payload: Dict[str, Any]) -> ScoreboardReport:
    """Rebuild a report from :meth:`ScoreboardReport.as_dict` output."""
    if payload.get("type") != "scoreboard_report":
        raise SolverError(
            f"expected a scoreboard_report payload, "
            f"got {payload.get('type')!r}"
        )
    rows = [
        ScoreRow(
            case_id=entry["case_id"],
            family=entry["family"],
            shape=tuple(entry["shape"]),
            depth=entry["depth"],
            best_known=entry["best_known"],
            ratio=entry["ratio"],
            optimal=entry["optimal"],
            winner=entry["winner"],
            lower_bound=entry["lower_bound"],
            from_cache=entry.get("from_cache", False),
            wall_seconds=entry.get("wall_seconds", 0.0),
        )
        for entry in payload["rows"]
    ]
    tally = WinTally()
    tally.solved = payload.get("solved", 0)
    for name, count in payload.get("wins", {}).items():
        tally._wins[name] = count
    return ScoreboardReport(
        profile=payload["profile"],
        seed=payload["seed"],
        members=tuple(payload["members"]),
        rows=rows,
        tally=tally,
        wall_seconds=payload.get("wall_seconds", 0.0),
        schema_version=payload.get("schema_version", 1),
        families=tuple(payload.get("families", ())),
        budget_per_instance=payload.get("budget_per_instance"),
    )
