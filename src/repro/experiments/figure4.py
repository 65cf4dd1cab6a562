"""Figure 4: the most time-consuming cases.

The paper's bar/line chart ranks the hardest instances by SAP runtime,
splitting each bar into the packing-heuristic and SMT portions and
overlaying the real rank.  Observation 5: in most of the hard cases the
solver's final act is *proving UNSAT* one step below the heuristic
depth — the expensive part is the optimality proof, not finding the
solution.

This runner reproduces the data series: it solves a pool of gap and
random instances, ranks them by total time, and reports the per-phase
split, the real rank, and whether the final oracle query was UNSAT.

Every one of those columns comes from ``sap_paper``, SAP with the
paper's formula.  Beside them one column gives the total seconds of the
default ``sap`` member, which seeds its encoding with a maximum fooling
set (:mod:`repro.solvers.sap`) and so proves the same cases far more
cheaply.

The pool runs through :func:`repro.service.batch.solve_batch` (both
members on every instance), so ``REPRO_WORKERS`` fans the hard cases
over a process pool; the per-phase split and the final oracle query
status ride along on the member outcome's ``detail`` record.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.benchgen.suite import gap_suite, random_suite
from repro.experiments.common import (
    resolve_scale,
    resolve_workers,
    write_json,
)
from repro.service.batch import BatchItem, solve_batch
from repro.service.portfolio import MemberOutcome
from repro.utils.tables import format_table


@dataclass
class Figure4Config:
    scale: str = "quick"
    seed: int = 2024
    top_n: int = 8
    smt_time_budget: float = 30.0
    workers: Optional[int] = None  # None -> REPRO_WORKERS, else 1


@dataclass
class HardCase:
    case_id: str
    family: str
    total_seconds: float
    packing_seconds: float
    smt_seconds: float
    real_rank: int
    depth: int
    proved_optimal: bool
    final_query_unsat: bool
    fooling_seconds: float
    """Total seconds of the default ``sap`` member on the same case."""


@dataclass
class Figure4Result:
    config: Figure4Config
    cases: List[HardCase] = field(default_factory=list)

    def top_cases(self) -> List[HardCase]:
        ranked = sorted(
            self.cases, key=lambda c: c.total_seconds, reverse=True
        )
        return ranked[: self.config.top_n]

    def render(self) -> str:
        headers = [
            "case",
            "family",
            "total s",
            "packing s",
            "SMT s",
            "real rank",
            "depth",
            "UNSAT proof",
            "fooling-first s",
        ]
        rows = [
            [
                case.case_id,
                case.family,
                f"{case.total_seconds:.3f}",
                f"{case.packing_seconds:.3f}",
                f"{case.smt_seconds:.3f}",
                case.real_rank,
                case.depth,
                "yes" if case.final_query_unsat else "no",
                f"{case.fooling_seconds:.3f}",
            ]
            for case in self.top_cases()
        ]
        table = format_table(
            headers,
            rows,
            title=(
                "Figure 4 reproduction — most time-consuming cases "
                f"(scale={self.config.scale})"
            ),
            align_right_from=2,
        )
        top = self.top_cases()
        if top:
            unsat_share = sum(
                1 for c in top if c.final_query_unsat
            ) / len(top)
            table += (
                f"\n\nObservation 5 check: {unsat_share:.0%} of the top "
                f"{len(top)} cases end by proving UNSAT"
            )
        return table

    def as_json(self) -> Dict[str, object]:
        return {
            "scale": self.config.scale,
            "seed": self.config.seed,
            "cases": [
                {
                    "case_id": c.case_id,
                    "family": c.family,
                    "total_seconds": c.total_seconds,
                    "packing_seconds": c.packing_seconds,
                    "smt_seconds": c.smt_seconds,
                    "real_rank": c.real_rank,
                    "depth": c.depth,
                    "final_query_unsat": c.final_query_unsat,
                    "fooling_seconds": c.fooling_seconds,
                }
                for c in sorted(
                    self.cases,
                    key=lambda c: c.total_seconds,
                    reverse=True,
                )
            ],
        }


def _case_pool(config: Figure4Config):
    """Gap families dominate the hard pool, plus random controls —
    matching the mix in the paper's figure (g2..g5 and 'r' labels)."""
    count_gap = 12 if config.scale == "paper" else 5
    count_rand = 6 if config.scale == "paper" else 3
    pool = []
    for pairs in (2, 3, 4, 5):
        pool.extend(
            gap_suite((10, 10), pairs, count_gap, seed=config.seed)
        )
    pool.extend(
        random_suite(
            (10, 10), (0.3, 0.5, 0.7), count_rand, seed=config.seed + 1
        )
    )
    return pool


def _detail(outcome: MemberOutcome, case_id: str) -> Dict[str, Any]:
    """A SAP member's ``detail`` record; raises if it found nothing."""
    if outcome.depth is None:
        raise RuntimeError(
            f"{outcome.name} produced no result for {case_id}: "
            f"{outcome.error}"
        )
    return outcome.detail or {}


def run_figure4(config: Optional[Figure4Config] = None) -> Figure4Result:
    if config is None:
        config = Figure4Config(scale=resolve_scale())
    trials = 100 if config.scale == "paper" else 20
    paper, fooling = f"sap_paper:{trials}", f"sap:{trials}"
    cases = _case_pool(config)
    records = solve_batch(
        [
            BatchItem(case.case_id, case.matrix, (paper, fooling))
            for case in cases
        ],
        seed=config.seed,
        workers=resolve_workers(config.workers),
        budget_per_member=config.smt_time_budget,
        stop_when_optimal=False,
    )
    by_id = {record.case_id: record for record in records}
    result = Figure4Result(config=config)
    for case in cases:
        record = by_id[case.case_id]
        outcome = record.result.member(paper)
        detail = _detail(outcome, case.case_id)
        phases = detail.get("phase_seconds", {})
        fooling_detail = _detail(record.result.member(fooling), case.case_id)
        result.cases.append(
            HardCase(
                case_id=case.case_id,
                family=case.family,
                total_seconds=sum(phases.values()),
                packing_seconds=phases.get("packing", 0.0),
                smt_seconds=phases.get("smt", 0.0),
                real_rank=record.result.lower_bound,
                depth=outcome.depth,
                proved_optimal=outcome.proved_optimal,
                final_query_unsat=bool(detail.get("final_query_unsat")),
                fooling_seconds=sum(
                    fooling_detail.get("phase_seconds", {}).values()
                ),
            )
        )
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--top", type=int, default=8)
    parser.add_argument("--json", type=str, default=None)
    parser.add_argument(
        "--svg", type=str, default=None,
        help="write the Figure 4 chart as SVG to this path",
    )
    args = parser.parse_args(argv)

    config = Figure4Config(
        scale=resolve_scale("paper" if args.full else None),
        seed=args.seed,
        top_n=args.top,
    )
    result = run_figure4(config)
    print(result.render())
    if args.json:
        write_json(args.json, result.as_json())
        print(f"\nwrote {args.json}")
    if args.svg:
        from repro.viz.figures import figure4_svg

        figure4_svg(result).write(args.svg)
        print(f"wrote {args.svg}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
