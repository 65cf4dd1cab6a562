"""Table I: percentage of cases finding an optimal solution.

Reproduces the paper's headline table — per benchmark family, the
fraction of instances where (a) the real and binary ranks agree
("rank" column) and (b) each heuristic reaches the proven optimum:
the trivial heuristic and row packing with 1/10/100/1000 trials.

Optimality certification follows the paper:

* <=10-row families: SAP proves ``r_B`` exactly (SMT descent);
* Set 2 carries its optimum by construction;
* 100x100: SMT is out of reach, so a case counts as certified when some
  heuristic meets the Eq. 3 rank bound (which the paper observed to
  always happen at 1000 trials).
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.benchgen.suite import BenchmarkCase, flatten_suites, table1_suites
from repro.experiments.common import (
    resolve_scale,
    resolve_workers,
    service_members,
    write_json,
)
from repro.service.batch import BatchItem, instance_seed, solve_batch
from repro.service.budget import PortfolioBudget
from repro.service.portfolio import (
    CERTIFIED_BY_RANK,
    PortfolioResult,
    solve_portfolio,
)
from repro.solvers.registry import TABLE1_HEURISTICS
from repro.utils.tables import format_percent, format_table

QUICK_HEURISTICS = ("trivial", "packing:1", "packing:10", "packing:100")


@dataclass
class Table1Config:
    scale: str = "quick"
    seed: int = 2024
    heuristics: Sequence[str] = ()
    smt_time_budget: float = 20.0
    include_large: bool = True
    workers: Optional[int] = None  # None -> REPRO_WORKERS, else 1

    def __post_init__(self) -> None:
        if not self.heuristics:
            self.heuristics = (
                TABLE1_HEURISTICS if self.scale == "paper" else QUICK_HEURISTICS
            )


@dataclass
class CaseRecord:
    case_id: str
    family: str
    real_rank: int
    heuristic_depths: Dict[str, int]
    optimal_depth: Optional[int]
    certified_by: Optional[str]  # "sap" | "construction" | "rank-match"

    @property
    def rank_equals_binary(self) -> Optional[bool]:
        if self.optimal_depth is None:
            return None
        return self.optimal_depth == self.real_rank


@dataclass
class Table1Result:
    config: Table1Config
    records: List[CaseRecord] = field(default_factory=list)

    def families(self) -> List[str]:
        seen: List[str] = []
        for record in self.records:
            if record.family not in seen:
                seen.append(record.family)
        return seen

    def row(self, family: str) -> Dict[str, str]:
        records = [r for r in self.records if r.family == family]
        certified = [r for r in records if r.optimal_depth is not None]
        row: Dict[str, str] = {"benchmark": family}
        row["rank"] = format_percent(
            sum(1 for r in certified if r.rank_equals_binary),
            len(certified),
        )
        for name in self.config.heuristics:
            row[name] = format_percent(
                sum(
                    1
                    for r in certified
                    if r.heuristic_depths[name] == r.optimal_depth
                ),
                len(certified),
            )
        row["certified"] = f"{len(certified)}/{len(records)}"
        return row

    def render(self) -> str:
        headers = (
            ["benchmark", "rank"]
            + list(self.config.heuristics)
            + ["certified"]
        )
        rows = [
            [self.row(family)[h] for h in headers]
            for family in self.families()
        ]
        return format_table(
            headers,
            rows,
            title=(
                "Table I reproduction — % of cases finding an optimal "
                f"solution (scale={self.config.scale})"
            ),
        )

    def as_json(self) -> Dict[str, object]:
        return {
            "scale": self.config.scale,
            "seed": self.config.seed,
            "heuristics": list(self.config.heuristics),
            "rows": [self.row(family) for family in self.families()],
            "cases": [
                {
                    "case_id": r.case_id,
                    "family": r.family,
                    "real_rank": r.real_rank,
                    "optimal_depth": r.optimal_depth,
                    "certified_by": r.certified_by,
                    "heuristic_depths": r.heuristic_depths,
                }
                for r in self.records
            ],
        }


def _case_members(
    case: BenchmarkCase, config: Table1Config
) -> Tuple[str, ...]:
    """Portfolio members for one instance: heuristic columns, plus the
    SAP certifier when the instance is small enough and not already
    certified by construction (Set 2)."""
    matrix = case.matrix
    certify = case.known_binary_rank is None and (
        matrix.num_rows <= 10 or matrix.num_cols <= 10
    )
    return service_members(config.heuristics, certify=certify)


def _record_from_result(
    case: BenchmarkCase, config: Table1Config, result: PortfolioResult
) -> CaseRecord:
    """Translate portfolio provenance into the Table I record shape."""
    heuristic_depths: Dict[str, int] = {}
    for name in config.heuristics:
        depth = result.member(name).depth
        if depth is None:
            raise RuntimeError(
                f"heuristic {name!r} produced no depth for {case.case_id}: "
                f"{result.member(name).error}"
            )
        heuristic_depths[name] = depth

    optimal_depth: Optional[int] = None
    certified_by: Optional[str] = None
    if case.known_binary_rank is not None:
        optimal_depth = case.known_binary_rank
        certified_by = "construction"
    elif result.optimal:
        optimal_depth = result.depth
        certified_by = (
            "rank-match" if result.certifier == CERTIFIED_BY_RANK else "sap"
        )
    return CaseRecord(
        case_id=case.case_id,
        family=case.family,
        real_rank=result.lower_bound,
        heuristic_depths=heuristic_depths,
        optimal_depth=optimal_depth,
        certified_by=certified_by,
    )


def evaluate_case(
    case: BenchmarkCase, config: Table1Config
) -> CaseRecord:
    """Run every heuristic (plus the certifier) on one instance."""
    result = solve_portfolio(
        case.matrix,
        members=_case_members(case, config),
        seed=instance_seed(config.seed, case.case_id),
        budget=PortfolioBudget(per_member_seconds=config.smt_time_budget),
        stop_when_optimal=False,
    )
    return _record_from_result(case, config, result)


def run_table1(config: Optional[Table1Config] = None) -> Table1Result:
    """Fan the whole benchmark suite through the portfolio service."""
    if config is None:
        config = Table1Config(scale=resolve_scale())
    suites = table1_suites(
        scale=config.scale,
        seed=config.seed,
        include_large=config.include_large,
    )
    cases = flatten_suites(suites)
    records = solve_batch(
        [
            BatchItem(case.case_id, case.matrix, _case_members(case, config))
            for case in cases
        ],
        seed=config.seed,
        workers=resolve_workers(config.workers),
        budget_per_member=config.smt_time_budget,
        stop_when_optimal=False,
    )
    by_id = {record.case_id: record.result for record in records}
    result = Table1Result(config=config)
    for case in cases:
        result.records.append(
            _record_from_result(case, config, by_id[case.case_id])
        )
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--full", action="store_true", help="paper-scale benchmark counts"
    )
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument(
        "--no-large", action="store_true", help="skip the 100x100 family"
    )
    parser.add_argument(
        "--smt-budget", type=float, default=20.0,
        help="SAP wall-clock budget per case (seconds)",
    )
    parser.add_argument("--json", type=str, default=None, help="output path")
    parser.add_argument(
        "--svg", type=str, default=None,
        help="write row-packing saturation curves as SVG to this path",
    )
    args = parser.parse_args(argv)

    config = Table1Config(
        scale=resolve_scale("paper" if args.full else None),
        seed=args.seed,
        smt_time_budget=args.smt_budget,
        include_large=not args.no_large,
    )
    result = run_table1(config)
    print(result.render())
    if args.json:
        write_json(args.json, result.as_json())
        print(f"\nwrote {args.json}")
    if args.svg:
        from repro.viz.figures import table1_saturation_svg

        table1_saturation_svg(result).write(args.svg)
        print(f"wrote {args.svg}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
