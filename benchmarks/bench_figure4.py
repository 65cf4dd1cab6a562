"""Benchmarks regenerating Figure 4 (E2): the time-consuming cases.

Times full SAP runs on the hard families and records the phase split
(packing vs SMT) plus whether the run ends with an UNSAT proof —
Observation 5's claim that optimality proofs dominate.  Like the
Figure 4 runner, they run the paper's formula
(``use_fooling_bound=False``).
"""

from __future__ import annotations

import pytest

from repro.benchgen.gap import gap_matrix
from repro.benchgen.random_matrices import random_matrix
from repro.core.bounds import rank_lower_bound
from repro.sat.solver import SolveStatus
from repro.solvers.sap import SapOptions, sap_solve


@pytest.mark.parametrize("pairs", [2, 3, 4, 5])
def test_figure4_gap_families(benchmark, scale, root_seed, pairs):
    matrix = gap_matrix(10, 10, pairs, seed=root_seed + pairs)
    trials = 100 if scale == "paper" else 20

    def solve():
        return sap_solve(
            matrix,
            options=SapOptions(
                trials=trials,
                seed=root_seed,
                time_budget=30,
                use_fooling_bound=False,
            ),
        )

    result = benchmark(solve)
    result.partition.validate(matrix)
    benchmark.extra_info["family"] = f"g{pairs}"
    benchmark.extra_info["real_rank"] = rank_lower_bound(matrix)
    benchmark.extra_info["depth"] = result.depth
    benchmark.extra_info["packing_seconds"] = result.packing_seconds
    benchmark.extra_info["smt_seconds"] = result.smt_seconds
    benchmark.extra_info["ends_with_unsat_proof"] = bool(
        result.queries
        and result.queries[-1].status is SolveStatus.UNSAT
    )


@pytest.mark.parametrize("occupancy", [0.3, 0.5])
def test_figure4_random_controls(benchmark, scale, root_seed, occupancy):
    matrix = random_matrix(10, 10, occupancy, seed=root_seed)
    trials = 100 if scale == "paper" else 20

    def solve():
        return sap_solve(
            matrix,
            options=SapOptions(
                trials=trials,
                seed=root_seed,
                time_budget=30,
                use_fooling_bound=False,
            ),
        )

    result = benchmark(solve)
    benchmark.extra_info["family"] = "r"
    benchmark.extra_info["depth"] = result.depth
    benchmark.extra_info["smt_seconds"] = result.smt_seconds


def test_figure4_unsat_proof_is_the_expensive_part(benchmark, root_seed):
    """Directly measure Observation 5: on an instance with a rank gap,
    the UNSAT query below the optimum costs more conflicts than the SAT
    queries above it."""
    matrix = gap_matrix(10, 10, 4, seed=3)  # known to need SMT work

    def solve():
        return sap_solve(
            matrix,
            options=SapOptions(
                trials=20, seed=0, time_budget=30, use_fooling_bound=False
            ),
        )

    result = benchmark(solve)
    if result.proved_optimal and result.queries:
        unsat_conflicts = sum(
            q.conflicts
            for q in result.queries
            if q.status is SolveStatus.UNSAT
        )
        benchmark.extra_info["unsat_conflicts"] = unsat_conflicts
        benchmark.extra_info["total_queries"] = len(result.queries)
