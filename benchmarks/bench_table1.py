"""Benchmarks regenerating Table I.

Each benchmark times one heuristic column over one benchmark family and
records the fraction of certified-optimal hits in ``extra_info`` — the
same numbers Table I reports.  The full rendered table comes from
``python -m repro.experiments.table1``.
"""

from __future__ import annotations

import pytest

from repro.benchgen.suite import gap_suite, known_optimal_suite, random_suite
from repro.core.bounds import rank_lower_bound
from repro.experiments.common import case_seed
from repro.solvers.registry import make_heuristic
from repro.solvers.sap import SapOptions, sap_solve

HEURISTICS = ("trivial", "packing:1", "packing:10", "packing:100")


def _family(scale: str, name: str, seed: int):
    count = 10 if scale == "paper" else 2
    if name == "rand10x10":
        return random_suite((10, 10), (0.2, 0.5, 0.8), count, seed=seed)
    if name == "rand10x30":
        return random_suite((10, 30), (0.2, 0.5, 0.8), count, seed=seed)
    if name == "opt":
        return known_optimal_suite((10, 10), (2, 5, 8), count, seed=seed)
    if name == "gap3":
        return gap_suite((10, 10), 3, 3 * count, seed=seed)
    if name == "gap5":
        return gap_suite((10, 10), 5, 3 * count, seed=seed)
    raise ValueError(name)


def _optima(cases, seed):
    """Certified optimum per case (SAP with a generous budget)."""
    optima = {}
    for case in cases:
        if case.known_binary_rank is not None:
            optima[case.case_id] = case.known_binary_rank
            continue
        result = sap_solve(
            case.matrix,
            options=SapOptions(
                trials=32,
                seed=case_seed(seed, case.case_id, "bench-opt"),
                time_budget=30,
            ),
        )
        if result.proved_optimal:
            optima[case.case_id] = result.depth
    return optima


@pytest.mark.parametrize("family", ["rand10x10", "rand10x30", "opt", "gap3", "gap5"])
@pytest.mark.parametrize("heuristic_name", HEURISTICS)
def test_table1_heuristic(benchmark, scale, root_seed, family, heuristic_name):
    cases = _family(scale, family, root_seed)
    optima = _optima(cases, root_seed)
    heuristic = make_heuristic(heuristic_name)

    def run_column():
        depths = {}
        for case in cases:
            seed = case_seed(root_seed, case.case_id, heuristic_name)
            depths[case.case_id] = heuristic(case.matrix, seed).depth
        return depths

    depths = benchmark(run_column)

    certified = [cid for cid in depths if cid in optima]
    hits = sum(1 for cid in certified if depths[cid] == optima[cid])
    benchmark.extra_info["family"] = family
    benchmark.extra_info["heuristic"] = heuristic_name
    benchmark.extra_info["optimal_fraction"] = (
        hits / len(certified) if certified else None
    )
    benchmark.extra_info["certified_cases"] = len(certified)
    # Paper shape: every heuristic solution is at least the rank bound.
    for case in cases:
        assert depths[case.case_id] >= rank_lower_bound(case.matrix)


@pytest.mark.parametrize("family", ["rand10x10", "gap3"])
def test_table1_rank_column(benchmark, scale, root_seed, family):
    """The 'rank' column: fraction of cases with rank_R == r_B."""
    cases = _family(scale, family, root_seed)
    optima = _optima(cases, root_seed)

    def rank_agreement():
        agree = 0
        for case in cases:
            if case.case_id in optima and optima[
                case.case_id
            ] == rank_lower_bound(case.matrix):
                agree += 1
        return agree

    agree = benchmark(rank_agreement)
    benchmark.extra_info["family"] = family
    benchmark.extra_info["rank_equals_binary_fraction"] = (
        agree / len(optima) if optima else None
    )
