"""The paper's five Observations (Section IV-B) as executable checks.

Small-scale but faithful: each test regenerates the phenomenon behind
one observation rather than asserting the paper's exact percentages.
"""

from repro.benchgen.gap import gap_matrix
from repro.benchgen.known_optimal import known_optimal_matrix
from repro.benchgen.random_matrices import random_matrix
from repro.core.bounds import rank_lower_bound
from repro.linalg.exact_rank import real_rank
from repro.sat.solver import SolveStatus
from repro.solvers.registry import make_heuristic
from repro.solvers.sap import SapOptions, sap_solve
from repro.solvers.trivial import trivial_partition


class TestObservation1:
    """Real and binary ranks are equal with high probability for random
    matrices — driven by near-full real rank of wide random draws."""

    def test_wide_random_mostly_full_rank(self):
        full = 0
        for seed in range(20):
            m = random_matrix(10, 30, 0.4, seed=seed)
            if real_rank(m) == 10:
                full += 1
        assert full >= 18

    def test_rank_equality_on_random_sample(self):
        agree = total = 0
        for seed in range(10):
            m = random_matrix(8, 16, 0.4, seed=seed)
            result = sap_solve(
                m, options=SapOptions(trials=16, seed=0, time_budget=20)
            )
            if result.proved_optimal:
                total += 1
                agree += int(result.depth == rank_lower_bound(m))
        assert total >= 8
        assert agree / total >= 0.8


class TestObservation2:
    """The known-optimal benchmarks are easy — even the trivial
    heuristic solves them (column duplication gets recognized)."""

    def test_trivial_solves_known_optimal(self):
        for rank in (2, 4, 6):
            for seed in range(3):
                matrix, _ = known_optimal_matrix(
                    10, 10, rank, seed=seed * 31 + rank
                )
                assert trivial_partition(matrix).depth == rank


class TestObservation3:
    """Row packing is effective: a large jump from trivial to one trial
    on gap matrices, then improvement with more trials, saturating."""

    def test_packing_beats_trivial_on_gap(self):
        trivial_total = packing_total = 0
        for seed in range(10):
            m = gap_matrix(10, 10, 3, seed=seed)
            trivial_total += trivial_partition(m).depth
            packing_total += make_heuristic("packing:1")(m, seed).depth
        assert packing_total < trivial_total

    def test_more_trials_monotone(self):
        totals = {}
        for trials in (1, 10, 50):
            heuristic = make_heuristic(f"packing:{trials}")
            totals[trials] = sum(
                heuristic(gap_matrix(10, 10, 3, seed=s), 7).depth
                for s in range(8)
            )
        assert totals[50] <= totals[10] <= totals[1]


class TestObservation4:
    """Row packing's failure mode: the heuristic introduces at most one
    new basis vector per row, so rows that should split into several new
    vectors at once need a lucky order.  Figure 3's matrix with the
    top-down order is exactly such a case (5 found vs optimum 4)."""

    def test_single_order_can_be_fooled(self):
        from repro.core.paper_matrices import figure_3
        from repro.solvers.row_packing import pack_rows_once

        m = figure_3()
        bad_order = pack_rows_once(m, [0, 1, 2, 3, 4])
        result = sap_solve(m, trials=64, seed=0)
        assert result.proved_optimal and result.depth == 4
        assert bad_order.depth == 5  # the greedy order is fooled

    def test_shuffling_recovers(self):
        from repro.core.paper_matrices import figure_3
        from repro.solvers.row_packing import PackingOptions, row_packing

        m = figure_3()
        partition = row_packing(
            m, options=PackingOptions(trials=64, seed=0)
        )
        assert partition.depth == 4


class TestObservation5:
    """The expensive step is proving UNSAT one below the final depth."""

    def test_unsat_query_dominates_conflicts(self):
        m = gap_matrix(10, 10, 4, seed=3)  # needs a real optimality proof
        # Observation 5 is about the paper's solver: its formula.
        result = sap_solve(
            m,
            options=SapOptions(
                trials=32, seed=0, time_budget=30, use_fooling_bound=False
            ),
        )
        assert result.proved_optimal
        assert result.queries
        last = result.queries[-1]
        assert last.status is SolveStatus.UNSAT
        sat_conflicts = sum(
            q.conflicts
            for q in result.queries
            if q.status is SolveStatus.SAT
        )
        assert last.conflicts >= sat_conflicts
