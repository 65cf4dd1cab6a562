"""Unit tests for SAP (Algorithm 1)."""

import pytest

from repro.benchgen.gap import gap_matrix
from repro.core.binary_matrix import BinaryMatrix
from repro.core.paper_matrices import equation_2, figure_1b
from repro.sat.solver import SolveStatus
from repro.solvers.sap import SapOptions, SapStatus, binary_rank, sap_solve


class TestBasics:
    def test_zero_matrix(self):
        result = sap_solve(BinaryMatrix.zeros(3, 3))
        assert result.depth == 0
        assert result.status is SapStatus.OPTIMAL

    def test_equation_2(self):
        result = sap_solve(equation_2(), trials=8, seed=0)
        assert result.proved_optimal
        assert result.depth == 3
        assert result.binary_rank == 3
        result.partition.validate(equation_2())

    def test_figure_1b(self):
        result = sap_solve(figure_1b(), trials=16, seed=0)
        assert result.proved_optimal and result.depth == 5

    def test_lower_bound_recorded(self):
        result = sap_solve(
            figure_1b(), trials=16, seed=0, use_fooling_bound=False
        )
        assert result.queries
        assert result.lower_bound == 4  # the real rank; r_B is 5
        # By default the fooling number, 5, is the bound.
        assert sap_solve(figure_1b(), trials=16, seed=0).lower_bound == 5

    def test_heuristic_depth_recorded(self):
        result = sap_solve(figure_1b(), trials=16, seed=0)
        assert result.heuristic_depth >= result.depth

    def test_binary_rank_none_when_not_proven(self):
        matrix = gap_matrix(10, 10, 4, seed=5)
        result = sap_solve(matrix, trials=4, seed=0, time_budget=0.0)
        if not result.proved_optimal:
            assert result.binary_rank is None


class TestQueryDescent:
    def test_unsat_proof_recorded(self):
        """Eq. 2: rank 3 == r_B, so packing already matches the bound and
        no query is needed.  Figure 1b needs a real UNSAT proof at 4 on
        the paper's formula (its fooling number, 5, proves it without
        one)."""
        result = sap_solve(
            figure_1b(), trials=16, seed=0, use_fooling_bound=False
        )
        assert result.queries, "expected SMT queries for figure 1b"
        assert result.queries[-1].status is SolveStatus.UNSAT
        assert result.queries[-1].bound == 4

    def test_descending_bounds(self):
        result = sap_solve(
            figure_1b(), trials=1, seed=12, use_fooling_bound=False
        )
        assert result.queries
        bounds = [q.bound for q in result.queries]
        assert bounds == sorted(bounds, reverse=True)

    def test_early_exit_when_heuristic_hits_rank(self):
        m = BinaryMatrix.identity(5)
        result = sap_solve(m, trials=2, seed=0)
        assert result.proved_optimal
        assert not result.queries  # no SMT needed


class TestOptions:
    def test_binary_encoding(self):
        result = sap_solve(
            figure_1b(),
            options=SapOptions(
                trials=16, seed=0, encoding="binary", use_fooling_bound=False
            ),
        )
        assert result.queries
        assert result.proved_optimal and result.depth == 5

    def test_no_reduce(self):
        result = sap_solve(
            figure_1b(),
            options=SapOptions(
                trials=16, seed=0, reduce=False, use_fooling_bound=False
            ),
        )
        assert result.queries
        assert result.proved_optimal and result.depth == 5

    def test_non_incremental(self):
        result = sap_solve(
            figure_1b(),
            options=SapOptions(
                trials=16, seed=0, incremental=False, use_fooling_bound=False
            ),
        )
        assert result.queries
        assert result.proved_optimal and result.depth == 5

    def test_fooling_bound_tightens(self):
        result = sap_solve(
            figure_1b(),
            options=SapOptions(trials=16, seed=0, use_fooling_bound=True),
        )
        assert result.lower_bound == 5
        assert result.proved_optimal
        assert not result.queries  # fooling bound closes the gap upfront

    def test_options_kwargs_conflict(self):
        with pytest.raises(ValueError):
            sap_solve(equation_2(), options=SapOptions(), trials=3)


class TestBudget:
    def test_zero_budget_still_returns_valid_partition(self):
        matrix = gap_matrix(10, 10, 3, seed=3)
        result = sap_solve(matrix, trials=4, seed=0, time_budget=0.0)
        result.partition.validate(matrix)
        assert result.status in (SapStatus.OPTIMAL, SapStatus.FEASIBLE)

    def test_phase_seconds_keys(self):
        result = sap_solve(figure_1b(), trials=8, seed=0)
        assert "packing" in result.phase_seconds
        assert "bounds" in result.phase_seconds
        assert result.packing_seconds >= 0.0
        assert result.smt_seconds >= 0.0


class TestBinaryRankHelper:
    def test_value(self):
        assert binary_rank(equation_2(), trials=8, seed=0) == 3

    def test_raises_on_budget_failure(self):
        matrix = gap_matrix(10, 10, 4, seed=11)
        try:
            rank = binary_rank(matrix, trials=2, seed=0, time_budget=0.0)
        except TimeoutError:
            return
        assert rank >= 1  # solved instantly (rank matched heuristic)


class TestAgainstBranchAndBound:
    def test_agreement_on_small_random(self, rng):
        from repro.solvers.branch_bound import binary_rank_branch_bound

        for _ in range(20):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            m = BinaryMatrix(
                [rng.getrandbits(cols) for _ in range(rows)], cols
            )
            sap = sap_solve(m, trials=8, seed=1)
            assert sap.proved_optimal
            assert sap.depth == binary_rank_branch_bound(m).binary_rank
