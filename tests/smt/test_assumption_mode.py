"""Assumption-based bound queries (indicator variables) tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.binary_matrix import BinaryMatrix
from repro.core.exceptions import EncodingError
from repro.core.paper_matrices import equation_2, figure_1b
from repro.sat.solver import SolveStatus
from repro.smt.encoder import DirectEncoder, make_encoder
from repro.smt.oracle import RankDecisionOracle
from repro.solvers.branch_bound import binary_rank_branch_bound
from repro.solvers.sap import SapOptions, sap_solve


class TestIndicatorEncoding:
    def test_indicators_off_by_default(self):
        encoder = DirectEncoder(equation_2(), 3)
        assert not encoder.has_indicators
        with pytest.raises(EncodingError):
            encoder.assumption_for(2)

    def test_assumption_for_bounds(self):
        encoder = DirectEncoder(equation_2(), 4, indicators=True)
        assert encoder.has_indicators
        assert encoder.assumption_for(4) == []
        assert encoder.assumption_for(5) == []
        assert len(encoder.assumption_for(3)) == 1
        with pytest.raises(EncodingError):
            encoder.assumption_for(-1)

    def test_assumption_queries_match_known_ranks(self):
        """Eq. 2 matrix: r_B = 3.  One encoder answers all bounds."""
        matrix = equation_2()
        encoder = DirectEncoder(matrix, 4, indicators=True)
        assert encoder.solve(assumptions=encoder.assumption_for(3)) is SolveStatus.SAT
        assert encoder.solve(assumptions=encoder.assumption_for(2)) is SolveStatus.UNSAT
        # Back up again: unlike narrowing, this must still be SAT.
        assert encoder.solve(assumptions=encoder.assumption_for(3)) is SolveStatus.SAT
        partition = encoder.extract_partition()
        partition.validate(matrix)
        assert partition.depth == 3

    def test_figure_1b_assumption_descent(self):
        matrix = figure_1b()
        encoder = DirectEncoder(matrix, 6, indicators=True)
        assert encoder.solve(assumptions=encoder.assumption_for(5)) is SolveStatus.SAT
        assert encoder.solve(assumptions=encoder.assumption_for(4)) is SolveStatus.UNSAT

    def test_make_encoder_rejects_binary_indicators(self):
        with pytest.raises(EncodingError):
            make_encoder(equation_2(), 3, encoding="binary", indicators=True)

    def test_zero_bound_matrix_with_indicators(self):
        zero = BinaryMatrix.zeros(3, 3)
        encoder = DirectEncoder(zero, 2, indicators=True)
        assert encoder.solve() is SolveStatus.SAT


class TestAssumptionOracle:
    def test_bound_can_move_both_ways(self):
        oracle = RankDecisionOracle(equation_2(), query_mode="assumption")
        oracle.prime(4)
        status, _ = oracle.check_at_most(2)
        assert status is SolveStatus.UNSAT
        status, partition = oracle.check_at_most(3)
        assert status is SolveStatus.SAT
        assert partition is not None and partition.depth == 3

    def test_cannot_exceed_primed_bound(self):
        oracle = RankDecisionOracle(equation_2(), query_mode="assumption")
        oracle.prime(3)
        oracle.check_at_most(3)
        with pytest.raises(EncodingError):
            oracle.check_at_most(4)

    def test_requires_direct_encoding(self):
        with pytest.raises(EncodingError):
            RankDecisionOracle(
                equation_2(), encoding="binary", query_mode="assumption"
            )

    def test_requires_incremental(self):
        with pytest.raises(EncodingError):
            RankDecisionOracle(
                equation_2(), incremental=False, query_mode="assumption"
            )

    def test_rejects_unknown_mode(self):
        with pytest.raises(EncodingError):
            RankDecisionOracle(equation_2(), query_mode="bogus")

    def test_narrow_and_assumption_agree(self):
        matrix = figure_1b()
        narrow = RankDecisionOracle(matrix)
        assumption = RankDecisionOracle(matrix, query_mode="assumption")
        assumption.prime(6)
        for bound in (5, 4):
            status_n, _ = narrow.check_at_most(bound)
            status_a, _ = assumption.check_at_most(bound)
            assert status_n is status_a


class TestAssumptionDescent:
    def test_options_accept_assumption(self):
        options = SapOptions(descent="assumption")
        assert options.descent == "assumption"

    def test_options_reject_unknown(self):
        with pytest.raises(ValueError):
            SapOptions(descent="bogus")

    @pytest.mark.parametrize("descent", ["linear", "binary", "assumption"])
    def test_descents_agree_on_paper_matrices(self, descent):
        queries = []
        for matrix in (equation_2(), figure_1b()):
            result = sap_solve(
                matrix,
                options=SapOptions(
                    trials=20, seed=7, descent=descent, use_fooling_bound=False
                ),
            )
            queries.extend(result.queries)
            assert result.proved_optimal
            reference = binary_rank_branch_bound(matrix).binary_rank
            assert result.depth == reference
            result.partition.validate(matrix)
        assert queries

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_descents_agree_on_random_matrices(self, seed):
        from repro.benchgen.random_matrices import random_matrix

        matrix = random_matrix(5, 5, occupancy=0.5, seed=seed)
        depths = set()
        for descent in ("linear", "binary", "assumption"):
            result = sap_solve(
                matrix,
                options=SapOptions(trials=10, seed=seed, descent=descent),
            )
            assert result.proved_optimal
            result.partition.validate(matrix)
            depths.add(result.depth)
        assert len(depths) == 1

    def test_assumption_descent_reuses_one_solver(self):
        matrix = figure_1b()
        result = sap_solve(
            matrix,
            options=SapOptions(
                trials=5, seed=3, descent="assumption", use_fooling_bound=False
            ),
        )
        assert result.queries
        assert result.proved_optimal
        assert result.depth == 5
        # All queries ran against a single primed encoder, so every
        # recorded query bound sits within the initial priming bound.
        assert all(q.bound <= result.heuristic_depth - 1 for q in result.queries)
