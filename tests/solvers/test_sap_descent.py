"""Tests for SAP's binary-search descent mode."""

import pytest

from repro.benchgen.gap import gap_matrix
from repro.core.binary_matrix import BinaryMatrix
from repro.core.paper_matrices import equation_2, figure_1b
from repro.solvers.sap import SapOptions, SapStatus, sap_solve


class TestBinaryDescent:
    def test_paper_examples(self):
        queries = []
        for matrix, expected in ((equation_2(), 3), (figure_1b(), 5)):
            result = sap_solve(
                matrix,
                options=SapOptions(
                    trials=16, seed=0, descent="binary", use_fooling_bound=False
                ),
            )
            queries.extend(result.queries)
            assert result.proved_optimal
            assert result.depth == expected
        assert queries

    def test_agrees_with_linear_on_random(self, rng):
        for _ in range(15):
            rows, cols = rng.randint(2, 5), rng.randint(2, 5)
            m = BinaryMatrix(
                [rng.getrandbits(cols) for _ in range(rows)], cols
            )
            linear = sap_solve(
                m, options=SapOptions(trials=4, seed=0, descent="linear")
            )
            binary = sap_solve(
                m, options=SapOptions(trials=4, seed=0, descent="binary")
            )
            assert linear.proved_optimal and binary.proved_optimal
            assert linear.depth == binary.depth

    def test_agrees_on_gap_instances(self):
        queries = []
        for seed in range(4):
            m = gap_matrix(10, 10, 3, seed=seed)
            linear = sap_solve(
                m,
                options=SapOptions(
                    trials=16,
                    seed=0,
                    descent="linear",
                    time_budget=30,
                    use_fooling_bound=False,
                ),
            )
            binary = sap_solve(
                m,
                options=SapOptions(
                    trials=16,
                    seed=0,
                    descent="binary",
                    time_budget=30,
                    use_fooling_bound=False,
                ),
            )
            queries.extend(linear.queries + binary.queries)
            if linear.proved_optimal and binary.proved_optimal:
                assert linear.depth == binary.depth
        assert queries

    def test_budget_interruption_keeps_valid_partition(self):
        m = gap_matrix(10, 10, 4, seed=3)
        result = sap_solve(
            m,
            options=SapOptions(
                trials=4, seed=0, descent="binary", time_budget=0.0
            ),
        )
        result.partition.validate(m)
        assert result.status in (SapStatus.OPTIMAL, SapStatus.FEASIBLE)

    def test_fewer_queries_when_heuristic_is_weak(self):
        """With a deliberately bad upper bound, bisection takes
        O(log(gap)) queries while linear descent walks the whole gap."""
        m = figure_1b()
        weak = SapOptions(
            trials=1, seed=99, descent="binary", use_fooling_bound=False
        )
        result = sap_solve(m, options=weak)
        assert result.queries
        assert result.proved_optimal and result.depth == 5
        if result.heuristic_depth - result.lower_bound > 2:
            assert len(result.queries) <= result.heuristic_depth - result.lower_bound

    def test_unknown_descent_rejected(self):
        with pytest.raises(ValueError):
            SapOptions(descent="ternary")
