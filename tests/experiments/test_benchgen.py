"""Unit tests for the benchmark generators (the paper's three families)."""

import pytest

from repro.benchgen.gap import gap_matrix
from repro.benchgen.known_optimal import known_optimal_matrix
from repro.benchgen.random_matrices import (
    random_matrix,
    random_matrix_exact_ones,
    random_nonempty_matrix,
)
from repro.benchgen.suite import (
    BenchmarkCase,
    gap_suite,
    known_optimal_suite,
    random_suite,
    table1_suites,
)
from repro.core.exceptions import InvalidMatrixError
from repro.linalg.exact_rank import real_rank
from repro.solvers.sap import sap_solve


class TestRandomMatrices:
    def test_shape(self):
        m = random_matrix(4, 7, 0.5, seed=0)
        assert m.shape == (4, 7)

    def test_deterministic(self):
        assert random_matrix(5, 5, 0.3, seed=9) == random_matrix(
            5, 5, 0.3, seed=9
        )

    def test_extremes(self):
        assert random_matrix(3, 3, 0.0, seed=0).is_zero()
        assert random_matrix(3, 3, 1.0, seed=0).count_ones() == 9

    def test_occupancy_statistics(self):
        m = random_matrix(50, 50, 0.2, seed=1)
        assert 0.1 < m.occupancy() < 0.3

    def test_bad_occupancy(self):
        with pytest.raises(InvalidMatrixError):
            random_matrix(2, 2, 1.5)

    def test_exact_ones(self):
        m = random_matrix_exact_ones(4, 4, 7, seed=2)
        assert m.count_ones() == 7

    def test_exact_ones_bad_count(self):
        with pytest.raises(InvalidMatrixError):
            random_matrix_exact_ones(2, 2, 5)

    @pytest.mark.parametrize(
        "shape,name", [((-2, 5), "num_rows"), ((3, -1), "num_cols")]
    )
    def test_negative_dimension_named(self, shape, name):
        with pytest.raises(InvalidMatrixError, match=f"^{name} must be >= 0"):
            random_matrix(*shape, 0.5)
        with pytest.raises(InvalidMatrixError, match=f"^{name} must be >= 0"):
            random_matrix_exact_ones(*shape, 0)

    def test_nonempty(self):
        m = random_nonempty_matrix(2, 2, 0.05, seed=3)
        assert not m.is_zero()


class TestKnownOptimal:
    @pytest.mark.parametrize("rank", [1, 2, 4, 6])
    def test_rank_certified(self, rank):
        matrix, partition = known_optimal_matrix(8, 8, rank, seed=rank)
        partition.validate(matrix)
        assert partition.depth == rank
        assert real_rank(matrix) == rank

    def test_sap_confirms_optimum(self):
        matrix, partition = known_optimal_matrix(7, 7, 3, seed=5)
        result = sap_solve(matrix, trials=16, seed=0)
        assert result.proved_optimal
        assert result.depth == 3

    def test_bad_rank_rejected(self):
        with pytest.raises(InvalidMatrixError):
            known_optimal_matrix(4, 4, 5)
        with pytest.raises(InvalidMatrixError):
            known_optimal_matrix(4, 4, 0)


class TestGap:
    def test_shape(self):
        m = gap_matrix(10, 10, 3, seed=0)
        assert m.shape == (10, 10)

    def test_pair_rows_sum_to_base(self):
        m = gap_matrix(8, 8, 2, seed=1)
        # rows 0,1 and rows 2,3 are the split pairs: disjoint, same union
        pair_a = m.row_mask(0) | m.row_mask(1)
        pair_b = m.row_mask(2) | m.row_mask(3)
        assert pair_a == pair_b
        assert m.row_mask(0) & m.row_mask(1) == 0
        assert m.row_mask(2) & m.row_mask(3) == 0
        assert m.row_mask(0) != 0 and m.row_mask(1) != 0

    def test_too_many_pairs_rejected(self):
        with pytest.raises(InvalidMatrixError):
            gap_matrix(4, 4, 3)

    def test_zero_pairs_rejected(self):
        with pytest.raises(InvalidMatrixError):
            gap_matrix(4, 4, 0)

    def test_gap_appears_sometimes(self):
        """At least one of several gap draws should show r_B > rank_R
        (that is the construction's purpose)."""
        found_gap = False
        for seed in range(12):
            m = gap_matrix(10, 10, 4, seed=seed)
            result = sap_solve(m, trials=32, seed=0, time_budget=20)
            if result.proved_optimal and result.depth > real_rank(m):
                found_gap = True
                break
        assert found_gap


class TestSuites:
    def test_random_suite_counts(self):
        cases = random_suite((10, 10), (0.1, 0.5), 3, seed=0)
        assert len(cases) == 6
        assert all(isinstance(c, BenchmarkCase) for c in cases)
        assert len({c.case_id for c in cases}) == 6

    def test_known_optimal_suite(self):
        cases = known_optimal_suite((10, 10), [1, 2], 2, seed=0)
        assert len(cases) == 4
        assert all(c.known_binary_rank in (1, 2) for c in cases)

    def test_gap_suite(self):
        cases = gap_suite((10, 10), 3, 5, seed=0)
        assert len(cases) == 5
        assert all("gap, 3" in c.family for c in cases)

    def test_table1_suites_quick(self):
        suites = table1_suites(scale="quick", include_large=False)
        assert "10x10, rand" in suites
        assert "10x10, opt" in suites
        assert "10x10, gap, 5" in suites
        assert "100x100, rand" not in suites

    def test_table1_suites_include_large(self):
        suites = table1_suites(scale="quick", include_large=True)
        assert "100x100, rand" in suites
        large = suites["100x100, rand"]
        assert all(c.matrix.shape == (100, 100) for c in large)

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            table1_suites(scale="huge")

    def test_deterministic(self):
        a = table1_suites(scale="quick", include_large=False, seed=5)
        b = table1_suites(scale="quick", include_large=False, seed=5)
        for family in a:
            for ca, cb in zip(a[family], b[family]):
                assert ca.matrix == cb.matrix
