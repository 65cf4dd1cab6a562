"""Unit tests for fooling sets and the max-clique core."""

import random

from repro.core.binary_matrix import BinaryMatrix
from repro.core.fooling import (
    _fooling_adjacency,
    fooling_number,
    greedy_fooling_set,
    is_fooling_pair,
    max_clique_mask,
    max_fooling_set,
    verify_fooling_set,
)
from repro.core.paper_matrices import equation_2, figure_1b
from repro.utils.bitops import bit_indices


class TestIsFoolingPair:
    def test_diagonal_cells_of_identity(self):
        m = BinaryMatrix.identity(2)
        assert is_fooling_pair(m, (0, 0), (1, 1))

    def test_same_row_never_fooling(self):
        m = BinaryMatrix.from_strings(["11"])
        assert not is_fooling_pair(m, (0, 0), (0, 1))

    def test_same_col_never_fooling(self):
        m = BinaryMatrix.from_strings(["1", "1"])
        assert not is_fooling_pair(m, (0, 0), (1, 0))

    def test_both_crosses_one_not_fooling(self):
        m = BinaryMatrix.all_ones(2, 2)
        assert not is_fooling_pair(m, (0, 0), (1, 1))


class TestMaxCliqueMask:
    def test_empty_graph(self):
        assert max_clique_mask([]) == 0

    def test_independent_vertices(self):
        mask = max_clique_mask([0, 0, 0])
        assert bin(mask).count("1") == 1

    def test_triangle(self):
        adjacency = [0b110, 0b101, 0b011]
        assert max_clique_mask(adjacency) == 0b111

    def test_path_graph(self):
        # 0-1-2: max clique is an edge
        adjacency = [0b010, 0b101, 0b010]
        mask = max_clique_mask(adjacency)
        assert bin(mask).count("1") == 2

    def test_seed_mask_respected(self):
        adjacency = [0b110, 0b101, 0b011]
        assert max_clique_mask(adjacency, seed_mask=0b111) == 0b111


class TestFoolingSets:
    def test_identity_fooling_number(self):
        assert fooling_number(BinaryMatrix.identity(4)) == 4

    def test_all_ones_fooling_number(self):
        assert fooling_number(BinaryMatrix.all_ones(3, 3)) == 1

    def test_zero_matrix(self):
        assert fooling_number(BinaryMatrix.zeros(2, 2)) == 0
        assert max_fooling_set(BinaryMatrix.zeros(2, 2)) == []

    def test_figure_1b_has_fooling_number_5(self):
        # The paper's Figure 1b marks a fooling set of size 5.
        assert fooling_number(figure_1b()) == 5

    def test_equation_2_fooling_gap(self):
        # Eq. 2: any fooling set has size <= 2 although r_B = 3.
        assert fooling_number(equation_2()) == 2

    def test_greedy_result_is_valid(self):
        m = figure_1b()
        cells = greedy_fooling_set(m, trials=4, seed=0)
        assert verify_fooling_set(m, cells)

    def test_exact_result_is_valid_and_maximal(self):
        m = figure_1b()
        cells = max_fooling_set(m, seed=0)
        assert verify_fooling_set(m, cells)
        assert len(cells) >= len(greedy_fooling_set(m, trials=4, seed=0))

    def test_exact_search_starts_from_the_greedy_set(self):
        """The exact search is primed with the 8-trial greedy set, drawn
        from the generator exactly as greedy_fooling_set draws it."""
        rng = random.Random(7)
        for _ in range(80):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            m = BinaryMatrix(
                [rng.getrandbits(cols) for _ in range(rows)], cols
            )
            cells = list(m.ones())
            before = rng.getstate()
            greedy = greedy_fooling_set(m, trials=8, seed=rng)
            after = rng.getstate()
            rng.setstate(before)
            exact = max_fooling_set(m, seed=rng)
            assert rng.getstate() == after
            seed_mask = sum(1 << cells.index(cell) for cell in greedy)
            best = max_clique_mask(
                _fooling_adjacency(m, cells), seed_mask=seed_mask
            )
            assert exact == [cells[v] for v in bit_indices(best)]

    def test_greedy_fallback_for_large_matrices(self):
        m = BinaryMatrix.identity(12)
        cells = max_fooling_set(m, max_cells=4, seed=0)
        assert verify_fooling_set(m, cells)

    def test_inexact_mode(self):
        assert fooling_number(BinaryMatrix.identity(4), exact=False) >= 1


class TestVerifyFoolingSet:
    def test_rejects_zero_cell(self):
        m = BinaryMatrix.identity(2)
        assert not verify_fooling_set(m, [(0, 1)])

    def test_rejects_non_fooling_pair(self):
        m = BinaryMatrix.all_ones(2, 2)
        assert not verify_fooling_set(m, [(0, 0), (1, 1)])

    def test_accepts_empty(self):
        assert verify_fooling_set(BinaryMatrix.zeros(1, 1), [])
