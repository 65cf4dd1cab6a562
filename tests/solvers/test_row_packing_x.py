"""Unit tests for the Algorithm X row-packing variant."""

from repro.core.binary_matrix import BinaryMatrix
from repro.core.bounds import trivial_upper_bound
from repro.core.paper_matrices import figure_3
from repro.solvers.row_packing import PackingOptions, pack_rows_once
from repro.solvers.row_packing_x import (
    exact_cover,
    pack_rows_once_x,
    row_packing_x,
)


def _mask(columns):
    return sum(1 << column for column in columns)


class TestExactCover:
    def test_knuth_example(self):
        """The classic 7-column example from Knuth's paper."""
        rows = {
            "A": [0, 3, 6],
            "B": [0, 3],
            "C": [3, 4, 6],
            "D": [2, 4, 5],
            "E": [1, 2, 5, 6],
            "F": [1, 6],
        }
        names = list(rows)
        candidates = {
            key: _mask(rows[name]) for key, name in enumerate(names)
        }
        cover = exact_cover(_mask(range(7)), candidates)
        assert cover is not None
        assert sorted(names[key] for key in cover) == ["B", "D", "F"]

    def test_no_solution(self):
        assert exact_cover(0b11, {0: 0b01}) is None

    def test_no_cover_when_candidates_overlap(self):
        assert exact_cover(0b111, {0: 0b001, 1: 0b011}) is None

    def test_no_candidates(self):
        assert exact_cover(0b11, {}) is None

    def test_empty_universe(self):
        assert exact_cover(0, {}) == []

    def test_zero_universe(self):
        """Candidate 0 covers the whole universe and leaves it zero,
        which ends the search with that one candidate."""
        assert exact_cover(0b1011, {0: 0b1011, 1: 0b0001}) == [0]

    def test_simple_cover(self):
        cover = exact_cover(0b1111, {0: 0b0011, 1: 0b1100, 2: 0b0110})
        assert sorted(cover) == [0, 1]

    def test_sparse_universe(self):
        # universe with gaps: bits 0, 2, 5
        cover = exact_cover(0b100101, {0: 0b000101, 1: 0b100000})
        assert sorted(cover) == [0, 1]

    def test_solution_covers_exactly(self):
        candidates = {0: 0b0011, 1: 0b1100, 2: 0b0110, 3: 0b0001, 4: 0b1000}
        cover = exact_cover(0b1111, candidates)
        masks = [candidates[key] for key in cover]
        assert sum(masks) == 0b1111
        assert sum(bin(mask).count("1") for mask in masks) == 4

    def test_two_covers_follow_fewest_candidates(self):
        """Both {0, 2} and {1, 3} cover 0b1111.  Bit 0 has three
        candidates and bit 1 two, so the search branches on bit 1 and
        its first candidate, 1, leads to {1, 3}; branching on the lowest
        bit would have found {0, 2} first."""
        candidates = {0: 0b0001, 1: 0b0011, 2: 0b1110, 3: 0b1100, 4: 0b0101}
        assert exact_cover(0b1111, candidates) == [1, 3]


class TestPackRowsOnceX:
    def test_exact_cover_beats_greedy_order(self):
        """A row decomposable only by skipping an early basis vector:
        greedy first-fit fragments it, Algorithm X covers it exactly.

        basis after three rows: v0=1110, v1=1100, v2=0011.
        row 1111 greedy: v0 fits -> residue 0001 -> new rectangle.
        exact cover finds v1 + v2.
        """
        m = BinaryMatrix.from_strings(["1110", "1100", "0011", "1111"])
        greedy = pack_rows_once(m, range(4))
        exact = pack_rows_once_x(m, range(4))
        greedy.validate(m)
        exact.validate(m)
        assert exact.depth <= greedy.depth
        assert exact.depth == 3

    def test_matches_plain_packing_when_no_cover_needed(self):
        m = figure_3()
        plain = pack_rows_once(m, range(5))
        with_x = pack_rows_once_x(m, range(5))
        with_x.validate(m)
        assert with_x.depth <= plain.depth

    def test_fallback_to_greedy_with_residue(self):
        m = BinaryMatrix.from_strings(["1100", "0111"])
        partition = pack_rows_once_x(m, range(2))
        partition.validate(m)

    def test_zero_matrix(self):
        m = BinaryMatrix.zeros(2, 2)
        assert pack_rows_once_x(m, range(2)).depth == 0


class TestRowPackingX:
    def test_always_valid(self, rng):
        for _ in range(20):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            m = BinaryMatrix(
                [rng.getrandbits(cols) for _ in range(rows)], cols
            )
            partition = row_packing_x(
                m, options=PackingOptions(trials=3, seed=rng.randint(0, 99))
            )
            partition.validate(m)

    def test_never_worse_than_trivial(self, rng):
        for _ in range(20):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            m = BinaryMatrix(
                [rng.getrandbits(cols) for _ in range(rows)], cols
            )
            partition = row_packing_x(
                m, options=PackingOptions(trials=2, seed=0)
            )
            assert partition.depth <= trivial_upper_bound(m)
