"""Unit tests for the EBMF CNF encoders (Eq. 4)."""

import pytest

from repro.core.binary_matrix import BinaryMatrix
from repro.core.exceptions import EncodingError
from repro.core.fooling import max_fooling_set
from repro.core.paper_matrices import equation_2, figure_1b
from repro.cover.validate import validate_cover
from repro.sat.solver import SolveStatus
from repro.smt.encoder import (
    BinaryLabelEncoder,
    DirectEncoder,
    make_encoder,
)
from repro.solvers.branch_bound import binary_rank_branch_bound

ENCODER_IDS = ["direct-precedence", "direct-restricted", "direct-none", "binary"]


def encoders_for(matrix, bound):
    return [
        DirectEncoder(matrix, bound, symmetry="precedence"),
        DirectEncoder(matrix, bound, symmetry="restricted"),
        DirectEncoder(matrix, bound, symmetry="none"),
        BinaryLabelEncoder(matrix, bound),
    ]


class TestDecisionCorrectness:
    @pytest.mark.parametrize("index", range(4), ids=ENCODER_IDS)
    def test_equation_2_boundary(self, index):
        """Eq. 2 matrix: r_B = 3, so bound 3 is SAT and bound 2 UNSAT."""
        m = equation_2()
        sat_encoder = encoders_for(m, 3)[index]
        assert sat_encoder.solve() is SolveStatus.SAT
        partition = sat_encoder.extract_partition()
        partition.validate(m)
        assert partition.depth <= 3

        unsat_encoder = encoders_for(m, 2)[index]
        assert unsat_encoder.solve() is SolveStatus.UNSAT

    @pytest.mark.parametrize("index", range(4), ids=ENCODER_IDS)
    def test_figure_1b_boundary(self, index):
        m = figure_1b()
        assert encoders_for(m, 5)[index].solve() is SolveStatus.SAT
        assert encoders_for(m, 4)[index].solve() is SolveStatus.UNSAT

    @pytest.mark.parametrize("index", range(4), ids=ENCODER_IDS)
    def test_matches_branch_and_bound_on_random(self, index, rng):
        for _ in range(10):
            rows, cols = rng.randint(2, 4), rng.randint(2, 4)
            m = BinaryMatrix(
                [rng.getrandbits(cols) for _ in range(rows)], cols
            )
            if m.is_zero():
                continue
            truth = binary_rank_branch_bound(m).binary_rank
            at_truth = encoders_for(m, truth)[index]
            assert at_truth.solve() is SolveStatus.SAT
            if truth > 1:
                below = encoders_for(m, truth - 1)[index]
                assert below.solve() is SolveStatus.UNSAT


class TestNarrowing:
    def test_incremental_descent_direct(self):
        m = figure_1b()
        encoder = DirectEncoder(m, 6)
        assert encoder.solve() is SolveStatus.SAT
        encoder.narrow_to(5)
        assert encoder.solve() is SolveStatus.SAT
        encoder.narrow_to(4)
        assert encoder.solve() is SolveStatus.UNSAT

    def test_incremental_descent_binary(self):
        m = equation_2()
        encoder = BinaryLabelEncoder(m, 4)
        assert encoder.solve() is SolveStatus.SAT
        encoder.narrow_to(3)
        assert encoder.solve() is SolveStatus.SAT
        encoder.narrow_to(2)
        assert encoder.solve() is SolveStatus.UNSAT

    def test_widening_rejected(self):
        encoder = DirectEncoder(equation_2(), 3)
        with pytest.raises(EncodingError):
            encoder.narrow_to(4)

    def test_narrow_to_zero_with_cells_is_unsat(self):
        encoder = DirectEncoder(equation_2(), 3)
        encoder.narrow_to(0)
        assert encoder.solve() is SolveStatus.UNSAT


class TestEdgeCases:
    def test_zero_matrix_any_bound_sat(self):
        m = BinaryMatrix.zeros(3, 3)
        encoder = DirectEncoder(m, 0)
        assert encoder.solve() is SolveStatus.SAT
        assert encoder.extract_partition().depth == 0

    def test_bound_zero_nonzero_matrix_unsat(self):
        encoder = DirectEncoder(BinaryMatrix.identity(2), 0)
        assert encoder.solve() is SolveStatus.UNSAT

    def test_negative_bound_rejected(self):
        with pytest.raises(EncodingError):
            DirectEncoder(BinaryMatrix.identity(2), -1)
        with pytest.raises(EncodingError):
            BinaryLabelEncoder(BinaryMatrix.identity(2), -1)

    def test_unknown_symmetry_rejected(self):
        with pytest.raises(EncodingError):
            DirectEncoder(BinaryMatrix.identity(2), 2, symmetry="magic")

    def test_bound_larger_than_cells(self):
        m = BinaryMatrix.identity(2)
        encoder = DirectEncoder(m, 10)
        assert encoder.solve() is SolveStatus.SAT
        partition = encoder.extract_partition()
        partition.validate(m)
        assert partition.depth == 2

    def test_single_cell(self):
        m = BinaryMatrix.from_strings(["010"])
        encoder = DirectEncoder(m, 1)
        assert encoder.solve() is SolveStatus.SAT
        assert encoder.extract_partition().depth == 1


class TestFactory:
    def test_direct(self):
        assert isinstance(
            make_encoder(equation_2(), 3, encoding="direct"), DirectEncoder
        )

    def test_binary(self):
        assert isinstance(
            make_encoder(equation_2(), 3, encoding="binary"),
            BinaryLabelEncoder,
        )

    def test_unknown(self):
        with pytest.raises(EncodingError):
            make_encoder(equation_2(), 3, encoding="cp")


class TestCover:
    """``cover=True``: labels may overlap (boolean rank)."""

    MATRIX = BinaryMatrix.from_strings(["110", "111", "011"])

    def test_two_overlapping_rectangles(self):
        encoder = DirectEncoder(self.MATRIX, 2, cover=True)
        assert encoder.solve() is SolveStatus.SAT
        cover = encoder.decode()
        validate_cover(self.MATRIX, cover)
        assert cover.depth == 2
        first, second = cover
        assert first.contains(1, 1) and second.contains(1, 1)

    def test_partition_formula_needs_more(self):
        assert DirectEncoder(self.MATRIX, 2).solve() is SolveStatus.UNSAT

    def test_binary_encoding_rejects_free_and_cover(self):
        with pytest.raises(EncodingError):
            make_encoder(self.MATRIX, 2, encoding="binary", cover=True)
        with pytest.raises(EncodingError):
            make_encoder(
                self.MATRIX, 2, encoding="binary", free=self.MATRIX
            )


class TestCellOrder:
    """``first``: the listed cells are numbered first."""

    MATRIX = figure_1b()
    FOOLING = max_fooling_set(MATRIX, seed=0)

    @staticmethod
    def _labellings(encoder, limit=500):
        """Every model's label per cell, through blocking clauses."""
        labellings = []
        while len(labellings) < limit and encoder.solve() is SolveStatus.SAT:
            labels, blocking = {}, []
            for t, cell in enumerate(encoder.cells):
                for k in range(encoder.bound):
                    var = encoder._vars[t][k]
                    if encoder.solver.model_value(var):
                        labels[cell] = k
                        blocking.append(-var)
            labellings.append(labels)
            encoder.solver.add_clause(blocking)
        return labellings

    def test_order(self):
        encoder = DirectEncoder(self.MATRIX, 5, first=self.FOOLING)
        rest = [c for c in self.MATRIX.ones() if c not in self.FOOLING]
        assert encoder.cells == self.FOOLING + rest

    @pytest.mark.parametrize("symmetry", ["restricted", "precedence"])
    @pytest.mark.parametrize("bound", [5, 6])
    def test_fooling_cells_take_the_first_labels_in_every_model(
        self, symmetry, bound
    ):
        assert len(self.FOOLING) == 5
        encoder = DirectEncoder(
            self.MATRIX, bound, symmetry=symmetry, first=self.FOOLING
        )
        labellings = self._labellings(encoder)
        assert 0 < len(labellings) < 500  # the enumeration is complete
        for labels in labellings:
            assert [labels[cell] for cell in self.FOOLING] == [0, 1, 2, 3, 4]

    def test_boundary_unchanged(self):
        encoder = DirectEncoder(self.MATRIX, 5, first=self.FOOLING)
        assert encoder.solve() is SolveStatus.SAT
        encoder.extract_partition()  # validated
        encoder.narrow_to(4)
        assert encoder.solve() is SolveStatus.UNSAT

    def test_any_order_matches_branch_and_bound(self, rng):
        for _ in range(10):
            rows, cols = rng.randint(2, 4), rng.randint(2, 4)
            m = BinaryMatrix(
                [rng.getrandbits(cols) for _ in range(rows)], cols
            )
            if m.is_zero():
                continue
            order = list(m.ones())
            rng.shuffle(order)
            truth = binary_rank_branch_bound(m).binary_rank
            assert DirectEncoder(m, truth, first=order).solve() is (
                SolveStatus.SAT
            )
            if truth > 1:
                below = DirectEncoder(m, truth - 1, first=order)
                assert below.solve() is SolveStatus.UNSAT

    def test_empty_first_is_row_major(self):
        plain = DirectEncoder(self.MATRIX, 5)
        ordered = DirectEncoder(self.MATRIX, 5, first=())
        assert ordered.cells == plain.cells == list(self.MATRIX.ones())
        assert ordered.solver.num_clauses == plain.solver.num_clauses

    def test_rejects_a_zero_cell(self):
        assert self.MATRIX[0, 1] == 0
        with pytest.raises(EncodingError):
            DirectEncoder(self.MATRIX, 5, first=[(0, 0), (0, 1)])

    def test_rejects_a_repeated_cell(self):
        with pytest.raises(EncodingError):
            DirectEncoder(self.MATRIX, 5, first=[(0, 0), (0, 0)])

    def test_binary_encoding_rejects_first(self):
        with pytest.raises(EncodingError):
            make_encoder(
                self.MATRIX, 5, encoding="binary", first=self.FOOLING
            )
