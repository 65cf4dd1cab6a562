"""Unit tests for Partition (EBMF certificates)."""

import numpy as np
import pytest

from repro.core.binary_matrix import BinaryMatrix
from repro.core.exceptions import InvalidPartitionError
from repro.core.partition import Partition
from repro.core.rectangle import Rectangle


def two_rect_partition():
    """[[1,1],[0,1]] split into the top row and the bottom-right cell."""
    rects = [
        Rectangle.from_sets([0], [0, 1]),
        Rectangle.from_sets([1], [1]),
    ]
    return Partition(rects, (2, 2)), BinaryMatrix.from_strings(["11", "01"])


class TestValidation:
    def test_valid_partition_passes(self):
        partition, matrix = two_rect_partition()
        partition.validate(matrix)
        assert partition.is_valid_for(matrix)

    def test_overlap_detected(self):
        rects = [
            Rectangle.from_sets([0], [0, 1]),
            Rectangle.from_sets([0], [1]),
        ]
        partition = Partition(rects, (1, 2))
        matrix = BinaryMatrix.from_strings(["11"])
        with pytest.raises(InvalidPartitionError, match="overlaps"):
            partition.validate(matrix)

    def test_missing_cell_detected(self):
        partition = Partition([Rectangle.single(0, 0)], (1, 2))
        matrix = BinaryMatrix.from_strings(["11"])
        with pytest.raises(InvalidPartitionError, match="missing"):
            partition.validate(matrix)

    def test_spurious_cell_detected(self):
        partition = Partition([Rectangle.from_sets([0], [0, 1])], (1, 2))
        matrix = BinaryMatrix.from_strings(["10"])
        with pytest.raises(InvalidPartitionError, match="spurious"):
            partition.validate(matrix)

    def test_messages_name_the_first_failure(self):
        matrix = BinaryMatrix.from_strings(["0110", "1100", "0000"])
        overlapping = Partition(
            [
                Rectangle.from_sets([0, 1], [1, 2]),
                Rectangle.from_sets([1, 2], [0, 1]),
            ],
            (3, 4),
        )
        with pytest.raises(InvalidPartitionError) as overlap:
            overlapping.validate(matrix)
        assert str(overlap.value) == (
            "rectangle #1 Rectangle(rows=[1, 2], cols=[0, 1]) overlaps "
            "earlier rectangles on row 1 (cols mask 0x2)"
        )
        wrong_row = Partition([Rectangle.from_sets([0, 1], [1, 2])], (3, 4))
        with pytest.raises(InvalidPartitionError) as mismatch:
            wrong_row.validate(matrix)
        assert str(mismatch.value) == (
            "row 1: missing cols mask 0x1, spurious cols mask 0x4"
        )

    def test_shape_mismatch_detected(self):
        partition, _ = two_rect_partition()
        with pytest.raises(InvalidPartitionError, match="shape"):
            partition.validate(BinaryMatrix.zeros(3, 3))

    def test_rect_outside_shape_rejected_at_construction(self):
        with pytest.raises(InvalidPartitionError):
            Partition([Rectangle.single(5, 0)], (2, 2))

    def test_empty_partition_of_zero_matrix(self):
        partition = Partition([], (2, 2))
        partition.validate(BinaryMatrix.zeros(2, 2))

    def test_cover_counts(self):
        partition, _ = two_rect_partition()
        counts = partition.cover_counts()
        assert counts.tolist() == [[1, 1], [0, 1]]

    def test_covered_matrix(self):
        partition, matrix = two_rect_partition()
        assert partition.covered_matrix() == matrix


class TestFactors:
    def test_to_factors_reconstructs(self):
        partition, matrix = two_rect_partition()
        h, w = partition.to_factors()
        assert np.array_equal(h @ w, matrix.to_numpy())

    def test_from_factors_round_trip(self):
        partition, matrix = two_rect_partition()
        h, w = partition.to_factors()
        rebuilt = Partition.from_factors(h, w)
        rebuilt.validate(matrix)
        assert rebuilt == partition

    def test_from_factors_skips_zero_columns(self):
        h = np.array([[1, 0], [0, 0]])
        w = np.array([[1, 0], [0, 0]])
        partition = Partition.from_factors(h, w)
        assert partition.depth == 1

    def test_from_factors_rejects_non_binary(self):
        with pytest.raises(InvalidPartitionError):
            Partition.from_factors(np.array([[2]]), np.array([[1]]))

    def test_from_factors_rejects_shape_mismatch(self):
        with pytest.raises(InvalidPartitionError):
            Partition.from_factors(np.ones((2, 2)), np.ones((3, 2)))


class TestAssignment:
    def test_round_trip(self):
        partition, matrix = two_rect_partition()
        labels = partition.to_assignment()
        rebuilt = Partition.from_assignment(matrix, labels)
        assert rebuilt == partition

    def test_from_assignment_merges_labels(self):
        matrix = BinaryMatrix.from_strings(["11"])
        labels = {(0, 0): 7, (0, 1): 7}
        partition = Partition.from_assignment(matrix, labels)
        assert partition.depth == 1
        partition.validate(matrix)


class TestTransforms:
    def test_transpose(self):
        partition, matrix = two_rect_partition()
        transposed = partition.transpose()
        transposed.validate(matrix.transpose())
        assert transposed.depth == partition.depth

    def test_permute_rows(self):
        partition, matrix = two_rect_partition()
        order = [1, 0]
        permuted = partition.permute_rows(order)
        permuted.validate(matrix.permute_rows(order))

    def test_permute_rows_rejects_bad_order(self):
        partition, _ = two_rect_partition()
        with pytest.raises(InvalidPartitionError):
            partition.permute_rows([0, 0])


class TestDunder:
    def test_len_iter_getitem(self):
        partition, _ = two_rect_partition()
        assert len(partition) == 2
        assert partition.depth == 2
        assert list(partition)[0] == partition[0]

    def test_eq_is_order_insensitive(self):
        rects = [
            Rectangle.from_sets([0], [0, 1]),
            Rectangle.from_sets([1], [1]),
        ]
        a = Partition(rects, (2, 2))
        b = Partition(list(reversed(rects)), (2, 2))
        assert a == b and hash(a) == hash(b)

    def test_eq_other_type(self):
        partition, _ = two_rect_partition()
        assert partition != 5
