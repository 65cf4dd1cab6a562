"""Unit tests for matrix reduction (empty/duplicate removal) and lifting.

``TestAgainstCellLoops`` compares ``reduce_matrix`` and ``lift`` with
reference versions that walk every cell and pack index lists, and
requires the same groups, reduced masks and lifted rectangles, in order.
It also requires ``trivial_partition``, which groups the masks itself,
to return the rectangles of the reduce-partition-lift route, in order.
"""

from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchgen.random_matrices import random_matrix
from repro.core.binary_matrix import BinaryMatrix
from repro.core.exceptions import InvalidPartitionError
from repro.core.partition import Partition
from repro.core.rectangle import Rectangle
from repro.core.reductions import (
    ReducedMatrix,
    distinct_nonzero_cols,
    distinct_nonzero_rows,
    reduce_matrix,
)
from repro.linalg.exact_rank import (
    _bareiss_rank,
    _to_int_rows,
    rank_over_q,
    real_rank,
)
from repro.solvers.trivial import trivial_partition


class TestReduceMatrix:
    def test_drops_empty_rows_and_cols(self):
        m = BinaryMatrix.from_strings(["000", "010", "000"])
        reduced = reduce_matrix(m)
        assert reduced.matrix.shape == (1, 1)
        assert reduced.row_groups == ((1,),)
        assert reduced.col_groups == ((1,),)

    def test_merges_duplicate_rows(self):
        m = BinaryMatrix.from_strings(["101", "101", "010"])
        reduced = reduce_matrix(m)
        assert reduced.matrix.num_rows == 2
        assert (0, 1) in reduced.row_groups

    def test_merges_duplicate_cols(self):
        m = BinaryMatrix.from_strings(["11", "11", "00"])
        reduced = reduce_matrix(m)
        assert reduced.matrix.shape == (1, 1)
        assert reduced.col_groups == ((0, 1),)

    def test_preserves_real_rank(self):
        m = BinaryMatrix.from_strings(["1100", "1100", "0011", "0000"])
        reduced = reduce_matrix(m)
        assert real_rank(reduced.matrix) == real_rank(m)

    def test_zero_matrix(self):
        reduced = reduce_matrix(BinaryMatrix.zeros(3, 3))
        assert reduced.matrix.shape == (0, 0)

    def test_reduction_is_idempotent(self):
        m = BinaryMatrix.from_strings(["110", "110", "001"])
        once = reduce_matrix(m)
        twice = reduce_matrix(once.matrix)
        assert twice.matrix == once.matrix


class TestLift:
    def test_lift_reconstructs_original(self):
        m = BinaryMatrix.from_strings(["101", "101", "010"])
        reduced = reduce_matrix(m)
        inner = reduced.matrix
        partition = Partition(
            [
                Rectangle(1 << k, inner.row_mask(k))
                for k in range(inner.num_rows)
            ],
            inner.shape,
        )
        lifted = reduced.lift(partition)
        lifted.validate(m)
        assert lifted.depth == partition.depth

    def test_lift_shape_check(self):
        m = BinaryMatrix.from_strings(["11", "11"])
        reduced = reduce_matrix(m)
        bad = Partition([Rectangle.single(0, 0)], (5, 5))
        with pytest.raises(InvalidPartitionError):
            reduced.lift(bad)

    def test_lift_with_column_duplicates(self):
        m = BinaryMatrix.from_strings(["1111", "0011"])
        reduced = reduce_matrix(m)
        # reduced is [[1,1],[0,1]]: rows {0},{1}; col groups (0,1),(2,3)
        partition = Partition(
            [
                Rectangle.from_sets([0], [0]),
                Rectangle.from_sets([0, 1], [1]),
            ],
            reduced.matrix.shape,
        )
        lifted = reduced.lift(partition)
        lifted.validate(m)


class TestDistinctCounts:
    def test_rows(self):
        m = BinaryMatrix.from_strings(["11", "11", "00", "01"])
        assert distinct_nonzero_rows(m) == 2

    def test_cols(self):
        m = BinaryMatrix.from_strings(["110", "110"])
        assert distinct_nonzero_cols(m) == 1

    def test_zero_matrix(self):
        m = BinaryMatrix.zeros(2, 2)
        assert distinct_nonzero_rows(m) == 0
        assert distinct_nonzero_cols(m) == 0


def reference_reduce_matrix(matrix: BinaryMatrix) -> ReducedMatrix:
    """Reference ``reduce_matrix``: a tuple of bits per column, cell by
    cell."""
    row_order: Dict[int, int] = {}
    row_groups: List[List[int]] = []
    for i, mask in enumerate(matrix.row_masks):
        if mask == 0:
            continue
        if mask in row_order:
            row_groups[row_order[mask]].append(i)
        else:
            row_order[mask] = len(row_groups)
            row_groups.append([i])
    kept_row_masks = list(row_order.keys())

    col_signature: Dict[Tuple[int, ...], int] = {}
    col_groups: List[List[int]] = []
    for j in range(matrix.num_cols):
        signature = tuple((mask >> j) & 1 for mask in kept_row_masks)
        if not any(signature):
            continue
        if signature in col_signature:
            col_groups[col_signature[signature]].append(j)
        else:
            col_signature[signature] = len(col_groups)
            col_groups.append([j])

    reduced_masks = []
    for mask in kept_row_masks:
        new_mask = 0
        for new_j, group in enumerate(col_groups):
            if (mask >> group[0]) & 1:
                new_mask |= 1 << new_j
        reduced_masks.append(new_mask)

    reduced = BinaryMatrix(reduced_masks, len(col_groups))
    return ReducedMatrix(
        matrix=reduced,
        row_groups=tuple(tuple(g) for g in row_groups),
        col_groups=tuple(tuple(g) for g in col_groups),
        original_shape=matrix.shape,
    )


def reference_lift(reduced: ReducedMatrix, partition: Partition) -> Partition:
    """Reference ``ReducedMatrix.lift``: index lists, packed again."""
    rects: List[Rectangle] = []
    for rect in partition:
        rows: List[int] = []
        for k in rect.rows:
            rows.extend(reduced.row_groups[k])
        cols: List[int] = []
        for k in rect.cols:
            cols.extend(reduced.col_groups[k])
        rects.append(Rectangle.from_sets(rows, cols))
    return Partition(rects, reduced.original_shape)


@st.composite
def planted_matrices(draw, min_side: int = 0, max_rows=40, max_cols=70):
    """Random binary matrices, 2% to 90% ones, with planted zero and
    duplicate rows and columns."""
    num_rows = draw(st.integers(min_side, max_rows))
    num_cols = draw(st.integers(min_side, max_cols))
    occupancy = draw(st.sampled_from((0.02, 0.1, 0.3, 0.6, 0.9)))
    seed = draw(st.integers(0, 2**32 - 1))
    rows = list(
        random_matrix(num_rows, num_cols, occupancy, seed=seed).row_masks
    )
    if num_rows:
        row = st.integers(0, num_rows - 1)
        for i in draw(st.lists(row, max_size=4)):
            rows[i] = 0
        for dst, src in draw(st.lists(st.tuples(row, row), max_size=8)):
            rows[dst] = rows[src]
    if num_cols:
        col = st.integers(0, num_cols - 1)
        for j in draw(st.lists(col, max_size=6)):
            rows = [mask & ~(1 << j) for mask in rows]
        for dst, src in draw(st.lists(st.tuples(col, col), max_size=12)):
            rows = [
                mask & ~(1 << dst) | ((mask >> src) & 1) << dst
                for mask in rows
            ]
    return BinaryMatrix(rows, num_cols)


@st.composite
def rectangles_within(draw, shape):
    """Up to 12 arbitrary rectangles that fit ``shape`` (lift does not
    need a partition, only rectangles of the reduced shape)."""
    num_rows, num_cols = shape
    if not num_rows or not num_cols:
        return []
    return [
        Rectangle(
            draw(st.integers(1, (1 << num_rows) - 1)),
            draw(st.integers(1, (1 << num_cols) - 1)),
        )
        for _ in range(draw(st.integers(0, 12)))
    ]


class TestAgainstCellLoops:
    @given(planted_matrices())
    @settings(max_examples=150)
    def test_reduce_matrix_matches_reference(self, m):
        reduced = reduce_matrix(m)
        reference = reference_reduce_matrix(m)
        assert reduced.matrix.row_masks == reference.matrix.row_masks
        assert reduced.matrix.shape == reference.matrix.shape
        assert reduced.row_groups == reference.row_groups
        assert reduced.col_groups == reference.col_groups
        assert reduced.original_shape == reference.original_shape
        assert reduced == reference

    @given(planted_matrices(), st.data())
    @settings(max_examples=150)
    def test_lift_matches_reference(self, m, data):
        reduced = reduce_matrix(m)
        inner = reduced.matrix
        by_rows = [
            Rectangle(1 << k, mask) for k, mask in enumerate(inner.row_masks)
        ]
        by_cols = [
            Rectangle(mask, 1 << k) for k, mask in enumerate(inner.col_masks())
        ]
        partitions = [
            Partition(by_rows, inner.shape),
            Partition(by_cols, inner.shape),
            Partition(data.draw(rectangles_within(inner.shape)), inner.shape),
        ]
        for partition in partitions:
            lifted = reduced.lift(partition)
            expected = reference_lift(reduced, partition)
            assert lifted.shape == expected.shape == m.shape
            assert lifted.rectangles == expected.rectangles
        # The row and column partitions are partitions of ``m`` too.
        for partition in partitions[:2]:
            reduced.lift(partition).validate(m)

    @given(planted_matrices(min_side=32, max_rows=44, max_cols=56))
    @settings(max_examples=40)
    def test_rank_over_q_matches_bareiss(self, m):
        assert rank_over_q(m) == _bareiss_rank(_to_int_rows(m))

    @given(planted_matrices())
    @settings(max_examples=150)
    def test_trivial_partition_matches_reduce_and_lift(self, m):
        reduced = reduce_matrix(m)
        inner = reduced.matrix
        if inner.num_rows <= inner.num_cols:
            rects = [
                Rectangle(1 << k, mask) for k, mask in enumerate(inner.row_masks)
            ]
        else:
            rects = [
                Rectangle(mask, 1 << k) for k, mask in enumerate(inner.col_masks())
            ]
        expected = reduced.lift(Partition(rects, inner.shape))
        partition = trivial_partition(m)
        assert partition.shape == expected.shape == m.shape
        assert partition.rectangles == expected.rectangles
