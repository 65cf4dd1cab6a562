"""Matrix reductions: removing empty and duplicate rows/columns.

The paper's trivial upper bound (Section III-B) is the smaller of width
and height *after removing empty and duplicated rows and columns*.  The
reduction here performs that compression and remembers enough to lift a
partition of the reduced matrix back to the original.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.binary_matrix import BinaryMatrix
from repro.core.exceptions import InvalidPartitionError
from repro.core.partition import Partition
from repro.core.rectangle import Rectangle
from repro.utils.bitops import bits_from_indices, transpose_masks


@dataclass(frozen=True)
class ReducedMatrix:
    """A compressed matrix plus the bookkeeping to undo the compression.

    ``row_groups[k]`` lists the original row indices collapsed into reduced
    row ``k`` (all identical, non-empty); likewise ``col_groups``.
    """

    matrix: BinaryMatrix
    row_groups: Tuple[Tuple[int, ...], ...]
    col_groups: Tuple[Tuple[int, ...], ...]
    original_shape: Tuple[int, int]

    def lift(self, partition: Partition) -> Partition:
        """Lift a partition of the reduced matrix to the original matrix.

        Each reduced row/column expands to its whole duplicate group —
        valid because duplicated rows have identical 1-patterns, so a
        rectangle covering one covers all simultaneously.
        """
        if partition.shape != self.matrix.shape:
            raise InvalidPartitionError(
                f"partition shape {partition.shape} != reduced shape "
                f"{self.matrix.shape}"
            )
        row_bits = [bits_from_indices(group) for group in self.row_groups]
        col_bits = [bits_from_indices(group) for group in self.col_groups]
        rects = [
            Rectangle(
                _union(row_bits, rect.row_mask),
                _union(col_bits, rect.col_mask),
            )
            for rect in partition
        ]
        return Partition(rects, self.original_shape)


def _union(group_bits: Sequence[int], mask: int) -> int:
    """OR of ``group_bits[k]`` over the set bits ``k`` of ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= group_bits[low.bit_length() - 1]
        mask ^= low
    return out


def reduce_matrix(matrix: BinaryMatrix) -> ReducedMatrix:
    """Drop empty rows/columns and merge duplicates (rows first, then
    columns of the row-reduced matrix).

    Duplicate merging is rank-preserving and binary-rank-preserving, so
    solving on the reduced matrix and lifting is always sound.
    """
    # --- rows ---
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

    # --- columns (on the row-reduced matrix) ---
    # A column's signature is its mask over the kept rows.
    col_order: Dict[int, int] = {}
    col_groups: List[List[int]] = []
    signatures = transpose_masks(list(row_order), matrix.num_cols)
    for j, signature in enumerate(signatures):
        if signature == 0:
            continue
        if signature in col_order:
            col_groups[col_order[signature]].append(j)
        else:
            col_order[signature] = len(col_groups)
            col_groups.append([j])

    # The kept signatures are the reduced matrix's columns.
    reduced_masks = transpose_masks(list(col_order), len(row_groups))
    reduced = BinaryMatrix(reduced_masks, len(col_groups))
    return ReducedMatrix(
        matrix=reduced,
        row_groups=tuple(tuple(g) for g in row_groups),
        col_groups=tuple(tuple(g) for g in col_groups),
        original_shape=matrix.shape,
    )


def distinct_nonzero_rows(matrix: BinaryMatrix) -> int:
    """Count of distinct non-empty rows."""
    return len({mask for mask in matrix.row_masks if mask != 0})


def distinct_nonzero_cols(matrix: BinaryMatrix) -> int:
    """Count of distinct non-empty columns."""
    return len({mask for mask in matrix.col_masks() if mask != 0})
