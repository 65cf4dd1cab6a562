"""The trivial heuristic (paper Section III-B).

Upper-bounds ``r_B(M)`` by the smaller of the matrix's width and height
after removing empty and duplicated rows and columns: partition into
single (consolidated) rows, or single columns, whichever is fewer.
"""

from __future__ import annotations

from repro.core.binary_matrix import BinaryMatrix
from repro.core.partition import Partition
from repro.core.rectangle import Rectangle
from repro.core.reductions import reduce_matrix


def trivial_partition(matrix: BinaryMatrix) -> Partition:
    """Row-or-column partition with duplicates consolidated."""
    reduced = reduce_matrix(matrix)
    inner = reduced.matrix
    if inner.num_rows <= inner.num_cols:
        rects = [
            Rectangle(1 << k, mask) for k, mask in enumerate(inner.row_masks)
        ]
    else:
        rects = [
            Rectangle(mask, 1 << k) for k, mask in enumerate(inner.col_masks())
        ]
    partition = reduced.lift(Partition(rects, inner.shape))
    partition.validate(matrix)
    return partition
