"""The trivial heuristic (paper Section III-B).

Upper-bounds ``r_B(M)`` by the smaller of the matrix's width and height
after removing empty and duplicated rows and columns: partition into
single (consolidated) rows, or single columns, whichever is fewer.

The groups are read straight off the masks, with no reduced matrix to
lift back.  Each distinct non-zero row mask gathers the index mask of
the rows equal to it, in order of first appearance; the columns do the
same on one ``col_masks()`` pass.  A group of equal rows with mask
``m`` is the rectangle (those rows) x ``m``, a group of equal columns
likewise, and the rows are used when there are no more distinct rows
than distinct columns.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.core.binary_matrix import BinaryMatrix
from repro.core.partition import Partition
from repro.core.rectangle import Rectangle


def _groups(masks: Iterable[int]) -> Dict[int, int]:
    """Each distinct non-zero mask -> the index mask of its occurrences,
    in order of first appearance."""
    groups: Dict[int, int] = {}
    bit = 1
    for mask in masks:
        if mask:
            groups[mask] = groups.get(mask, 0) | bit
        bit <<= 1
    return groups


def trivial_partition(matrix: BinaryMatrix) -> Partition:
    """Row-or-column partition with duplicates consolidated."""
    rows = _groups(matrix.row_masks)
    cols = _groups(matrix.col_masks())
    if len(rows) <= len(cols):
        rects = [Rectangle(index, mask) for mask, index in rows.items()]
    else:
        rects = [Rectangle(mask, index) for mask, index in cols.items()]
    partition = Partition(rects, matrix.shape)
    partition.validate(matrix)
    return partition
