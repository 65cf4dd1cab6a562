"""Row packing with Algorithm X decomposition (paper future work).

Section VI suggests the per-row decomposition step "might benefit from
ideas in existing works such as Knuth's Algorithm X for exact cover
instead of purely relying on shuffling".  This variant asks, for each
row, whether the *exact* set of 1s can be partitioned by existing basis
vectors (an exact-cover query over the subset-basis, answered by
Algorithm X on bit masks), and only falls back to the greedy first-fit
subtraction when no exact cover exists.

A perfect cover leaves no residue, so rectangles grow and the basis does
not; rows that greedy ordering would have fragmented (Observation 4's
failure mode is *not* addressed — only one new basis vector per row is
ever introduced, as in the original algorithm).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.binary_matrix import BinaryMatrix
from repro.core.exceptions import SolverError
from repro.core.partition import Partition
from repro.core.rectangle import Rectangle
from repro.solvers.row_packing import (
    PackingOptions,
    _trial_orders,
    best_of_trials,
    resolve_options,
    validate_partition,
)
from repro.utils.rng import ensure_rng


def exact_cover(
    universe: int, candidates: Dict[int, int]
) -> Optional[List[int]]:
    """Keys of ``candidates`` whose masks partition ``universe``, or ``None``.

    Knuth's Algorithm X on bit masks; every mask must be a non-empty
    subset of ``universe``.  It branches on the uncovered bit with the
    fewest candidates (the lowest such bit on a tie, Knuth's S
    heuristic) and tries its candidates in key order, so the cover
    returned is the first one that search meets.
    """
    if not universe:
        return []
    column, fewest = 0, len(candidates) + 1
    rest = universe
    while rest:
        bit = rest & -rest
        count = sum(1 for mask in candidates.values() if mask & bit)
        if count < fewest:
            column, fewest = bit, count
            if not count:
                return None
        rest ^= bit
    for key, mask in candidates.items():
        if mask & column:
            cover = exact_cover(
                universe & ~mask,
                {k: m for k, m in candidates.items() if not m & mask},
            )
            if cover is not None:
                return [key] + cover
    return None


def pack_rows_once_x(
    matrix: BinaryMatrix,
    order: Sequence[int],
    *,
    basis_update: bool = True,
) -> Partition:
    """One pass of Algorithm 2 with exact-cover decomposition."""
    if sorted(order) != list(range(matrix.num_rows)):
        raise SolverError(f"{order!r} is not a permutation of the rows")

    basis: List[int] = []
    rect_rows: List[int] = []

    for i in order:
        row = matrix.row_mask(i)
        if row == 0:
            continue
        subset_basis = {
            j: vector
            for j, vector in enumerate(basis)
            if vector and vector & ~row == 0
        }
        cover = exact_cover(row, subset_basis)
        if cover is not None:
            for j in cover:
                rect_rows[j] |= 1 << i
            continue
        # No exact cover: greedy subtraction as in the base algorithm.
        remaining = row
        for j, vector in sorted(subset_basis.items()):
            if vector & ~remaining == 0:
                rect_rows[j] |= 1 << i
                remaining &= ~vector
        if remaining == 0:
            continue
        new_rows = 1 << i
        if basis_update:
            for k, vector in enumerate(basis):
                if vector and remaining & ~vector == 0:
                    basis[k] = vector & ~remaining
                    new_rows |= rect_rows[k]
        basis.append(remaining)
        rect_rows.append(new_rows)

    rects = [
        Rectangle(rows, cols)
        for rows, cols in zip(rect_rows, basis)
        if rows and cols
    ]
    return Partition(rects, matrix.shape)


def row_packing_x(
    matrix: BinaryMatrix,
    *,
    options: Optional[PackingOptions] = None,
    **kwargs,
) -> Partition:
    """Best-of-trials Algorithm X row packing (matrix and transpose)."""
    options = resolve_options(options, kwargs)
    return best_of_trials(
        matrix,
        lambda side, order: pack_rows_once_x(
            side, order, basis_update=options.basis_update
        ),
        lambda side: _trial_orders(side, options, ensure_rng(options.seed)),
        validate_partition,
        use_transpose=options.use_transpose,
    )
