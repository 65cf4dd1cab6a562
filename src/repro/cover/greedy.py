"""Greedy rectangle covering (upper bound for the boolean rank).

Overlap being legal makes greedy covers strictly easier than greedy
partitions: a rectangle may reuse already-covered 1s to grow larger, so
each step maximizes *newly covered* cells over maximal all-ones
rectangles seeded at an uncovered cell.
"""

from __future__ import annotations

from typing import List

from repro.core.binary_matrix import BinaryMatrix
from repro.core.exceptions import SolverError
from repro.core.partition import Partition
from repro.core.rectangle import Rectangle
from repro.cover.validate import validate_cover
from repro.solvers.row_packing import best_of_trials
from repro.utils.bitops import popcount
from repro.utils.rng import RngLike, ensure_rng


def _grow_cover_rectangle(
    matrix: BinaryMatrix, uncovered: List[int], seed_row: int, rng
) -> Rectangle:
    """Maximal-ish all-ones rectangle seeded at an uncovered cell of
    ``seed_row``, greedily maximizing newly covered cells."""
    cols = matrix.row_mask(seed_row)
    rows_mask = 1 << seed_row
    candidates = [
        i
        for i in range(matrix.num_rows)
        if i != seed_row and matrix.row_mask(i) & cols
    ]
    rng.shuffle(candidates)
    candidates.sort(
        key=lambda i: -popcount(matrix.row_mask(i) & cols)
    )

    def gain(row_set_mask: int, col_mask: int) -> int:
        total = 0
        mask = row_set_mask
        while mask:
            low = mask & -mask
            i = low.bit_length() - 1
            total += popcount(col_mask & uncovered[i])
            mask ^= low
        return total

    for i in candidates:
        shrunk = cols & matrix.row_mask(i)
        if shrunk == 0:
            continue
        if gain(rows_mask | (1 << i), shrunk) >= gain(rows_mask, cols):
            cols = shrunk
            rows_mask |= 1 << i
    return Rectangle(rows_mask, cols)


def greedy_cover_once(
    matrix: BinaryMatrix, *, seed: RngLike = None
) -> Partition:
    """One greedy covering pass."""
    rng = ensure_rng(seed)
    uncovered = list(matrix.row_masks)
    rects: List[Rectangle] = []
    while any(uncovered):
        seed_rows = [
            i for i in range(matrix.num_rows) if uncovered[i]
        ]
        seed_row = rng.choice(seed_rows)
        rect = _grow_cover_rectangle(matrix, uncovered, seed_row, rng)
        # The rectangle must cover at least one new cell: its seed row
        # keeps its uncovered intersection by construction.
        rects.append(rect)
        newly = 0
        for i in rect.rows:
            newly += popcount(uncovered[i] & rect.col_mask)
            uncovered[i] &= ~rect.col_mask
        if newly == 0:
            raise SolverError("greedy cover made no progress")
    return Partition(rects, matrix.shape)


def greedy_cover(
    matrix: BinaryMatrix,
    *,
    trials: int = 10,
    seed: RngLike = None,
    use_transpose: bool = True,
) -> Partition:
    """Best-of-``trials`` greedy cover (matrix and transpose)."""
    if trials < 1:
        raise SolverError(f"trials must be >= 1, got {trials}")
    rng = ensure_rng(seed)
    return best_of_trials(
        matrix,
        lambda side, pass_seed: greedy_cover_once(side, seed=pass_seed),
        lambda side: [rng.getrandbits(62) for _ in range(trials)],
        validate_cover,
        use_transpose=use_transpose,
    )
