"""Greedy maximal-rectangle heuristic — an additional baseline.

Not part of the paper's algorithm suite, but the natural "other"
heuristic for rectangle partitioning (greedy set cover specialized to
disjoint rectangles): repeatedly grow a large rectangle inside the
still-uncovered 1s and remove it.  Included so the ablation benchmarks
can show where row packing's basis mechanism actually earns its keep.

Growing works row-wise: seed at an uncovered 1, take the seed row's
uncovered columns, then admit further rows greedily whenever shrinking
the column set to the intersection still increases the covered area.
"""

from __future__ import annotations

from typing import List

from repro.core.binary_matrix import BinaryMatrix
from repro.core.exceptions import SolverError
from repro.core.partition import Partition
from repro.core.rectangle import Rectangle
from repro.solvers.postopt import merge_rectangles
from repro.solvers.row_packing import best_of_trials, validate_partition
from repro.utils.bitops import popcount
from repro.utils.rng import RngLike, ensure_rng


def _grow_rectangle(
    uncovered: List[int], seed_row: int, num_rows: int, rng
) -> Rectangle:
    """Grow a rectangle from ``seed_row`` within the uncovered cells."""
    cols = uncovered[seed_row]
    rows_mask = 1 << seed_row
    candidates = [
        i for i in range(num_rows) if i != seed_row and uncovered[i] & cols
    ]
    rng.shuffle(candidates)
    # Greedy admission ordered by how much of the current column set the
    # candidate preserves.
    candidates.sort(
        key=lambda i: -popcount(uncovered[i] & cols)
    )
    row_count = 1
    for i in candidates:
        shrunk = cols & uncovered[i]
        if shrunk == 0:
            continue
        # Admit if total area does not decrease.
        if (row_count + 1) * popcount(shrunk) >= row_count * popcount(cols):
            cols = shrunk
            rows_mask |= 1 << i
            row_count += 1
    return Rectangle(rows_mask, cols)


def greedy_rectangle_once(
    matrix: BinaryMatrix, *, seed: RngLike = None
) -> Partition:
    """One greedy pass: repeatedly carve the grown rectangle out."""
    rng = ensure_rng(seed)
    num_rows = matrix.num_rows
    uncovered = list(matrix.row_masks)
    rects: List[Rectangle] = []
    while any(uncovered):
        seed_candidates = [i for i in range(num_rows) if uncovered[i]]
        seed_row = rng.choice(seed_candidates)
        rect = _grow_rectangle(uncovered, seed_row, num_rows, rng)
        rects.append(rect)
        for i in rect.rows:
            uncovered[i] &= ~rect.col_mask
    return merge_rectangles(Partition(rects, matrix.shape))


def greedy_rectangle(
    matrix: BinaryMatrix,
    *,
    trials: int = 10,
    seed: RngLike = None,
    use_transpose: bool = True,
) -> Partition:
    """Best-of-``trials`` greedy rectangle partitioning."""
    if trials < 1:
        raise SolverError(f"trials must be >= 1, got {trials}")
    rng = ensure_rng(seed)
    return best_of_trials(
        matrix,
        lambda side, pass_seed: greedy_rectangle_once(side, seed=pass_seed),
        lambda side: [rng.getrandbits(62) for _ in range(trials)],
        validate_partition,
        use_transpose=use_transpose,
    )
