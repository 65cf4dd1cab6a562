"""Benchmark Set 1: random matrices (paper Section IV-A).

Sizes 10x10, 10x20, 10x30 with occupancies 10%..90%, and 100x100 with
occupancies 1%, 2%, 5%, 10%, 20% ("higher occupancies almost always
result in full rank, which is trivial").
"""

from __future__ import annotations

from typing import Optional

from repro.core.binary_matrix import BinaryMatrix
from repro.core.exceptions import InvalidMatrixError
from repro.utils.rng import RngLike, ensure_rng


def _check_shape(num_rows: int, num_cols: int) -> None:
    """Reject a negative dimension, naming it."""
    for name, size in (("num_rows", num_rows), ("num_cols", num_cols)):
        if size < 0:
            raise InvalidMatrixError(f"{name} must be >= 0, got {size}")


def random_matrix(
    num_rows: int,
    num_cols: int,
    occupancy: float,
    *,
    seed: RngLike = None,
) -> BinaryMatrix:
    """Bernoulli(occupancy) i.i.d. entries."""
    _check_shape(num_rows, num_cols)
    if not 0.0 <= occupancy <= 1.0:
        raise InvalidMatrixError(f"occupancy must be in [0, 1], got {occupancy}")
    rng = ensure_rng(seed)
    masks = []
    for _ in range(num_rows):
        mask = 0
        for j in range(num_cols):
            if rng.random() < occupancy:
                mask |= 1 << j
        masks.append(mask)
    return BinaryMatrix(masks, num_cols)


def random_matrix_exact_ones(
    num_rows: int,
    num_cols: int,
    num_ones: int,
    *,
    seed: RngLike = None,
) -> BinaryMatrix:
    """Uniformly random matrix with exactly ``num_ones`` 1-entries."""
    _check_shape(num_rows, num_cols)
    total = num_rows * num_cols
    if not 0 <= num_ones <= total:
        raise InvalidMatrixError(
            f"num_ones must be in [0, {total}], got {num_ones}"
        )
    rng = ensure_rng(seed)
    chosen = rng.sample(range(total), num_ones)
    return BinaryMatrix.from_cells(
        [divmod(index, num_cols) for index in chosen],
        (num_rows, num_cols),
    )


def random_nonempty_matrix(
    num_rows: int,
    num_cols: int,
    occupancy: float,
    *,
    seed: RngLike = None,
    max_attempts: int = 1000,
) -> BinaryMatrix:
    """Like :func:`random_matrix` but rejects the all-zero draw."""
    rng = ensure_rng(seed)
    for _ in range(max_attempts):
        matrix = random_matrix(num_rows, num_cols, occupancy, seed=rng)
        if not matrix.is_zero():
            return matrix
    raise InvalidMatrixError(
        f"could not draw a non-empty {num_rows}x{num_cols} matrix at "
        f"occupancy {occupancy} in {max_attempts} attempts"
    )
