"""Row-packing heuristic adapted to don't-cares.

Same skeleton as Algorithm 2, with two changes:

* a basis vector may grow into a row when it fits inside the row's
  *still-coverable* sites (uncovered 1s plus don't-cares) and covers at
  least one required 1 — don't-cares absorb the mismatch;
* coverage accounting only tracks required 1s; don't-cares may be hit
  repeatedly.
"""

from __future__ import annotations

from typing import List, Optional

from repro.completion.masked import (
    MaskedMatrix,
    validate_masked_partition,
)
from repro.core.exceptions import SolverError
from repro.core.partition import Partition
from repro.core.rectangle import Rectangle
from repro.solvers.row_packing import (
    PackingOptions,
    _trial_orders,
    best_of_trials,
    resolve_options,
)
from repro.utils.rng import ensure_rng


def masked_pack_rows_once(
    masked: MaskedMatrix,
    order,
    *,
    basis_update: bool = True,
) -> Partition:
    """One pass of masked row packing over rows in ``order``."""
    num_rows, _ = masked.shape
    if sorted(order) != list(range(num_rows)):
        raise SolverError(f"{order!r} is not a permutation of the rows")

    ones = masked.ones_matrix
    dont_care = masked.dont_care_matrix

    basis: List[int] = []
    rect_rows: List[int] = []

    for i in order:
        required = ones.row_mask(i)
        if required == 0:
            continue
        free_extra = dont_care.row_mask(i)
        for j, vector in enumerate(basis):
            coverable = required | free_extra
            if (
                vector
                and vector & ~coverable == 0
                and vector & required
            ):
                rect_rows[j] |= 1 << i
                required &= ~vector
                if required == 0:
                    break
        if required == 0:
            continue
        new_rows = 1 << i
        if basis_update:
            for k, vector in enumerate(basis):
                if vector and required & ~vector == 0 and vector != required:
                    basis[k] = vector & ~required
                    new_rows |= rect_rows[k]
        basis.append(required)
        rect_rows.append(new_rows)

    rects = [
        Rectangle(rows, cols)
        for rows, cols in zip(rect_rows, basis)
        if rows and cols
    ]
    return Partition(rects, masked.shape)


def masked_row_packing(
    masked: MaskedMatrix,
    *,
    options: Optional[PackingOptions] = None,
    **kwargs,
) -> Partition:
    """Best-of-trials masked packing (matrix and transpose)."""
    options = resolve_options(options, kwargs)
    rng = ensure_rng(options.seed)
    return best_of_trials(
        masked,
        lambda side, order: masked_pack_rows_once(
            side, order, basis_update=options.basis_update
        ),
        lambda side: _trial_orders(side.ones_matrix, options, rng),
        validate_masked_partition,
        use_transpose=options.use_transpose,
    )
