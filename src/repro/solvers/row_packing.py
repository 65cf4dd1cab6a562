"""Row packing — Algorithm 2 of the paper.

The matrix is processed row by row, maintaining a *basis* of column sets:

* decomposition (lines 4-7): every basis vector contained in the current
  row is subtracted, and the corresponding rectangle grows vertically to
  include this row;
* basis update (lines 9-16): a non-zero residue becomes a new basis
  vector; any existing basis vector *containing* the residue shrinks
  horizontally (its rectangle gives up the residue's columns, which the
  new rectangle takes over, spanning the shrunk rectangles' rows).

Row order matters (Figure 3), so the heuristic reshuffles and retries;
the best result over all trials — run on both the matrix and its
transpose — is returned.  Each trial adds at most one rectangle per
distinct non-empty row, so the result is never worse than the trivial
heuristic's bound.  That loop, :func:`best_of_trials`, also runs the
Algorithm X variant, masked packing and the two greedy baselines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, TypeVar

from repro.core.binary_matrix import BinaryMatrix
from repro.core.exceptions import SolverError
from repro.core.partition import Partition
from repro.core.rectangle import Rectangle
from repro.utils.bitops import popcount
from repro.utils.rng import RngLike, ensure_rng

TraceCallback = Callable[[str, dict], None]
M = TypeVar("M")
T = TypeVar("T")

ORDERINGS = ("shuffle", "given", "sparse_first")


@dataclass
class PackingOptions:
    """Knobs for :func:`row_packing`.

    ``ordering='sparse_first'`` and ``basis_update=False`` are the two
    "compromises" Section III-B discusses (and rejects); they are kept as
    options for the ablation benchmarks.  ``trials`` applies to the
    ``shuffle`` ordering: ``given`` and ``sparse_first`` fix the row
    order, so they make one pass per candidate matrix.
    """

    trials: int = 10
    seed: RngLike = None
    use_transpose: bool = True
    basis_update: bool = True
    ordering: str = "shuffle"

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise SolverError(f"trials must be >= 1, got {self.trials}")
        if self.ordering not in ORDERINGS:
            raise SolverError(
                f"unknown ordering {self.ordering!r}; expected {ORDERINGS}"
            )


def pack_rows_once(
    matrix: BinaryMatrix,
    order: Sequence[int],
    *,
    basis_update: bool = True,
    trace: Optional[TraceCallback] = None,
) -> Partition:
    """One deterministic pass of Algorithm 2 over rows in ``order``.

    ``order`` lists original row indices in processing sequence; the
    resulting partition is expressed directly in original coordinates
    (subsuming the paper's shuffle/undo-shuffle bookkeeping).
    """
    if sorted(order) != list(range(matrix.num_rows)):
        raise SolverError(f"{order!r} is not a permutation of the rows")

    basis: List[int] = []  # v_j: column mask of rectangle j
    rect_rows: List[int] = []  # row mask of rectangle j

    for i in order:
        remaining = matrix.row_mask(i)
        if remaining == 0:
            continue
        # Lines 4-7: decompose the row over the existing basis.
        for j, vector in enumerate(basis):
            if vector and vector & ~remaining == 0:
                rect_rows[j] |= 1 << i
                remaining &= ~vector
                if trace:
                    trace(
                        "grow",
                        {"row": i, "rectangle": j, "columns": vector},
                    )
        if remaining == 0:
            continue
        # Lines 9-16: the residue founds a new basis vector; basis
        # vectors containing it shrink and cede their rows to it.
        new_rows = 1 << i
        if basis_update:
            for k, vector in enumerate(basis):
                if vector and remaining & ~vector == 0:
                    if vector == remaining:
                        raise SolverError(
                            "residue equal to a basis vector should have "
                            "been consumed during decomposition"
                        )
                    basis[k] = vector & ~remaining
                    new_rows |= rect_rows[k]
                    if trace:
                        trace(
                            "shrink",
                            {
                                "row": i,
                                "rectangle": k,
                                "removed_columns": remaining,
                                "new_columns": basis[k],
                            },
                        )
        basis.append(remaining)
        rect_rows.append(new_rows)
        if trace:
            trace(
                "new_rectangle",
                {
                    "row": i,
                    "rectangle": len(basis) - 1,
                    "columns": remaining,
                    "rows": new_rows,
                },
            )

    rects = [
        Rectangle(rows, cols)
        for rows, cols in zip(rect_rows, basis)
        if rows and cols
    ]
    return Partition(rects, matrix.shape)


def _trial_orders(
    matrix: BinaryMatrix, options: PackingOptions, rng: random.Random
) -> List[List[int]]:
    """The row orders of one side's passes; only ``shuffle`` draws from
    ``rng``, once per trial."""
    identity = list(range(matrix.num_rows))
    if options.ordering == "given":
        return [identity]
    if options.ordering == "sparse_first":
        return [sorted(identity, key=lambda i: popcount(matrix.row_mask(i)))]
    orders: List[List[int]] = []
    for _ in range(options.trials):
        order = identity[:]
        rng.shuffle(order)
        orders.append(order)
    return orders


def best_of_trials(
    matrix: M,
    pass_once: Callable[[M, T], Partition],
    inputs: Callable[[M], Iterable[T]],
    validate: Callable[[M, Partition], None],
    *,
    use_transpose: bool,
) -> Partition:
    """The shallowest of ``pass_once(side, x)`` for ``x`` in ``inputs(side)``.

    The sides are ``matrix`` and, with ``use_transpose``, its transpose,
    whose partitions are transposed back; transposing keeps the depth,
    so only a new best is transposed.  A later partition replaces the
    best only when strictly shallower, and ``validate(matrix, best)``
    checks the one returned.
    """
    sides = [(matrix, False)]
    if use_transpose:
        sides.append((matrix.transpose(), True))
    best: Optional[Partition] = None
    for side, transposed in sides:
        for item in inputs(side):
            partition = pass_once(side, item)
            if best is None or partition.depth < best.depth:
                best = partition.transpose() if transposed else partition
    assert best is not None
    validate(matrix, best)
    return best


def resolve_options(
    options: Optional[PackingOptions], kwargs: dict
) -> PackingOptions:
    """``options``, or a :class:`PackingOptions` built from ``kwargs``."""
    if options is None:
        return PackingOptions(**kwargs)
    if kwargs:
        raise SolverError("pass either options or keyword arguments, not both")
    return options


def validate_partition(matrix: BinaryMatrix, partition: Partition) -> None:
    """:meth:`Partition.validate` in :func:`best_of_trials`' argument order."""
    partition.validate(matrix)


def row_packing(
    matrix: BinaryMatrix,
    *,
    options: Optional[PackingOptions] = None,
    **kwargs,
) -> Partition:
    """Best-of-``trials`` row packing on the matrix and its transpose."""
    options = resolve_options(options, kwargs)
    return best_of_trials(
        matrix,
        lambda side, order: pack_rows_once(
            side, order, basis_update=options.basis_update
        ),
        lambda side: _trial_orders(side, options, ensure_rng(options.seed)),
        validate_partition,
        use_transpose=options.use_transpose,
    )


@dataclass
class PackingTrace:
    """Recorded events of one packing pass (drives the Figure 3 example)."""

    events: List[Tuple[str, dict]] = field(default_factory=list)

    def __call__(self, kind: str, payload: dict) -> None:
        self.events.append((kind, payload))

    def render(self, matrix: BinaryMatrix) -> str:
        """Human-readable replay of the pass."""
        lines: List[str] = []
        for kind, payload in self.events:
            if kind == "grow":
                lines.append(
                    f"row {payload['row']}: contains basis vector of "
                    f"rectangle {payload['rectangle']} "
                    f"(cols {_mask_str(payload['columns'], matrix.num_cols)}) "
                    f"-> grow vertically"
                )
            elif kind == "shrink":
                lines.append(
                    f"row {payload['row']}: residue splits rectangle "
                    f"{payload['rectangle']}; it keeps cols "
                    f"{_mask_str(payload['new_columns'], matrix.num_cols)}"
                )
            elif kind == "new_rectangle":
                lines.append(
                    f"row {payload['row']}: new rectangle "
                    f"{payload['rectangle']} on cols "
                    f"{_mask_str(payload['columns'], matrix.num_cols)}"
                )
        return "\n".join(lines)


def _mask_str(mask: int, width: int) -> str:
    return "".join("1" if (mask >> j) & 1 else "0" for j in range(width))
