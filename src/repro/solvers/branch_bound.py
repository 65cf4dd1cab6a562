"""Exact binary rank by combinatorial branch and bound.

An SMT-independent exact solver used to cross-validate the SAT pipeline
on small matrices (the tests compare the two on every tiny instance).

The search assigns 1-cells to rectangle labels in row-major order with
eager closure propagation: a label class is kept *span-closed* at all
times — whenever a cell joins a class, the full row-span x column-span
of the class is recomputed and every cell in the span is pulled in
(pruning if any span cell is a 0 or belongs to another class).  Classes
are therefore always genuine rectangles, and a complete assignment is a
valid EBMF.  Standard dominance: a new class may only be opened as class
``len(classes)`` (first-occurrence labelling), and branches are cut at
the best known depth; the real-rank lower bound prunes the root.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.binary_matrix import BinaryMatrix
from repro.core.bounds import rank_lower_bound
from repro.core.exceptions import BudgetExceeded
from repro.core.partition import Partition
from repro.solvers.row_packing import PackingOptions, row_packing
from repro.utils.bitops import bit_indices
from repro.utils.timing import Deadline

Cell = Tuple[int, int]


@dataclass
class BranchBoundResult:
    partition: Partition
    binary_rank: int
    optimal: bool
    nodes: int


def _closure(
    matrix: BinaryMatrix,
    row_mask: int,
    col_mask: int,
) -> Optional[Tuple[int, int]]:
    """Span-closure of a candidate rectangle; ``None`` if it hits a 0.

    For EBMF the span of a label class is exactly rows x cols of its
    members, so closure only needs to check that the span is all-1s.
    """
    for i in bit_indices(row_mask):
        if col_mask & ~matrix.row_mask(i):
            return None
    return row_mask, col_mask


def binary_rank_branch_bound(
    matrix: BinaryMatrix,
    *,
    upper_hint: Optional[Partition] = None,
    time_budget: Optional[float] = None,
    node_budget: Optional[int] = None,
    cancel: Optional[object] = None,
) -> BranchBoundResult:
    """Compute ``r_B(M)`` exactly (small matrices; exponential worst case).

    Raises :class:`BudgetExceeded` if a budget runs out before the search
    space is exhausted, or if ``cancel`` (an ``is_set()``-style flag,
    polled every 64 nodes alongside the time budget) is raised — the
    hook that lets a streaming server cut the exponential tail short
    when its client cancels the solve.
    """
    cells: List[Cell] = list(matrix.ones())
    if not cells:
        return BranchBoundResult(
            Partition([], matrix.shape), 0, True, nodes=0
        )

    if upper_hint is None:
        upper_hint = row_packing(
            matrix, options=PackingOptions(trials=8, seed=0)
        )
    lower = rank_lower_bound(matrix)
    deadline = Deadline(time_budget, cancel=cancel)

    best: Dict[str, object] = {
        "partition": upper_hint,
        "depth": upper_hint.depth,
    }
    nodes = {"count": 0}

    cell_of_index = {cell: t for t, cell in enumerate(cells)}
    num_cells = len(cells)

    def search(
        assigned: List[int],  # label per cell index, -1 = unassigned
        classes: List[Tuple[int, int]],  # (row_mask, col_mask) per label
        next_cell: int,
    ) -> None:
        nodes["count"] += 1
        if node_budget is not None and nodes["count"] > node_budget:
            raise BudgetExceeded(f"node budget {node_budget} exhausted")
        if nodes["count"] % 64 == 0 and deadline.expired():
            if deadline.cancelled():
                raise BudgetExceeded("cancelled")
            raise BudgetExceeded("time budget exhausted")
        if best["depth"] == lower:
            return
        while next_cell < num_cells and assigned[next_cell] != -1:
            next_cell += 1
        if next_cell == num_cells:
            labels = {cells[t]: assigned[t] for t in range(num_cells)}
            partition = Partition.from_assignment(matrix, labels)
            partition.validate(matrix)
            if partition.depth < best["depth"]:
                best["partition"] = partition
                best["depth"] = partition.depth
            return

        i, j = cells[next_cell]
        # Try each existing class, then (if depth allows) a new one.
        options = list(range(len(classes)))
        if len(classes) + 1 < best["depth"]:
            options.append(len(classes))
        for label in options:
            if label < len(classes):
                row_mask, col_mask = classes[label]
                merged = _closure(
                    matrix, row_mask | (1 << i), col_mask | (1 << j)
                )
            else:
                merged = _closure(matrix, 1 << i, 1 << j)
            if merged is None:
                continue
            new_row_mask, new_col_mask = merged
            # Pull every span cell into the class; conflict -> prune.
            pulled: List[int] = []
            conflict = False
            for si in bit_indices(new_row_mask):
                for sj in bit_indices(new_col_mask):
                    t = cell_of_index[(si, sj)]
                    if assigned[t] == -1:
                        assigned[t] = label
                        pulled.append(t)
                    elif assigned[t] != label:
                        conflict = True
                        break
                if conflict:
                    break
            if not conflict:
                if label < len(classes):
                    saved = classes[label]
                    classes[label] = merged
                    search(assigned, classes, next_cell + 1)
                    classes[label] = saved
                else:
                    classes.append(merged)
                    search(assigned, classes, next_cell + 1)
                    classes.pop()
            for t in pulled:
                assigned[t] = -1

    search([-1] * num_cells, [], 0)
    depth = int(best["depth"])  # type: ignore[arg-type]
    return BranchBoundResult(
        partition=best["partition"],  # type: ignore[assignment]
        binary_rank=depth,
        optimal=True,
        nodes=nodes["count"],
    )
