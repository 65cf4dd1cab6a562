"""Fooling sets — the classical lower bound on the partition number.

A fooling set ``S`` is a set of 1-cells such that for any two distinct
``(i, j), (i', j')`` in ``S``, ``M[i', j] = 0`` or ``M[i, j'] = 0``
(Section II of the paper).  No two fooling cells can share a rectangle,
hence ``|S| <= r_B(M)``.  Two fooling cells can never share a row or a
column (both cross entries would be 1s), so a fooling set is a clique in
the graph whose vertices are 1-cells and whose edges join fooling pairs.

This module provides the pair test, a randomized greedy, and an exact
maximum-clique branch-and-bound with a greedy-coloring upper bound
(Tomita-style), suitable for the paper-scale matrices (<= ~100 cells for
the exact search).
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from repro.core.binary_matrix import BinaryMatrix
from repro.utils.bitops import bit_indices, popcount
from repro.utils.rng import RngLike, ensure_rng

Cell = Tuple[int, int]


def is_fooling_pair(matrix: BinaryMatrix, a: Cell, b: Cell) -> bool:
    """True if 1-cells ``a`` and ``b`` can coexist in a fooling set."""
    (i, j), (i2, j2) = a, b
    if i == i2 or j == j2:
        return False
    return matrix[i, j2] == 0 or matrix[i2, j] == 0


def _fooling_adjacency(
    matrix: BinaryMatrix, cells: Sequence[Cell]
) -> List[int]:
    """Bit-mask adjacency of the fooling graph over ``cells``."""
    n = len(cells)
    adjacency = [0] * n
    for a in range(n):
        for b in range(a + 1, n):
            if is_fooling_pair(matrix, cells[a], cells[b]):
                adjacency[a] |= 1 << b
                adjacency[b] |= 1 << a
    return adjacency


def greedy_fooling_set(
    matrix: BinaryMatrix,
    *,
    trials: int = 16,
    seed: RngLike = None,
) -> List[Cell]:
    """Randomized greedy fooling set; returns the best over ``trials``."""
    cells = list(matrix.ones())
    if not cells:
        return []
    adjacency = _fooling_adjacency(matrix, cells)
    best_mask = _greedy_clique_mask(adjacency, trials, ensure_rng(seed))
    return [cells[v] for v in bit_indices(best_mask)]


def _greedy_clique_mask(
    adjacency: List[int], trials: int, rng: random.Random
) -> int:
    """The largest of ``trials`` randomized greedy cliques, as a mask."""
    n = len(adjacency)
    best_mask = 0
    for _ in range(max(1, trials)):
        order = list(range(n))
        rng.shuffle(order)
        # Prefer vertices of high fooling-degree: they tend to extend.
        order.sort(key=lambda v: -popcount(adjacency[v]))
        chosen = 0
        candidates = (1 << n) - 1
        for v in order:
            if (candidates >> v) & 1:
                chosen |= 1 << v
                candidates &= adjacency[v] | (1 << v)
                candidates &= ~(1 << v)
        if popcount(chosen) > popcount(best_mask):
            best_mask = chosen
    return best_mask


def max_clique_mask(adjacency: List[int], *, seed_mask: int = 0) -> int:
    """Exact maximum clique of a bit-mask adjacency (Tomita-style B&B).

    ``adjacency[v]`` is the neighbour mask of vertex ``v``; ``seed_mask``
    optionally primes the incumbent with a known clique.  Returns the
    vertex mask of a maximum clique.  Exponential worst case — callers
    bound the vertex count.
    """
    n = len(adjacency)
    if n == 0:
        return 0
    state = {"best_mask": seed_mask, "best_size": popcount(seed_mask)}

    def color_bound(candidates: int) -> List[Tuple[int, int]]:
        """Greedy coloring: returns (vertex, color_number) in an order such
        that color_number is an upper bound on the clique extension size."""
        ordered: List[Tuple[int, int]] = []
        color = 0
        remaining = candidates
        while remaining:
            color += 1
            available = remaining
            while available:
                v = (available & -available).bit_length() - 1
                ordered.append((v, color))
                available &= ~adjacency[v]
                available &= ~(1 << v)
                remaining &= ~(1 << v)
        return ordered

    def expand(current: int, size: int, candidates: int) -> None:
        ordered = color_bound(candidates)
        # Branch in decreasing color order (standard Tomita traversal).
        for v, color in reversed(ordered):
            if size + color <= state["best_size"]:
                return
            new_current = current | (1 << v)
            new_candidates = candidates & adjacency[v]
            if new_candidates:
                expand(new_current, size + 1, new_candidates)
            elif size + 1 > state["best_size"]:
                state["best_size"] = size + 1
                state["best_mask"] = new_current
            candidates &= ~(1 << v)

    expand(0, 0, (1 << n) - 1)
    return state["best_mask"]


def max_fooling_set(
    matrix: BinaryMatrix,
    *,
    max_cells: int = 128,
    seed: RngLike = None,
) -> List[Cell]:
    """Exact maximum fooling set via branch-and-bound max clique.

    Falls back to the greedy result when the matrix has more than
    ``max_cells`` 1-cells (the exact search is exponential in the worst
    case).  Paper-scale 10x10 instances are well within reach.
    """
    cells = list(matrix.ones())
    if not cells:
        return []
    if len(cells) > max_cells:
        return greedy_fooling_set(matrix, seed=seed)
    adjacency = _fooling_adjacency(matrix, cells)
    seed_mask = _greedy_clique_mask(adjacency, 8, ensure_rng(seed))
    best_mask = max_clique_mask(adjacency, seed_mask=seed_mask)
    return [cells[v] for v in bit_indices(best_mask)]


def fooling_number(
    matrix: BinaryMatrix,
    *,
    exact: bool = True,
    max_cells: int = 128,
    seed: RngLike = None,
) -> int:
    """``phi(M)``: the (maximum, if ``exact``) fooling set size."""
    if exact:
        return len(max_fooling_set(matrix, max_cells=max_cells, seed=seed))
    return len(greedy_fooling_set(matrix, seed=seed))


def verify_fooling_set(matrix: BinaryMatrix, cells: Sequence[Cell]) -> bool:
    """Check that ``cells`` are 1s and pairwise fooling."""
    for i, j in cells:
        if matrix[i, j] != 1:
            return False
    for a in range(len(cells)):
        for b in range(a + 1, len(cells)):
            if not is_fooling_pair(matrix, cells[a], cells[b]):
                return False
    return True
