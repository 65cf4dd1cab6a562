"""Linear algebra over GF(2) with bit-packed rows.

The GF(2) rank is *not* a valid lower bound for the binary rank (EBMF
addition is over R, not mod 2 — see the Section II example), but it is a
useful diagnostic: the gap construction of benchmark Set 3 exploits
exactly the difference between mod-2 and real arithmetic.  It also backs
the qLDPC substrate (parity-check matrices live over GF(2)).

The basis, row-space and solve routines keep the invariant that stored
pivots have pairwise distinct lowest set bits; reduction XORs a vector
against the pivot sharing its current lowest bit until the vector dies or
exposes a fresh pivot bit.  The rank needs no particular basis, so
:func:`gf2_rank_of_masks` keys its pivots by highest set bit instead:
``bit_length`` is one call on the mask, where ``mask & -mask`` builds two
new integers.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.binary_matrix import BinaryMatrix

MatrixLike = Union[BinaryMatrix, np.ndarray, Sequence[Sequence[int]]]


def _to_binary(matrix: MatrixLike) -> BinaryMatrix:
    if isinstance(matrix, BinaryMatrix):
        return matrix
    return BinaryMatrix.from_numpy(np.asarray(matrix) % 2)


def _reduce(mask: int, pivots: Dict[int, int]) -> int:
    """Reduce ``mask`` against ``pivots`` (low-bit -> pivot mask)."""
    while mask:
        low = mask & -mask
        pivot = pivots.get(low)
        if pivot is None:
            return mask
        mask ^= pivot
    return 0


def gf2_rank(matrix: MatrixLike) -> int:
    """Rank over GF(2) by Gaussian elimination on row masks."""
    return gf2_rank_of_masks(_to_binary(matrix).row_masks)


def gf2_rank_of_masks(masks: Iterable[int]) -> int:
    """Rank over GF(2) of the rows given as masks: an XOR basis keyed by
    each pivot's highest set bit."""
    pivots: Dict[int, int] = {}
    for mask in masks:
        while mask:
            top = mask.bit_length()
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = mask
                break
            mask ^= pivot
    return len(pivots)


def gf2_row_basis(matrix: MatrixLike) -> List[int]:
    """A row-space basis (as masks) in echelon form, sorted by pivot bit."""
    pivots: Dict[int, int] = {}
    for mask in _to_binary(matrix).row_masks:
        residue = _reduce(mask, pivots)
        if residue:
            pivots[residue & -residue] = residue
    return [pivots[low] for low in sorted(pivots)]


def gf2_row_reduce(matrix: MatrixLike) -> List[int]:
    """Fully reduced row-echelon basis: no pivot bit appears in another
    basis vector."""
    basis = gf2_row_basis(matrix)
    for idx in range(len(basis)):
        low = basis[idx] & -basis[idx]
        for other in range(len(basis)):
            if other != idx and basis[other] & low:
                basis[other] ^= basis[idx]
    return sorted(basis, key=lambda b: b & -b)


def gf2_in_row_space(matrix: MatrixLike, vector_mask: int) -> bool:
    """True if ``vector_mask`` lies in the GF(2) row space of ``matrix``."""
    pivots: Dict[int, int] = {}
    for mask in _to_binary(matrix).row_masks:
        residue = _reduce(mask, pivots)
        if residue:
            pivots[residue & -residue] = residue
    return _reduce(vector_mask, pivots) == 0


def gf2_solve(matrix: BinaryMatrix, rhs: int) -> Optional[int]:
    """Find a row-selection mask ``s`` with ``XOR of selected rows == rhs``.

    Returns ``None`` when ``rhs`` is outside the row space.  Used by the
    qLDPC experiments to test row-space membership constructively.
    """
    pivots: Dict[int, Tuple[int, int]] = {}  # low-bit -> (mask, combo)
    for i, mask in enumerate(matrix.row_masks):
        combo = 1 << i
        while mask:
            low = mask & -mask
            entry = pivots.get(low)
            if entry is None:
                pivots[low] = (mask, combo)
                break
            mask ^= entry[0]
            combo ^= entry[1]
    residual, selection = rhs, 0
    while residual:
        low = residual & -residual
        entry = pivots.get(low)
        if entry is None:
            return None
        residual ^= entry[0]
        selection ^= entry[1]
    return selection


def gf2_nullspace(matrix: BinaryMatrix) -> List[int]:
    """Basis (as column masks over ``num_cols``) of ``{x : M x = 0}``."""
    transposed = matrix.transpose()
    pivots: Dict[int, Tuple[int, int]] = {}
    null_basis: List[int] = []
    for j, mask in enumerate(transposed.row_masks):
        combo = 1 << j
        while mask:
            low = mask & -mask
            entry = pivots.get(low)
            if entry is None:
                pivots[low] = (mask, combo)
                break
            mask ^= entry[0]
            combo ^= entry[1]
        else:
            null_basis.append(combo)
    return null_basis
