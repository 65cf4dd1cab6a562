"""Masked (don't-care) matrices for addressing with vacancies.

Section VI: vacant sites "can be represented as don't cares in a matrix,
which may be leveraged to reduce rectangles" — binary matrix completion
rather than factorization.  A :class:`MaskedMatrix` partitions the grid
into required 1s, forbidden 0s, and free don't-cares; a valid addressing
covers every 1 exactly once, never touches a 0, and may cover don't-
cares any number of times (including by overlapping rectangles).
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.core.binary_matrix import BinaryMatrix
from repro.core.exceptions import InvalidMatrixError, InvalidPartitionError
from repro.core.fooling import _fooling_adjacency, max_clique_mask
from repro.core.partition import Partition
from repro.utils.bitops import bit_indices, lowest_set_bit, popcount

Cell = Tuple[int, int]


class MaskedMatrix:
    """A {0, 1, don't-care} matrix."""

    __slots__ = ("_ones", "_dont_care")

    def __init__(self, ones: BinaryMatrix, dont_care: BinaryMatrix) -> None:
        if ones.shape != dont_care.shape:
            raise InvalidMatrixError(
                f"ones shape {ones.shape} != don't-care shape "
                f"{dont_care.shape}"
            )
        overlap = ones.elementwise_and(dont_care)
        if not overlap.is_zero():
            cell = next(overlap.ones())
            raise InvalidMatrixError(
                f"cell {cell} is both a required 1 and a don't-care"
            )
        self._ones = ones
        self._dont_care = dont_care

    @classmethod
    def from_target_and_vacancies(
        cls, target: BinaryMatrix, vacancies: BinaryMatrix
    ) -> "MaskedMatrix":
        """Target pattern on an array whose vacant sites are free."""
        stray = target.elementwise_and(vacancies)
        if not stray.is_zero():
            cell = next(stray.ones())
            raise InvalidMatrixError(
                f"target addresses vacant site {cell}"
            )
        return cls(target, vacancies)

    @classmethod
    def from_strings(cls, lines) -> "MaskedMatrix":
        """Parse rows of '0', '1', '*' characters."""
        ones_rows: List[str] = []
        dc_rows: List[str] = []
        for line in lines:
            cleaned = line.replace(" ", "").replace("_", "")
            for char in cleaned:
                if char not in "01*":
                    raise InvalidMatrixError(
                        f"unexpected character {char!r} in masked matrix"
                    )
            ones_rows.append(
                "".join("1" if c == "1" else "0" for c in cleaned)
            )
            dc_rows.append(
                "".join("1" if c == "*" else "0" for c in cleaned)
            )
        return cls(
            BinaryMatrix.from_strings(ones_rows),
            BinaryMatrix.from_strings(dc_rows),
        )

    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        return self._ones.shape

    @property
    def ones_matrix(self) -> BinaryMatrix:
        return self._ones

    @property
    def dont_care_matrix(self) -> BinaryMatrix:
        return self._dont_care

    def free_matrix(self) -> BinaryMatrix:
        """Sites a rectangle may cover: 1s union don't-cares."""
        return self._ones.elementwise_or(self._dont_care)

    def value(self, i: int, j: int) -> str:
        if self._ones[i, j]:
            return "1"
        if self._dont_care[i, j]:
            return "*"
        return "0"

    def ones(self) -> Iterator[Cell]:
        return self._ones.ones()

    def transpose(self) -> "MaskedMatrix":
        return MaskedMatrix(
            self._ones.transpose(), self._dont_care.transpose()
        )

    def to_strings(self) -> List[str]:
        return [
            "".join(self.value(i, j) for j in range(self.shape[1]))
            for i in range(self.shape[0])
        ]

    def __repr__(self) -> str:
        return (
            f"MaskedMatrix({self.shape[0]}x{self.shape[1]}, "
            f"ones={self._ones.count_ones()}, "
            f"dont_cares={self._dont_care.count_ones()})"
        )


def validate_masked_partition(
    masked: MaskedMatrix, partition: Partition
) -> None:
    """Raise unless ``partition`` is a valid addressing of ``masked``:
    1s covered exactly once, 0s never, don't-cares unconstrained.

    Each row is checked on masks of the cells covered once and twice;
    the error names the first bad cell in row-major order.
    """
    if partition.shape != masked.shape:
        raise InvalidPartitionError(
            f"partition shape {partition.shape} != masked shape "
            f"{masked.shape}"
        )
    once = [0] * masked.shape[0]
    twice = [0] * masked.shape[0]
    for rect in partition:
        for i in bit_indices(rect.row_mask):
            twice[i] |= once[i] & rect.col_mask
            once[i] |= rect.col_mask
    rows = zip(masked.ones_matrix.row_masks, masked.free_matrix().row_masks)
    for i, (ones, free) in enumerate(rows):
        bad = ones & (twice[i] | ~once[i]) | once[i] & ~free
        if bad:
            j = lowest_set_bit(bad)
            count = sum(
                r.row_mask >> i & r.col_mask >> j & 1 for r in partition
            )
            kind = "required" if ones >> j & 1 else "forbidden"
            raise InvalidPartitionError(
                f"{kind} cell ({i}, {j}) covered {count} times"
            )


def masked_fooling_number(masked: MaskedMatrix, *, max_cells: int = 96) -> int:
    """Lower bound on the masked rectangle count via fooling sets.

    Two 1-cells in distinct rows and columns can never share a rectangle
    when one of their cross cells is a hard 0 (don't-cares do not block).
    The maximum such pairwise-incompatible set lower-bounds the depth.
    Exact up to ``max_cells`` 1-cells, greedy beyond.  (The real-rank
    bound of Eq. 3 is *not* sound under don't-cares, so this is the bound
    the masked solver descends to.)
    """
    cells = list(masked.ones())
    if not cells:
        return 0
    adjacency = _fooling_adjacency(masked.free_matrix(), cells)
    n = len(cells)
    if n > max_cells:
        # Greedy clique: still a valid lower bound.
        chosen = 0
        candidates = (1 << n) - 1
        order = sorted(range(n), key=lambda v: -popcount(adjacency[v]))
        for v in order:
            if (candidates >> v) & 1:
                chosen |= 1 << v
                candidates &= adjacency[v]
        return popcount(chosen)
    return popcount(max_clique_mask(adjacency))
