"""Immutable binary matrices with bit-mask row storage.

The library's central data type.  Each row is stored as a Python integer
mask (bit ``j`` set means entry ``(i, j)`` is 1), which makes the inner
loops of the row-packing heuristic — subset tests, set differences,
unions — single integer operations, and makes matrices hashable so they
can key caches and benchmark dictionaries.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.core.exceptions import InvalidMatrixError
from repro.utils.bitops import bit_indices, popcount, transpose_masks


class BinaryMatrix:
    """An immutable ``m x n`` matrix over {0, 1}.

    Construct via the ``from_*`` classmethods or directly from row masks::

        >>> M = BinaryMatrix.from_strings(["110", "011"])
        >>> M[0, 0], M[1, 0]
        (1, 0)
    """

    __slots__ = ("_rows", "_num_cols")

    def __init__(self, row_masks: Sequence[int], num_cols: int) -> None:
        if num_cols < 0:
            raise InvalidMatrixError(f"num_cols must be >= 0, got {num_cols}")
        rows = tuple(int(mask) for mask in row_masks)
        limit = 1 << num_cols
        for i, mask in enumerate(rows):
            if mask < 0 or mask >= limit:
                raise InvalidMatrixError(
                    f"row {i} mask {mask:#x} out of range for {num_cols} columns"
                )
        self._rows: Tuple[int, ...] = rows
        self._num_cols = num_cols

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "BinaryMatrix":
        """Build from nested 0/1 iterables (row-major)."""
        masks: List[int] = []
        num_cols = -1
        for i, row in enumerate(rows):
            entries = list(row)
            if num_cols == -1:
                num_cols = len(entries)
            elif len(entries) != num_cols:
                raise InvalidMatrixError(
                    f"row {i} has {len(entries)} entries, expected {num_cols}"
                )
            mask = 0
            for j, value in enumerate(entries):
                if value not in (0, 1):
                    raise InvalidMatrixError(
                        f"entry ({i}, {j}) is {value!r}, expected 0 or 1"
                    )
                if value:
                    mask |= 1 << j
            masks.append(mask)
        if num_cols == -1:
            num_cols = 0
        return cls(masks, num_cols)

    @classmethod
    def from_strings(cls, lines: Iterable[str]) -> "BinaryMatrix":
        """Build from strings of '0'/'1' characters, one per row.

        Spaces and underscores are ignored so matrices can be written
        readably: ``"1011_0010"``.
        """
        rows: List[List[int]] = []
        for i, line in enumerate(lines):
            cleaned = line.replace(" ", "").replace("_", "")
            row: List[int] = []
            for j, char in enumerate(cleaned):
                if char not in "01":
                    raise InvalidMatrixError(
                        f"row {i} position {j}: {char!r} is not '0' or '1'"
                    )
                row.append(int(char))
            rows.append(row)
        return cls.from_rows(rows)

    @classmethod
    def from_numpy(cls, array: np.ndarray) -> "BinaryMatrix":
        """Build from a 2D numpy array of 0s and 1s (any integer dtype)."""
        arr = np.asarray(array)
        if arr.ndim != 2:
            raise InvalidMatrixError(f"expected 2D array, got shape {arr.shape}")
        if arr.size and not np.isin(arr, (0, 1)).all():
            raise InvalidMatrixError("array contains entries other than 0/1")
        return cls.from_rows(arr.astype(int).tolist())

    @classmethod
    def from_cells(
        cls, cells: Iterable[Tuple[int, int]], shape: Tuple[int, int]
    ) -> "BinaryMatrix":
        """Build an ``shape`` matrix that is 1 exactly on ``cells``."""
        num_rows, num_cols = shape
        masks = [0] * num_rows
        for i, j in cells:
            if not (0 <= i < num_rows and 0 <= j < num_cols):
                raise InvalidMatrixError(
                    f"cell ({i}, {j}) outside shape {shape}"
                )
            masks[i] |= 1 << j
        return cls(masks, num_cols)

    @classmethod
    def zeros(cls, num_rows: int, num_cols: int) -> "BinaryMatrix":
        return cls([0] * num_rows, num_cols)

    @classmethod
    def all_ones(cls, num_rows: int, num_cols: int) -> "BinaryMatrix":
        full = (1 << num_cols) - 1
        return cls([full] * num_rows, num_cols)

    @classmethod
    def identity(cls, size: int) -> "BinaryMatrix":
        return cls([1 << i for i in range(size)], size)

    # ------------------------------------------------------------------
    # Shape and element access
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return len(self._rows)

    @property
    def num_cols(self) -> int:
        return self._num_cols

    @property
    def shape(self) -> Tuple[int, int]:
        return (len(self._rows), self._num_cols)

    @property
    def row_masks(self) -> Tuple[int, ...]:
        """All row masks; the fundamental representation."""
        return self._rows

    def row_mask(self, i: int) -> int:
        return self._rows[i]

    def col_mask(self, j: int) -> int:
        """Mask over *rows*: bit ``i`` set iff entry ``(i, j)`` is 1."""
        if not 0 <= j < self._num_cols:
            raise IndexError(f"column {j} out of range [0, {self._num_cols})")
        bit = 1 << j
        mask = 0
        for i, row in enumerate(self._rows):
            if row & bit:
                mask |= 1 << i
        return mask

    def col_masks(self) -> Tuple[int, ...]:
        """All column masks (masks over rows), computed in one pass."""
        return tuple(transpose_masks(self._rows, self._num_cols))

    def __getitem__(self, key: Tuple[int, int]) -> int:
        i, j = key
        if not 0 <= j < self._num_cols:
            raise IndexError(f"column {j} out of range [0, {self._num_cols})")
        return (self._rows[i] >> j) & 1

    # ------------------------------------------------------------------
    # Content queries
    # ------------------------------------------------------------------
    def ones(self) -> Iterator[Tuple[int, int]]:
        """Yield the coordinates of all 1-entries in row-major order."""
        for i, row in enumerate(self._rows):
            for j in bit_indices(row):
                yield (i, j)

    def count_ones(self) -> int:
        return sum(popcount(row) for row in self._rows)

    def occupancy(self) -> float:
        """Fraction of entries that are 1 (0.0 for an empty matrix)."""
        total = len(self._rows) * self._num_cols
        if total == 0:
            return 0.0
        return self.count_ones() / total

    def is_zero(self) -> bool:
        return all(row == 0 for row in self._rows)

    def row_is_zero(self, i: int) -> bool:
        return self._rows[i] == 0

    # ------------------------------------------------------------------
    # Derived matrices
    # ------------------------------------------------------------------
    def transpose(self) -> "BinaryMatrix":
        cols = self.col_masks()
        return BinaryMatrix(cols, len(self._rows))

    def submatrix(
        self, rows: Sequence[int], cols: Sequence[int]
    ) -> "BinaryMatrix":
        """Select the given rows and columns (in the given order)."""
        col_list = list(cols)
        masks = []
        for i in rows:
            source = self._rows[i]
            mask = 0
            for new_j, old_j in enumerate(col_list):
                if not 0 <= old_j < self._num_cols:
                    raise IndexError(f"column {old_j} out of range")
                if (source >> old_j) & 1:
                    mask |= 1 << new_j
            masks.append(mask)
        return BinaryMatrix(masks, len(col_list))

    def permute_rows(self, order: Sequence[int]) -> "BinaryMatrix":
        """New matrix whose row ``k`` is this matrix's row ``order[k]``."""
        if sorted(order) != list(range(len(self._rows))):
            raise InvalidMatrixError(f"{order!r} is not a row permutation")
        return BinaryMatrix([self._rows[i] for i in order], self._num_cols)

    def tensor(self, other: "BinaryMatrix") -> "BinaryMatrix":
        """Kronecker product ``self (x) other`` (both binary, so exact)."""
        m2, n2 = other.shape
        masks: List[int] = []
        for a_row in self._rows:
            for b_row in other.row_masks:
                mask = 0
                for j in bit_indices(a_row):
                    mask |= b_row << (j * n2)
                masks.append(mask)
        return BinaryMatrix(masks, self._num_cols * n2)

    def elementwise_or(self, other: "BinaryMatrix") -> "BinaryMatrix":
        self._require_same_shape(other)
        return BinaryMatrix(
            [a | b for a, b in zip(self._rows, other.row_masks)],
            self._num_cols,
        )

    def elementwise_and(self, other: "BinaryMatrix") -> "BinaryMatrix":
        self._require_same_shape(other)
        return BinaryMatrix(
            [a & b for a, b in zip(self._rows, other.row_masks)],
            self._num_cols,
        )

    def complement(self) -> "BinaryMatrix":
        full = (1 << self._num_cols) - 1
        return BinaryMatrix([row ^ full for row in self._rows], self._num_cols)

    def _require_same_shape(self, other: "BinaryMatrix") -> None:
        if self.shape != other.shape:
            raise InvalidMatrixError(
                f"shape mismatch: {self.shape} vs {other.shape}"
            )

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_numpy(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.int64)
        for i, j in self.ones():
            out[i, j] = 1
        return out

    def to_lists(self) -> List[List[int]]:
        return [
            [(row >> j) & 1 for j in range(self._num_cols)]
            for row in self._rows
        ]

    def to_strings(self) -> List[str]:
        return [
            "".join(str((row >> j) & 1) for j in range(self._num_cols))
            for row in self._rows
        ]

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinaryMatrix):
            return NotImplemented
        return self._num_cols == other._num_cols and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self._rows, self._num_cols))

    def __repr__(self) -> str:
        return f"BinaryMatrix({self.num_rows}x{self.num_cols}, ones={self.count_ones()})"

    def to_pretty(self) -> str:
        """Multi-line rendering with '.' for 0 and '#' for 1."""
        return "\n".join(
            "".join("#" if (row >> j) & 1 else "." for j in range(self._num_cols))
            for row in self._rows
        )
