"""Rectangle partitions — EBMF certificates.

A :class:`Partition` is an ordered collection of rectangles claimed to be
an exact binary matrix factorization of some matrix: pairwise disjoint,
jointly covering exactly the 1s.  ``validate`` checks the claim; the
``to_factors``/``from_factors`` pair maps to and from the ``M = H W``
formulation of Section II of the paper.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

from repro.core.binary_matrix import BinaryMatrix
from repro.core.exceptions import InvalidPartitionError
from repro.core.rectangle import Rectangle


class Partition:
    """An ordered set of rectangles over a fixed matrix shape."""

    __slots__ = ("_rectangles", "_shape")

    def __init__(
        self, rectangles: Iterable[Rectangle], shape: Tuple[int, int]
    ) -> None:
        num_rows, num_cols = shape
        if num_rows < 0 or num_cols < 0:
            raise InvalidPartitionError(f"invalid shape {shape}")
        rects = tuple(rectangles)
        for rect in rects:
            if rect.row_mask >> num_rows or rect.col_mask >> num_cols:
                raise InvalidPartitionError(
                    f"{rect!r} does not fit in shape {shape}"
                )
        self._rectangles = rects
        self._shape = (num_rows, num_cols)

    # ------------------------------------------------------------------
    @property
    def rectangles(self) -> Tuple[Rectangle, ...]:
        return self._rectangles

    @property
    def shape(self) -> Tuple[int, int]:
        return self._shape

    @property
    def depth(self) -> int:
        """Number of rectangles == number of AOD configurations needed."""
        return len(self._rectangles)

    def __len__(self) -> int:
        return len(self._rectangles)

    def __iter__(self) -> Iterator[Rectangle]:
        return iter(self._rectangles)

    def __getitem__(self, index: int) -> Rectangle:
        return self._rectangles[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self._shape == other._shape and set(self._rectangles) == set(
            other._rectangles
        )

    def __hash__(self) -> int:
        return hash((self._shape, frozenset(self._rectangles)))

    def __repr__(self) -> str:
        return f"Partition(depth={self.depth}, shape={self._shape})"

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def cover_counts(self) -> np.ndarray:
        """How many rectangles cover each cell (for diagnostics)."""
        counts = np.zeros(self._shape, dtype=np.int64)
        for rect in self._rectangles:
            for i in rect.rows:
                for j in rect.cols:
                    counts[i, j] += 1
        return counts

    def covered_matrix(self) -> BinaryMatrix:
        """The union of all rectangles as a binary matrix."""
        masks = [0] * self._shape[0]
        for rect in self._rectangles:
            for i in rect.rows:
                masks[i] |= rect.col_mask
        return BinaryMatrix(masks, self._shape[1])

    def validate(self, matrix: BinaryMatrix) -> None:
        """Raise :class:`InvalidPartitionError` unless this is an EBMF of
        ``matrix``: rectangles pairwise disjoint and covering exactly the 1s.
        """
        if matrix.shape != self._shape:
            raise InvalidPartitionError(
                f"partition shape {self._shape} != matrix shape {matrix.shape}"
            )
        cover = [0] * self._shape[0]
        for index, rect in enumerate(self._rectangles):
            cols = rect.col_mask
            rows = rect.row_mask
            while rows:
                low = rows & -rows
                rows ^= low
                i = low.bit_length() - 1
                overlap = cover[i] & cols
                if overlap:
                    raise InvalidPartitionError(
                        f"rectangle #{index} {rect!r} overlaps earlier "
                        f"rectangles on row {i} (cols mask {overlap:#x})"
                    )
                cover[i] |= cols
        for i, (covered, row) in enumerate(zip(cover, matrix.row_masks)):
            if covered != row:
                missing = row & ~covered
                spurious = covered & ~row
                raise InvalidPartitionError(
                    f"row {i}: missing cols mask {missing:#x}, "
                    f"spurious cols mask {spurious:#x}"
                )

    def is_valid_for(self, matrix: BinaryMatrix) -> bool:
        try:
            self.validate(matrix)
        except InvalidPartitionError:
            return False
        return True

    # ------------------------------------------------------------------
    # Factorization view (M = H W)
    # ------------------------------------------------------------------
    def to_factors(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(H, W)`` with ``H`` of shape ``(m, r)`` and ``W`` of
        shape ``(r, n)`` such that ``H @ W`` equals the covered matrix.
        """
        num_rows, num_cols = self._shape
        r = len(self._rectangles)
        h = np.zeros((num_rows, r), dtype=np.int64)
        w = np.zeros((r, num_cols), dtype=np.int64)
        for k, rect in enumerate(self._rectangles):
            h[:, k] = rect.h_column(num_rows)
            w[k, :] = rect.w_row(num_cols)
        return h, w

    @classmethod
    def from_factors(
        cls, h: np.ndarray, w: np.ndarray
    ) -> "Partition":
        """Build a partition from binary factors ``H`` (m x r), ``W`` (r x n).

        Zero columns of ``H`` / zero rows of ``W`` contribute empty
        rectangles and are skipped.
        """
        h = np.asarray(h)
        w = np.asarray(w)
        if h.ndim != 2 or w.ndim != 2 or h.shape[1] != w.shape[0]:
            raise InvalidPartitionError(
                f"incompatible factor shapes {h.shape} and {w.shape}"
            )
        if h.size and not np.isin(h, (0, 1)).all():
            raise InvalidPartitionError("H contains entries other than 0/1")
        if w.size and not np.isin(w, (0, 1)).all():
            raise InvalidPartitionError("W contains entries other than 0/1")
        rects: List[Rectangle] = []
        for k in range(h.shape[1]):
            rows = np.flatnonzero(h[:, k])
            cols = np.flatnonzero(w[k, :])
            if rows.size and cols.size:
                rects.append(
                    Rectangle.from_sets(rows.tolist(), cols.tolist())
                )
        return cls(rects, (h.shape[0], w.shape[1]))

    # ------------------------------------------------------------------
    # Label assignment view (the SMT model shape)
    # ------------------------------------------------------------------
    @classmethod
    def from_assignment(
        cls,
        matrix: BinaryMatrix,
        labels: Mapping[Tuple[int, int], int],
    ) -> "Partition":
        """Build a partition from a cell -> rectangle-index labelling.

        This is how SAT/SMT models are decoded: the rectangle with label
        ``k`` spans the union of rows and columns of its cells.  The result
        is *not* validated here; callers validate against the matrix.
        """
        groups: Dict[int, Tuple[int, int]] = {}
        for (i, j), label in labels.items():
            row_mask, col_mask = groups.get(label, (0, 0))
            groups[label] = (row_mask | (1 << i), col_mask | (1 << j))
        rects = [
            Rectangle(row_mask, col_mask)
            for _, (row_mask, col_mask) in sorted(groups.items())
        ]
        return cls(rects, matrix.shape)

    def to_assignment(self) -> Dict[Tuple[int, int], int]:
        """Inverse of :meth:`from_assignment` (labels = rectangle indices)."""
        out: Dict[Tuple[int, int], int] = {}
        for k, rect in enumerate(self._rectangles):
            for cell in rect.cells():
                out[cell] = k
        return out

    # ------------------------------------------------------------------
    def transpose(self) -> "Partition":
        """The partition of the transposed matrix."""
        return Partition(
            [rect.transpose() for rect in self._rectangles],
            (self._shape[1], self._shape[0]),
        )

    def permute_rows(self, order: Sequence[int]) -> "Partition":
        """Partition of ``matrix.permute_rows(order)`` given this partition
        of the original: new row ``k`` is old row ``order[k]``.
        """
        num_rows = self._shape[0]
        if sorted(order) != list(range(num_rows)):
            raise InvalidPartitionError(f"{order!r} is not a row permutation")
        inverse = [0] * num_rows
        for new_index, old_index in enumerate(order):
            inverse[old_index] = new_index
        rects = [
            Rectangle.from_sets(
                (inverse[i] for i in rect.rows), rect.cols
            )
            for rect in self._rectangles
        ]
        return Partition(rects, self._shape)
