"""Bit-mask helpers.

Rows and column sets throughout the library are represented as Python
integers used as bit masks: bit ``j`` set means column ``j`` (or row ``j``)
is present.  Python integers are arbitrary precision, so a single mask
covers matrices of any width, and subset tests / unions / differences are
single machine-friendly operations.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np


def popcount(mask: int) -> int:
    """Number of set bits in ``mask``."""
    return mask.bit_count()


def bit_indices(mask: int) -> Iterator[int]:
    """Yield the indices of set bits in ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_to_tuple(mask: int) -> Tuple[int, ...]:
    """Set bits of ``mask`` as a sorted tuple of indices."""
    indices = []
    while mask:
        low = mask & -mask
        indices.append(low.bit_length() - 1)
        mask ^= low
    return tuple(indices)


TRANSPOSE_BY_NUMPY_ABOVE = 24
"""Ones, beyond two per row and column, above which
:func:`transpose_masks` takes the numpy path."""


def transpose_masks(masks: Sequence[int], width: int) -> List[int]:
    """The ``width`` masks of the transposed bit matrix: bit ``i`` of
    entry ``j`` is bit ``j`` of ``masks[i]``.

    Two paths give the same masks.  The bit loop makes one pass over
    the set bits, so it costs about 0.1-0.2 us per one; the numpy path
    unpacks the rows to a 0/1 array, transposes it and packs it again,
    which costs one ``to_bytes`` per row and one ``int.from_bytes`` per
    column, about 2 us plus 0.3 us per row and column whatever the
    ones.  Timed on 10x10 to 130x70 matrices, numpy overtook the loop
    at 1.6-3.9 ones per row and column: 65-77 ones on a 10x10, 400 on a
    100x100 (4% of its cells).  So the loop runs unless the ones exceed
    :data:`TRANSPOSE_BY_NUMPY_ABOVE` plus two per row and column.
    """
    ones = sum(map(int.bit_count, masks))
    if ones > TRANSPOSE_BY_NUMPY_ABOVE + 2 * (len(masks) + width):
        return _transpose_by_numpy(masks, width)
    return _transpose_by_bits(masks, width)


def _transpose_by_bits(masks: Sequence[int], width: int) -> List[int]:
    """:func:`transpose_masks` by one pass over the set bits."""
    out = [0] * width
    bit = 1
    for mask in masks:
        while mask:
            low = mask & -mask
            out[low.bit_length() - 1] |= bit
            mask ^= low
        bit <<= 1
    return out


def _transpose_by_numpy(masks: Sequence[int], width: int) -> List[int]:
    """:func:`transpose_masks` by a transpose of the unpacked 0/1 array."""
    packed = np.packbits(unpack_masks(masks, width).T, axis=1, bitorder="little")
    stride = packed.shape[1]
    flat = packed.tobytes()
    return [
        int.from_bytes(flat[j * stride : (j + 1) * stride], "little")
        for j in range(width)
    ]


def unpack_masks(masks: Sequence[int], width: int) -> np.ndarray:
    """The ``len(masks) x width`` 0/1 ``uint8`` array of ``masks``: entry
    ``(i, j)`` is bit ``j`` of ``masks[i]``."""
    row_bytes = (width + 7) // 8
    packed = b"".join(mask.to_bytes(row_bytes, "little") for mask in masks)
    return np.unpackbits(
        np.frombuffer(packed, dtype=np.uint8).reshape(len(masks), row_bytes),
        axis=1,
        count=width,
        bitorder="little",
    )


def bits_from_indices(indices: Iterable[int]) -> int:
    """Build a mask with the given bit indices set."""
    mask = 0
    for index in indices:
        if index < 0:
            raise ValueError(f"bit index must be non-negative, got {index}")
        mask |= 1 << index
    return mask


def is_subset(inner: int, outer: int) -> bool:
    """True if every set bit of ``inner`` is also set in ``outer``."""
    return inner & ~outer == 0


def iter_submasks(mask: int) -> Iterator[int]:
    """Yield every submask of ``mask`` (including 0 and ``mask`` itself).

    Uses the standard ``(sub - 1) & mask`` enumeration, descending order.
    The number of submasks is ``2**popcount(mask)`` — callers are expected
    to keep ``popcount(mask)`` small.
    """
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def lowest_set_bit(mask: int) -> int:
    """Index of the lowest set bit; raises ``ValueError`` on 0."""
    if mask == 0:
        raise ValueError("mask has no set bits")
    return (mask & -mask).bit_length() - 1
