"""Bit-mask helpers.

Rows and column sets throughout the library are represented as Python
integers used as bit masks: bit ``j`` set means column ``j`` (or row ``j``)
is present.  Python integers are arbitrary precision, so a single mask
covers matrices of any width, and subset tests / unions / differences are
single machine-friendly operations.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple


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


def transpose_masks(masks: Sequence[int], width: int) -> List[int]:
    """The ``width`` masks of the transposed bit matrix: bit ``i`` of
    entry ``j`` is bit ``j`` of ``masks[i]``.  One pass over the set
    bits, so the cost scales with the ones, not with the cells."""
    out = [0] * width
    bit = 1
    for mask in masks:
        while mask:
            low = mask & -mask
            out[low.bit_length() - 1] |= bit
            mask ^= low
        bit <<= 1
    return out


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
