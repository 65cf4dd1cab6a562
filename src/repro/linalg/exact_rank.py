"""Exact rank over the rationals, by Bareiss or by elimination mod primes.

Eq. 3 of the paper — ``rank_R(M) <= r_B(M)`` — is SAP's termination
criterion, so the rank must be *exact*: floating-point ranks (numpy's SVD
threshold) can misjudge near-singular integer matrices.

A :class:`BinaryMatrix` is first offered a certificate over GF(2).  Its
distinct non-zero row masks go through an XOR basis
(:func:`repro.linalg.gf2.gf2_rank_of_masks`, well under a millisecond
at 100x100), and the rank over GF(2) is returned at once when it equals
``b``, the smaller of the numbers of distinct non-zero rows and of
non-zero columns.  This is exact, because

    rank_GF(2) <= rank_Q <= b.

The right inequality holds because repeated and zero rows add nothing
to the row space, nor zero columns to the column space.  For the left
one, let ``r = rank_GF(2)``: some ``r x r`` minor has a determinant
that is 1 mod 2, so over the integers that determinant is odd, and an
odd number is not zero.  When the rank over GF(2) falls below ``b``,
one of two exact paths runs; :data:`MODULAR_CUTOFF` picks one by the
matrix's shape.

* **Bareiss** (either dimension below the cutoff).  One-step Bareiss
  elimination stays in integers, every division is exact, and
  intermediate entries are minors of the input, so Python's big
  integers hold them.  It is also the reference the modular path is
  tested against.
* **Modular** (both dimensions at least the cutoff).  The big-integer
  inner loop costs 20-80 ms on the paper's 100x100 matrices, so large
  matrices are eliminated in numpy ``int64`` modulo primes
  ``p_1 > p_2 > ...`` below ``2**26`` instead.  Entries are first
  reduced mod ``p`` as Python integers, since inputs may exceed
  ``int64``.  On small matrices the per-column numpy call overhead
  dominates: on random and planted rank-deficient 0/1 matrices Bareiss
  is 1.3-3.4x faster up to 16x16, the two break even near 24x24, and
  at 28x28 and 32x32 the modular path is 1.4-1.8x faster.

The elimination reduces lazily.  At each pivot it takes only the pivot
column (before the pivot search) and the pivot row (before scaling it
by the pivot's inverse) mod ``p``, and subtracts ``f * b`` from the
rows below with no ``% p``: ``f`` and ``b`` are residues, so
``0 <= f * b <= (p-1)**2``.  An entry that starts in ``[0, p)`` and has
taken ``s`` such updates lies in ``[-s * (p-1)**2, p)``, inside
``int64`` while ``s <= (2**63 - p) // (p-1)**2``, and the trailing
block is reduced mod ``p`` before an update would pass that count.
There is at most one update per pivot, and below ``2**26`` the count
is 2,048, so the block is reduced only when both sides of the matrix
exceed 2,048; a prime near ``2**31`` would allow 2 updates between
reductions.  Smaller primes cost more of them only when the stop rule
below decides (each adds 52 bits, not 62, to ``(p_1...p_k)**2``); a
matrix whose first prime gives ``full`` needs one either way.

Before eliminating, the modular path drops zero rows and columns and
merges duplicates (this keeps the rank), and sets ``full``, the smaller
of the two remaining counts, which bounds ``rank_Q`` from above.  A
:class:`BinaryMatrix` does this with :func:`reduce_matrix` on its row
masks and unpacks the reduced masks into the 0/1 array it eliminates:
0 and 1 are their own residues mod every prime, and a binary row's
squared norm is its number of ones.  Integer inputs do it on Python
lists and reduce every entry mod ``p``.  Either way the modular path
tries primes until the best rank seen, ``best``, equals ``full``, or
until ``(p_1...p_k)**2 > H**2``, where ``H**2`` is the smaller of the
products of the squared norms of the distinct rows and of the distinct
columns of the row-merged matrix.  Then ``best == rank_Q``:

* ``rank_p <= rank_Q`` for every prime, so ``best <= rank_Q``.
* Let ``r = rank_Q``.  Some ``r x r`` minor ``D`` of the reduced matrix
  is nonzero.  By Hadamard's inequality ``|D|`` is at most the product
  of the norms of its rows, so ``|D| <= H``: each of those rows is part
  of a row of the matrix, and every other row, being a nonzero integer
  row, has norm at least 1.  The same holds for columns.
* If every ``p_i`` gave a rank below ``r``, every ``p_i`` would divide
  ``D``, so ``p_1...p_k <= |D| <= H``, which the stop rule excludes.

No step is randomised or floating-point: the primes are the largest
below ``2**26``, in descending order, found by deterministic
Miller-Rabin.
"""

from __future__ import annotations

from functools import reduce
from itertools import count
from math import prod
from operator import mul, or_
from typing import Callable, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.core.binary_matrix import BinaryMatrix
from repro.core.reductions import reduce_matrix
from repro.linalg.gf2 import gf2_rank_of_masks
from repro.utils.bitops import unpack_masks

MatrixLike = Union[BinaryMatrix, np.ndarray, Sequence[Sequence[int]]]

MODULAR_CUTOFF = 32
"""Matrices with both dimensions at least this take the modular path."""


def _to_int_rows(matrix: MatrixLike) -> List[List[int]]:
    if isinstance(matrix, BinaryMatrix):
        return matrix.to_lists()
    if isinstance(matrix, (list, tuple)) and len(matrix) == 0:
        return []
    arr = np.asarray(matrix)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2D matrix, got shape {arr.shape}")
    if arr.size and not np.equal(np.mod(arr, 1), 0).all():
        raise ValueError("exact rank requires integer entries")
    return [[int(x) for x in row] for row in arr.tolist()]


def rank_over_q(matrix: MatrixLike) -> int:
    """Exact rank of an integer matrix over the field of rationals."""
    if isinstance(matrix, BinaryMatrix):
        certified = _gf2_certified_rank(matrix)
        if certified is not None:
            return certified
        if min(matrix.shape) >= MODULAR_CUTOFF:
            return _binary_modular_rank(matrix)
    rows = _to_int_rows(matrix)
    if not rows or not rows[0]:
        return 0
    if min(len(rows), len(rows[0])) >= MODULAR_CUTOFF:
        return _modular_rank(rows)
    return _bareiss_rank(rows)


def _gf2_certified_rank(matrix: BinaryMatrix) -> Optional[int]:
    """The rank of ``matrix`` over Q when its rank over GF(2) proves it,
    else ``None`` (module docstring)."""
    rows = {mask for mask in matrix.row_masks if mask}
    bound = min(len(rows), reduce(or_, rows, 0).bit_count())
    return bound if gf2_rank_of_masks(rows) == bound else None


def _bareiss_rank(rows: List[List[int]]) -> int:
    """Rank over Q by one-step Bareiss elimination; overwrites ``rows``."""
    num_rows, num_cols = len(rows), len(rows[0])
    rank = 0
    pivot_row = 0
    previous_pivot = 1
    for col in range(num_cols):
        swap = next(
            (r for r in range(pivot_row, num_rows) if rows[r][col] != 0),
            None,
        )
        if swap is None:
            continue
        rows[pivot_row], rows[swap] = rows[swap], rows[pivot_row]
        pivot = rows[pivot_row][col]
        for r in range(pivot_row + 1, num_rows):
            factor = rows[r][col]
            row_r = rows[r]
            row_p = rows[pivot_row]
            for c in range(col + 1, num_cols):
                # One-step Bareiss update; the division is exact.
                row_r[c] = (row_r[c] * pivot - factor * row_p[c]) // previous_pivot
            row_r[col] = 0
        previous_pivot = pivot
        rank += 1
        pivot_row += 1
        if pivot_row == num_rows:
            break
    return rank


def _modular_rank(rows: List[List[int]]) -> int:
    """Rank over Q of integer rows by elimination modulo primes."""
    distinct_rows = list(dict.fromkeys(tuple(row) for row in rows if any(row)))
    cols = list(dict.fromkeys(col for col in zip(*distinct_rows) if any(col)))
    return _certified_rank(
        lambda p: np.array(
            [[x % p for x in col] for col in cols], dtype=np.int64
        ),
        min(len(distinct_rows), len(cols)),
        lambda: min(
            prod(sum(map(mul, row, row)) for row in distinct_rows),
            prod(sum(map(mul, col, col)) for col in cols),
        ),
    )


def _binary_modular_rank(matrix: BinaryMatrix) -> int:
    """Rank over Q of a 0/1 matrix by elimination modulo primes."""
    reduced = reduce_matrix(matrix)
    num_rows, num_cols = reduced.matrix.shape
    bits = unpack_masks(reduced.matrix.row_masks, num_cols)
    # Row norms are taken on the original rows, column norms on the
    # row-merged matrix, as the integer path does.
    return _certified_rank(
        lambda p: bits.astype(np.int64),
        min(num_rows, num_cols),
        lambda: min(
            prod(matrix.row_mask(g[0]).bit_count() for g in reduced.row_groups),
            prod(bits.sum(axis=0, dtype=np.int64).tolist()),
        ),
    )


def _certified_rank(
    residues: Callable[[int], np.ndarray],
    full: int,
    hadamard_sq: Callable[[], int],
) -> int:
    """The prime loop: ``residues(p)`` is a fresh ``int64`` copy of the
    merged matrix mod ``p``, ``full`` the smaller of its dimensions and
    ``hadamard_sq()`` the ``H**2`` of the stop rule (module docstring)."""
    if full == 0:
        return 0
    best, modulus_sq, bound_sq = 0, 1, None
    primes = _word_primes()
    while True:
        p = next(primes)
        best = max(best, _rank_mod_p(residues(p), p))
        modulus_sq *= p * p
        if best == full:
            return best
        if bound_sq is None:  # only once the first prime falls short
            bound_sq = hadamard_sq()
        if modulus_sq > bound_sq:
            return best


def _rank_mod_p(a: np.ndarray, p: int) -> int:
    """Rank of ``a`` (entries in ``[0, p)``) over GF(p); overwrites ``a``.

    Only the pivot column and the pivot row are reduced mod ``p``; the
    rows below take the rank-one update unreduced, and the trailing
    block is reduced only when :func:`_headroom` updates have been
    taken since its last reduction (module docstring)."""
    num_rows, num_cols = a.shape
    headroom = _headroom(p)
    rank = steps = 0
    for col in range(num_cols):
        column = a[rank:, col] % p
        nonzero = np.flatnonzero(column)
        if nonzero.size == 0:
            continue
        pivot = rank + int(nonzero[0])
        if pivot != rank:
            a[[rank, pivot]] = a[[pivot, rank]]
        # The swap left the other nonzero rows where they were.
        below = nonzero[1:]
        if below.size:
            if steps == headroom:
                a[rank + 1 :, col + 1 :] %= p
                steps = 0
            inverse = pow(int(column[nonzero[0]]), -1, p)
            top = a[rank, col + 1 :] % p * inverse % p
            a[rank + below, col + 1 :] -= column[below][:, None] * top
            steps += 1
        rank += 1
        if rank == num_rows:
            break
    return rank


def _headroom(p: int) -> int:
    """Unreduced updates an ``int64`` block with entries in ``[0, p)``
    takes before an entry could leave ``int64`` (module docstring)."""
    return (2**63 - p) // (p - 1) ** 2


def _is_prime(n: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5, 7: exact for odd 3 <= n < 3.2e9."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for base in (2, 3, 5, 7):
        if n == base:
            return True
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _word_primes() -> Iterator[int]:
    """The primes below ``2**26`` in descending order."""
    for n in count(2**26 - 1, -2):
        if _is_prime(n):
            yield n


def real_rank(matrix: MatrixLike) -> int:
    """Alias matching the paper's ``rank_R`` notation (exact, over Q)."""
    return rank_over_q(matrix)


def determinant(matrix: MatrixLike) -> int:
    """Exact determinant of a square integer matrix (Bareiss)."""
    rows = _to_int_rows(matrix)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        return 1
    sign = 1
    previous_pivot = 1
    for col in range(n - 1):
        swap = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if swap is None:
            return 0
        if swap != col:
            rows[col], rows[swap] = rows[swap], rows[col]
            sign = -sign
        pivot = rows[col][col]
        for r in range(col + 1, n):
            factor = rows[r][col]
            for c in range(col + 1, n):
                rows[r][c] = (
                    rows[r][c] * pivot - factor * rows[col][c]
                ) // previous_pivot
            rows[r][col] = 0
        previous_pivot = pivot
    return sign * rows[n - 1][n - 1]
