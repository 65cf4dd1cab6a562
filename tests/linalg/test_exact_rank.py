"""Unit tests for exact rank over Q.

Matrices with a dimension below ``MODULAR_CUTOFF`` take the Bareiss
path; the small cases below check it against numpy.  Larger matrices
take the modular path, which ``TestModularPath`` checks against Bareiss
as the reference: random binary matrices at several occupancies,
planted rank-deficient ones that need more than one prime, signed
entries, entries beyond ``int64``, an unlucky first prime, and the
Hadamard stop rule itself.
"""

import random
from itertools import islice
from math import isqrt, prod

import numpy as np
import pytest

from repro.benchgen.random_matrices import random_matrix
from repro.core.binary_matrix import BinaryMatrix
from repro.linalg import exact_rank
from repro.linalg.exact_rank import (
    MODULAR_CUTOFF,
    _bareiss_rank,
    _is_prime,
    _to_int_rows,
    _word_primes,
    determinant,
    rank_over_q,
    real_rank,
)


class TestRankOverQ:
    def test_identity(self):
        assert rank_over_q(np.eye(4, dtype=int)) == 4

    def test_zero(self):
        assert rank_over_q(np.zeros((3, 5), dtype=int)) == 0

    def test_rank_one(self):
        m = np.outer([1, 1, 1], [1, 0, 1])
        assert rank_over_q(m) == 1

    def test_rectangular(self):
        m = [[1, 0, 1, 0], [0, 1, 0, 1], [1, 1, 1, 1]]
        assert rank_over_q(m) == 2

    def test_char2_trap(self):
        """Rank over GF(2) would be 2 here; over Q it is 3."""
        m = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
        assert rank_over_q(m) == 3

    def test_accepts_binary_matrix(self):
        assert rank_over_q(BinaryMatrix.identity(3)) == 3

    def test_matches_numpy_on_random(self, rng):
        for _ in range(30):
            rows = rng.randint(1, 8)
            cols = rng.randint(1, 8)
            arr = np.array(
                [
                    [rng.randint(0, 1) for _ in range(cols)]
                    for _ in range(rows)
                ]
            )
            assert rank_over_q(arr) == np.linalg.matrix_rank(arr)

    def test_integer_entries_beyond_binary(self):
        m = [[2, 4], [1, 2]]
        assert rank_over_q(m) == 1

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            rank_over_q(np.array([[0.5]]))

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            rank_over_q(np.array([1, 2, 3]))

    def test_real_rank_alias(self):
        m = BinaryMatrix.from_strings(["10", "01"])
        assert real_rank(m) == rank_over_q(m)


class TestDeterminant:
    def test_identity(self):
        assert determinant(np.eye(5, dtype=int)) == 1

    def test_known_2x2(self):
        assert determinant([[1, 2], [3, 4]]) == -2

    def test_singular(self):
        assert determinant([[1, 1], [1, 1]]) == 0

    def test_swap_changes_sign(self):
        assert determinant([[0, 1], [1, 0]]) == -1

    def test_empty(self):
        assert determinant([]) == 1

    def test_matches_numpy_on_random(self, rng):
        for _ in range(20):
            n = rng.randint(1, 6)
            arr = np.array(
                [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            )
            expected = round(float(np.linalg.det(arr)))
            assert determinant(arr) == expected

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            determinant([[1, 2, 3], [4, 5, 6]])


def bareiss(matrix):
    """The reference: the Bareiss path whatever the shape."""
    return _bareiss_rank(_to_int_rows(matrix))


def union_of_rectangles(num_rows, num_cols, count, rng):
    """A binary matrix that is the union of ``count`` random rectangles."""
    masks = [0] * num_rows
    for _ in range(count):
        cols = sum(1 << j for j in range(num_cols) if rng.random() < 0.5)
        for i in range(num_rows):
            if rng.random() < 0.5:
                masks[i] |= cols
    return BinaryMatrix(masks, num_cols)


def matmul(left, right):
    return [
        [sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
        for row in left
    ]


def primes_needed_to_exceed(square):
    """Fewest leading word primes whose product squared exceeds ``square``."""
    product_sq = 1
    for count, p in enumerate(_word_primes(), start=1):
        product_sq *= p * p
        if product_sq > square:
            return count


def is_prime_by_trial(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


@pytest.fixture
def primes_used(monkeypatch):
    """The primes the modular path eliminates modulo, in call order."""
    used = []
    eliminate = exact_rank._rank_mod_p

    def spy(a, p):
        used.append(p)
        return eliminate(a, p)

    monkeypatch.setattr(exact_rank, "_rank_mod_p", spy)
    return used


class TestModularPath:
    def test_cutoff_selects_the_path(self, primes_used):
        rank_over_q(random_matrix(MODULAR_CUTOFF - 1, 64, 0.3, seed=1))
        assert primes_used == []
        rank_over_q(random_matrix(MODULAR_CUTOFF, MODULAR_CUTOFF, 0.3, seed=1))
        assert primes_used == [2**31 - 1]

    @pytest.mark.parametrize("occupancy", [0.02, 0.1, 0.3, 0.6, 0.9])
    def test_random_binary_matches_bareiss(self, occupancy, primes_used):
        rng = random.Random(int(occupancy * 100))
        for _ in range(4):
            m = random_matrix(
                rng.randint(32, 64), rng.randint(32, 64), occupancy, seed=rng
            )
            assert rank_over_q(m) == bareiss(m)
        assert primes_used

    def test_planted_rank_deficient_matches_bareiss(self, primes_used):
        rng = random.Random(2)
        primes_per_matrix = []
        for _ in range(6):
            m = union_of_rectangles(
                rng.randint(32, 48), rng.randint(32, 48), 7, rng
            )
            del primes_used[:]
            assert rank_over_q(m) == bareiss(m) < min(m.shape)
            primes_per_matrix.append(len(primes_used))
        assert min(primes_per_matrix) >= 2

    def test_stop_rule_is_the_hadamard_bound(self, primes_used):
        # Wide enough that the row and the column products of squared
        # norms need different numbers of primes; the smaller one counts.
        wide = union_of_rectangles(36, 80, 7, random.Random(0))
        for m in (wide, wide.transpose()):
            del primes_used[:]
            rank = rank_over_q(m)
            rows = {mask for mask in m.row_masks if mask}
            cols = {mask for mask in m.transpose().row_masks if mask}
            assert rank == bareiss(m) < min(len(rows), len(cols))
            # A binary row's squared norm is its number of ones.
            needed = [
                primes_needed_to_exceed(prod(bin(mask).count("1") for mask in side))
                for side in (rows, cols)
            ]
            assert needed[0] != needed[1]
            assert primes_used == list(islice(_word_primes(), min(needed)))

    def test_duplicate_rows_are_merged_first(self, primes_used):
        m = random_matrix(32, 40, 0.5, seed=9)
        stacked = BinaryMatrix(m.row_masks * 2, m.num_cols)
        assert rank_over_q(stacked) == bareiss(m) == 32
        # Merged, the rows are independent, so the first prime settles it.
        assert len(primes_used) == 1

    def test_signed_entries_match_bareiss(self):
        rng = random.Random(3)
        for inner in (3, 17, 40):
            left = [[rng.randint(-3, 3) for _ in range(inner)] for _ in range(40)]
            right = [[rng.randint(-3, 3) for _ in range(36)] for _ in range(inner)]
            m = matmul(left, right)
            assert rank_over_q(m) == bareiss(m) == min(inner, 36)

    def test_entries_beyond_int64_match_bareiss(self):
        rng = random.Random(5)
        left = [
            [rng.randint(-(10**20), 10**20) for _ in range(4)] for _ in range(36)
        ]
        right = [[rng.randint(0, 1) for _ in range(33)] for _ in range(4)]
        low_rank = matmul(left, right)
        assert max(abs(x) for row in low_rank for x in row) >= 2**63
        assert rank_over_q(low_rank) == bareiss(low_rank) == 4
        dense = [[rng.randint(2**63, 2**64) for _ in range(32)] for _ in range(32)]
        assert rank_over_q(dense) == bareiss(dense) == 32

    def test_unlucky_first_prime(self, primes_used):
        p = 2**31 - 1
        m = np.eye(32, dtype=np.int64)
        m[5, 5] = p
        assert exact_rank._rank_mod_p(m % p, p) == 31
        del primes_used[:]
        assert rank_over_q(m) == 32
        assert primes_used == list(islice(_word_primes(), 2))

    def test_transpose_invariant(self):
        for seed, occupancy in enumerate((0.05, 0.3, 0.7)):
            m = random_matrix(40, 60, occupancy, seed=seed)
            assert rank_over_q(m) == rank_over_q(m.transpose()) == bareiss(m)

    def test_zero_and_duplicate_rows(self):
        assert rank_over_q(np.zeros((40, 40), dtype=int)) == 0
        assert rank_over_q(np.ones((50, 40), dtype=int)) == 1


class TestBinaryPath:
    """A ``BinaryMatrix`` is merged on its masks, integer rows on lists;
    both must give the prime loop the same stop-rule inputs."""

    @pytest.fixture
    def loop_inputs(self, monkeypatch):
        seen = []
        certified_rank = exact_rank._certified_rank

        def spy(residues, full, hadamard_sq):
            p = 2**31 - 1
            rank_p = exact_rank._rank_mod_p(residues(p), p)
            seen.append((full, hadamard_sq(), rank_p))
            return certified_rank(residues, full, hadamard_sq)

        monkeypatch.setattr(exact_rank, "_certified_rank", spy)
        return seen

    def test_same_full_hadamard_and_residue_rank(self, loop_inputs):
        rng = random.Random(11)
        for _ in range(4):
            base = union_of_rectangles(36, 44, 6, rng)
            # Duplicate some rows and columns, and add empty ones.
            masks = [mask | (mask & 0b1111) << 44 for mask in base.row_masks]
            m = BinaryMatrix(masks + masks[:5] + [0, 0], 48)
            assert rank_over_q(m) == rank_over_q(m.to_numpy()) == bareiss(m)
            binary, integer = loop_inputs[-2:]
            assert binary == integer
            del loop_inputs[:]


class TestWordPrimes:
    def test_descend_from_the_largest_prime_below_2_31(self):
        primes = list(islice(_word_primes(), 4))
        assert primes[0] == 2**31 - 1
        assert primes == sorted(set(primes), reverse=True)
        assert all(is_prime_by_trial(p) for p in primes)

    def test_is_prime_matches_trial_division(self):
        for n in range(3, 5000, 2):
            assert _is_prime(n) == is_prime_by_trial(n), n

    def test_strong_pseudoprimes_to_fewer_bases_are_composite(self):
        # Strong pseudoprimes to bases {2}, {2, 3} and {2, 3, 5}.
        for n in (2047, 1373653, 25326001):
            assert not _is_prime(n)
