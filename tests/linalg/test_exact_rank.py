"""Unit tests for exact rank over Q.

A ``BinaryMatrix`` whose rank over GF(2) meets the bound is answered
by that certificate, which ``TestGf2Certificate`` checks against
Bareiss.  Otherwise matrices with a dimension below ``MODULAR_CUTOFF``
take the Bareiss path; the small cases below check it against numpy.
Larger matrices take the modular path, which ``TestModularPath`` checks
against Bareiss as the reference: random binary matrices at several
occupancies, planted rank-deficient ones that need more than one prime,
signed entries, entries beyond ``int64``, an unlucky first prime, and
the Hadamard stop rule itself.  Its binary inputs carry a row and a
column that are XORs of two others (``gf2_dependent``), so the
certificate falls short and the prime loop runs.  ``TestLazyElimination``
checks the elimination mod one prime against the eager form it
replaced, kept here as ``reference_rank_mod_p``.
"""

import random
import sys
from itertools import islice
from math import isqrt, prod
from types import ModuleType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchgen.random_matrices import random_matrix
from repro.core import bounds, reductions
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
from repro.linalg.gf2 import gf2_rank
from repro.service.portfolio import CERTIFIED_BY_RANK, solve_portfolio


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


def gf2_dependent(m):
    """``m`` with its last column set to the XOR of its first two, then
    its last row to the XOR of its first two rows (the column relation
    survives, since XOR is linear).  Where the two rows overlap, their
    XOR is not their sum, so the relation holds over GF(2) but not over
    Q.  Unless the planted row or column is zero or repeats another, the
    rank over GF(2) falls below the certificate's bound, and
    ``rank_over_q`` must take an elimination path."""
    last = m.num_cols - 1
    masks = [
        mask & ~(1 << last) | ((mask ^ mask >> 1) & 1) << last
        for mask in m.row_masks
    ]
    masks[-1] = masks[0] ^ masks[1]
    return BinaryMatrix(masks, m.num_cols)


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
        # Planted XOR rows keep the GF(2) certificate from answering.
        below = random_matrix(MODULAR_CUTOFF - 1, 64, 0.3, seed=1)
        rank_over_q(gf2_dependent(below))
        assert primes_used == []
        at = random_matrix(MODULAR_CUTOFF, MODULAR_CUTOFF, 0.3, seed=1)
        rank_over_q(gf2_dependent(at))
        assert primes_used == [2**26 - 5]

    @pytest.mark.parametrize("occupancy", [0.02, 0.1, 0.3, 0.6, 0.9])
    def test_random_binary_matches_bareiss(self, occupancy, primes_used):
        rng = random.Random(int(occupancy * 100))
        for _ in range(4):
            m = gf2_dependent(
                random_matrix(
                    rng.randint(32, 64), rng.randint(32, 64), occupancy, seed=rng
                )
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
        wide = union_of_rectangles(34, 80, 7, random.Random(0))
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
        m = gf2_dependent(random_matrix(32, 40, 0.5, seed=9))
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
        p = 2**26 - 5
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


def reference_rank_mod_p(a, p):
    """``_rank_mod_p`` as it was before the lazy update: the trailing
    block is reduced mod ``p`` at every pivot."""
    num_rows, num_cols = a.shape
    rank = 0
    for col in range(num_cols):
        nonzero = np.flatnonzero(a[rank:, col])
        if nonzero.size == 0:
            continue
        pivot = rank + int(nonzero[0])
        if pivot != rank:
            a[[rank, pivot]] = a[[pivot, rank]]
        below = rank + nonzero[1:]
        if below.size:
            top = a[rank, col:] * pow(int(a[rank, col]), -1, p) % p
            a[below, col:] = (a[below, col:] - a[below, col][:, None] * top) % p
        rank += 1
        if rank == num_rows:
            break
    return rank


@st.composite
def residue_matrices(draw):
    """``int64`` matrices up to 64x64 with entries in ``[0, p)``: dense,
    mostly zero, or with rows planted as combinations of others mod
    ``p``, so the rank falls short of the smaller side."""
    p = draw(st.sampled_from((2**26 - 5, 2**31 - 1)))
    num_rows = draw(st.integers(1, 64))
    num_cols = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.integers(0, p, size=(num_rows, num_cols), dtype=np.int64)
    zeros = draw(st.sampled_from((0.0, 0.5, 0.95)))
    a[rng.random((num_rows, num_cols)) < zeros] = 0
    for _ in range(draw(st.integers(0, num_rows - 1))):
        target, *sources = rng.integers(0, num_rows, size=3)
        factors = rng.integers(0, p, size=2, dtype=np.int64)
        # Two products below p**2 < 2**63 each, reduced before adding.
        a[target] = (
            a[sources[0]] * factors[0] % p + a[sources[1]] * factors[1] % p
        ) % p
    return a, p


class TestLazyElimination:
    """``_rank_mod_p`` reduces only its pivot column and pivot row, and
    the trailing block once its ``int64`` headroom runs out."""

    def test_headroom(self):
        # No 100x100 elimination reduces the block under the first
        # prime; under 2**31 - 1 it is reduced every second update.
        assert exact_rank._headroom(next(_word_primes())) == 2048
        assert exact_rank._headroom(2**31 - 1) == 2

    @given(residue_matrices())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_eager_reference(self, case):
        a, p = case
        assert exact_rank._rank_mod_p(a.copy(), p) == reference_rank_mod_p(
            a.copy(), p
        )
        assert exact_rank._rank_mod_p(a.T.copy(), p) == reference_rank_mod_p(
            a.T.copy(), p
        )

    @pytest.mark.parametrize("p", [2**26 - 5, 2**31 - 1])
    def test_planted_rank_deficient_squares(self, p):
        rng = np.random.default_rng(p)
        for rank in (1, 17, 63):
            left = rng.integers(0, p, size=(64, rank), dtype=np.int64)
            right = rng.integers(0, p, size=(rank, 64), dtype=np.int64)
            # A rank-``rank`` product mod p, one term at a time.
            a = np.zeros((64, 64), dtype=np.int64)
            for k in range(rank):
                a = (a + left[:, k : k + 1] * right[k] % p) % p
            expected = reference_rank_mod_p(a.copy(), p)
            assert expected <= rank
            assert exact_rank._rank_mod_p(a.copy(), p) == expected


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
            base = gf2_dependent(union_of_rectangles(36, 44, 6, rng))
            # Duplicate some rows and columns, and add empty ones.
            masks = [mask | (mask & 0b1111) << 44 for mask in base.row_masks]
            m = BinaryMatrix(masks + masks[:5] + [0, 0], 48)
            assert rank_over_q(m) == rank_over_q(m.to_numpy()) == bareiss(m)
            binary, integer = loop_inputs[-2:]
            assert binary == integer
            del loop_inputs[:]


def unit_triangular(n, seed):
    """A random unit upper-triangular 0/1 matrix: its determinant is 1,
    so its rank is ``n`` over GF(2) and over Q, and its rows and its
    columns are all distinct."""
    rng = random.Random(seed)
    full = (1 << n) - 1
    return BinaryMatrix(
        [(rng.getrandbits(n) | 1) << i & full for i in range(n)], n
    )


@st.composite
def mixed_rows(draw):
    """Random 0/1 matrices on either side of ``MODULAR_CUTOFF``, with
    zero rows, repeated rows and rows that are the XOR of two others."""
    low = draw(st.sampled_from((1, MODULAR_CUTOFF)))
    num_rows = draw(st.integers(low, low + 12))
    num_cols = draw(st.integers(low, low + 12))
    occupancy = draw(st.sampled_from((0.05, 0.2, 0.5, 0.8)))
    seed = draw(st.integers(0, 2**32 - 1))
    rows = list(
        random_matrix(num_rows, num_cols, occupancy, seed=seed).row_masks
    )
    row = st.integers(0, num_rows - 1)
    for i in draw(st.lists(row, max_size=3)):
        rows[i] = 0
    for dst, src in draw(st.lists(st.tuples(row, row), max_size=4)):
        rows[dst] = rows[src]
    for dst, a, b in draw(st.lists(st.tuples(row, row, row), max_size=4)):
        rows[dst] = rows[a] ^ rows[b]
    return BinaryMatrix(rows, num_cols)


def count_calls(monkeypatch, module, name):
    """The argument tuples of every call to ``module.name``, made through
    any module that binds that function by name."""
    original = getattr(module, name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for loaded in list(sys.modules.values()):
        if isinstance(loaded, ModuleType) and vars(loaded).get(name) is original:
            monkeypatch.setattr(loaded, name, spy)
    return calls


class TestGf2Certificate:
    @given(mixed_rows())
    @settings(max_examples=80)
    def test_matches_bareiss(self, m):
        assert rank_over_q(m) == bareiss(m)

    @pytest.mark.parametrize("n", [3, MODULAR_CUTOFF])
    def test_zero_all_ones_and_identity_are_certified(self, n):
        for m, rank in (
            (BinaryMatrix.zeros(n, n + 2), 0),
            (BinaryMatrix.all_ones(n + 2, n), 1),
            (BinaryMatrix.identity(n), n),
        ):
            assert exact_rank._gf2_certified_rank(m) == rank
            assert rank_over_q(m) == bareiss(m) == rank

    def test_odd_cycle_has_rank_3_over_q_and_2_over_gf2(self):
        m = BinaryMatrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        assert gf2_rank(m) == 2
        assert exact_rank._gf2_certified_rank(m) is None
        assert rank_over_q(m) == bareiss(m) == 3

    def test_one_solve_reduces_and_eliminates_only_when_gf2_falls_short(
        self, monkeypatch
    ):
        bound_calls = count_calls(monkeypatch, bounds, "rank_lower_bound")
        reduce_calls = count_calls(monkeypatch, reductions, "reduce_matrix")
        eliminations = count_calls(monkeypatch, exact_rank, "_rank_mod_p")
        certifiable = unit_triangular(100, seed=1)
        short = gf2_dependent(random_matrix(100, 100, 0.2, seed=3))
        for m, expected in ((certifiable, 0), (short, 1)):
            del bound_calls[:], reduce_calls[:], eliminations[:]
            result = solve_portfolio(m, members=("trivial", "packing:32"))
            # The trivial partition meets the rank bound: packing is skipped.
            assert result.certifier == CERTIFIED_BY_RANK
            assert result.partition.depth == result.lower_bound == 100
            assert result.member("packing:32").skipped
            assert len(bound_calls) == 1
            assert len(reduce_calls) == len(eliminations) == expected


class TestWordPrimes:
    def test_descend_from_the_largest_prime_below_2_26(self):
        primes = list(islice(_word_primes(), 4))
        assert primes[0] == 2**26 - 5
        assert not any(map(is_prime_by_trial, range(primes[0] + 1, 2**26)))
        assert primes == sorted(set(primes), reverse=True)
        assert all(is_prime_by_trial(p) for p in primes)

    def test_is_prime_matches_trial_division(self):
        for n in range(3, 5000, 2):
            assert _is_prime(n) == is_prime_by_trial(n), n

    def test_strong_pseudoprimes_to_fewer_bases_are_composite(self):
        # Strong pseudoprimes to bases {2}, {2, 3} and {2, 3, 5}.
        for n in (2047, 1373653, 25326001):
            assert not _is_prime(n)
