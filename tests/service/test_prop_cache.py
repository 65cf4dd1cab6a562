"""Property tests for the content-addressed result cache."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.binary_matrix import BinaryMatrix
from repro.core.exceptions import SolverError
from repro.service.cache import ResultCache, matrix_key
from repro.service.portfolio import solve_portfolio
from tests.conftest import binary_matrices

MEMBERS = ("trivial", "packing:2")


def _solve(matrix):
    return solve_portfolio(matrix, members=MEMBERS, seed=7)


class TestKeying:
    @given(binary_matrices())
    def test_key_invariant_under_reconstruction(self, matrix):
        """Any equal reconstruction of the matrix hits the same key."""
        rebuilt_strings = BinaryMatrix.from_strings(matrix.to_strings())
        rebuilt_lists = BinaryMatrix.from_rows(matrix.to_lists())
        rebuilt_numpy = BinaryMatrix.from_numpy(matrix.to_numpy())
        assert matrix_key(matrix) == matrix_key(rebuilt_strings)
        assert matrix_key(matrix) == matrix_key(rebuilt_lists)
        assert matrix_key(matrix) == matrix_key(rebuilt_numpy)

    @given(binary_matrices(), binary_matrices())
    def test_key_distinguishes_unequal_matrices(self, a, b):
        if a == b:
            assert matrix_key(a) == matrix_key(b)
        else:
            assert matrix_key(a) != matrix_key(b)

    def test_padding_does_not_collide(self):
        narrow = BinaryMatrix([0b1, 0b0], 1)
        wide = BinaryMatrix([0b1, 0b0], 2)
        assert matrix_key(narrow) != matrix_key(wide)

    @given(binary_matrices())
    def test_context_partitions_the_key_space(self, matrix):
        plain = matrix_key(matrix)
        a = matrix_key(matrix, "members=trivial|seed=1")
        b = matrix_key(matrix, "members=trivial|seed=2")
        assert len({plain, a, b}) == 3
        assert a == matrix_key(matrix, "members=trivial|seed=1")


class TestHitSemantics:
    @given(binary_matrices())
    @settings(max_examples=25)
    def test_hit_returns_equal_partition(self, matrix):
        cache = ResultCache(capacity=4)
        result = _solve(matrix)
        cache.put(matrix, result)
        hit = cache.get(BinaryMatrix.from_strings(matrix.to_strings()))
        assert hit is not None
        assert hit.from_cache
        assert hit.partition == result.partition
        assert hit.depth == result.depth
        assert hit.winner == result.winner
        assert hit.optimal == result.optimal
        assert hit.lower_bound == result.lower_bound
        hit.partition.validate(matrix)

    def test_miss_then_hit_counts(self):
        cache = ResultCache(capacity=4)
        matrix = BinaryMatrix.from_strings(["10", "01"])
        assert cache.get(matrix) is None
        cache.put(matrix, _solve(matrix))
        assert cache.get(matrix) is not None
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1


class TestLru:
    @given(
        st.integers(1, 5),
        st.lists(st.integers(0, 10), min_size=1, max_size=30),
    )
    @settings(max_examples=25)
    def test_eviction_never_exceeds_capacity(self, capacity, columns):
        """Insert a stream of matrices; size stays bounded throughout."""
        cache = ResultCache(capacity=capacity)
        matrices = {
            n: BinaryMatrix([(1 << n) - 1], max(n, 1)) for n in range(1, 12)
        }
        for n in columns:
            matrix = matrices[n + 1]
            cache.put(matrix, _solve(matrix))
            assert len(cache) <= capacity
        distinct = len({n + 1 for n in columns})
        assert len(cache) == min(capacity, distinct)

    def test_lru_order_get_refreshes(self):
        cache = ResultCache(capacity=2)
        a = BinaryMatrix.from_strings(["1"])
        b = BinaryMatrix.from_strings(["11"])
        c = BinaryMatrix.from_strings(["111"])
        cache.put(a, _solve(a))
        cache.put(b, _solve(b))
        assert cache.get(a) is not None  # refresh a; b is now LRU
        cache.put(c, _solve(c))  # evicts b
        assert cache.get(a) is not None
        assert cache.get(b) is None
        assert cache.stats.evictions == 1

    def test_bad_capacity_rejected(self):
        with pytest.raises(SolverError):
            ResultCache(capacity=0)


class TestDiskTier:
    @given(binary_matrices())
    @settings(max_examples=15)
    def test_disk_round_trip_preserves_results(self, tmp_path_factory, matrix):
        root = tmp_path_factory.mktemp("cache") / "cache"
        cache = ResultCache.sharded(root, capacity=8)
        result = _solve(matrix)
        cache.put(matrix, result)
        cache.flush()

        reloaded = ResultCache.sharded(root, capacity=8)
        hit = reloaded.get(matrix)
        assert hit is not None
        assert hit.partition == result.partition
        assert hit.winner == result.winner
        assert hit.optimal == result.optimal
        assert (
            hit.provenance(include_timing=False)["members"]
            == result.provenance(include_timing=False)["members"]
        )

    def test_memory_only_cache_keeps_nothing_past_capacity(self):
        """Without a disk tier there is nothing to flush to, so an
        evicted entry must be dropped, not parked until a flush that
        never writes it."""
        cache = ResultCache(capacity=4)
        matrix = BinaryMatrix.from_strings(["10", "01"])
        result = _solve(matrix)
        for index in range(200):
            cache.put(matrix, result, context=f"run={index}")
            cache.flush()
        assert len(cache) == 4
        assert cache.stats.evictions == 196
        assert not cache._evicted_dirty
        assert len(cache._dirty) <= 4

    def test_disk_hits_count_only_reads_from_disk(self, tmp_path):
        """An evicted entry not yet flushed is served from memory: a
        hit, but not a disk hit."""
        root = tmp_path / "cache"
        a = BinaryMatrix.from_strings(["1"])
        b = BinaryMatrix.from_strings(["11"])
        cache = ResultCache.sharded(root, capacity=1)
        cache.put(a, _solve(a))
        cache.put(b, _solve(b))  # evicts a before any flush
        assert cache.get(a) is not None
        assert not list(root.glob("shard-*.json"))
        assert cache.stats.hits == 1
        assert cache.stats.disk_hits == 0

        cache.flush()
        reopened = ResultCache.sharded(root, capacity=1)
        assert reopened.get(a) is not None
        assert reopened.stats.disk_hits == 1
