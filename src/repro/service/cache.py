"""Content-addressed result cache for the portfolio service.

Results are keyed on the matrix's canonical content hash — the row-mask
tuple plus the column count, exactly the fields :class:`BinaryMatrix`
hashes on — so any reconstruction of an equal matrix hits the same
entry.  The in-memory tier is a bounded LRU.  The one disk tier is
:class:`repro.server.shards.ShardedDiskTier` (``ResultCache.sharded``):
hash-prefix shard files merged under one ``fcntl`` writer lock, safe
for concurrent runners sharing one cache directory, and written through
an atomic tempfile + ``os.replace``, so a crash mid-flush can never
leave a torn shard and reads need no lock.  A flush appends its index
changes to a log rather than rewriting the index, so it costs the same
at any store size.  Pointed at a single-file JSON cache written by
older builds, the tier migrates that file in place on first open.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Optional, Set, Union

from repro.core.binary_matrix import BinaryMatrix
from repro.core.exceptions import SolverError
from repro.service.portfolio import (
    PortfolioResult,
    result_from_dict,
    result_to_dict,
)

if TYPE_CHECKING:
    from repro.server.shards import ShardedDiskTier


def matrix_key(matrix: BinaryMatrix, context: str = "") -> str:
    """Canonical content hash of a matrix (hex SHA-256).

    Equal matrices — including ones rebuilt from strings, numpy arrays,
    or cells — produce equal keys; the column count is included so a
    matrix and its zero-padded widening never collide.  ``context``
    folds the solving configuration (members, seed, budgets) into the
    key so results computed under different configurations never shadow
    each other — see :func:`repro.service.batch.solve_context`.
    """
    digest = hashlib.sha256()
    digest.update(f"{matrix.num_cols}:".encode("ascii"))
    for row in matrix.row_masks:
        digest.update(f"{row:x},".encode("ascii"))
    if context:
        digest.update(b"|")
        digest.update(context.encode("utf-8"))
    return digest.hexdigest()


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    disk_hits: int = 0
    """Hits served by the storage tier (subset of ``hits``)."""
    quarantines: int = 0
    """Corrupt disk files moved aside (see ``server/shards.py``)."""
    store_evictions: int = 0
    """Entries the disk tier's GC removed (TTL expiry or cap pressure)."""
    gc_runs: int = 0
    """GC/compaction passes this tier has run (see ``server/store_gc.py``)."""
    integrity_failures: int = 0
    """Entries whose stored content hash no longer matched on read."""
    bytes_used: int = 0
    """Approximate payload bytes on disk (index-backed; sharded tier only)."""
    store_write_failures: int = 0
    """Flushes the serving engine could not write to the disk tier; the
    entries stayed dirty for the next flush (see ``server/engine.py``)."""

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "disk_hits": self.disk_hits,
            "quarantines": self.quarantines,
            "store_evictions": self.store_evictions,
            "gc_runs": self.gc_runs,
            "integrity_failures": self.integrity_failures,
            "bytes_used": self.bytes_used,
            "store_write_failures": self.store_write_failures,
        }


class ResultCache:
    """LRU cache of :class:`PortfolioResult` keyed by matrix content.

    Entries are stored as JSON-able dicts, so a hit reconstructs a
    fresh result object (flagged ``from_cache=True``) and the disk tier
    round-trips losslessly.  ``capacity`` bounds the in-memory tier;
    eviction drops the least recently used entry.  With a disk tier,
    evicted entries not yet flushed are retained off to the side until
    the next flush, so a small memory tier cannot lose fresh results;
    without one (``ResultCache()``) nothing is retained past capacity.
    ``storage`` is how :meth:`sharded` hands over its tier; the memory
    tier starts cold and reads through it per key.
    """

    def __init__(
        self,
        capacity: int = 1024,
        *,
        storage: Optional["ShardedDiskTier"] = None,
    ) -> None:
        if capacity < 1:
            raise SolverError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.storage = storage
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._dirty: Set[str] = set()
        self._evicted_dirty: Dict[str, Dict[str, Any]] = {}
        self._sync_quarantines()

    def _sync_quarantines(self) -> None:
        """Mirror the disk tier's lifecycle counters into the stats."""
        storage = self.storage
        if storage is None:
            return
        self.stats.quarantines = storage.quarantined
        self.stats.store_evictions = storage.store_evictions
        self.stats.gc_runs = storage.gc_runs
        self.stats.integrity_failures = storage.integrity_failures
        self.stats.bytes_used = storage.bytes_used()

    def refresh_stats(self) -> CacheStats:
        """Stats with the disk tier's counters folded in (metrics
        endpoints call this rather than reading ``stats`` raw)."""
        self._sync_quarantines()
        return self.stats

    @classmethod
    def sharded(
        cls,
        root: Union[str, Path],
        *,
        capacity: int = 1024,
        max_bytes: Optional[int] = None,
        max_entries: Optional[int] = None,
        ttl_seconds: Optional[float] = None,
    ) -> "ResultCache":
        """A cache over the concurrent-safe sharded disk tier.

        ``root`` may name an existing single-file JSON cache, which is
        migrated into a shard directory on first open.  Any of the cap
        arguments makes the store *bounded*: the limits persist in the
        store directory, and the write path triggers the journaled GC
        (``repro.server.store_gc``) whenever they are exceeded.  With
        none given, limits previously persisted for the store apply.
        """
        from repro.server.shards import ShardedDiskTier, StoreLimits

        limits = None
        if (
            max_bytes is not None
            or max_entries is not None
            or ttl_seconds is not None
        ):
            limits = StoreLimits(
                max_bytes=max_bytes,
                max_entries=max_entries,
                ttl_seconds=ttl_seconds,
            )
        return cls(
            capacity,
            storage=ShardedDiskTier(root, limits=limits),
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def get(
        self, matrix: BinaryMatrix, context: str = ""
    ) -> Optional[PortfolioResult]:
        return self.get_by_key(matrix_key(matrix, context))

    def get_by_key(self, key: str) -> Optional[PortfolioResult]:
        payload = self._entries.get(key)
        if payload is None and self.storage is not None:
            payload = self._evicted_dirty.get(key)
            if payload is None:
                payload = self.storage.get(key)
                self._sync_quarantines()
                if payload is not None:
                    self.stats.disk_hits += 1
            if payload is not None:
                self._insert(key, payload, dirty=False)
        if payload is None:
            self.stats.misses += 1
            return None
        if key in self._entries:
            self._entries.move_to_end(key)
        self.stats.hits += 1
        return result_from_dict(payload, from_cache=True)

    def put(
        self,
        matrix: BinaryMatrix,
        result: PortfolioResult,
        context: str = "",
    ) -> str:
        """Insert (or refresh) the entry for ``matrix``; returns its key."""
        key = matrix_key(matrix, context)
        # Only a disk tier has anything to flush to: a memory-only cache
        # that kept its evicted entries dirty would grow without bound.
        self._insert(
            key, result_to_dict(result), dirty=self.storage is not None
        )
        return key

    def _insert(
        self, key: str, payload: Dict[str, Any], *, dirty: bool
    ) -> None:
        self._entries[key] = payload
        self._entries.move_to_end(key)
        if dirty:
            self._dirty.add(key)
            self._evicted_dirty.pop(key, None)
        self._enforce_capacity()

    def _enforce_capacity(self) -> None:
        while len(self._entries) > self.capacity:
            evicted_key, evicted_payload = self._entries.popitem(last=False)
            if evicted_key in self._dirty:
                self._dirty.discard(evicted_key)
                self._evicted_dirty[evicted_key] = evicted_payload
            self.stats.evictions += 1

    def clear(self) -> None:
        self._entries.clear()
        self._dirty.clear()
        self._evicted_dirty.clear()

    # ------------------------------------------------------------------
    # Disk tier
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Persist fresh entries to the disk tier (no-op without one).

        If the tier raises, the entries stay dirty and the next flush
        retries them."""
        if self.storage is None:
            return
        if self._evicted_dirty:
            combined: Dict[str, Dict[str, Any]] = dict(self._evicted_dirty)
            combined.update(self._entries)
            dirty = self._dirty | set(self._evicted_dirty)
        else:
            combined = self._entries
            dirty = set(self._dirty)
        self.storage.store(combined, dirty=dirty)
        self._dirty.clear()
        self._evicted_dirty.clear()
        self._sync_quarantines()

    def __repr__(self) -> str:
        return (
            f"ResultCache({len(self._entries)}/{self.capacity} entries, "
            f"hits={self.stats.hits}, misses={self.stats.misses})"
        )
