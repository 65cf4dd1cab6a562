"""Content-addressed result cache for the portfolio service.

Results are keyed on the matrix's canonical content hash — the row-mask
tuple plus the column count, exactly the fields :class:`BinaryMatrix`
hashes on — so any reconstruction of an equal matrix hits the same
entry.  The in-memory tier is a bounded LRU; a pluggable storage tier
persists entries across processes:

* :class:`JsonFileTier` — the original single-file JSON layout (one
  writer at a time; the whole cache rewritten per flush, atomically);
* :class:`repro.server.shards.ShardedDiskTier` — hash-prefix shard
  files with ``fcntl`` locking and merge-on-write, safe for concurrent
  runners sharing one cache directory (``ResultCache.sharded``).

Both tiers write through an atomic tempfile + ``os.replace``, so a
crash mid-flush can never leave a torn cache file.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Set, Union

from repro.core.binary_matrix import BinaryMatrix
from repro.core.exceptions import SolverError
from repro.utils.fileio import atomic_write_json
from repro.service.portfolio import (
    PortfolioResult,
    result_from_dict,
    result_to_dict,
)

CACHE_FORMAT_VERSION = 1


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
        }


class CacheStorage:
    """Storage-tier protocol for :class:`ResultCache`.

    ``load`` seeds the memory tier at open (may return nothing for
    read-through tiers); ``get`` fetches one entry on a memory miss;
    ``store`` persists entries at flush (``dirty`` names the keys
    written since the last flush, letting merge-style tiers touch only
    what changed).  ``location`` is where the data lives, for logs.
    """

    location: Optional[Path] = None

    def load(self) -> Dict[str, Dict[str, Any]]:
        return {}

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        return None

    def store(
        self,
        entries: Mapping[str, Dict[str, Any]],
        dirty: Optional[Set[str]] = None,
    ) -> None:
        raise NotImplementedError


class JsonFileTier(CacheStorage):
    """The original single-file JSON disk tier.

    Entries are serialized in LRU order (least recent first), so a
    reload reconstructs the same recency order and capacity-driven
    evictions after a round trip still drop the least recently used
    entry.  The whole file is rewritten per store — atomically, via
    tempfile + ``os.replace`` — which makes this tier safe against
    crashes but still last-writer-wins across processes; use the
    sharded tier when several runners share one cache.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.quarantined = 0

    @property
    def location(self) -> Path:  # type: ignore[override]
        return self.path

    def load(self) -> Dict[str, Dict[str, Any]]:
        if not self.path.exists():
            return {}
        try:
            with open(self.path) as stream:
                payload = json.load(stream)
        except json.JSONDecodeError as exc:
            # Torn/truncated JSON is damage, not data: move it aside
            # and start cold instead of failing every solve.  A wrong
            # *type* below still raises — that is a healthy file the
            # caller pointed us at by mistake, not corruption.
            from repro.server.shards import quarantine_file

            if quarantine_file(self.path, f"bad JSON: {exc}") is not None:
                self.quarantined += 1
            return {}
        except OSError as exc:
            raise SolverError(
                f"cannot load cache {self.path}: {exc}"
            ) from exc
        if payload.get("type") != "portfolio_cache":
            raise SolverError(
                f"{self.path} is not a portfolio cache "
                f"(type={payload.get('type')!r})"
            )
        if payload.get("version", 0) > CACHE_FORMAT_VERSION:
            raise SolverError(
                f"cache {self.path} has version {payload['version']}, "
                f"newer than supported {CACHE_FORMAT_VERSION}"
            )
        return dict(payload["entries"])

    def store(
        self,
        entries: Mapping[str, Dict[str, Any]],
        dirty: Optional[Set[str]] = None,
    ) -> None:
        atomic_write_json(
            self.path,
            {
                "version": CACHE_FORMAT_VERSION,
                "type": "portfolio_cache",
                "entries": dict(entries),
            },
        )


class ResultCache:
    """LRU cache of :class:`PortfolioResult` keyed by matrix content.

    Entries are stored as JSON-able dicts, so a hit reconstructs a
    fresh result object (flagged ``from_cache=True``) and the storage
    tier round-trips losslessly.  ``capacity`` bounds the in-memory
    tier; eviction drops the least recently used entry (evicted dirty
    entries are retained off to the side until the next flush, so a
    small memory tier cannot lose fresh results).
    """

    def __init__(
        self,
        capacity: int = 1024,
        *,
        path: Optional[Union[str, Path]] = None,
        storage: Optional[CacheStorage] = None,
    ) -> None:
        if capacity < 1:
            raise SolverError(f"cache capacity must be >= 1, got {capacity}")
        if path is not None and storage is not None:
            raise SolverError("pass either path or storage, not both")
        if path is not None:
            storage = JsonFileTier(path)
        self.capacity = capacity
        self.storage = storage
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._dirty: Set[str] = set()
        self._evicted_dirty: Dict[str, Dict[str, Any]] = {}
        if self.storage is not None:
            for key, entry in self.storage.load().items():
                self._entries[key] = entry
            self._enforce_capacity()
            self._sync_quarantines()

    def _sync_quarantines(self) -> None:
        """Mirror the storage tier's lifecycle counters into the stats."""
        storage = self.storage
        if storage is None:
            return
        self.stats.quarantines = getattr(storage, "quarantined", 0)
        self.stats.store_evictions = getattr(storage, "store_evictions", 0)
        self.stats.gc_runs = getattr(storage, "gc_runs", 0)
        self.stats.integrity_failures = getattr(
            storage, "integrity_failures", 0
        )
        bytes_used = getattr(storage, "bytes_used", None)
        if callable(bytes_used):
            self.stats.bytes_used = bytes_used()

    def refresh_stats(self) -> CacheStats:
        """Stats with the storage tier's counters folded in (metrics
        endpoints call this rather than reading ``stats`` raw)."""
        self._sync_quarantines()
        return self.stats

    @classmethod
    def sharded(
        cls,
        root: Union[str, Path],
        *,
        capacity: int = 1024,
        prefix_len: int = 2,
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
            storage=ShardedDiskTier(
                root, prefix_len=prefix_len, limits=limits
            ),
        )

    @property
    def path(self) -> Optional[Path]:
        """Where the storage tier persists entries (``None`` = memory only)."""
        return None if self.storage is None else self.storage.location

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
        self._insert(key, result_to_dict(result), dirty=True)
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
    # Storage tier
    # ------------------------------------------------------------------
    def flush(self) -> Optional[Path]:
        """Persist entries to the storage tier (no-op without one)."""
        if self.storage is None:
            return None
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
        return self.storage.location

    def __repr__(self) -> str:
        return (
            f"ResultCache({len(self._entries)}/{self.capacity} entries, "
            f"hits={self.stats.hits}, misses={self.stats.misses})"
        )
