"""Hash-prefix-sharded disk tier: the result cache's one disk tier.

A single cache file rewritten whole on every flush would let two batch
runners sharing it on a host silently drop each other's entries (last
writer wins).  This tier spreads entries over 256 shard files keyed by
the leading :data:`SHARD_PREFIX_LEN` hex digits of the content hash,
and makes every shard update a *merge* under the store lock followed by
an atomic tempfile + ``os.replace`` — concurrent writers never clobber
each other's entries, and a crash mid-write can never leave a torn
shard behind.

The store lock is one ``fcntl.flock`` on ``shards.lock`` in the store
root (never a shard itself: ``os.replace`` swaps inodes, and a lock on
a replaced inode protects nothing).  A write takes it once, around its
shard merge and its index update; index loads and rebuilds, GC sweeps,
compaction and migration take it too.  Readers take no lock: a shard
changes only by atomic replace, so a reader sees a whole old file or a
whole new one, and one that finds damage re-reads it under the lock and
quarantines it there.  Lock order is gc → store.  Older builds locked
differently (``shard-XX.lock`` sidecars, or a separate
``cache-index.lock`` for the index); their lock files are ignored, and
since they do not exclude this build's writers, an older build must not
write the same store at the same time.  On platforms without ``fcntl``
the tier degrades to lock-free atomic replaces — still torn-proof, but
concurrent merges may then lose races; the repo only targets POSIX.

A :class:`ShardedDiskTier` pointed at an existing single-file JSON
cache (the layout older builds wrote) migrates it in place on first
open: the file's entries are resharded into a directory of the same
name.  This is the only import path for such files.  A file that is not
valid JSON is quarantined and the store opens cold.

Since the cache-lifecycle work (see ``docs/cache-lifecycle.md``) the
store is also *bounded* and *self-verifying*:

* every entry carries metadata (size, created/accessed stamps, a
  content sha over the payload + the solver schema version it was
  computed under) stored next to it in the shard;
* :class:`StoreLimits` caps the store by bytes/entries and ages entries
  out by TTL — exceeding a cap on the write path triggers the journaled
  GC pass in :mod:`repro.server.store_gc`;
* a maintained index gives O(1) stats and cap accounting: a snapshot
  (``cache-index.json``) plus an append-only log (``cache-index.log``)
  of the changes since.  A write appends its records in one
  ``O_APPEND`` write and never parses or rewrites the snapshot; the log
  is folded into the snapshot by :meth:`ShardedDiskTier.load_index`
  and whenever it holds more records than the snapshot has entries.
  The index is rebuilt from the shards whenever it is missing, stale,
  or corrupt (a torn log included) — the shards are always the
  authority;
* integrity mismatches on read are routed through the quarantine path
  (the damaged entry is moved aside and counted, never served).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from pathlib import Path
from typing import (
    Any,
    BinaryIO,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.core.exceptions import SolverError
from repro.service import faults
from repro.service.schema import SOLVER_SCHEMA_VERSION
from repro.utils.clock import wall_now
from repro.utils.fileio import atomic_write_json, locked_file

SHARD_FORMAT_VERSION = 2
"""Version 2 added the per-entry ``meta`` map (size, stamps, integrity
hash, schema version).  Version-1 shards read fine — their entries are
*legacy*: served without integrity checks, treated as
least-recently-used, and stamped on the next rewrite."""

SHARD_TYPE = "portfolio_cache_shard"
SINGLE_FILE_TYPE = "portfolio_cache"

INDEX_NAME = "cache-index.json"
INDEX_LOG_NAME = "cache-index.log"
INDEX_TYPE = "portfolio_cache_index"
INDEX_FORMAT_VERSION = 1

LOG_RECORD_FIELDS = (
    {"k", "b", "c", "a", "v"},  # an entry written: its index meta
    {"k", "a"},  # a batched access stamp
    {"s", "z"},  # a shard re-stamped: [size, mtime_ns], or null if gone
)
"""The three shapes of an index-log record, one JSON object per line."""

SHARD_PREFIX_LEN = 2
"""Hex digits of a key that name its shard.  The layout is not recorded
in the store, so every opener must use the same value."""

CONFIG_NAME = "store-config.json"
CONFIG_TYPE = "portfolio_cache_store_config"
CONFIG_FORMAT_VERSION = 1

logger = logging.getLogger(__name__)

_QUARANTINE_LOGGED: Set[str] = set()
"""Paths already logged this process — a corrupt shard hit by every
request must not turn the log into a firehose."""


def _claim_evidence_path(
    directory: Path, name: str, suffix: str = ""
) -> Path:
    """A fresh ``<name>.corrupt-<unix-ts>[-n]<suffix>`` in ``directory``.

    The path is created empty with ``O_EXCL``, so no other quarantine
    can take it: two quarantines of one file within a second keep both
    pieces of evidence (``-1``, ``-2``, ... after the first).  The
    caller replaces the placeholder with the evidence.
    """
    stamp = int(wall_now())
    taken = 0
    while True:
        tail = f"-{taken}" if taken else ""
        target = directory / f"{name}.corrupt-{stamp}{tail}{suffix}"
        try:
            os.close(
                os.open(target, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            )
        except FileExistsError:
            taken += 1
            continue
        return target


def quarantine_file(path: Path, reason: str) -> Optional[Path]:
    """Move a corrupt cache file aside and log it (once per process).

    The file is renamed to ``<name>.corrupt-<unix-ts>`` in place (see
    :func:`_claim_evidence_path`), so the bad bytes stay available for a
    postmortem while readers start cold — a torn shard costs re-solving
    its entries, never the solve itself.  Returns the quarantine path,
    or ``None`` if the rename lost a race (another process already
    moved it).
    """
    target = None
    try:
        target = _claim_evidence_path(path.parent, path.name)
        os.replace(path, target)
    except OSError:
        if target is not None:
            target.unlink(missing_ok=True)
        return None  # already quarantined (or deleted) by someone else
    key = str(path)
    if key not in _QUARANTINE_LOGGED:
        _QUARANTINE_LOGGED.add(key)
        logger.warning(
            "quarantined corrupt cache file %s -> %s (%s); "
            "continuing with a cold shard",
            path,
            target.name,
            reason,
        )
    return target


# ----------------------------------------------------------------------
# Entry metadata and integrity
# ----------------------------------------------------------------------
def canonical_payload_bytes(payload: Dict[str, Any]) -> bytes:
    """The canonical byte form an entry is sized and hashed over."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def entry_hash(blob: bytes, schema_version: int) -> str:
    """Content sha of an entry: payload bytes + solver schema version.

    Folding :data:`~repro.service.schema.SOLVER_SCHEMA_VERSION` in
    means a payload byte-identical to one computed under different
    solver semantics still fails verification — the stored ``v`` field
    records which generation the hash was taken under, so entries
    verify against *their own* era, not the reader's.
    """
    digest = hashlib.sha256(blob)
    digest.update(f"|schema={schema_version}".encode("ascii"))
    return digest.hexdigest()[:16]


def make_entry_meta(
    payload: Dict[str, Any], *, now: Optional[float] = None
) -> Dict[str, Any]:
    """Fresh metadata for a payload being written right now."""
    if now is None:
        now = wall_now()
    blob = canonical_payload_bytes(payload)
    return {
        "b": len(blob),
        "c": now,
        "a": now,
        "v": SOLVER_SCHEMA_VERSION,
        "h": entry_hash(blob, SOLVER_SCHEMA_VERSION),
    }


def verify_entry(payload: Dict[str, Any], meta: Mapping[str, Any]) -> bool:
    """Does the stored hash match the payload it sits next to?

    Legacy entries (no recorded hash) pass trivially — there is nothing
    to verify them against, and destroying them would be data loss.
    """
    recorded = meta.get("h")
    if not recorded:
        return True
    version = meta.get("v", SOLVER_SCHEMA_VERSION)
    return entry_hash(canonical_payload_bytes(payload), version) == recorded


def ttl_now() -> float:
    """The wall clock as the TTL/eviction math sees it.

    The clock-skew fault seam shifts this — simulating an NTP jump
    between the writer that stamped an entry and the process judging
    its age — without touching the stamps already on disk.
    """
    return wall_now() + faults.ttl_clock_skew()


# ----------------------------------------------------------------------
# Store limits
# ----------------------------------------------------------------------
class StoreLimits:
    """Byte/entry caps and TTL for a sharded store.

    ``max_bytes`` bounds the sum of canonical entry sizes (the payload
    bytes the store exists to hold; file framing is excluded so the cap
    is layout-independent), ``max_entries`` the entry count, and
    ``ttl_seconds`` the age past which an entry is expired — never
    served and evicted by the next GC pass.  All three are optional;
    a fully-``None`` limits object is the unbounded pre-lifecycle
    behaviour.
    """

    __slots__ = ("max_bytes", "max_entries", "ttl_seconds")

    def __init__(
        self,
        max_bytes: Optional[int] = None,
        max_entries: Optional[int] = None,
        ttl_seconds: Optional[float] = None,
    ) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise SolverError(f"max_bytes must be >= 1, got {max_bytes}")
        if max_entries is not None and max_entries < 1:
            raise SolverError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise SolverError(
                f"ttl_seconds must be positive, got {ttl_seconds}"
            )
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self.ttl_seconds = ttl_seconds

    def enabled(self) -> bool:
        return (
            self.max_bytes is not None
            or self.max_entries is not None
            or self.ttl_seconds is not None
        )

    def expired(self, created: Optional[float], now: float) -> bool:
        """Is an entry created at ``created`` past its TTL at ``now``?

        Legacy entries (no stamp) never expire by TTL — expiring the
        whole pre-upgrade store on the first pass would be an eviction
        storm, not aging.  They do sort oldest for LRU purposes.
        """
        if self.ttl_seconds is None or not created:
            return False
        return now - created > self.ttl_seconds

    def over_caps(self, total_bytes: int, total_entries: int) -> bool:
        if self.max_bytes is not None and total_bytes > self.max_bytes:
            return True
        return (
            self.max_entries is not None
            and total_entries > self.max_entries
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "max_bytes": self.max_bytes,
            "max_entries": self.max_entries,
            "ttl_seconds": self.ttl_seconds,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "StoreLimits":
        known = {"max_bytes", "max_entries", "ttl_seconds"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise SolverError(
                f"store limits have unknown fields {unknown}"
            )
        return cls(**{k: payload.get(k) for k in known})

    def __repr__(self) -> str:
        return (
            f"StoreLimits(max_bytes={self.max_bytes}, "
            f"max_entries={self.max_entries}, "
            f"ttl_seconds={self.ttl_seconds})"
        )


class ShardedDiskTier:
    """Disk storage for :class:`repro.service.cache.ResultCache`.

    The memory tier reads through it per key: ``get`` fetches one entry
    from its shard without a lock (verifying its integrity hash and
    TTL), and ``store`` merges dirty entries into their shards and
    appends its changes to the index log under the store lock, then
    enforces the store caps.
    """

    def __init__(
        self,
        root: Union[str, Path],
        *,
        limits: Optional[StoreLimits] = None,
    ) -> None:
        self.root = Path(root)
        self.quarantined = 0
        self.integrity_failures = 0
        self.gc_runs = 0
        self.store_evictions = 0
        self._touches: Dict[str, float] = {}
        # The index as this process last read it: per-key sizes (what
        # the counts follow), the snapshot and log they came from (held
        # open, so neither inode number can be reused while a write
        # compares it with the path's), and how much of the log is in.
        self._sizes: Dict[str, int] = {}
        self._approx_bytes = 0
        self._snapshot: Optional[BinaryIO] = None
        self._snapshot_ino = -1
        self._snapshot_entries = 0
        self._log: Optional[BinaryIO] = None
        self._log_ino = -1
        self._log_end = 0
        self._log_records = 0
        self._open(limits)
        if limits is None:
            limits = self._load_persisted_limits()
        else:
            self._persist_limits(limits)
        self.limits = limits if limits is not None else StoreLimits()

    # -- layout --------------------------------------------------------
    def shard_path(self, key: str) -> Path:
        prefix = key[:SHARD_PREFIX_LEN].lower()
        if len(prefix) < SHARD_PREFIX_LEN or any(
            c not in "0123456789abcdef" for c in prefix
        ):
            raise SolverError(f"cache key {key!r} is not a hex digest")
        return self.root / f"shard-{prefix}.json"

    def _store_lock(self) -> Path:
        return self.root / "shards.lock"

    def _global_lock(self) -> Path:
        return self.root.parent / f"{self.root.name}.open.lock"

    def index_path(self) -> Path:
        return self.root / INDEX_NAME

    def index_log_path(self) -> Path:
        return self.root / INDEX_LOG_NAME

    def config_path(self) -> Path:
        return self.root / CONFIG_NAME

    def journal_path(self) -> Path:
        from repro.server.store_gc import JOURNAL_NAME

        return self.root / JOURNAL_NAME

    # -- open / migrate ------------------------------------------------
    def _open(self, limits: Optional[StoreLimits]) -> None:
        # The global lock serializes first-open races: two processes
        # may otherwise both see the single-file layout and fight over
        # the migration.
        with locked_file(self._global_lock()):
            sidecar = self.root.with_name(self.root.name + ".migrating")
            if self.root.is_file() or sidecar.exists():
                self._migrate_single_file()
            self.root.mkdir(parents=True, exist_ok=True)
        # A journal left by a GC pass that died mid-flight: finish its
        # plan before serving, so the store never runs with a cap
        # half-enforced.  (Resume is idempotent and cheap when the
        # journal is absent — the common case is one stat call.)
        from repro.server import store_gc

        store_gc.resume_pending(self)
        # Bootstrap the index once at open (a full shard scan only when
        # it is missing or corrupt) so the write path can stay purely
        # incremental — store() must never pay an all-shards read.
        self.load_index(verify=False)

    def _migrate_single_file(self) -> None:
        """Reshard a legacy single-file cache found at :attr:`root`.

        The legacy file is renamed aside first and deleted only after
        every shard write landed, so a crash mid-migration leaves
        either the sidecar or the shards — never neither.  (A leftover
        sidecar from a crashed migration is resumed on the next open;
        re-merging entries that already landed is idempotent, so a
        crash *between* shard writes is also safe.)  A source that is
        not valid JSON is damage, not data: it is quarantined and the
        store opens cold.  Valid JSON of another type is a healthy file
        named by mistake, so that still raises and is left in place.
        """
        path = self.root
        sidecar = path.with_name(path.name + ".migrating")
        source = path if path.is_file() else sidecar
        try:
            with open(source) as stream:
                payload = json.load(stream)
        except json.JSONDecodeError as exc:
            self._quarantine(source, f"bad JSON: {exc}")
            return
        except OSError as exc:
            raise SolverError(
                f"cannot migrate cache {source}: {exc}"
            ) from exc
        if payload.get("type") != SINGLE_FILE_TYPE:
            raise SolverError(
                f"{source} is not a portfolio cache "
                f"(type={payload.get('type')!r}); refusing to migrate"
            )
        if source is path:
            os.replace(path, sidecar)
        entries = payload.get("entries", {})
        self.root.mkdir(parents=True, exist_ok=True)
        with locked_file(self._store_lock()):
            self._merge(entries)
        sidecar.unlink()

    # -- persisted limits ----------------------------------------------
    def _persist_limits(self, limits: StoreLimits) -> None:
        """Record explicit limits so ``repro cache gc/stats`` (and any
        later opener that passes none) enforce the same policy."""
        atomic_write_json(
            self.config_path(),
            {
                "type": CONFIG_TYPE,
                "version": CONFIG_FORMAT_VERSION,
                "limits": limits.as_dict(),
            },
            sort_keys=True,
        )

    def _load_persisted_limits(self) -> Optional[StoreLimits]:
        path = self.config_path()
        try:
            with open(path) as stream:
                payload = json.load(stream)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError) as exc:
            # A torn config is damage like any other: quarantine it and
            # run unbounded until the next explicit configuration.
            if quarantine_file(path, f"bad store config: {exc}") is not None:
                self.quarantined += 1
            return None
        if payload.get("type") != CONFIG_TYPE or not isinstance(
            payload.get("limits"), dict
        ):
            if (
                quarantine_file(path, "not a store config")
                is not None
            ):
                self.quarantined += 1
            return None
        try:
            return StoreLimits.from_dict(payload["limits"])
        except SolverError:
            if (
                quarantine_file(path, "invalid store limits")
                is not None
            ):
                self.quarantined += 1
            return None

    # -- shard IO ------------------------------------------------------
    def _read_shard(
        self, shard: Path, *, quarantine: bool = True
    ) -> Optional[Dict[str, Dict[str, Any]]]:
        """One shard's ``{"entries": ..., "meta": ...}``; damage is
        quarantined, not fatal.

        Truncated/torn JSON, a non-shard payload, or a malformed
        ``entries`` field all mean the file is damaged (atomic writes
        make a *partial* shard impossible, but disks, manual edits, and
        chaos tests still produce garbage) — the bad file is moved
        aside via :func:`quarantine_file` and the shard reads cold.  A
        shard from a *newer* format version is healthy data this build
        can't parse: that still raises rather than destroying it.
        Version-1 shards simply have no ``meta`` map.

        Quarantine needs the store lock.  A reader without it passes
        ``quarantine=False`` and gets ``None`` for damage, then re-reads
        under the lock.
        """
        try:
            with open(shard) as stream:
                payload = json.load(stream)
        except FileNotFoundError:
            return {"entries": {}, "meta": {}}
        except json.JSONDecodeError as exc:
            return self._damaged(shard, f"bad JSON: {exc}", quarantine)
        except OSError as exc:
            raise SolverError(f"cannot load cache shard {shard}: {exc}") from exc
        if not isinstance(payload, dict) or payload.get("type") != SHARD_TYPE:
            kind = (
                payload.get("type") if isinstance(payload, dict) else None
            )
            return self._damaged(
                shard, f"not a cache shard (type={kind!r})", quarantine
            )
        if payload.get("version", 0) > SHARD_FORMAT_VERSION:
            raise SolverError(
                f"cache shard {shard} has version {payload['version']}, "
                f"newer than supported {SHARD_FORMAT_VERSION}"
            )
        entries = payload.get("entries")
        if not isinstance(entries, dict):
            return self._damaged(
                shard,
                f"entries is {type(entries).__name__}, not an object",
                quarantine,
            )
        meta = payload.get("meta")
        if not isinstance(meta, dict):
            meta = {}
        return {"entries": entries, "meta": meta}

    def _damaged(
        self, shard: Path, reason: str, quarantine: bool
    ) -> Optional[Dict[str, Dict[str, Any]]]:
        """What :meth:`_read_shard` returns for a damaged shard."""
        if not quarantine:
            return None
        self._quarantine(shard, reason)
        return {"entries": {}, "meta": {}}

    def _quarantine(self, shard: Path, reason: str) -> None:
        if quarantine_file(shard, reason) is not None:
            self.quarantined += 1

    def _write_shard(
        self,
        shard: Path,
        entries: Dict[str, Dict[str, Any]],
        meta: Dict[str, Dict[str, Any]],
    ) -> None:
        atomic_write_json(
            shard,
            {
                "version": SHARD_FORMAT_VERSION,
                "type": SHARD_TYPE,
                "entries": entries,
                "meta": {k: meta[k] for k in entries if k in meta},
            },
            indent=None,
        )
        # Chaos seam: truncate what was just written so the next read
        # exercises the quarantine path (one-shot, self-disarming).
        if faults.should_corrupt_shard_write():
            with open(shard, "w") as stream:
                stream.write('{"version": 1, "type": "portfolio_')

    def _merge(
        self, entries: Mapping[str, Dict[str, Any]]
    ) -> Dict[str, Dict[str, Any]]:
        """Under the store lock: merge fresh entries into their shards;
        returns their meta.

        Existing entries missing metadata (written by a version-1
        build) are stamped while the shard is open anyway — rewrites
        progressively upgrade the store without a migration pass.
        """
        by_shard: Dict[Path, Dict[str, Dict[str, Any]]] = {}
        for key, payload in entries.items():
            by_shard.setdefault(self.shard_path(key), {})[key] = payload
        written: Dict[str, Dict[str, Any]] = {}
        now = wall_now()
        for shard, fresh in sorted(by_shard.items()):
            data = self._read_shard(shard)
            merged = data["entries"]
            meta = data["meta"]
            for key in merged:
                if key not in meta and key not in fresh:
                    meta[key] = make_entry_meta(merged[key], now=now)
            for key, payload in fresh.items():
                merged[key] = payload
                meta[key] = make_entry_meta(payload, now=now)
                written[key] = meta[key]
            self._write_shard(shard, merged, meta)
        return written

    # -- read / write --------------------------------------------------
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        shard = self.shard_path(key)
        # No lock: shards change only by atomic replace, so this reads a
        # whole file.  Damage is re-read under the lock, where no writer
        # can replace the shard meanwhile, and quarantined there.
        data = self._read_shard(shard, quarantine=False)
        if data is None or not _intact(data, key):
            with locked_file(self._store_lock()):
                data = self._read_shard(shard)
                if not _intact(data, key):
                    self._quarantine_entry(
                        shard, data, key, "integrity hash mismatch"
                    )
                    return None
        payload = data["entries"].get(key)
        if payload is None:
            return None
        meta = data["meta"].get(key)
        if meta is not None and self.limits.expired(meta.get("c"), ttl_now()):
            return None  # past TTL: evictable, never servable
        # Stamps batch into the index on the next store()/sync_index()
        # instead of costing a write per read.
        self._touches[key] = ttl_now()
        return payload

    def _quarantine_entry(
        self,
        shard: Path,
        data: Dict[str, Dict[str, Any]],
        key: str,
        reason: str,
    ) -> None:
        """Move one damaged entry aside; the rest of the shard lives on.

        The caller holds the store lock.  The bad payload (with its
        claimed metadata) lands in a ``entry-*.corrupt-<ts>`` file for
        postmortems — same contract as :func:`quarantine_file`, scoped
        to one entry instead of torching its shard-mates.
        """
        payload = data["entries"].pop(key)
        meta = data["meta"].pop(key, None)
        quarantine_path = _claim_evidence_path(
            self.root, f"entry-{key[:16]}", ".json"
        )
        atomic_write_json(
            quarantine_path,
            {"key": key, "entry": payload, "meta": meta, "reason": reason},
            sort_keys=True,
        )
        self._write_shard(shard, data["entries"], data["meta"])
        self.integrity_failures += 1
        self.quarantined += 1
        log_key = f"{shard}#{key}"
        if log_key not in _QUARANTINE_LOGGED:
            _QUARANTINE_LOGGED.add(log_key)
            logger.warning(
                "quarantined corrupt cache entry %s from %s -> %s (%s)",
                key[:16],
                shard.name,
                quarantine_path.name,
                reason,
            )

    def store(
        self,
        entries: Mapping[str, Dict[str, Any]],
        dirty: Optional[Set[str]] = None,
    ) -> None:
        """Merge ``entries`` (restricted to ``dirty`` keys) into shards
        and log the new metadata + batched access stamps to the index,
        under one hold of the store lock; then enforce the store caps
        (which may trigger a GC pass, outside the lock)."""
        if dirty is not None:
            entries = {
                key: entries[key] for key in dirty if key in entries
            }
        if entries or self._touches:
            with locked_file(self._store_lock()):
                self._update_index(self._merge(entries))
        if self.limits.enabled() and self.limits.over_caps(
            self._approx_bytes, len(self._sizes)
        ):
            from repro.server.store_gc import run_gc

            # Non-blocking: if another process is already collecting,
            # its pass will bring the store under cap.
            run_gc(self, block=False)

    def sync_index(self) -> None:
        """Flush batched access stamps into the index (used at close)."""
        if self._touches:
            with locked_file(self._store_lock()):
                self._update_index({})

    # -- index ---------------------------------------------------------
    def _update_index(self, written: Dict[str, Dict[str, Any]]) -> None:
        """Under the store lock: log fresh meta, batched touches and the
        written shards' new stamps to the index.

        The write never parses or rewrites the snapshot: it stats the
        snapshot, takes in the records other writers appended since its
        last write, and appends its own in one write.  It folds only
        once the log holds more records than the snapshot has entries,
        which keeps a write O(1) amortised.

        Only the shards holding ``written`` keys are re-stamped.  A
        shard rewritten without an index update (a writer that died
        before this step, or an entry quarantined on read) thus keeps
        its stale stamp until ``load_index(verify=True)`` notices and
        rebuilds.  A missing or damaged index is rebuilt by a scan,
        which stamps every shard.
        """
        touches, self._touches = self._touches, {}
        records: List[Dict[str, Any]] = [
            dict(k=key, b=meta["b"], c=meta["c"], a=meta["a"], v=meta.get("v"))
            for key, meta in written.items()
        ]
        records.extend(dict(k=key, a=stamp) for key, stamp in touches.items())
        for shard in sorted({self.shard_path(key) for key in written}):
            stamp = self._shard_stamp(shard)
            records.append(dict(s=shard.name, z=stamp and list(stamp)))
        if not self._follow_index():
            self._rebuild(records)
            return
        self._append_log(records)
        if self._log_records > self._snapshot_entries:
            if self._fold() is None:
                self._rebuild(records)

    def _follow_index(self) -> bool:
        """Under the store lock: bring the counts up to the index on
        disk before appending to it.

        One ``stat`` each of the snapshot and the log tells whether
        another process folded or rebuilt the index since this one last
        looked (its snapshot, or the log it holds, is no longer the one
        at the path); then the counts start over from the snapshot.
        Either way the records appended since are read and counted.
        ``False`` when the snapshot is missing, or it or the log is
        damaged: the caller rebuilds by a scan.
        """
        try:
            snapshot_ino = os.stat(self.index_path()).st_ino
        except FileNotFoundError:
            return False
        log = self._log_stat()
        replaced = snapshot_ino != self._snapshot_ino or (
            self._log is not None
            and (log is None or log.st_ino != self._log_ino)
        )
        if replaced and self._reload() is None:
            return False
        return self._read_log(log) is not None

    def _fold(self) -> Optional[Dict[str, Any]]:
        """Under the store lock: the snapshot with the log applied.

        A non-empty log is folded: the snapshot is rewritten with its
        records and the log emptied, in that order — a crash between
        the two leaves records the snapshot already holds, and applying
        them again changes nothing.  ``None`` when the snapshot is
        missing, or it or the log is damaged (quarantined); the caller
        rebuilds from the shards.
        """
        payload = self._reload()
        if payload is None:
            return None
        records = self._read_log(self._log_stat())
        if records is None:
            return None
        if records:
            for record in records:
                _apply_record(payload, record)
            self._write_index(payload)
            self._empty_log()
            self._snapshot_entries = len(payload["entries"])
        return payload

    def _reload(self) -> Optional[Dict[str, Any]]:
        """Under the store lock: the snapshot at the path, with the
        counts started over from it (``None`` if missing or damaged)."""
        self._close_log()
        payload = self._read_index()
        if payload is not None:
            self._reset_counts(payload)
        return payload

    def _rebuild(
        self, records: Iterable[Dict[str, Any]] = ()
    ) -> Dict[str, Any]:
        """Under the store lock: the index rebuilt by a scan of the
        shards, plus ``records``.

        The log is emptied before the snapshot is written: a crash
        between the two leaves a stale snapshot, which
        ``load_index(verify=True)`` catches, never log records that
        bring back keys a GC pass removed.
        """
        payload = self._scan_for_index()
        for record in records:
            _apply_record(payload, record)
        self._empty_log()
        self._write_index(payload)
        self._reset_counts(payload)
        return payload

    def _read_index(self) -> Optional[Dict[str, Any]]:
        """The snapshot's payload, or ``None`` when missing or damaged
        (damage is quarantined; the caller rebuilds from shards).  The
        snapshot read is held open as the one the counts start from."""
        path = self.index_path()
        stream = None
        try:
            stream = open(path, "rb")
            payload = json.load(stream)
            reason = "not a cache index"
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:
            payload, reason = None, f"bad index: {exc}"
        if (
            not isinstance(payload, dict)
            or payload.get("type") != INDEX_TYPE
            or not isinstance(payload.get("entries"), dict)
        ):
            if stream is not None:
                stream.close()
            if quarantine_file(path, reason) is not None:
                self.quarantined += 1
            return None
        if payload.get("version", 0) > INDEX_FORMAT_VERSION:
            # Unlike shards, the index holds no unique data — a newer
            # index is simply ignored and rebuilt in this format.
            stream.close()
            return None
        self._hold_snapshot(stream)
        return payload

    def _write_index(self, payload: Dict[str, Any]) -> None:
        atomic_write_json(
            self.index_path(), payload, sort_keys=True, indent=None
        )
        self._hold_snapshot(open(self.index_path(), "rb"))

    def _hold_snapshot(self, stream: BinaryIO) -> None:
        if self._snapshot is not None:
            self._snapshot.close()
        self._snapshot = stream
        self._snapshot_ino = os.fstat(stream.fileno()).st_ino

    def _reset_counts(self, payload: Dict[str, Any]) -> None:
        """Counts from a snapshot, with none of the log applied yet."""
        self._sizes = {
            key: _entry_bytes(meta)
            for key, meta in payload["entries"].items()
        }
        self._approx_bytes = sum(self._sizes.values())
        self._snapshot_entries = len(self._sizes)
        self._log_end = 0
        self._log_records = 0

    def _count(self, record: Dict[str, Any]) -> None:
        if "b" in record:
            size = _entry_bytes(record)
            self._approx_bytes += size - self._sizes.get(record["k"], 0)
            self._sizes[record["k"]] = size

    # -- index log -----------------------------------------------------
    def _log_stat(self) -> Optional[os.stat_result]:
        try:
            return os.stat(self.index_log_path())
        except FileNotFoundError:
            return None

    def _log_handle(self) -> BinaryIO:
        """The index log, held open for reads and ``O_APPEND`` writes.

        The log's one writer: every append goes through this handle.
        Opening creates the file, so only an append opens a missing
        log — never opening the store.  Holding the log keeps its inode
        number unique while :meth:`_follow_index` compares it with the
        path's.
        """
        if self._log is None:
            self._log = open(self.index_log_path(), "a+b", buffering=0)
            self._log_ino = os.fstat(self._log.fileno()).st_ino
        return self._log

    def _close_log(self) -> None:
        if self._log is not None:
            self._log.close()
            self._log = None

    def _read_log(
        self, log: Optional[os.stat_result]
    ) -> Optional[List[Dict[str, Any]]]:
        """The records appended since this process last read the log
        (``log`` is its ``stat``), counted in; ``None`` if it is torn.

        A line that does not parse, a last line with no newline (a
        writer that died mid-append), or a log shorter than what was
        already read is damage like a torn index: the log and the
        snapshot are quarantined, and the caller rebuilds from the
        shards.
        """
        if log is None or log.st_size == self._log_end:
            return []
        data = b""
        if log.st_size > self._log_end:
            data = os.pread(
                self._log_handle().fileno(),
                log.st_size - self._log_end,
                self._log_end,
            )
        lines = data.split(b"\n")
        try:
            records = [json.loads(line) for line in lines[:-1]]
        except ValueError:
            records = None
        if not data or lines[-1] or records is None or not all(
            isinstance(record, dict) and set(record) in LOG_RECORD_FIELDS
            for record in records
        ):
            self._close_log()
            for path in (self.index_log_path(), self.index_path()):
                if quarantine_file(path, "torn index log") is not None:
                    self.quarantined += 1
            return None
        self._log_end += len(data)
        self._log_records += len(records)
        for record in records:
            self._count(record)
        return records

    def _append_log(self, records: List[Dict[str, Any]]) -> None:
        """Append ``records`` in one write.  The caller holds the store
        lock and has read the log to its end (:meth:`_follow_index`)."""
        data = "".join(
            json.dumps(record, separators=(",", ":")) + "\n"
            for record in records
        ).encode("utf-8")
        log = self._log_handle()
        log.write(data)
        self._log_end += len(data)
        self._log_records += len(records)
        for record in records:
            self._count(record)
        # Chaos seam: tear the record just appended, as a writer that
        # died mid-append would — the next reader must quarantine the
        # log and rebuild from the shards (one-shot).
        if faults.should_corrupt_index_write():
            last = len(json.dumps(records[-1], separators=(",", ":")))
            os.ftruncate(log.fileno(), self._log_end - last // 2)

    def _empty_log(self) -> None:
        """Empty the log in place: its inode stays, so every writer that
        holds it appends to the live log (a fold or rebuild changes the
        snapshot, which tells them to start over from it)."""
        try:
            os.truncate(self.index_log_path(), 0)
        except FileNotFoundError:
            pass
        self._log_end = 0
        self._log_records = 0

    # -- stamps and scans ----------------------------------------------
    @staticmethod
    def _shard_stamp(shard: Path) -> Optional[Tuple[int, int]]:
        """``(size, mtime_ns)`` of one shard, ``None`` if it is gone."""
        try:
            stat = shard.stat()
        except OSError:
            return None
        return (stat.st_size, stat.st_mtime_ns)

    def _shard_stamps(self) -> Dict[str, Tuple[int, int]]:
        """``{shard filename: (size, mtime_ns)}`` of every shard, for
        staleness checks.  It globs the root, so the steady-state write
        path never calls it."""
        stamps: Dict[str, Tuple[int, int]] = {}
        for shard in sorted(self.root.glob("shard-*.json")):
            stamp = self._shard_stamp(shard)
            if stamp is not None:
                stamps[shard.name] = stamp
        return stamps

    def _scan_for_index(self) -> Dict[str, Any]:
        """Under the store lock: the authoritative index payload, built
        by reading every shard; every shard is stamped once the reads
        are done."""
        entries: Dict[str, Dict[str, Any]] = {}
        for shard in sorted(self.root.glob("shard-*.json")):
            data = self._read_shard(shard)
            for key, payload in data["entries"].items():
                meta = data["meta"].get(key)
                if meta is None:
                    meta = {
                        "b": len(canonical_payload_bytes(payload)),
                        "c": 0,
                        "a": 0,
                        "v": None,
                    }
                entries[key] = {
                    "b": meta.get("b", 0),
                    "c": meta.get("c", 0),
                    "a": meta.get("a", 0),
                    "v": meta.get("v"),
                }
        return {
            "type": INDEX_TYPE,
            "version": INDEX_FORMAT_VERSION,
            "entries": entries,
            "shards": {
                name: list(stamp)
                for name, stamp in self._shard_stamps().items()
            },
        }

    def rebuild_index(self) -> Dict[str, Any]:
        """Rebuild the index from the shards (the recovery fallback)."""
        with locked_file(self._store_lock()):
            return self._rebuild()

    def load_index(self, *, verify: bool = False) -> Dict[str, Any]:
        """The index payload with the log folded in, rebuilt from shards
        when missing, corrupt, or (with ``verify=True``) stale against
        the shard files.

        Staleness means a writer crashed between its shard write and
        its index update, or a foreign process wrote shards without
        maintaining the index — either way the shards win.
        """
        with locked_file(self._store_lock()):
            payload = self._fold()
            if verify and payload is not None:
                recorded = {
                    name: tuple(stamp)
                    for name, stamp in payload.get("shards", {}).items()
                }
                if recorded != self._shard_stamps():
                    payload = None
            if payload is None:
                payload = self._rebuild()
        return payload

    def bytes_used(self) -> int:
        """Approximate store payload bytes (index-backed)."""
        return self._approx_bytes

    def entry_count(self) -> int:
        return len(self._sizes)

    # -- introspection -------------------------------------------------
    def keys(self) -> Set[str]:
        """Every key currently on disk (reads all shards; test/debug)."""
        found: Set[str] = set()
        with locked_file(self._store_lock()):
            for shard in sorted(self.root.glob("shard-*.json")):
                found.update(self._read_shard(shard)["entries"])
        return found

    def __len__(self) -> int:
        return len(self.keys())

    def __del__(self) -> None:
        # The held snapshot and log only pin their inode numbers: close
        # them with the tier rather than leave them to the collector,
        # which warns about unclosed files.
        for name in ("_snapshot", "_log"):
            handle = getattr(self, name, None)
            if handle is not None:
                handle.close()

    def __repr__(self) -> str:
        return (
            f"ShardedDiskTier({str(self.root)!r}, limits={self.limits})"
        )


def _intact(data: Dict[str, Dict[str, Any]], key: str) -> bool:
    """Is ``key``'s entry absent, legacy, or matching its hash?"""
    payload = data["entries"].get(key)
    meta = data["meta"].get(key)
    return payload is None or meta is None or verify_entry(payload, meta)


def _entry_bytes(meta: Any) -> int:
    return int(meta.get("b", 0) or 0) if isinstance(meta, dict) else 0


def _apply_record(payload: Dict[str, Any], record: Dict[str, Any]) -> None:
    """Apply one index-log record (see :data:`LOG_RECORD_FIELDS`)."""
    if "s" in record:
        stamps = payload.setdefault("shards", {})
        if record["z"] is None:
            stamps.pop(record["s"], None)
        else:
            stamps[record["s"]] = record["z"]
    elif "b" in record:
        payload["entries"][record["k"]] = {f: record[f] for f in "bcav"}
    else:
        slot = payload["entries"].get(record["k"])
        if slot is not None:
            slot["a"] = max(slot.get("a", 0) or 0, record["a"])
